"""Online streaming substrate: arrival orders and the simulator."""

from repro.stream.arrivals import adversarial_order, by_arrival_time, random_order
from repro.stream.metrics import (
    LatencyProfile,
    budget_utilisation,
    fault_conditioned_latency,
    latency_profile,
    resilience_summary,
    utilisation_summary,
)
from repro.stream.simulator import (
    OnlineAsOffline,
    OnlineSimulator,
    StreamResult,
)

__all__ = [
    "adversarial_order",
    "by_arrival_time",
    "random_order",
    "LatencyProfile",
    "budget_utilisation",
    "fault_conditioned_latency",
    "latency_profile",
    "resilience_summary",
    "utilisation_summary",
    "OnlineAsOffline",
    "OnlineSimulator",
    "StreamResult",
]
