"""Per-stage summaries of recorded traces (``repro obs summary``).

Works from either a live :class:`~repro.obs.recorder.Recorder` (its
spans) or a Chrome-trace JSON file written earlier with ``--trace``:
spans are grouped by name into *stages*, and each stage reports its
call count, total/mean wall time and p50/p95/p99 span durations --
per-customer decision latency lands in the ``stream.decision`` /
``broker.decision`` rows.

Percentiles use NumPy's default linear interpolation over the exact
recorded durations (traces keep every span, so no bucketing error).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.obs.trace import Span


@dataclass(frozen=True)
class StageSummary:
    """Aggregate statistics of one span name.

    Attributes:
        name: Span/stage name.
        count: Number of recorded spans (instant events excluded).
        total: Summed duration in seconds.
        mean: Mean duration.
        p50: Median duration.
        p95: 95th-percentile duration.
        p99: 99th-percentile duration.
        lanes: Distinct lanes that recorded the stage.
    """

    name: str
    count: int
    total: float
    mean: float
    p50: float
    p95: float
    p99: float
    lanes: int


def spans_from_chrome_trace(path: Union[str, Path]) -> List[Span]:
    """Re-read the spans of a ``--trace`` Chrome-trace JSON file.

    Only complete (``"X"``) events carry durations; instants are
    returned with ``end=None``.  Lane names are recovered from the
    ``thread_name`` metadata events.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    events = data.get("traceEvents", data if isinstance(data, list) else [])
    lane_names: Dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            lane_names[int(event.get("tid", 0))] = event["args"]["name"]
    spans: List[Span] = []
    for event in events:
        ph = event.get("ph")
        if ph not in ("X", "i"):
            continue
        args = dict(event.get("args", {}))
        start = float(event.get("ts", 0.0)) / 1e6
        duration = float(event.get("dur", 0.0)) / 1e6 if ph == "X" else None
        spans.append(
            Span(
                name=event["name"],
                span_id=str(args.pop("span_id", "")),
                parent_id=args.pop("parent_id", None),
                start=start,
                end=None if duration is None else start + duration,
                lane=lane_names.get(int(event.get("tid", 0)), "main"),
                args=args,
            )
        )
    return spans


def summarize_spans(spans: Sequence[Span]) -> List[StageSummary]:
    """Group spans by name, most total time first (ties by name)."""
    groups: Dict[str, List[Span]] = {}
    for span in spans:
        if span.end is None:
            continue
        groups.setdefault(span.name, []).append(span)
    summaries: List[StageSummary] = []
    for name, members in groups.items():
        durations = np.array([span.duration for span in members])
        summaries.append(
            StageSummary(
                name=name,
                count=len(members),
                total=float(durations.sum()),
                mean=float(durations.mean()),
                p50=float(np.quantile(durations, 0.50)),
                p95=float(np.quantile(durations, 0.95)),
                p99=float(np.quantile(durations, 0.99)),
                lanes=len({span.lane for span in members}),
            )
        )
    summaries.sort(key=lambda s: (-s.total, s.name))
    return summaries


def breaker_transition_counts(
    spans: Sequence[Span],
) -> Dict[str, Dict[str, int]]:
    """Per-dependency breaker transitions found on a timeline.

    Counts the ``resilience.breaker_transition`` instant events by
    dependency and target state -- the trace-side twin of
    :attr:`~repro.resilience.ResilienceStats.breaker_counts`.
    """
    counts: Dict[str, Dict[str, int]] = {}
    for span in spans:
        if span.name != "resilience.breaker_transition":
            continue
        dep = str(span.args.get("dependency", "?"))
        to_state = str(span.args.get("to_state", "?"))
        per = counts.setdefault(dep, {})
        per[to_state] = per.get(to_state, 0) + 1
    return counts


def _fmt(seconds: float) -> str:
    """Human-scale seconds (ms/us below 1s)."""
    if seconds >= 1.0:
        return f"{seconds:9.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:9.3f}ms"
    return f"{seconds * 1e6:9.1f}us"


def summary_table(spans: Sequence[Span]) -> str:
    """A printable per-stage time/percentile table.

    When the timeline carries circuit-breaker transition events, a
    per-dependency breaker section follows the stage table.
    """
    summaries = summarize_spans(spans)
    breakers = breaker_transition_counts(spans)
    if not summaries:
        if breakers:
            return "\n".join(_breaker_lines(breakers))
        return "(trace contains no closed spans)"
    lanes = len({span.lane for span in spans})
    width = max(len(s.name) for s in summaries)
    width = max(width, len("stage"))
    header = (
        f"{'stage':{width}s} {'count':>7s} {'lanes':>5s} {'total':>10s} "
        f"{'mean':>10s} {'p50':>10s} {'p95':>10s} {'p99':>10s}"
    )
    lines = [f"trace: {len(spans)} spans across {lanes} lane(s)", header,
             "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.name:{width}s} {s.count:7d} {s.lanes:5d} "
            f"{_fmt(s.total)} {_fmt(s.mean)} {_fmt(s.p50)} "
            f"{_fmt(s.p95)} {_fmt(s.p99)}"
        )
    if breakers:
        lines.append("")
        lines.extend(_breaker_lines(breakers))
    return "\n".join(lines)


def _breaker_lines(counts: Dict[str, Dict[str, int]]) -> List[str]:
    lines = ["breaker transitions (into state):"]
    for dep in sorted(counts):
        detail = "  ".join(
            f"{state}={counts[dep][state]}"
            for state in ("open", "half_open", "closed")
            if state in counts[dep]
        )
        lines.append(f"  {dep}: {detail}")
    return lines
