"""The scenario protocol: pluggable workload shapes for one problem.

A :class:`Scenario` transforms a baseline :class:`~repro.core.problem.
MUAAProblem` into the workload a run should actually exercise -- slot
expansion, trajectory moves, diurnal arrival resampling -- and bundles
the result as a :class:`ScenarioRun`.  The contract every implementation
honours:

* ``realize`` is **pure with respect to its inputs**: the same problem
  object and seed always produce the same run (all randomness comes
  from dedicated :mod:`repro.seeding` streams, so enabling a scenario
  can never shift the draws of churn or chaos plans sharing the seed);
* the default :class:`SingleSlotStatic` is the **identity**: it returns
  the problem object itself, untransformed, with no move schedule --
  which is how the parity suite proves the scenario layer costs nothing
  when unused (byte-identical outputs, not just "close").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.problem import MUAAProblem

__all__ = ["Scenario", "ScenarioRun", "SingleSlotStatic"]


@dataclass(frozen=True)
class ScenarioRun:
    """One realized scenario: the problem to solve plus its dynamics.

    Attributes:
        problem: The (possibly transformed) problem instance.
        moves: Optional :class:`~repro.scenario.trajectory.MoveSchedule`
            of mid-episode customer relocations, keyed by arrival tick;
            ``None`` for static scenarios.  Moves are run state: the
            streaming layers apply them through
            :meth:`~repro.scenario.trajectory.MoveSchedule.relocate`
            and never touch the problem.
        scenario: Name of the scenario that produced this run.
    """

    problem: MUAAProblem
    moves: Optional[object] = None
    scenario: str = "single-slot-static"


class Scenario:
    """Base class for pluggable workloads (see ``docs/scenarios.md``).

    Subclasses override :meth:`realize`; ``name`` and ``description``
    feed the registry, the ``--scenario`` CLI flag, and the scenario
    card in ``repro info``.
    """

    #: Registry key (also the ``--scenario`` CLI value).
    name: str = "scenario"
    #: One-line summary shown in the ``repro info`` scenario card.
    description: str = ""

    def realize(self, problem: MUAAProblem, seed: int) -> ScenarioRun:
        """Transform ``problem`` into this scenario's workload."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}(name={self.name!r})"


class SingleSlotStatic(Scenario):
    """The identity scenario: the pre-refactor workload, unchanged.

    ``realize`` returns the *same* problem object (no copy, no
    transformation) and no move schedule, so every downstream layer
    takes exactly the code path it took before the scenario abstraction
    existed.  The parity suite pins this: under ``SingleSlotStatic``
    all tier-1 outputs are bitwise unchanged.
    """

    name = "single-slot-static"
    description = (
        "Default workload: static customers, one implicit ad slot per "
        "vendor, arrivals as generated (identity; byte-parity pinned)."
    )

    def realize(self, problem: MUAAProblem, seed: int) -> ScenarioRun:
        return ScenarioRun(problem=problem, moves=None, scenario=self.name)
