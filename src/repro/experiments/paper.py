"""One-call reproduction of the paper's full evaluation section.

:func:`reproduce_all` runs every figure experiment at a chosen scale,
writes the regenerated tables to a results directory, evaluates the
paper's qualitative shape claims on the regenerated series, and returns
a machine-checkable report.  This is what the ``repro reproduce`` CLI
command and the reproduction smoke test drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.figures import figure_by_number
from repro.experiments.measures import (
    dominance_fraction,
    monotone_nondecreasing,
    rise_then_fall,
)
from repro.experiments.report import full_report
from repro.experiments.sweep import SweepResult

#: The figure numbers of the paper's evaluation section (3-8) plus the
#: scenario figures (9-11: multi-slot, trajectory, diurnal).
ALL_FIGURES = (3, 4, 5, 6, 7, 8, 9, 10, 11)


@dataclass
class ShapeCheck:
    """One qualitative claim evaluated against regenerated data.

    Attributes:
        figure: Paper figure number.
        claim: Human-readable statement of the claim.
        passed: Whether the regenerated series satisfies it.
    """

    figure: int
    claim: str
    passed: bool


@dataclass
class ReproductionReport:
    """Outcome of a full-evaluation reproduction run.

    Attributes:
        results: Figure number -> regenerated sweep.
        checks: Every evaluated shape claim.
        output_dir: Where the tables were written (``None`` when not
            persisted).
    """

    results: Dict[int, SweepResult] = field(default_factory=dict)
    checks: List[ShapeCheck] = field(default_factory=list)
    output_dir: Optional[Path] = None

    @property
    def all_passed(self) -> bool:
        """Whether every shape claim held."""
        return all(check.passed for check in self.checks)

    def summary(self) -> str:
        """A printable pass/fail summary."""
        lines = ["Reproduction shape checks:"]
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{status}] fig{check.figure}: {check.claim}")
        passed = sum(1 for c in self.checks if c.passed)
        lines.append(f"  -> {passed}/{len(self.checks)} claims hold")
        return "\n".join(lines)


def _shape_claims(
    figure: int, result: SweepResult
) -> List[ShapeCheck]:
    """The paper's qualitative claims evaluated per figure."""
    rows = result.rows
    present = {row.algorithm for row in rows}
    checks: List[Tuple[str, bool]] = []
    # Universal claims: RECON dominates RANDOM almost everywhere, and
    # every utility-aware approach dominates the distance-only NEAREST.
    # Each is evaluated only when both sides ran (scenario figures may
    # sweep a panel subset, e.g. the streaming members for fig10).
    if {"RECON", "RANDOM"} <= present:
        fraction = dominance_fraction(rows, "RECON", "RANDOM")
        checks.append(
            ("RECON >= RANDOM at >=75% of settings",
             fraction is not None and fraction >= 0.75)
        )
    if "NEAREST" in present:
        for name in ("GREEDY", "RECON", "ONLINE"):
            if name not in present:
                continue
            fraction = dominance_fraction(rows, name, "NEAREST")
            checks.append(
                (f"{name} >= NEAREST at >=75% of settings",
                 fraction is not None and fraction >= 0.75)
            )
    if figure in (3, 5, 6, 7, 8):
        for name in ("GREEDY", "RECON"):
            checks.append(
                (f"{name} utility non-decreasing in the swept parameter",
                 monotone_nondecreasing(rows, name, tolerance=0.02))
            )
    if figure == 4:
        checks.append(
            ("GREEDY/RECON never lose from larger radii",
             monotone_nondecreasing(rows, "GREEDY", tolerance=0.02)
             and monotone_nondecreasing(rows, "RECON", tolerance=0.02))
        )
        checks.append(
            ("RANDOM's radius curve is unimodal (rise then fall)",
             rise_then_fall(rows, "RANDOM"))
        )
    return [
        ShapeCheck(figure=figure, claim=claim, passed=passed)
        for claim, passed in checks
    ]


def reproduce_all(
    scale_multiplier: float = 1.0,
    seed: int = 42,
    figures: Sequence[int] = ALL_FIGURES,
    output_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    shards: int = 1,
) -> ReproductionReport:
    """Run the whole evaluation section and check its claims.

    Args:
        scale_multiplier: Multiplies each figure's default scale
            (1.0 = benchmark-default sizes; 10.0 approaches paper-size
            workloads).
        seed: Master seed.
        figures: Which figures to run.
        output_dir: When given, write each figure's tables as
            ``<dir>/fig<N>.txt``.
        progress: Optional callback receiving one status line per
            figure.
        jobs: Worker processes for the sweep points within each
            figure (default 1, serial; results identical either way).
        shards: Spatial shard count forwarded to every panel run
            (``1`` keeps every algorithm on its unsharded path).
    """
    report = ReproductionReport()
    if output_dir is not None:
        report.output_dir = Path(output_dir)
        report.output_dir.mkdir(parents=True, exist_ok=True)
    for number in figures:
        runner, default_scale = figure_by_number(number)
        if progress is not None:
            progress(f"running figure {number} ...")
        result = runner(
            scale=default_scale * scale_multiplier,
            seed=seed,
            jobs=jobs,
            shards=shards,
        )
        report.results[number] = result
        report.checks.extend(_shape_claims(number, result))
        if report.output_dir is not None:
            path = report.output_dir / f"fig{number}.txt"
            path.write_text(full_report(result) + "\n", encoding="utf-8")
    return report
