"""Multi-seed replication as a thin grid over the ``seed`` factor.

Every accuracy in the paper's tables is a single training run; at the
scaled-down budgets of this reproduction, single-seed differences of
±1-2 points are within noise (EXPERIMENTS.md).  :func:`run_replicated`
and :func:`compare_replicated` are the smallest possible grids — one
method (or several) × the seed list, executed in memory with rich
results retained — and return a :class:`ReplicatedResult` per method:
mean ± sample std across seeds, computed with the same statistics
(:mod:`~repro.experiments.grid.aggregate`) as every grid aggregate, so
claims like "EDDE beats Snapshot" can be checked with error bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.results import FitResult
from repro.experiments.grid.aggregate import (
    sample_std,
    standard_error,
    z_screen,
)
from repro.experiments.grid.executor import run_grid
from repro.experiments.grid.runners import scenario_scope
from repro.experiments.grid.spec import GridSpec
from repro.experiments.protocol import Scenario

_SCOPE = "replicate-scenario"


@dataclass
class ReplicatedResult:
    """Aggregate of one method across seeds."""

    method: str
    accuracies: List[float] = field(default_factory=list)
    member_averages: List[float] = field(default_factory=list)
    results: List[FitResult] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        """Sample standard deviation (``ddof=1``); 0.0 for n < 2."""
        return sample_std(self.accuracies)

    @property
    def stderr(self) -> float:
        return standard_error(self.accuracies)

    def summary(self) -> str:
        return (f"{self.method}: {self.mean:.4f} ± {self.std:.4f} "
                f"(n={len(self.accuracies)})")


def significantly_better(a: ReplicatedResult, b: ReplicatedResult,
                         z: float = 1.0) -> bool:
    """Whether ``a``'s mean exceeds ``b``'s by ``z`` combined stderrs.

    The :func:`~repro.experiments.grid.aggregate.z_screen` of the grid's
    significance matrix, with its guard: a side with fewer than 2 seeds
    has no spread estimate, so the pair is never called significant.
    """
    if len(a.accuracies) < 2 or len(b.accuracies) < 2:
        return False
    return z_screen(a.mean, a.stderr, b.mean, b.stderr, z=z)


def _replicate_grid(methods: Sequence[str], seeds: Sequence[int],
                    overrides: dict) -> GridSpec:
    return GridSpec(
        name="replicate",
        factors={"method": list(methods), "scenario": [_SCOPE],
                 "seed": list(seeds)},
        base=dict(overrides),
        checkpoint=False,
    )


def run_replicated(method: str, scenario: Scenario,
                   seeds: Sequence[int] = (0, 1, 2),
                   **overrides) -> ReplicatedResult:
    """Fit ``method`` once per seed and aggregate final accuracies."""
    return compare_replicated([method], scenario, seeds=seeds,
                              **overrides)[method]


def compare_replicated(methods: Sequence[str], scenario: Scenario,
                       seeds: Sequence[int] = (0, 1, 2),
                       **overrides) -> Dict[str, ReplicatedResult]:
    """Replicate several methods on one scenario (shared seed list)."""
    spec = _replicate_grid(methods, seeds, overrides)
    with scenario_scope(_SCOPE, scenario):
        grid = run_grid(spec, keep_results=True)
    replicated = {method: ReplicatedResult(method=method)
                  for method in methods}
    for record in grid.records:
        if record.status != "done":
            raise RuntimeError(
                f"replication run {record.run_id} failed: {record.error}")
        entry = replicated[record.factors["method"]]
        entry.results.append(record.result)
        entry.accuracies.append(float(record.metrics["final_accuracy"]))
        entry.member_averages.append(
            float(record.metrics["average_member_accuracy"]))
        entry.method = record.meta.get("method_label", entry.method)
    return replicated
