"""Optimizers and learning-rate schedules.

The paper trains everything with SGD + momentum.  Two schedules matter:

* :class:`StepLR` — the paper's "divide by 10 at 50% and 75% of budget".
* :class:`SnapshotCyclicLR` — cosine-annealed warm restarts (Loshchilov &
  Hutter 2017), the engine of the Snapshot Ensemble baseline.
"""

from repro.optim.sgd import SGD
from repro.optim.schedules import (
    ConstantLR,
    CosineAnnealingLR,
    LRSchedule,
    SnapshotCyclicLR,
    StepLR,
)

__all__ = [
    "SGD",
    "LRSchedule",
    "ConstantLR",
    "StepLR",
    "CosineAnnealingLR",
    "SnapshotCyclicLR",
]
