"""Pieces shared by the fit and serve workloads."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile as an order statistic; ``nan`` when empty.

    No interpolation, so an ``inf`` (a request that was never answered)
    ranks above every answered one without turning the result into nan.
    """
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q,
                               method="inverted_cdf"))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else float("nan")


class SpreadSampler:
    """Timed repeats of an action at points spread over the whole run.

    The host's speed drifts between states that last seconds, so repeats
    timed in one block see one state and a run's median jumps with it.
    Instead the workload calls :meth:`poll` at points spread over its
    run (epoch ends, between fits, between ladder rungs); a poll runs the
    action once more whenever its repeats so far have taken less than
    ``share`` of the time since the sampler began.  The median of
    :attr:`times` then sees the same mix of host states as the rest of
    the run.  ``setup_s`` is taken this way, and so are the serving
    workload's fits.

    :meth:`start` runs the first repeats back to back and returns the
    last one's result; every other result goes to ``collect`` (to close
    it, or to keep it).
    """

    def __init__(self, action: Callable[[], object], share: float = 0.1,
                 collect: Optional[Callable[[object], None]] = None):
        self.action = action
        self.share = share
        self.collect = collect or (lambda result: None)
        self.times: List[float] = []
        self.began = perf_counter()

    def _timed(self):
        began = perf_counter()
        result = self.action()
        self.times.append(perf_counter() - began)
        return result

    def start(self, count: int = 3):
        """``count`` repeats back to back; returns the last one's result."""
        result = self._timed()
        for _ in range(count - 1):
            self.collect(result)
            result = self._timed()
        return result

    def due(self) -> bool:
        return sum(self.times) < self.share * (perf_counter() - self.began)

    def poll(self) -> float:
        """Maybe one more repeat; returns the seconds this call took."""
        began = perf_counter()
        if self.due():
            self.collect(self._timed())
        return perf_counter() - began

    def catch_up(self) -> None:
        """Repeats until they have taken their share of the run."""
        while self.due():
            self.poll()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Check:
    """One check and its verdict.

    An ``output`` check judges what the program answered and decides the
    run's ``correct``; a ``measurement`` check judges whether the run's
    numbers measure the program (generator health) and marks the run
    invalid without calling its outputs wrong.
    """

    name: str
    ok: bool
    detail: str = ""
    kind: str = "output"


@dataclass
class RunResult:
    """What one workload run hands back to the entry point."""

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    checks: List[Check] = field(default_factory=list)
    #: Free-form extras stored in the run record (not printed as metrics).
    details: Dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks if c.kind == "output")

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks if c.kind == "measurement")
