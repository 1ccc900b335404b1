"""The virtual-time load engine behind every serving harness.

The load, overload and chaos harnesses
(:mod:`~repro.experiments.serve_load`,
:mod:`~repro.experiments.serve_overload`,
:mod:`~repro.experiments.serve_chaos`) are thin scenario adapters over
the one copy of each piece kept here: the MLP service and payload
builders, the arrival processes (every profile a Poisson process with
each gap drawn at the instantaneous rate), the pipeline construction,
:func:`replay` on a :class:`~repro.serving.faults.ManualClock`, and the
latency summary.

Configs are duck-typed: the service model is read from
``ensemble_size``, ``input_dim``, ``num_classes``, ``hidden``, ``rows``,
``max_batch_rows``, ``max_wait_ms``, ``queue_depth`` and ``seed``, which
both ``LoadConfig`` and ``OverloadConfig`` carry.  Nothing here depends
on host speed: a (config, seed) pair names every arrival, batch
composition and shed decision bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ensemble import Ensemble
from repro.models.factory import ModelFactory
from repro.models.mlp import MLP
from repro.serving.errors import ServiceUnavailable
from repro.serving.faults import ManualClock, SlowMember
from repro.serving.service import InferenceService, ServiceConfig
from repro.serving.transport import PipelineConfig, ServingPipeline

__all__ = [
    "Replay",
    "arrival_times",
    "build_mlp_service",
    "build_pipeline",
    "latency_summary",
    "make_payloads",
    "poisson_arrivals",
    "replay",
    "storm_arrivals",
]


# ----------------------------------------------------------------------
def build_mlp_service(config, clock=time.monotonic,
                      member_seconds: Optional[float] = None
                      ) -> InferenceService:
    """A T-member MLP service, deterministic in ``config.seed``.

    ``member_seconds`` wraps every member in a :class:`SlowMember` that
    burns that many seconds of ``clock`` per forward call (``clock``
    must then be a :class:`ManualClock`).
    """
    root = np.random.SeedSequence([0x5E24E10AD, int(config.seed)])
    streams = root.spawn(config.ensemble_size + 1)
    alpha_rng = np.random.default_rng(streams[-1])
    factory = ModelFactory(MLP, input_dim=config.input_dim,
                           num_classes=config.num_classes,
                           hidden=tuple(config.hidden))
    ensemble = Ensemble()
    for member in range(config.ensemble_size):
        ensemble.add(factory.build(rng=np.random.default_rng(
            streams[member])),
            alpha=float(alpha_rng.uniform(0.5, 1.5)))
    service = InferenceService(ensemble, ServiceConfig(clock=clock))
    if member_seconds is not None:
        for member in service.members:
            member.model = SlowMember(member.model, member_seconds,
                                      clock=clock)
    return service


def make_payloads(config, count: int,
                  rng: np.random.Generator) -> List[np.ndarray]:
    """``count`` float32 requests of ``config.rows`` × ``input_dim``."""
    return [rng.normal(size=(config.rows, config.input_dim))
            .astype(np.float32) for _ in range(count)]


def build_pipeline(service: InferenceService, config,
                   **knobs) -> ServingPipeline:
    """A pipeline over ``service`` with ``config``'s batching knobs.

    Members run inline (``workers=0``) unless ``knobs`` say otherwise;
    any other :class:`PipelineConfig` field may be set through
    ``knobs``.  Nothing pumps until ``start()`` — :func:`replay` drives
    ``pump_once`` itself.
    """
    return ServingPipeline(service, PipelineConfig(**{
        "max_batch_rows": config.max_batch_rows,
        "max_wait_ms": config.max_wait_ms,
        "queue_depth": config.queue_depth,
        "workers": 0, **knobs}))


# ----------------------------------------------------------------------
def poisson_arrivals(rng: np.random.Generator,
                     rate: Callable[[int, float], float],
                     count: Optional[int] = None,
                     horizon: float = math.inf) -> np.ndarray:
    """Poisson arrivals with each gap drawn at the instantaneous rate.

    ``rate(i, now)`` is the rate in force for the gap that ends at
    arrival ``i``, drawn at time ``now``.  Stops after ``count``
    arrivals or at the first arrival at or past ``horizon``.
    """
    times: List[float] = []
    now = 0.0
    while count is None or len(times) < count:
        now += float(rng.exponential(1.0 / rate(len(times), now)))
        if now >= horizon:
            break
        times.append(now)
    return np.asarray(times, dtype=np.float64)


def arrival_times(profile: str, count: int, rate: float,
                  rng: np.random.Generator,
                  rate_end: Optional[float] = None,
                  burst_period_s: float = 0.05,
                  burst_duty: float = 0.5) -> np.ndarray:
    """Draw ``count`` arrivals of one of the load profiles.

    * ``open``  — homogeneous Poisson at ``rate``;
    * ``ramp``  — the rate sweeps linearly from ``rate`` to ``rate_end``
      across the run — the profile the overload suite uses to walk a
      service into saturation;
    * ``burst`` — an on/off duty cycle: arrivals are drawn at ``rate``
      on a timeline that only the on-phases of each ``burst_period_s``
      period accrue (``burst_duty`` is the on fraction), so arrival
      order and count are preserved.
    """
    if profile == "ramp":
        end = rate if rate_end is None else rate_end
        rates = np.linspace(rate, float(end), count, dtype=np.float64)
        return poisson_arrivals(
            rng, lambda i, _now: max(rates[i], 1e-9), count=count)
    times = poisson_arrivals(rng, lambda _i, _now: rate, count=count)
    if profile == "burst":
        on = burst_period_s * burst_duty
        cycle, offset = np.divmod(times * burst_duty, on)
        times = cycle * burst_period_s + offset
    return times


def storm_arrivals(rate: float, multiplier: Callable[[float], float],
                   horizon_s: float, rng: np.random.Generator) -> np.ndarray:
    """Storm-modulated Poisson arrivals over ``[0, horizon_s)``.

    The instantaneous rate is ``rate × multiplier(now)`` — the chaos
    schedule's stacked storm multipliers — so storms multiply traffic
    inside their windows and nowhere else.
    """
    return poisson_arrivals(
        rng, lambda _i, now: rate * multiplier(now), horizon=horizon_s)


# ----------------------------------------------------------------------
@dataclass
class Replay:
    """What one virtual-time replay did, ticket by ticket."""

    #: (request index, arrival time, ticket) for every admitted request.
    tickets: List[Tuple[int, float, object]] = field(default_factory=list)
    #: (request index, arrival time, error code, retry_after) per shed.
    shed: List[Tuple[int, float, str, Optional[float]]] = field(
        default_factory=list)
    #: Requests drained by each batch the replay pumped, in order.
    batches: List[int] = field(default_factory=list)

    def completed(self):
        return [(index, arrive, ticket.wait(0))
                for index, arrive, ticket in self.tickets
                if ticket.done and not ticket.failed]

    def latencies(self) -> np.ndarray:
        return np.asarray(
            [prediction.latency for _, _, prediction in self.completed()],
            dtype=np.float64)


def replay(pipeline: ServingPipeline, clock: ManualClock,
           arrivals: np.ndarray, payloads: List[np.ndarray],
           unstall: Callable[[float], float] = lambda t: t) -> Replay:
    """Drive an arrival timeline through the pipeline in virtual time.

    Single-server event mechanics: before each arrival, every batch
    whose window has expired (or whose prefix is full) is pumped at its
    due instant — ``unstall`` may push a due time later (the chaos
    harness's pump-stall windows).  Serving advances the clock when the
    members are :class:`SlowMember`-wrapped, so a batch that runs past
    the next arrival leaves the clock there: that arrival is then
    *back-stamped* — submitted with the clock rewound to its true
    arrival time so its ``enqueued`` stamp, and every sojourn computed
    from it, matches the timeline — and the clock restored.  After the
    last arrival the queue drains, each batch at its own due instant.
    A pipeline without a batcher (``batching=False``) answers every
    submission inline.

    The pipeline must be built on ``clock`` with ``workers=0`` and not
    started with a background pump.
    """
    batcher = pipeline.batcher
    window = pipeline.config.max_wait_ms / 1000.0
    max_rows = pipeline.config.max_batch_rows
    payload_rows = int(len(payloads[0])) if len(payloads) else 0
    record = Replay()

    def next_due() -> Optional[float]:
        head = batcher.head_enqueued() if batcher is not None else None
        if head is None:
            return None
        due = head + window
        if batcher.depth() * payload_rows >= max_rows:
            due = min(due, max(clock.now, head))   # prefix full: form now
        return unstall(due)

    def pump(due: float) -> int:
        clock.now = max(clock.now, due)
        drained = batcher.pump_once()
        if drained:
            record.batches.append(drained)
        return drained

    for index, (arrive, x) in enumerate(zip(arrivals, payloads)):
        arrive = float(arrive)
        while clock.now < arrive:
            due = next_due()
            if due is None or due > arrive:
                break
            pump(due)
        resume = clock.now
        clock.now = arrive
        try:
            record.tickets.append((index, arrive, pipeline.submit(x)))
        except ServiceUnavailable as error:
            record.shed.append((index, arrive,
                                getattr(error, "code", "unavailable"),
                                getattr(error, "retry_after", None)))
        clock.now = max(resume, arrive)
    while True:
        due = next_due()
        if due is None or not pump(due):
            break                      # drained (or defensively: stuck)
    return record


# ----------------------------------------------------------------------
def latency_summary(seconds: Sequence[float],
                    stats: Sequence[str] = ("p50", "p99", "max"),
                    ) -> Dict[str, float]:
    """``stats`` (``pNN``, ``max``, ``mean``) of ``seconds``, in ms.

    Each statistic is taken in seconds and then scaled; an empty sample
    reports zeros.
    """
    sample = np.asarray(seconds, dtype=np.float64)

    def stat(name: str) -> float:
        if not sample.size:
            return 0.0
        if name == "max":
            value = sample.max()
        elif name == "mean":
            value = sample.mean()
        else:
            value = np.percentile(sample, float(name[1:]))
        return float(value * 1000)

    return {name: stat(name) for name in stats}
