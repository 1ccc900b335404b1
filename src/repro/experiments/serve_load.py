"""The serving load harness: arrival processes, tail latency, QPS.

EDDE's efficiency claim is about *training* cost; the serving cost of an
ensemble is T forward passes per request, and the ROADMAP's north star
("heavy traffic … as fast as the hardware allows") demands that the
serving stack amortise it.  This harness measures exactly that, Locust
style but deterministic, against the concurrent pipeline
(:mod:`repro.serving.transport`):

* **Closed loop** — C client threads in a submit→wait→repeat cycle over
  pre-generated payloads.  Real wall-clock timing (``perf_counter``):
  this is where QPS and the p50/p95/p99 latency percentiles come from.
* **Open loop** — an ``open``, ``ramp`` or ``burst`` arrival profile
  replayed on a :class:`~repro.serving.faults.ManualClock` by
  :func:`~repro.experiments.load_engine.replay`, with members that cost
  no virtual time.  Same seed, same batch compositions, same queueing
  delays (none longer than the window): batching *policy* is a
  reproducible, testable quantity.

Every run also answers a probe set twice — solo through
``service.predict`` and batched through the pipeline — and records
byte-for-byte equality: the throughput win must never cost bit-parity.

Members are freshly initialised MLPs (deterministic per seed): serving
cost depends on architecture and member count, not on the weights'
training history, and skipping training keeps the harness seconds-fast
at CI scale.

``repro serve-load`` and ``benchmarks/bench_serving.py`` both drive
:func:`run_load_suite` — a T × {batching on, off} sweep — and archive
``results/BENCH_serving.json``; the registered ``serving_load`` grid
runner makes single cells declarable grid cells.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis import format_table
from repro.experiments.load_engine import (
    arrival_times,
    build_mlp_service,
    build_pipeline,
    latency_summary,
    make_payloads,
    replay,
)
from repro.serving.faults import ManualClock
from repro.serving.service import InferenceService

__all__ = [
    "LoadConfig",
    "LoadResult",
    "render_load_suite",
    "run_load_suite",
    "run_serve_load",
]


@dataclass
class LoadConfig:
    """One load-harness cell: ensemble, traffic shape, pipeline knobs."""

    ensemble_size: int = 8         # T — members serving each request
    input_dim: int = 16
    num_classes: int = 10
    hidden: tuple = (32,)
    requests: int = 256            # total timed requests (closed loop)
    rows: int = 8                  # rows per request payload
    clients: int = 16              # closed-loop concurrency
    warmup: int = 16               # untimed warmup requests
    arrival: str = "closed"        # "closed" | "open" | "ramp" | "burst"
    rate: float = 2000.0           # open-loop mean arrivals/second
    #: ``arrival="ramp"``: the mean rate sweeps linearly from ``rate``
    #: to ``rate_end`` across the run (the saturation-finding profile).
    rate_end: Optional[float] = None
    #: ``arrival="burst"``: arrivals come only during the on-phase of a
    #: ``burst_period_s`` duty cycle; ``burst_duty`` is the on fraction.
    burst_period_s: float = 0.05
    burst_duty: float = 0.5
    batching: bool = True
    max_batch_rows: int = 128
    max_wait_ms: float = 5.0
    queue_depth: int = 1024
    workers: Optional[int] = None  # member pool size (None: default)
    probe_requests: int = 16       # bit-parity probe set size
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival not in ("closed", "open", "ramp", "burst"):
            raise ValueError(f"arrival must be one of 'closed', 'open', "
                             f"'ramp', 'burst', got {self.arrival!r}")
        if self.requests < 1 or self.rows < 1 or self.clients < 1:
            raise ValueError("requests, rows and clients must be >= 1")
        if self.arrival == "burst" and not 0 < self.burst_duty <= 1:
            raise ValueError(f"burst_duty must be in (0, 1], "
                             f"got {self.burst_duty}")
        if self.arrival == "burst" and self.burst_period_s <= 0:
            raise ValueError(f"burst_period_s must be positive, "
                             f"got {self.burst_period_s}")


@dataclass
class LoadResult:
    """One cell's measurements, JSON-able."""

    config: Dict
    seed: int
    arrival: str
    batching: bool
    requests: int
    seconds: float                 # timed-phase wall seconds (closed loop)
    qps: float
    latency_ms: Dict[str, float]   # p50/p95/p99/mean
    batches_formed: int
    requests_batched: int
    mean_batch_requests: float
    parity_ok: bool                # batched == solo, byte for byte
    #: Open-loop only: simulated queueing-delay stats on the manual clock.
    open_loop: Dict = field(default_factory=dict)

    def to_payload(self) -> Dict:
        return asdict(self)


# ----------------------------------------------------------------------
def _check_parity(config: LoadConfig, service: InferenceService,
                  rng: np.random.Generator) -> bool:
    """Solo vs micro-batched answers on a probe set, compared with ``==``."""
    probes = make_payloads(config, config.probe_requests, rng)
    solo = [service.predict(x).probs.copy() for x in probes]
    pipeline = build_pipeline(
        service, config, queue_depth=max(config.queue_depth, len(probes)))
    tickets = [pipeline.submit(x) for x in probes]
    while any(not ticket.done for ticket in tickets):
        pipeline.batcher.pump_once()
    batched = [pipeline.result(ticket).probs for ticket in tickets]
    pipeline.close()
    return all(np.array_equal(a, b) for a, b in zip(solo, batched))


# ----------------------------------------------------------------------
def _run_closed_loop(config: LoadConfig, service: InferenceService,
                     rng: np.random.Generator):
    """C threads in submit→wait→repeat; real-time QPS and percentiles."""
    payloads = make_payloads(config, config.requests + config.warmup, rng)
    warmup, timed = payloads[:config.warmup], payloads[config.warmup:]
    latencies: List[float] = []
    lock = threading.Lock()
    shares = np.array_split(np.arange(len(timed)), config.clients)

    with build_pipeline(service, config, workers=config.workers,
                        batching=config.batching) as pipeline:
        for x in warmup:
            pipeline.predict(x)

        def client(indices) -> None:
            mine = []
            for i in indices:
                begin = time.perf_counter()
                pipeline.predict(timed[i])
                mine.append(time.perf_counter() - begin)
            with lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=client, args=(share,),
                                    name=f"load-client-{n}")
                   for n, share in enumerate(shares) if len(share)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
        stats = (pipeline.batcher.batches_formed,
                 pipeline.batcher.requests_batched) \
            if pipeline.batcher else (0, 0)
    return latencies, seconds, stats


def _run_open_loop(config: LoadConfig, rng: np.random.Generator) -> Dict:
    """The arrival profile replayed on a manual clock: batching policy.

    Members cost no virtual time, so every queueing delay is the time a
    request waited for its batch to form — never more than the window.
    """
    clock = ManualClock()
    pipeline = build_pipeline(build_mlp_service(config, clock), config,
                              batching=config.batching)
    arrivals = arrival_times(
        config.arrival, config.requests, config.rate, rng,
        rate_end=config.rate_end, burst_period_s=config.burst_period_s,
        burst_duty=config.burst_duty)
    record = replay(pipeline, clock, arrivals,
                    make_payloads(config, config.requests, rng))
    pipeline.close()
    sizes = np.asarray(record.batches or [1], dtype=np.float64)
    return {
        "profile": config.arrival,
        "simulated_seconds": float(arrivals[-1]),
        "batch_size_mean": float(sizes.mean()),
        "batch_size_max": int(sizes.max()),
        "queueing_delay_ms": latency_summary(record.latencies()),
    }


def run_serve_load(config: LoadConfig) -> LoadResult:
    """Run one load cell; pure function of ``config`` (incl. its seed),
    up to the wall-clock timings the closed loop exists to measure."""
    rng = np.random.default_rng(
        np.random.SeedSequence([0x10AD5EED, int(config.seed)]))
    service = build_mlp_service(config)
    parity_ok = _check_parity(config, service, rng)

    open_stats: Dict = {}
    if config.arrival != "closed":
        open_stats = _run_open_loop(config, rng)

    latencies, seconds, (batches, batched) = _run_closed_loop(
        config, service, rng)
    return LoadResult(
        config=asdict(config), seed=config.seed, arrival=config.arrival,
        batching=config.batching, requests=len(latencies),
        seconds=float(seconds),
        qps=float(len(latencies) / seconds) if seconds > 0 else 0.0,
        latency_ms=latency_summary(latencies,
                                   ("p50", "p95", "p99", "mean")),
        batches_formed=batches, requests_batched=batched,
        mean_batch_requests=float(batched / batches) if batches else 0.0,
        parity_ok=bool(parity_ok),
        open_loop=open_stats,
    )


# ----------------------------------------------------------------------
def run_load_suite(ensemble_sizes: Sequence[int] = (1, 4, 8),
                   seed: int = 0, **overrides) -> Dict:
    """The benchmark sweep: T × {batching on, off} (+ one open-loop cell).

    Returns the ``BENCH_serving.json`` payload: per-cell QPS and latency
    percentiles, the batched-vs-solo speedup per T, and the aggregate
    bit-parity verdict.
    """
    cells = []
    speedups: Dict[str, float] = {}
    for size in ensemble_sizes:
        by_batching = {}
        for batching in (False, True):
            result = run_serve_load(LoadConfig(
                ensemble_size=int(size), batching=batching, seed=seed,
                **overrides))
            cells.append(result.to_payload())
            by_batching[batching] = result
        off, on = by_batching[False], by_batching[True]
        speedups[str(size)] = float(on.qps / off.qps) if off.qps else 0.0
    open_loop = run_serve_load(LoadConfig(
        ensemble_size=int(ensemble_sizes[-1]), arrival="open",
        batching=True, seed=seed, **overrides))
    cells.append(open_loop.to_payload())
    return {
        "harness": "serve-load",
        "seed": int(seed),
        "ensemble_sizes": [int(size) for size in ensemble_sizes],
        "cells": cells,
        "qps_speedup_batched": speedups,
        "parity_ok": bool(all(cell["parity_ok"] for cell in cells)),
    }


def render_load_suite(payload: Dict) -> str:
    """The sweep's cell table, batching speedups and parity verdict."""
    rows = [[str(cell["config"]["ensemble_size"]),
             "on" if cell["batching"] else "off", cell["arrival"],
             f"{cell['qps']:.0f}", f"{cell['latency_ms']['p50']:.2f}",
             f"{cell['latency_ms']['p95']:.2f}",
             f"{cell['latency_ms']['p99']:.2f}",
             f"{cell['mean_batch_requests']:.1f}",
             "ok" if cell["parity_ok"] else "VIOLATED"]
            for cell in payload["cells"]]
    table = format_table(
        ["T", "batching", "arrival", "QPS", "p50 ms", "p95 ms",
         "p99 ms", "reqs/batch", "parity"], rows)
    lines = [table, ""] + [
        f"batching speedup at T={size}: {value:.2f}x"
        for size, value in payload["qps_speedup_batched"].items()]
    lines.append(f"bit-parity (batched == solo): "
                 f"{'ok' if payload['parity_ok'] else 'VIOLATED'}")
    return "\n".join(lines) + "\n"
