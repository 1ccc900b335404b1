"""Serving workloads: open-loop Poisson traffic into ``ServingPipeline``.

One process generates the load with two client threads: a *sender* that
submits each request when it is due (never waiting for answers — an open
loop), and a *collector* that waits for the tickets in submission order
and stamps each completion.  A request's latency runs from when it was
*due*, so a stall also charges the requests queued behind it.

A run first fits the ensemble it serves (EDDE over T = 8 MLPs of the
``serve-load`` harness's shape, on a seeded Gaussian-mixture task; the
fit is repeated before, between and after the phases for ``fit_s``),
then times two phases on one pipeline:

1. the **fixed-rate phase** at the workload's offered rate for
   ``--seconds`` seconds: ``p50_ms``, ``p99_ms`` and ``answered_share``;
2. the **rate ladder** (:func:`climb`): short rungs of rising offered
   rate; ``max_rate_rps`` is the goodput of the highest rung with p99
   within the latency limit, no refusals or failures and no growing
   backlog.

A traced run has only the fixed-rate phase, with wrappers around the
serving layers (see :func:`install_serving_wrappers`).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from time import perf_counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import EDDEConfig, EDDETrainer
from repro.data.dataset import Dataset
from repro.models import ModelFactory
from repro.models.mlp import MLP
from repro.serving.errors import Overloaded
from repro.serving.executor import MemberExecutor
from repro.serving.members import ServingMember
from repro.serving.service import InferenceService, ServiceConfig
from repro.serving.transport import PipelineConfig, ServingPipeline

from perfbench.common import (Check, RunResult, SpreadSampler, median,
                              peak_rss_mb, percentile)
from perfbench.fit import FitOutcome, fit_checks, timed_fit
from perfbench.spans import Tracer, self_times

LATENCY_LIMIT_MS = 50.0
#: A fixed-rate phase is invalid when the sender's p99 lateness exceeds
#: this share of the latency limit: its numbers would measure the
#: generator.  It is then sent again, up to ``PHASE_ATTEMPTS`` times in
#: all; a run whose last attempt is still late is marked invalid.
GENERATOR_SHARE = 0.2
PHASE_ATTEMPTS = 2
#: The served ensemble: T MLPs of the ``serve-load`` harness's shape.
ENSEMBLE_SIZE = 8
INPUT_DIM, NUM_CLASSES, HIDDEN = 16, 10, (32,)
ACCURACY_FLOOR = 0.8
#: Share of the run's time spent re-fitting the served ensemble, and the
#: fits in the block before serving; ``fit_s`` is the median of the fits.
FIT_SHARE = 0.1
FIT_BLOCK = 5
PARITY_SAMPLE = 64
PAYLOAD_POOL = 256

OK, FAILED, REFUSED = 0, 1, 2


@dataclass(frozen=True)
class ServeSpec:
    rows: Tuple[int, ...]       # row counts, drawn uniformly per request
    rate: float                 # fixed offered rate (requests/s)


SPECS: Dict[str, ServeSpec] = {
    "serve-uniform": ServeSpec(rows=(8,), rate=1000.0),
}

#: The offered-rate ladder: rung ``k`` offers ``rate * LADDER_STEP**k``;
#: rung 0 is the fixed-rate phase itself.
LADDER_STEP = 1.08
#: The climb visits every ``COARSE``-th rung until one fails, then the
#: rungs in between, so finding the edge costs a handful of rungs.
COARSE = 4
LADDER_RANGE = (-16, 40)
#: ``p50_ms`` and ``p99_ms`` are taken over the requests of the quietest
#: third of the fixed-rate phase's 0.25 s windows (see ``quiet_latency_ms``).
WINDOW_S = 0.25
QUIET_SHARE = 1 / 3
#: Attempts per ladder rung before it counts as failed.
RUNG_ATTEMPTS = 3


# ----------------------------------------------------------------------
class Traffic:
    """A seeded open-loop schedule: due offsets and payload choices."""

    def __init__(self, spec: ServeSpec, rate: float, seconds: float,
                 rng: np.random.Generator, pools: Dict[int, np.ndarray]):
        count = max(1, int(rng.poisson(rate * seconds)))
        self.due = np.sort(rng.uniform(0.0, seconds, size=count))
        self.rows = rng.choice(np.asarray(spec.rows), size=count)
        self.slot = rng.integers(0, PAYLOAD_POOL, size=count)
        self.pools = pools

    def __len__(self) -> int:
        return len(self.due)

    def payload(self, i: int) -> np.ndarray:
        return self.pools[int(self.rows[i])][int(self.slot[i])]


@dataclass
class Phase:
    """Client-side record of one open-loop phase."""

    rate: float
    seconds: float
    due_s: np.ndarray           # per request, from the phase start
    latency_ms: np.ndarray      # per request; inf when failed or refused
    lateness_ms: np.ndarray     # actual send - due, per request
    outcome: np.ndarray         # OK / FAILED / REFUSED per request
    backlog: int                # requests unanswered when sending ended
    answers: List[Optional[np.ndarray]]

    @property
    def refused(self) -> int:
        return int((self.outcome == REFUSED).sum())

    @property
    def failed(self) -> int:
        return int((self.outcome == FAILED).sum())

    @property
    def p99_ms(self) -> float:
        return percentile(self.latency_ms, 99)

    @property
    def goodput(self) -> float:
        """Answered requests per second of the phase."""
        return float((self.outcome == OK).sum()) / self.seconds

    def quiet_latency_ms(self) -> np.ndarray:
        """Latencies of the requests due in the phase's quiet windows.

        The phase is cut into ``WINDOW_S`` windows by due time; the
        ``QUIET_SHARE`` of windows with the lowest median latency are the
        quiet ones.  This is the host-noise rule of METRICS.md: the host
        alternates between a fast state and a ~1.6x slower one, and the
        quiet windows measure the program in the fast state.
        """
        count = max(1, int(round(self.seconds / WINDOW_S)))
        slot = np.minimum((self.due_s / self.seconds * count).astype(int),
                          count - 1)
        windows = [self.latency_ms[slot == w] for w in range(count)
                   if (slot == w).any()]
        windows.sort(key=lambda window: percentile(window, 50))
        keep = max(1, int(np.ceil(len(windows) * QUIET_SHARE)))
        return np.concatenate(windows[:keep])

    def passes(self) -> bool:
        """Meets the limit: p99, no refusals or failures, no backlog."""
        return (self.p99_ms <= LATENCY_LIMIT_MS and self.refused == 0 and
                self.failed == 0 and
                self.backlog <= max(8, self.rate * LATENCY_LIMIT_MS / 1e3))


def run_phase(pipeline, traffic: Traffic, rate: float,
              seconds: float) -> Phase:
    """Send ``traffic`` on schedule; collect answers on a second thread."""
    n = len(traffic)
    done = np.full(n, np.nan)
    sent = np.empty(n)
    outcome = np.zeros(n, dtype=np.int8)
    answers: List[Optional[np.ndarray]] = [None] * n
    handoff: "queue.SimpleQueue" = queue.SimpleQueue()

    def collect() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            i, ticket = item
            try:
                answers[i] = ticket.wait(timeout=60.0).probs
            except Exception:  # noqa: BLE001 - any failure fails the request
                outcome[i] = FAILED
            done[i] = perf_counter()

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    start = perf_counter() + 0.005
    due = start + traffic.due
    try:
        for i in range(n):
            delay = due[i] - perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = perf_counter()
            try:
                ticket = pipeline.submit(traffic.payload(i))
            except Overloaded:
                outcome[i] = REFUSED
                continue
            except Exception:  # noqa: BLE001
                outcome[i] = FAILED
                continue
            handoff.put((i, ticket))
        send_end = perf_counter()
    finally:
        handoff.put(None)
        collector.join()
    answered = outcome == OK
    latency = np.where(answered, (done - due) * 1e3, np.inf)
    backlog = int((answered & (done > send_end)).sum())
    return Phase(rate=rate, seconds=seconds, due_s=traffic.due,
                 latency_ms=latency,
                 lateness_ms=(sent - due) * 1e3, outcome=outcome,
                 backlog=backlog, answers=answers)


def climb(judge, base_passes: bool,
          max_rungs: Optional[int] = None) -> Optional[int]:
    """Highest passing ladder rung, or ``None`` when none passes.

    ``judge(k)`` runs rung ``k`` and says whether it passed; rung 0 (the
    fixed-rate phase) was judged already.  Coarse steps go up from a
    passing rung 0 (down from a failing one) until the verdict flips;
    then the rungs between the last pass and the first failure are run
    in order.  ``max_rungs`` caps the number of rungs run.
    """
    low, high = LADDER_RANGE
    remaining = max_rungs if max_rungs is not None else high - low

    def run(k: int) -> bool:
        nonlocal remaining
        remaining -= 1
        return judge(k)

    if base_passes:
        passed, k = 0, COARSE
        while k <= high and remaining > 0 and run(k):
            passed, k = k, k + COARSE
        failed = k
    else:
        failed, k = 0, -COARSE
        while True:
            if k < low or remaining <= 0:
                return None
            if run(k):
                break
            failed, k = k, k - COARSE
        passed = k
    for k in range(passed + 1, min(failed, high + 1)):
        if remaining <= 0 or not run(k):
            break
        passed = k
    return passed


# ----------------------------------------------------------------------
def mixture_split(seed: int, train_size: int = 1200, test_size: int = 600):
    """A seeded Gaussian-mixture task: ``NUM_CLASSES`` means in R^16."""
    rng = np.random.default_rng(np.random.SeedSequence([0x313D, int(seed)]))
    means = rng.normal(size=(NUM_CLASSES, INPUT_DIM))

    def draw(count: int, name: str) -> Dataset:
        y = rng.integers(0, NUM_CLASSES, size=count)
        x = means[y] + rng.normal(size=(count, INPUT_DIM))
        return Dataset(x.astype(np.float32), y, NUM_CLASSES, name=name)

    return draw(train_size, "mixture-train"), draw(test_size, "mixture-test")


def fit_members(train, test, seed: int, smoke: bool, callbacks):
    """EDDE over the serving MLP (the architecture of ``serve-load``)."""
    factory = ModelFactory(MLP, input_dim=INPUT_DIM, num_classes=NUM_CLASSES,
                           hidden=HIDDEN)
    epochs = (1, 1) if smoke else (4, 2)
    config = EDDEConfig(num_models=ENSEMBLE_SIZE, first_epochs=epochs[0],
                        later_epochs=epochs[1], lr=0.05, batch_size=32,
                        gamma=0.1, beta=0.5)
    return EDDETrainer(factory, config).fit(train, test, rng=seed,
                                            callbacks=callbacks)


def _build(ensemble, spec: ServeSpec, pools):
    """Service build, pipeline start and warm-up: the timed set-up."""
    service = InferenceService(ensemble, ServiceConfig())
    pipeline = ServingPipeline(service, PipelineConfig()).start()
    for rows in spec.rows:
        for slot in range(16):
            pipeline.predict(pools[rows][slot])
    return service, pipeline


class AnswerAudit:
    """Screens each phase's answers when it ends; keeps a parity sample.

    Every answer must have its request's row count, be finite and have
    rows summing to 1.  Screened answers are dropped, so memory does not
    grow with the number of ladder rungs; a seeded sample is kept and
    compared byte for byte with solo ``service.predict`` at the end.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.screened = 0
        self.bad = 0
        self.sample: List[Tuple[np.ndarray, np.ndarray]] = []

    def screen(self, phase: Phase, plan: Traffic) -> None:
        answered = [(i, probs) for i, probs in enumerate(phase.answers)
                    if probs is not None]
        for i, probs in answered:
            if probs.shape != (int(plan.rows[i]), NUM_CLASSES) or \
                    not np.isfinite(probs).all() or \
                    not np.allclose(probs.sum(axis=1), 1.0, atol=1e-4):
                self.bad += 1
        self.screened += len(answered)
        picks = self.rng.choice(len(answered), replace=False,
                                size=min(PARITY_SAMPLE, len(answered)))
        self.sample += [(plan.payload(answered[k][0]), answered[k][1])
                        for k in picks]
        phase.answers = []

    def checks(self, service) -> List[Check]:
        picks = self.rng.choice(len(self.sample), replace=False,
                                size=min(PARITY_SAMPLE, len(self.sample)))
        mismatched = 0
        for k in picks:
            x, probs = self.sample[int(k)]
            solo = service.predict(x).probs
            if solo.dtype != probs.dtype or not np.array_equal(solo, probs):
                mismatched += 1
        return [Check("answers finite, rows sum to 1", self.bad == 0,
                      f"{self.bad} bad of {self.screened}"),
                Check("batched == solo predict (byte for byte)",
                      mismatched == 0 and len(picks) > 0,
                      f"{mismatched} differ of {len(picks)} sampled")]


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, state_dir: Optional[Path] = None,
        source_digest: str = "") -> RunResult:
    spec = SPECS[workload]
    rng = np.random.default_rng(np.random.SeedSequence(
        [0x5E12E, sorted(SPECS).index(workload), int(seed)]))
    train, test = mixture_split(seed)
    pools = {rows: test.x[rng.integers(0, len(test), size=(PAYLOAD_POOL,
                                                             rows))]
             for rows in spec.rows}

    # The ensemble being served is fitted here, untraced in every run:
    # a block of fits before serving, fits between ladder rungs and
    # the rest after serving (see ``FIT_SHARE``); fit_s is their median.
    # Set-ups are timed after fits and before ladder rungs.
    def fit_once() -> FitOutcome:
        return timed_fit(lambda callbacks: fit_members(
            train, test, seed, smoke, callbacks))

    def keep(outcome: FitOutcome) -> None:
        fits.append(outcome)
        setups.poll()

    fits = [fit_once()]
    setups = SpreadSampler(
        lambda: _build(fits[0].result.ensemble, spec, pools),
        collect=lambda built: built[1].close())
    service, pipeline = setups.start()
    refits = SpreadSampler(fit_once, share=FIT_SHARE, collect=keep)

    audit = AnswerAudit(rng)
    details: Dict = {"setup_s_each": setups.times,
                     "fixed_phase_lateness_ms": []}
    try:
        keep(refits.start(count=FIT_BLOCK))
        plan = Traffic(spec, spec.rate, seconds, rng, pools)
        # A phase whose sender ran late measured the generator, not the
        # program: it is sent again, on the same schedule.
        for _ in range(PHASE_ATTEMPTS):
            if trace:
                before = pipeline.stats()
                tracer = Tracer()
                probe = install_serving_wrappers(tracer, pipeline)
                try:
                    fixed = run_phase(pipeline, plan, spec.rate, seconds)
                finally:
                    tracer.restore()
            else:
                fixed = run_phase(pipeline, plan, spec.rate, seconds)
            audit.screen(fixed, plan)
            lateness_p99 = percentile(fixed.lateness_ms, 99)
            details["fixed_phase_lateness_ms"].append(lateness_p99)
            if lateness_p99 <= GENERATOR_SHARE * LATENCY_LIMIT_MS:
                break
        if trace:
            layers = serving_layers(tracer, probe, before, pipeline.stats())
            details["spans"] = tracer.spans
            details["self_times"] = self_times(tracer.spans)
        ladder: Dict[int, Phase] = {0: fixed}
        attempts: List[Tuple[int, Phase]] = [(0, fixed)]
        if not trace:
            rung_seconds = max(0.2, seconds / 10.0)

            def attempt(k: int) -> bool:
                rate = spec.rate * LADDER_STEP ** k
                time.sleep(0.1)     # let the previous rung's queue drain
                setups.poll()
                refits.poll()
                rung_plan = Traffic(spec, rate, rung_seconds, rng, pools)
                rung = run_phase(pipeline, rung_plan, rate, rung_seconds)
                audit.screen(rung, rung_plan)
                attempts.append((k, rung))
                if rung.passes() or k not in ladder:
                    ladder[k] = rung
                return rung.passes()

            def judge(k: int) -> bool:
                # A failing rung is run again: a slow spell of the shared
                # host should not end the climb.
                return any(attempt(k) for _ in range(RUNG_ATTEMPTS))

            # Rung 0 failing in the fixed-rate phase gets the same further
            # attempts as any other rung before the climb goes down.
            best = climb(judge, fixed.passes() or judge(0),
                         max_rungs=2 if smoke else None)
        stats = pipeline.stats()
    finally:
        pipeline.close()

    refits.catch_up()
    details["fit_s_each"] = [f.seconds for f in fits]
    store = state_dir / "fingerprints.json" if state_dir else None
    checks = fit_checks(fits, test, None if smoke else ACCURACY_FLOOR, store,
                        f"{workload}|seed={seed}|smoke={int(smoke)}"
                        f"|src={source_digest}")
    checks += audit.checks(service)
    checks.append(Check("pipeline ledger conserved", stats.conserved,
                        str(stats)))
    limit = GENERATOR_SHARE * LATENCY_LIMIT_MS
    checks.append(Check("generator on time", lateness_p99 <= limit,
                        f"sender p99 lateness {lateness_p99:.3f} ms "
                        f"(limit {limit:g} ms, attempt "
                        f"{len(details['fixed_phase_lateness_ms'])})",
                        kind="measurement"))

    attempted = len(fixed.outcome)
    failed = fixed.failed + fixed.refused
    details.update({
        "generator_lateness_ms": {"p50": percentile(fixed.lateness_ms, 50),
                                  "p99": lateness_p99},
        "whole_phase_ms": {"p50": percentile(fixed.latency_ms, 50),
                           "p99": fixed.p99_ms},
        "ladder": [{"rung": k, "rate": r.rate, "requests": len(r.outcome),
                    "p99_ms": r.p99_ms, "refused": r.refused,
                    "failed": r.failed, "backlog": r.backlog,
                    "passes": r.passes()} for k, r in attempts],
        "pipeline_stats": vars(stats),
    })
    if trace:
        metrics = dict(layers)
        metrics["p50_ms"] = (percentile(fixed.quiet_latency_ms(), 50), "ms")
    else:
        top = ladder.get(best)
        quiet = fixed.quiet_latency_ms()
        metrics = {
            "setup_s": (median(setups.times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "fit_s": (median([f.seconds for f in fits]), "s"),
            "ensemble_accuracy": (float(fits[0].result.final_accuracy),
                                  "fraction"),
            "p50_ms": (percentile(quiet, 50), "ms"),
            "p99_ms": (percentile(quiet, 99), "ms"),
            "max_rate_rps": (top.goodput if top is not None else 0.0, "1/s"),
            "answered_share": (1.0 - failed / attempted, "fraction"),
        }
    return RunResult(attempted=attempted, failed=failed, metrics=metrics,
                     checks=checks, details=details)


# ----------------------------------------------------------------------
class _BatchProbe:
    """What the process-hook wrapper saw: queue waits and batch shapes."""

    def __init__(self) -> None:
        self.waits: List[float] = []
        self.requests: List[int] = []
        self.rows: List[int] = []


def install_serving_wrappers(tracer: Tracer, pipeline) -> _BatchProbe:
    """Wrap the serving layers' public seams; undone by ``restore``."""
    tracer.wrap(ServingPipeline, "submit", "serving.transport.submit")
    tracer.wrap(InferenceService, "validate", "serving.validation.validate")
    tracer.wrap(InferenceService, "finish", "serving.service.finish")
    tracer.wrap(MemberExecutor, "run", "serving.executor.run")
    tracer.wrap(ServingMember, "predict", "serving.members.predict")

    probe = _BatchProbe()
    batcher = pipeline.batcher
    process = batcher.process
    clock = batcher.clock
    traced = tracer.wrapper(process, "serving.scheduler.process")

    def observed(stacked, batch):
        now = clock()
        probe.waits.extend(now - pending.enqueued for pending in batch)
        probe.requests.append(len(batch))
        probe.rows.append(len(stacked))
        return traced(stacked, batch)

    tracer.patch(batcher, "process", observed)
    return probe


def serving_layers(tracer: Tracer, probe: _BatchProbe, before,
                   after) -> Dict[str, Tuple[float, str]]:
    def p50_us(name):
        return percentile(tracer.durations(name), 50) * 1e6

    run_ms = np.asarray(tracer.durations("serving.executor.run")) * 1e3
    predict_ms = np.asarray(tracer.durations("serving.members.predict")) * 1e3
    waits_ms = np.asarray(probe.waits) * 1e3
    return {
        "serving.transport.submit_us.p50": (
            p50_us("serving.transport.submit"), "us"),
        "serving.validation.validate_us.p50": (
            p50_us("serving.validation.validate"), "us"),
        "serving.service.finish_us.p50": (
            p50_us("serving.service.finish"), "us"),
        "serving.scheduler.queue_wait_ms.p50": (
            percentile(waits_ms, 50), "ms"),
        "serving.scheduler.queue_wait_ms.p99": (
            percentile(waits_ms, 99), "ms"),
        "serving.scheduler.batches": (float(len(probe.requests)), "count"),
        "serving.scheduler.batch_requests.mean": (
            float(np.mean(probe.requests)) if probe.requests else 0.0,
            "requests"),
        "serving.scheduler.batch_rows.mean": (
            float(np.mean(probe.rows)) if probe.rows else 0.0, "rows"),
        "serving.executor.run_ms.p50": (percentile(run_ms, 50), "ms"),
        "serving.executor.run_ms.p99": (percentile(run_ms, 99), "ms"),
        "serving.executor.busy_s": (float(run_ms.sum() / 1e3), "s"),
        "serving.members.predict_ms.p50": (percentile(predict_ms, 50), "ms"),
        "serving.members.busy_s": (float(predict_ms.sum() / 1e3), "s"),
        "serving.transport.completed": (
            float(after.completed - before.completed), "count"),
        "serving.transport.failed": (
            float(after.failed - before.failed), "count"),
        "serving.transport.shed": (float(after.shed - before.shed), "count"),
    }
