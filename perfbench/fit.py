"""EDDE fits: timing, output checks and the traced per-layer breakdown.

The fit workloads run ``run_method("edde", build_scenario(name))`` — the
library's own entry point — as many times as fit in ``--seconds`` (at
least once); :func:`fit_metrics` says which statistic each metric takes.
The serving workloads reuse :func:`timed_fit` and :func:`fit_checks` for
the ensemble they serve.

End-to-end numbers come from untraced fits.  Step latencies are read by a
:class:`StepClock` callback, which only stamps the clock at engine
events the fit fires anyway.  A traced run (:func:`traced_fit`) adds the
op profiler and wrappers around each layer's public seam.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.core.boosting as boosting
from repro.core.callbacks import Callback
from repro.core.losses import diversity_driven_loss
from repro.data.loader import DataLoader
from repro.experiments.protocol import build_scenario
from repro.experiments.runner import make_edde_config, run_method
from repro.nn import accuracy
from repro.nn.losses import predict_probs
from repro.nn.module import Module
from repro.ops import profile_ops, workspace
from repro.optim.sgd import SGD
from repro.tensor import Tensor

from perfbench.catalogue import REGISTERED_OPS
from perfbench.common import (Check, RunResult, SpreadSampler, median,
                              peak_rss_mb, percentile)
from perfbench.spans import Tracer, self_times



@dataclass(frozen=True)
class FitSpec:
    scenario: str
    #: A fitted ensemble below this test accuracy counts as a failed run
    #: (chance is 0.1 on c10, 0.5 on imdb).
    accuracy_floor: float


SPECS: Dict[str, FitSpec] = {
    "fit-c10-resnet": FitSpec("c10-resnet", accuracy_floor=0.8),
    "fit-imdb-textcnn": FitSpec("imdb-textcnn", accuracy_floor=0.9),
}

#: Spans that contain the named layers rather than being one; their self
#: time is what the trace leaves unattributed.
CONTAINER_SPANS = ("core.engine.fit", "core.engine.round", "core.trainer.step")


# ----------------------------------------------------------------------
class StepClock(Callback):
    """Optimiser-step latencies, per epoch, from engine events alone.

    A step runs from the previous step's ``on_batch_end`` (or the epoch's
    start) to its own.  The first step of each round is not timed: it
    also carries the round's member construction.
    """

    def __init__(self) -> None:
        self.epochs: List[List[float]] = [[]]
        self._mark: Optional[float] = None

    def on_round_start(self, engine, round_index: int) -> None:
        self._mark = None

    def on_epoch_end(self, engine, model, epoch: int, logger) -> None:
        self.epochs.append([])
        self._mark = perf_counter()

    def on_batch_end(self, engine, model, batch_index: int,
                     loss: float) -> None:
        now = perf_counter()
        if self._mark is not None:
            self.epochs[-1].append(now - self._mark)
        self._mark = now


@dataclass
class FitOutcome:
    seconds: float
    result: object                  # repro.core.results.FitResult
    epoch_steps_s: List[List[float]]   # step latencies, one list per epoch


class EpochPause(Callback):
    """Calls ``pause()`` at every epoch end and adds up its seconds.

    The set-up sampler runs here; the fit's time excludes the pauses,
    and the step clock (after this in the callback list) restarts only
    once a pause is over.
    """

    def __init__(self, pause: Callable[[], float]) -> None:
        self.pause = pause
        self.seconds = 0.0

    def on_epoch_end(self, engine, model, epoch: int, logger) -> None:
        self.seconds += self.pause()


def timed_fit(fit: Callable[[list], object],
              pause: Optional[Callable[[], float]] = None) -> FitOutcome:
    """Run ``fit(callbacks)`` once, untraced except for a step clock.

    ``pause``, if given, is called at every epoch end (see
    :class:`EpochPause`); its seconds are not counted as the fit's.
    """
    clock = StepClock()
    pauses = EpochPause(pause or (lambda: 0.0))
    began = perf_counter()
    result = fit([pauses, clock])
    return FitOutcome(perf_counter() - began - pauses.seconds, result,
                      [steps for steps in clock.epochs if steps])


def fingerprint(result) -> str:
    """Digest of every α and every member weight, in member order."""
    digest = hashlib.sha256()
    digest.update(np.asarray(result.ensemble.alphas, np.float64).tobytes())
    for model in result.ensemble.models:
        for name, array in sorted(model.state_dict().items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def fit_checks(outcomes: List[FitOutcome], test, floor: Optional[float],
               store: Optional[Path], key: str) -> List[Check]:
    """Fingerprint stability, Eq. 16 rows, accuracy floor.

    The fingerprint must be identical across the run's fits and equal to
    the one an earlier run of the same key stored in ``store``.  At the
    smoke size (``floor=None``) accuracy is near chance and not checked.
    """
    result = outcomes[0].result
    prints = {fingerprint(o.result) for o in outcomes}
    stored = None
    if store is not None and len(prints) == 1:
        records = json.loads(store.read_text()) if store.exists() else {}
        stored = records.get(key)
        if stored is None:
            records[key] = next(iter(prints))
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(records, indent=1, sort_keys=True))
    same = len(prints) == 1 and (stored is None or stored in prints)
    detail = (f"{len(outcomes)} fit(s), {len(prints)} distinct; "
              + ("no earlier record" if stored is None
                 else "matches earlier run" if same else
                 "differs from earlier run"))
    checks = [Check("fit fingerprint identical per seed", same, detail)]

    probs = result.ensemble.predict_probs(test.x)
    rows_ok = bool(np.isfinite(probs).all() and
                   np.allclose(probs.sum(axis=1), 1.0, atol=1e-5))
    direct = accuracy(probs, test.y)
    checks.append(Check(
        "Eq. 16 rows sum to 1, cache == direct",
        rows_ok and direct == result.final_accuracy,
        f"direct accuracy {direct:.6f}, fit {result.final_accuracy:.6f}"))
    if floor is None:
        checks.append(Check("accuracy above floor", True,
                            "smoke size: floor not applied"))
    else:
        checks.append(Check("accuracy above floor",
                            result.final_accuracy >= floor,
                            f"{result.final_accuracy:.4f} >= {floor}"))
    return checks


def fit_metrics(outcomes: List[FitOutcome],
                planned_rounds: int) -> Dict[str, Tuple[float, str]]:
    """End-to-end numbers of a fit workload; a step is its "request".

    An epoch (38 steps on both fits) is a fit's window: ``p50_ms`` and
    ``p99_ms`` are medians over epochs of the epoch's median and p99 (its
    slowest) step.  ``max_rate_rps`` is the sustained step rate, steps
    per second of step time; ``fit_s`` the median of the run's fits.
    """
    epochs = [steps for o in outcomes for steps in o.epoch_steps_s]
    steps = [step for epoch in epochs for step in epoch]
    members = len(outcomes[0].result.ensemble)
    return {
        "fit_s": (median([o.seconds for o in outcomes]), "s"),
        "ensemble_accuracy": (float(outcomes[0].result.final_accuracy),
                              "fraction"),
        "p50_ms": (median([percentile(e, 50) for e in epochs]) * 1e3, "ms"),
        "p99_ms": (median([percentile(e, 99) for e in epochs]) * 1e3, "ms"),
        "max_rate_rps": (len(steps) / sum(steps), "1/s"),
        "answered_share": (members / planned_rounds, "fraction"),
    }


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, state_dir: Optional[Path] = None,
        source_digest: str = "") -> RunResult:
    spec = SPECS[workload]

    def set_up():
        scenario = build_scenario(spec.scenario, rng=seed)
        scenario.factory.build(rng=seed)
        return scenario

    # The fits run on the first set-ups' scenario; later set-ups are
    # timed at epoch ends (untraced runs only) and dropped.
    sampler = SpreadSampler(set_up)
    scenario = sampler.start()

    overrides = ({"num_models": 2, "first_epochs": 1, "later_epochs": 1}
                 if smoke else {})
    planned = make_edde_config(scenario, **overrides).num_models

    def fit(callbacks):
        return run_method("edde", scenario, rng=seed, callbacks=callbacks,
                          **overrides)

    details: Dict = {}
    layers: Dict[str, Tuple[float, str]] = {}
    if trace:
        outcome, layers, table, spans = traced_fit(fit)
        outcomes = [outcome]
        details["self_times"] = table
        details["spans"] = spans
    else:
        outcomes = []
        started = perf_counter()
        while not outcomes or perf_counter() - started < seconds:
            outcomes.append(timed_fit(fit, pause=sampler.poll))
    details["fit_s_each"] = [o.seconds for o in outcomes]
    details["setup_s_each"] = sampler.times

    store = state_dir / "fingerprints.json" if state_dir else None
    key = f"{workload}|seed={seed}|smoke={int(smoke)}|src={source_digest}"
    checks = fit_checks(outcomes, scenario.split.test,
                        None if smoke else spec.accuracy_floor, store, key)
    if trace:
        metrics = dict(layers)
        metrics["fit_s"] = (outcomes[0].seconds, "s")
    else:
        metrics = {"setup_s": (median(sampler.times), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        metrics.update(fit_metrics(outcomes, planned))
    return RunResult(attempted=planned * len(outcomes),
                     failed=sum(planned - len(o.result.ensemble)
                                for o in outcomes),
                     metrics=metrics, checks=checks, details=details)


# ----------------------------------------------------------------------
class _TracedFit(Callback):
    """Engine callback + wrappers that turn one fit into layer spans."""

    def __init__(self, tracer: Tracer, profiler) -> None:
        self.tracer = tracer
        self.profiler = profiler
        self.op_seconds_inside = 0.0   # op time within forward/backward
        self.round_started: Optional[float] = None
        self.steps: List[float] = []

    # -- engine events ---------------------------------------------------
    def on_round_start(self, engine, round_index: int) -> None:
        self.tracer.begin("core.engine.round")
        self.round_started = perf_counter()

    def on_round_end(self, engine, outcome) -> None:
        if self.tracer.current() == "core.engine.round":
            self.tracer.end()

    def on_batch_end(self, engine, model, batch_index: int,
                     loss: float) -> None:
        if self.tracer.current() == "core.trainer.step":
            self.steps.append(self.tracer.end())

    # -- the loader: each next() opens a step ----------------------------
    def loader_iter(self, original):
        tracer = self.tracer

        def traced_iter(loader):
            inner = original(loader)
            while True:
                if self.round_started is not None:
                    # Round start -> first batch: member build + transfer.
                    tracer.record("core.engine.hatch", self.round_started,
                                  perf_counter(), tracer.current_id())
                    self.round_started = None
                tracer.begin("core.trainer.step")
                tracer.begin("data.loader.next")
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.discard()
                    tracer.discard()
                    return
                tracer.end()
                yield item

        return traced_iter

    def with_op_seconds(self, original, name: str,
                        skip_inside: Tuple[str, ...] = ()):
        """A span that also counts the op seconds spent inside it."""
        tracer, total = self.tracer, self.profiler.total_seconds

        def traced(*args, **kwargs):
            if tracer.current() in skip_inside:
                return original(*args, **kwargs)
            before = total()
            tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end()
                self.op_seconds_inside += total() - before

        return traced


def traced_fit(fit):
    """One fit under the op profiler and layer wrappers.

    Returns the outcome, the per-layer metrics, the self-time table and
    the spans.  Every wrapper is removed before this returns.
    """
    tracer = Tracer()
    with profile_ops() as profiler:
        probe = _TracedFit(tracer, profiler)
        try:
            tracer.patch(Module, "__call__", probe.with_op_seconds(
                Module.__call__, "nn.forward",
                skip_inside=("nn.forward", "nn.predict_probs")))
            tracer.patch(Tensor, "backward", probe.with_op_seconds(
                Tensor.backward, "tensor.backward"))
            tracer.wrap(SGD, "step", "optim.sgd.step")
            tracer.patch(DataLoader, "__iter__",
                         probe.loader_iter(DataLoader.__iter__))
            tracer.wrap_function(predict_probs, "nn.predict_probs",
                                 skip_inside=("nn.predict_probs",))
            tracer.wrap_function(diversity_driven_loss, "core.loss")
            for name in ("similarity_per_sample", "bias_per_sample",
                         "update_sample_weights", "model_weight",
                         "initial_model_weight"):
                tracer.wrap_function(getattr(boosting, name), "core.boosting",
                                     skip_inside=("core.boosting",))
            tracer.begin("core.engine.fit")
            outcome = timed_fit(lambda callbacks: fit(callbacks + [probe]))
            tracer.end()
        finally:
            tracer.restore()
        summary = profiler.summary()
        op_total = profiler.total_seconds()

    fit_s = outcome.seconds
    forward, backward = tracer.total("nn.forward"), tracer.total(
        "tensor.backward")
    layers: Dict[str, Tuple[float, str]] = {
        "core.engine.hatch_s": (tracer.total("core.engine.hatch"), "s"),
        "core.trainer.steps": (float(len(probe.steps)), "count"),
        "core.trainer.step_ms.p50": (percentile(probe.steps, 50) * 1e3, "ms"),
        "core.boosting_s": (tracer.total("core.boosting"), "s"),
        "core.loss_s": (tracer.total("core.loss"), "s"),
        "nn.forward_s": (forward, "s"),
        "tensor.backward_s": (backward, "s"),
        "nn.predict_probs_s": (tracer.total("nn.predict_probs"), "s"),
        "tensor.dispatch_overhead_s": (
            forward + backward - probe.op_seconds_inside, "s"),
        "optim.sgd.step_s": (tracer.total("optim.sgd.step"), "s"),
        "data.loader.next_s": (tracer.total("data.loader.next"), "s"),
        "ops.calls": (float(sum(r["forward_calls"] + r["backward_calls"]
                                for r in summary.values())), "count"),
        "ops.alloc_mb": (sum(r["output_bytes"] for r in summary.values())
                         / 1e6, "MB"),
        "ops.workspace.pooled_mb": (workspace.pooled_bytes() / 1e6, "MB"),
        "ops.coverage": (op_total / fit_s, "fraction"),
    }
    other_fwd = other_bwd = 0.0
    for op, row in summary.items():
        if op in REGISTERED_OPS:
            continue
        other_fwd += row["forward_seconds"]
        other_bwd += row["backward_seconds"]
    for op in REGISTERED_OPS:
        row = summary.get(op, {})
        layers[f"ops.{op}.fwd_s"] = (row.get("forward_seconds", 0.0), "s")
        layers[f"ops.{op}.bwd_s"] = (row.get("backward_seconds", 0.0), "s")
    layers["ops.other.fwd_s"] = (other_fwd, "s")
    layers["ops.other.bwd_s"] = (other_bwd, "s")

    table = self_times(tracer.spans)
    unattributed = sum(table.get(name, {}).get("self_s", 0.0)
                       for name in CONTAINER_SPANS)
    layers["trace.attributed_share"] = (1.0 - unattributed / fit_s,
                                        "fraction")
    return outcome, layers, table, tracer.spans
