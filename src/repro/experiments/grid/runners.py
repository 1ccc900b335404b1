"""Run executors: how one cell of the run table turns into metrics.

A *runner* is a registered callable ``fn(run, context) -> RunOutput``.
The default ``"method"`` runner resolves the run's scenario, fits the
run's ensemble method via :func:`repro.experiments.runner.run_method`
under PR 2's fault tolerance (per-run round checkpoints, engine-level
resume after a kill) and hands the :class:`~repro.core.results.FitResult`
to the run's metric collector.  ``"beta_probe"`` reproduces Fig. 5's
teacher/probe protocol one β per run, and the two beyond-paper ablation
variants from :mod:`repro.experiments.variants` are registered so Table
VI's extended cases are plain grid cells.

Per-run RNG derivation is the crux of shard-independence: every run's
generator is seeded from a :class:`numpy.random.SeedSequence` built out
of the grid name, the run's ``seed`` factor and its non-seed factor
assignment — never from the shard, worker or execution order — so a run
produces bit-identical results wherever and whenever it executes.
"""

from __future__ import annotations

import contextlib
import pathlib
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

import numpy as np

from repro.core.checkpointing import (
    CheckpointError,
    CheckpointManager,
    FaultTolerance,
    RetryPolicy,
)
from repro.experiments.grid.collectors import resolve_collector
from repro.experiments.grid.spec import GridSpec, RunSpec, stable_digest
from repro.experiments.protocol import Scenario, build_scenario
from repro.experiments.runner import run_method
from repro.experiments.variants import (
    run_edde_correlate_previous_model,
    run_edde_cumulative_weights,
)


@dataclass
class RunContext:
    """Execution environment the executor hands to a runner."""

    spec: GridSpec
    run_dir: Optional[pathlib.Path] = None   # per-run state (checkpoints)
    resume: bool = False                     # honour on-disk round checkpoints
    keep_result: bool = False                # retain the FitResult object


@dataclass
class RunOutput:
    """What a runner returns for one run."""

    metrics: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)
    result: Any = None                       # optional rich object (in-memory)


RunnerFn = Callable[[RunSpec, RunContext], RunOutput]

_RUNNERS: Dict[str, RunnerFn] = {}
_SCENARIOS: Dict[str, Callable[[int], Scenario]] = {}


def register_runner(name: str, fn: RunnerFn, replace: bool = False) -> None:
    if name in _RUNNERS and not replace:
        raise ValueError(f"runner {name!r} is already registered")
    _RUNNERS[name] = fn


def resolve_runner(name: str) -> RunnerFn:
    if name not in _RUNNERS:
        raise KeyError(f"unknown runner {name!r}; registered: "
                       f"{', '.join(sorted(_RUNNERS))}")
    return _RUNNERS[name]


def register_scenario(name: str, builder: Callable[[int], Scenario],
                      replace: bool = False) -> None:
    """Register a named scenario provider beyond the protocol's builders.

    ``builder(data_seed)`` must return a :class:`Scenario`.  Providers
    registered in the parent process are visible to forked shard workers;
    under a spawning start method, register them from the spec's
    ``runner_module`` so child processes re-register on import.
    """
    if name in _SCENARIOS and not replace:
        raise ValueError(f"scenario provider {name!r} is already registered")
    _SCENARIOS[name] = builder


@contextlib.contextmanager
def scenario_scope(name: str, scenario: Scenario) -> Iterator[None]:
    """Temporarily serve a prebuilt scenario object under ``name``.

    Used by :func:`~repro.experiments.grid.replicate.run_replicated` to
    grid over a caller-constructed scenario without touching the global
    registry permanently.
    """
    previous = _SCENARIOS.get(name)
    _SCENARIOS[name] = lambda _seed: scenario
    try:
        yield
    finally:
        if previous is None:
            _SCENARIOS.pop(name, None)
        else:
            _SCENARIOS[name] = previous


def resolve_scenario(name: str, data_seed: int = 0) -> Scenario:
    """A registered provider if one exists, else the protocol's builder."""
    if name in _SCENARIOS:
        return _SCENARIOS[name](data_seed)
    return build_scenario(name, rng=data_seed)


# ----------------------------------------------------------------------
# Per-run RNG derivation.

def _entropy_words(run: RunSpec, salt: str = "",
                   exclude: Sequence[str] = ()) -> list:
    skip = {"seed", *exclude}
    cell = {name: value for name, value in run.factors if name not in skip}
    words = [int(stable_digest({"grid": run.grid, "cell": cell,
                                "salt": salt}, length=8), 16),
             int(run.seed) & 0xFFFFFFFF]
    return words


def run_rng(run: RunSpec, salt: str = "",
            exclude: Sequence[str] = ()) -> np.random.Generator:
    """The run's deterministic generator (shard- and order-independent).

    ``salt`` derives auxiliary streams for a run; ``exclude`` drops the
    named factors from the stream's cell so runs differing only in those
    factors share it (e.g. the β-probe's teacher, whose stream must not
    depend on the ``beta`` factor — see :func:`beta_teacher_rng`).
    """
    return np.random.default_rng(np.random.SeedSequence(
        _entropy_words(run, salt=salt, exclude=exclude)))


# Factors the beta_probe runner consumes itself (they never reach
# run_method); the teacher stream is derived from a cell without them.
BETA_PROBE_CONSUMED = ("beta", "n_folds", "probe_epochs", "teacher_epochs")


def beta_teacher_rng(run: RunSpec) -> np.random.Generator:
    """The β-probe teacher's generator, shared across one (scenario, seed).

    Derived from a cell that excludes every runner-consumed factor
    (:data:`BETA_PROBE_CONSUMED`), so grid cells differing only in β —
    or in probe length — retrain a bit-identical teacher on an identical
    fold split, exactly like the shared teacher of ``run_beta_sweep``.
    """
    return run_rng(run, salt="beta-teacher", exclude=BETA_PROBE_CONSUMED)


# ----------------------------------------------------------------------
# The default method runner.

def _fault_tolerance(run: RunSpec, context: RunContext,
                     scenario: Scenario) -> Optional[FaultTolerance]:
    spec = context.spec
    retry = (RetryPolicy(max_retries=spec.max_retries)
             if spec.max_retries is not None else None)
    if not spec.checkpoint or context.run_dir is None:
        if retry is None:
            return None
        return FaultTolerance(retry=retry)
    manager = CheckpointManager(context.run_dir / "checkpoints",
                                keep_last=spec.keep_last)
    state = None
    if context.resume and manager.latest_round() is not None:
        try:
            state = manager.load(scenario.factory)
        except CheckpointError:
            state = None    # unusable round files -> train from scratch
    return FaultTolerance(checkpoint=manager, resume_from=state, retry=retry)


def _discard_checkpoints(context: RunContext) -> None:
    if context.run_dir is not None:
        shutil.rmtree(context.run_dir / "checkpoints", ignore_errors=True)


def method_runner(run: RunSpec, context: RunContext) -> RunOutput:
    """Fit ``run.method`` on ``run.scenario`` and collect its metrics."""
    if not run.method:
        raise ValueError(f"run {run.run_id} has no method "
                         f"(factor or case bundle must set one)")
    scenario = resolve_scenario(run.scenario, context.spec.data_seed)
    fault_tolerance = _fault_tolerance(run, context, scenario)
    resumed = bool(fault_tolerance is not None
                   and fault_tolerance.resume_from is not None)
    result = run_method(run.method, scenario, rng=run_rng(run),
                        fault_tolerance=fault_tolerance,
                        profile_ops=context.spec.profile_ops,
                        **run.override_dict)
    # The run finished: its round checkpoints only matter for mid-run
    # kills, so drop them to bound grid disk usage.
    _discard_checkpoints(context)
    metrics = resolve_collector(run.collect)(run, result, scenario)
    meta = {"method_label": result.method, "resumed_from_round": resumed}
    for key in ("round_seconds", "faults", "op_profile"):
        if key in result.metadata:
            meta[key] = result.metadata[key]
    return RunOutput(metrics=metrics, meta=meta,
                     result=result if context.keep_result else None)


# ----------------------------------------------------------------------
# Fig. 5: one β probe per run, sharing a deterministic teacher.

def beta_probe_runner(run: RunSpec, context: RunContext) -> RunOutput:
    """Train the fold teacher and probe one β (paper Sec. IV-B / Fig. 5)."""
    from repro.core.trainer import TrainingConfig, train_model
    from repro.core.transfer import beta_probe
    from repro.data.folds import merge_folds, split_folds

    overrides = run.override_dict
    # A declared ``beta`` factor lands in overrides too; consume it here.
    beta = float(overrides.pop("beta", run.factor_dict.get("beta", 1.0)))
    n_folds = int(overrides.pop("n_folds", 6))
    probe_epochs = int(overrides.pop("probe_epochs", 5))
    teacher_epochs = overrides.pop("teacher_epochs", None)
    if overrides:
        raise ValueError(f"beta_probe runner got unknown overrides: "
                         f"{sorted(overrides)}")

    scenario = resolve_scenario(run.scenario, context.spec.data_seed)
    # The teacher's stream is β-free by construction: every β cell of one
    # (scenario, seed) group retrains the *same* teacher on the same fold
    # split, exactly like run_beta_sweep, yet stays parallelizable.
    teacher_rng = beta_teacher_rng(run)
    folds = split_folds(scenario.split.train, n_folds, rng=teacher_rng)
    train_folds, seen_fold, unseen_fold = folds[:-2], folds[-2], folds[-1]

    teacher = scenario.factory.build(rng=teacher_rng)
    teacher_set = merge_folds(train_folds + [seen_fold],
                              name=f"{run.grid}-teacher")
    teacher_epochs = teacher_epochs or max(2, scenario.epochs_per_model)
    config = TrainingConfig(epochs=int(teacher_epochs), lr=scenario.lr,
                            batch_size=scenario.batch_size,
                            augment=scenario.augment)
    train_model(teacher, teacher_set, config, rng=teacher_rng)

    probe = beta_probe(
        scenario.factory, scenario.split.train, beta, teacher,
        train_folds, seen_fold, unseen_fold,
        probe_epochs=probe_epochs, lr=scenario.lr,
        batch_size=scenario.batch_size, rng=run_rng(run, salt="beta-probe"))
    metrics = {
        "beta": probe.beta,
        "accuracy_seen_fold": float(probe.accuracy_seen_fold),
        "accuracy_unseen_fold": float(probe.accuracy_unseen_fold),
        "gap": float(probe.gap),
    }
    return RunOutput(metrics=metrics,
                     result=probe if context.keep_result else None)


# ----------------------------------------------------------------------
# Drift-aware serving: replay a drift schedule through the closed
# detect -> repair loop (repro.experiments.drift), one replay per cell.

#: DriftReplayConfig fields a grid cell may override.
SERVE_DRIFT_OVERRIDES = (
    "ensemble_size", "baseline_size", "pretrain_epochs", "lr",
    "batch_size", "label_delay", "max_repairs",
)


def serve_drift_runner(run: RunSpec, context: RunContext) -> RunOutput:
    """One drift replay per cell: schedule in, repair metrics out.

    The schedule comes from (in precedence order) a ``schedule``
    override/factor — a preset name or a JSON schedule payload — or the
    run's ``scenario`` when it names a preset, so drift scenarios ride
    the ordinary scenario axis of a grid.
    """
    from repro.experiments.drift import (
        DRIFT_SCHEDULES,
        DriftReplayConfig,
        run_drift_replay,
    )

    overrides = run.override_dict
    schedule = overrides.pop("schedule",
                             run.factor_dict.get("schedule", None))
    if schedule is None:
        if run.scenario not in DRIFT_SCHEDULES:
            raise ValueError(
                f"run {run.run_id} declares no drift schedule: set a "
                f"'schedule' factor or use a preset scenario name "
                f"({', '.join(sorted(DRIFT_SCHEDULES))})")
        schedule = run.scenario
    kwargs = {name: overrides.pop(name)
              for name in SERVE_DRIFT_OVERRIDES if name in overrides}
    if overrides:
        raise ValueError(f"serve_drift runner got unknown overrides: "
                         f"{sorted(overrides)}")
    result = run_drift_replay(DriftReplayConfig(schedule=schedule, **kwargs),
                              seed=run.seed)
    payload = result.to_payload()
    meta = {"schedule": payload.pop("schedule"),
            "repair_events": payload.pop("repair_events"),
            "accuracy_curve": payload.pop("accuracy_curve"),
            "detection_statistics": payload.pop("detection_statistics")}
    payload.pop("seed")
    return RunOutput(metrics=payload, meta=meta,
                     result=result if context.keep_result else None)


# ----------------------------------------------------------------------
# Serving load: one pipeline throughput/latency cell per run
# (repro.experiments.serve_load), T x batching declarable as factors.

#: LoadConfig fields a grid cell may set (as factors or overrides).
SERVING_LOAD_OVERRIDES = (
    "ensemble_size", "batching", "requests", "rows", "clients", "warmup",
    "arrival", "rate", "rate_end", "burst_period_s", "burst_duty",
    "max_batch_rows", "max_wait_ms", "workers",
    "probe_requests", "input_dim", "num_classes",
)


def serving_load_runner(run: RunSpec, context: RunContext) -> RunOutput:
    """One load-harness cell: pipeline config in, QPS/latency/parity out.

    ``ensemble_size`` and ``batching`` ride the ordinary factor axes, so
    a T × {on, off} sweep is a plain 2-factor grid; wall-clock numbers
    (QPS, percentiles) are measurements, not reproducible aggregates —
    only ``parity_ok`` is a deterministic bit.
    """
    from repro.experiments.serve_load import LoadConfig, run_serve_load

    kwargs = {}
    overrides = run.override_dict
    for name in SERVING_LOAD_OVERRIDES:
        if name in overrides:
            kwargs[name] = overrides.pop(name)
        elif name in run.factor_dict:
            kwargs[name] = run.factor_dict[name]
    if overrides:
        raise ValueError(f"serving_load runner got unknown overrides: "
                         f"{sorted(overrides)}")
    result = run_serve_load(LoadConfig(seed=run.seed, **kwargs))
    metrics = {
        "qps": result.qps,
        "latency_p50_ms": result.latency_ms["p50"],
        "latency_p95_ms": result.latency_ms["p95"],
        "latency_p99_ms": result.latency_ms["p99"],
        "mean_batch_requests": result.mean_batch_requests,
        "parity_ok": result.parity_ok,
    }
    meta = {"batching": result.batching, "arrival": result.arrival,
            "requests": result.requests,
            "batches_formed": result.batches_formed}
    if result.open_loop:
        meta["open_loop"] = result.open_loop
    return RunOutput(metrics=metrics, meta=meta,
                     result=result if context.keep_result else None)


def _config_knobs(run: RunSpec, runner: str,
                  allowed: Sequence[str]) -> Dict[str, Any]:
    """A runner's config knobs: its factors and overrides, bar the seed.

    The replication seed reaches the runner as ``run.seed``; every other
    factor or override must name one of ``allowed``.
    """
    knobs = {**run.factor_dict, **run.override_dict}
    knobs.pop("seed", None)
    unknown = set(knobs) - set(allowed)
    if unknown:
        raise ValueError(f"{runner} runner got unknown overrides: "
                         f"{sorted(unknown)}")
    return knobs


SERVE_OVERLOAD_OVERRIDES = (
    "load_factor", "resilient", "ensemble_size", "rows", "member_seconds",
    "max_batch_rows", "max_wait_ms", "queue_depth", "target_delay_ms",
    "interval_ms", "slo_ms", "horizon_s", "input_dim", "num_classes",
)


def serve_overload_runner(run: RunSpec, context: RunContext) -> RunOutput:
    """One virtual-time overload cell: offered load in, goodput/p99 out.

    ``load_factor`` (× analytic capacity) and ``resilient`` ride the
    factor axes, so the bench's {0.5×, 1×, 2×} × {resilient, baseline}
    grid is a plain 2-factor sweep.  Fully deterministic: the cell runs
    on a manual clock, so every metric is a reproducible bit pattern.
    """
    from repro.experiments.serve_overload import (
        OverloadConfig,
        analytic_capacity,
        run_overload_cell,
    )

    merged = _config_knobs(run, "serve_overload", SERVE_OVERLOAD_OVERRIDES)
    factor = float(merged.pop("load_factor", 1.0))
    resilient = bool(merged.pop("resilient", True))
    config = OverloadConfig(seed=run.seed, **merged)
    cell = run_overload_cell(config, rate=factor * analytic_capacity(config),
                             resilient=resilient)
    metrics = {
        "goodput_rps": cell["goodput_rps"],
        "latency_p50_ms": cell["latency_ms"]["p50"],
        "latency_p99_ms": cell["latency_ms"]["p99"],
        "shed": cell["shed"],
        "brownout_batches": cell["brownout_batches"],
        "conserved": cell["conserved"],
    }
    meta = {"rate": cell["rate"], "resilient": cell["resilient"],
            "requests": cell["requests"], "parity": cell["parity"]}
    return RunOutput(metrics=metrics, meta=meta,
                     result=cell if context.keep_result else None)


SERVE_CHAOS_OVERRIDES = ("schedules", "events", "horizon_s", "base_rate")


def serve_chaos_runner(run: RunSpec, context: RunContext) -> RunOutput:
    """One chaos campaign: seeded schedules in, invariant verdicts out."""
    from repro.experiments.serve_chaos import ChaosConfig, run_chaos_suite

    merged = _config_knobs(run, "serve_chaos", SERVE_CHAOS_OVERRIDES)
    payload = run_chaos_suite(ChaosConfig(seed=run.seed, **merged))
    metrics = {
        "ok": payload["ok"],
        "schedules": payload["schedules"],
        "shed": payload["total_shed"],
        "failed": payload["total_failed"],
        "member_deaths": payload["total_member_deaths"],
    }
    meta = {"event_kinds": payload["event_kinds"],
            "failed_seeds": payload["failed_seeds"],
            "base_rate_rps": payload["base_rate_rps"]}
    return RunOutput(metrics=metrics, meta=meta,
                     result=payload if context.keep_result else None)


# ----------------------------------------------------------------------
# Beyond-paper EDDE variants (Table VI, REPRO_EXTENDED_ABLATION=1).

def _variant_runner(variant_fn) -> RunnerFn:
    def runner(run: RunSpec, context: RunContext) -> RunOutput:
        scenario = resolve_scenario(run.scenario, context.spec.data_seed)
        result = variant_fn(scenario, rng=run_rng(run), **run.override_dict)
        metrics = resolve_collector(run.collect)(run, result, scenario)
        return RunOutput(metrics=metrics,
                         meta={"method_label": result.method},
                         result=result if context.keep_result else None)
    return runner


register_runner("method", method_runner)
register_runner("beta_probe", beta_probe_runner)
register_runner("serve_drift", serve_drift_runner)
register_runner("serving_load", serving_load_runner)
register_runner("serve_overload", serve_overload_runner)
register_runner("serve_chaos", serve_chaos_runner)
register_runner("edde_cumulative_weights",
                _variant_runner(run_edde_cumulative_weights))
register_runner("edde_correlate_previous_model",
                _variant_runner(run_edde_correlate_previous_model))
