"""Method dispatch: fit any ensemble method on a protocol scenario.

:func:`run_method` is the single entry point every experiment path goes
through — the grid's ``"method"`` runner (and with it every paper table
and figure bench), the ``repro train``/``repro compare`` commands and
the perf benchmark.  :func:`make_edde_config` and ``_baseline_config``
turn a :class:`~repro.experiments.protocol.Scenario` plus keyword
overrides into the method's config dataclass.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.baselines import (
    AdaBoostM1,
    AdaBoostNC,
    AdaBoostNCConfig,
    BANs,
    BANsConfig,
    Bagging,
    BaselineConfig,
    NCLConfig,
    NegativeCorrelationLearning,
    SingleModel,
    SnapshotConfig,
    SnapshotEnsemble,
)
from repro.core import EDDEConfig, EDDETrainer
from repro.core.checkpointing import (
    CheckpointManager,
    FaultTolerance,
    RetryPolicy,
)
from repro.core.results import FitResult
from repro.experiments.protocol import Scenario
from repro.utils.rng import RngLike, new_rng

ALL_METHODS = ("single", "bans", "bagging", "adaboost_m1", "adaboost_nc",
               "snapshot", "edde")


def _baseline_config(scenario: Scenario, cls=BaselineConfig, **overrides):
    config = cls(
        num_models=scenario.ensemble_size,
        epochs_per_model=scenario.epochs_per_model,
        lr=scenario.lr,
        batch_size=scenario.batch_size,
        weight_decay=scenario.weight_decay,
        augment=scenario.augment,
    )
    return _apply_overrides(config, overrides)


def make_edde_config(scenario: Scenario, budget: Optional[int] = None,
                     **overrides) -> EDDEConfig:
    """EDDE configuration matching the scenario's protocol.

    On NLP scenarios the paper gives EDDE only *half* the group budget
    (Table III) — honoured via the scenario's ``edde_half_budget`` note.
    """
    budget = budget or scenario.total_budget
    if scenario.notes.get("edde_half_budget"):
        budget = max(scenario.edde_first_epochs, budget // 2)
    config = EDDEConfig(
        num_models=scenario.edde_num_models(budget),
        gamma=scenario.gamma,
        beta=scenario.beta,
        first_epochs=scenario.edde_first_epochs,
        later_epochs=scenario.edde_later_epochs,
        lr=scenario.lr,
        batch_size=scenario.batch_size,
        weight_decay=scenario.weight_decay,
        augment=scenario.augment,
    )
    return _apply_overrides(config, overrides)


def _apply_overrides(config, overrides: dict):
    """Set ``overrides`` on a config dataclass, rejecting unknown names.

    A misspelled override (``gama=0.0``) would otherwise become a stray
    attribute while the run silently trains at the default.
    """
    known = {field.name for field in dataclasses.fields(config)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(f"unknown {type(config).__name__} override(s): "
                         f"{', '.join(unknown)}")
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def make_fault_tolerance(scenario: Scenario,
                         checkpoint_dir=None,
                         resume: bool = False,
                         keep_last: int = 3,
                         max_retries: Optional[int] = None,
                         retry_lr_decay: float = 0.5) -> FaultTolerance:
    """Build the fault-tolerance bundle a ``fit`` call expects.

    ``checkpoint_dir`` enables per-round checkpoints (retaining the last
    ``keep_last``); ``resume=True`` additionally loads the latest round
    from that directory (raising
    :class:`~repro.core.checkpointing.CheckpointError` when it is missing
    or corrupt); ``max_retries`` enables divergence recovery.
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    manager = None
    state = None
    if checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir, keep_last=keep_last)
        if resume:
            state = manager.load(scenario.factory)
    retry = None
    if max_retries is not None:
        retry = RetryPolicy(max_retries=max_retries, lr_decay=retry_lr_decay)
    return FaultTolerance(checkpoint=manager, resume_from=state, retry=retry)


def run_method(method: str, scenario: Scenario, rng: RngLike = 0,
               callbacks: Optional[Sequence] = None,
               fault_tolerance: Optional[FaultTolerance] = None,
               profile_ops: bool = False,
               **overrides) -> FitResult:
    """Fit one method on a scenario; ``overrides`` adjust its config.

    ``callbacks`` are extra :class:`~repro.core.callbacks.Callback`
    instances forwarded to the method's
    :class:`~repro.core.engine.EnsembleEngine` — every method runs through
    the same engine, so the same callbacks work across all of them.  The
    same holds for fault tolerance: ``fault_tolerance`` (a
    :class:`~repro.core.checkpointing.FaultTolerance`, e.g. from
    :func:`make_fault_tolerance`) is passed straight to ``fit``.

    ``profile_ops=True`` wraps the whole fit in the op profiler
    (:func:`repro.ops.profile_ops`) and stores the per-op summary in
    ``result.metadata["op_profile"]``.
    """
    rng = new_rng(rng)
    train, test = scenario.split.train, scenario.split.test

    def dispatch() -> FitResult:
        if method == "edde":
            config = make_edde_config(scenario, **overrides)
            return EDDETrainer(scenario.factory, config).fit(
                train, test, rng=rng, callbacks=callbacks,
                fault_tolerance=fault_tolerance)
        if method == "ncl":
            config = _baseline_config(scenario, cls=NCLConfig, **overrides)
            return NegativeCorrelationLearning(scenario.factory, config).fit(
                train, test, rng=rng, callbacks=callbacks,
                fault_tolerance=fault_tolerance)
        baseline_classes = {
            "single": (SingleModel, BaselineConfig),
            "bagging": (Bagging, BaselineConfig),
            "adaboost_m1": (AdaBoostM1, BaselineConfig),
            "adaboost_nc": (AdaBoostNC, AdaBoostNCConfig),
            "snapshot": (SnapshotEnsemble, SnapshotConfig),
            "bans": (BANs, BANsConfig),
        }
        if method not in baseline_classes:
            raise ValueError(
                f"unknown method '{method}'; known: {ALL_METHODS + ('ncl',)}")
        method_cls, config_cls = baseline_classes[method]
        config = _baseline_config(scenario, cls=config_cls, **overrides)
        return method_cls(scenario.factory, config).fit(
            train, test, rng=rng, callbacks=callbacks,
            fault_tolerance=fault_tolerance)

    if not profile_ops:
        return dispatch()
    from repro.ops import profile_ops as _profile_ops

    with _profile_ops() as profiler:
        result = dispatch()
    result.metadata["op_profile"] = profiler.summary()
    return result
