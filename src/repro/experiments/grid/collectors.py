"""Metric collectors: fold a FitResult into a JSON-able metrics dict.

A collector is a registered ``fn(run, result, scenario) -> dict``; the
run's spec names one (``collect="standard"`` by default) and the runner
applies it right after the fit, inside the worker process — so the
manifest entry (and hence the aggregate) never needs the model weights.

Everything a collector returns must be JSON-serializable: scalars are
aggregated (mean ± std across seeds), lists/matrices ride along for
renderers (Fig. 7's curves, Fig. 8's similarity heatmaps).
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.analysis.bias_variance import zero_one_decomposition
from repro.analysis.similarity import ensemble_div_h, ensemble_similarity_matrix
from repro.core.checkpointing import jsonable
from repro.core.results import CurvePoint, FitResult
from repro.experiments.grid.spec import RunSpec
from repro.experiments.protocol import Scenario

CollectorFn = Callable[[RunSpec, FitResult, Scenario], Dict[str, Any]]

_COLLECTORS: Dict[str, CollectorFn] = {}


def register_collector(name: str, fn: CollectorFn,
                       replace: bool = False) -> None:
    if name in _COLLECTORS and not replace:
        raise ValueError(f"collector {name!r} is already registered")
    _COLLECTORS[name] = fn


def resolve_collector(name: str) -> CollectorFn:
    if name not in _COLLECTORS:
        raise KeyError(f"unknown collector {name!r}; registered: "
                       f"{', '.join(sorted(_COLLECTORS))}")
    return _COLLECTORS[name]


def standard_metrics(run: RunSpec, result: FitResult,
                     scenario: Scenario) -> Dict[str, Any]:
    """The columns every effectiveness table needs (Tables II/III/V)."""
    return {
        "final_accuracy": float(result.final_accuracy),
        "average_member_accuracy": float(result.average_member_accuracy()),
        "increased_accuracy": float(result.increased_accuracy()),
        "total_epochs": int(result.total_epochs),
        "num_members": len(result.ensemble),
    }


def diversity_metrics(run: RunSpec, result: FitResult,
                      scenario: Scenario) -> Dict[str, Any]:
    """Table IV / Table VI / Fig. 8: Div_H and the pairwise similarity."""
    metrics = standard_metrics(run, result, scenario)
    test = scenario.split.test
    if len(result.ensemble) >= 2:
        metrics["diversity"] = float(ensemble_div_h(
            result.ensemble, test.x, max_models=len(result.ensemble)))
        metrics["similarity_matrix"] = jsonable(ensemble_similarity_matrix(
            result.ensemble, test.x, max_models=len(result.ensemble)))
    else:
        metrics["diversity"] = float("nan")
        metrics["similarity_matrix"] = []
    return metrics


def bias_variance_metrics(run: RunSpec, result: FitResult,
                          scenario: Scenario) -> Dict[str, Any]:
    """Fig. 1: the 0/1-loss bias/variance decomposition of the members."""
    metrics = standard_metrics(run, result, scenario)
    test = scenario.split.test
    member_probs = result.ensemble.member_probs(test.x)
    if len(member_probs) >= 2:
        point = zero_one_decomposition(member_probs, test.y,
                                       method=result.method)
        metrics["bias"] = float(point.bias)
        metrics["variance"] = float(point.variance)
    else:
        metrics["bias"] = float("nan")
        metrics["variance"] = float("nan")
    return metrics


def curve_metrics(run: RunSpec, result: FitResult,
                  scenario: Scenario) -> Dict[str, Any]:
    """Fig. 7: the accuracy-vs-cumulative-epochs curve plus the standards."""
    metrics = standard_metrics(run, result, scenario)
    metrics["curve"] = [
        {"cumulative_epochs": int(p.cumulative_epochs),
         "ensemble_accuracy": float(p.ensemble_accuracy),
         "num_models": int(p.num_models)}
        for p in result.curve]
    return metrics


def record_fit_result(record) -> FitResult:
    """Rebuild a curve-rendering FitResult shim from a run record.

    The analysis curve helpers (:func:`repro.analysis.render_curves` and
    friends) consume :class:`FitResult` objects; a record produced by the
    ``curve`` collector carries everything they read (method label,
    curve points, final accuracy) — the ensemble itself stayed in the
    worker.
    """
    meta = record.meta if hasattr(record, "meta") else record.get("meta", {})
    metrics = (record.metrics if hasattr(record, "metrics")
               else record.get("metrics", {}))
    method = meta.get("method_label") or (
        record.method if hasattr(record, "method") else record.get("method", ""))
    curve = [CurvePoint(**point) for point in metrics.get("curve", [])]
    return FitResult(method=method, ensemble=None, curve=curve,
                     total_epochs=int(metrics.get("total_epochs", 0)),
                     final_accuracy=float(metrics.get("final_accuracy",
                                                      float("nan"))))


register_collector("standard", standard_metrics)
register_collector("diversity", diversity_metrics)
register_collector("bias_variance", bias_variance_metrics)
register_collector("curve", curve_metrics)
