"""The workloads and every metric the benchmark reports.

``BENCHMARK.json`` at the repository root is this catalogue in the
driver's format: :func:`benchmark_json` builds it and the self-test
checks the committed file against it.  What each metric means, its
layer, and which end-to-end metric and workload it should move are in
``METRICS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

WORKLOADS: Dict[str, str] = {
    "fit-c10-resnet": "EDDE fit of ResNet-8 on c10 (6 rounds, 38 epochs); "
                      "conv2d, pad2d and BatchNorm dominate",
    "fit-imdb-textcnn": "EDDE fit of TextCNN on imdb (4 rounds, 20 epochs); "
                        "no conv2d/BatchNorm, so dispatch and conv1d dominate",
    "serve-uniform": "open-loop 1000 req/s of 8-row requests into the "
                     "8-member pipeline; requests coalesce into batches",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                     # "lower" | "higher"
    bound: Optional[float] = None   # end-to-end only


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1),
    Metric("fit_s", "s", "lower", bound=0.25),
    Metric("ensemble_accuracy", "fraction", "higher", bound=0.15),
    Metric("answered_share", "fraction", "higher", bound=0.01),
]

#: Measured, printed and recorded by every untraced run, but not in
#: ``BENCHMARK.json``: on the reference host their spread across seeds
#: (up to 0.27-0.61 of the median) is beyond the largest bound a
#: metric may have, so no bound on them could be kept.
UNGATED: List[Metric] = [
    Metric("p50_ms", "ms", "lower"),
    Metric("p99_ms", "ms", "lower"),
    Metric("max_rate_rps", "1/s", "higher"),
]

#: Every op the registry defines; ops a fit reports that are not listed
#: here are summed under ``ops.other``.
REGISTERED_OPS = (
    "add", "avg_pool2d", "clip", "concat", "conv1d", "conv2d", "div",
    "dropout", "edde_loss", "exp", "getitem", "l2norm", "log",
    "log_softmax", "matmul", "max", "max_pool2d", "mul", "neg", "pad1d",
    "pad2d", "pow", "relu", "reshape", "sigmoid", "softmax",
    "softmax_cross_entropy", "stack", "sub", "sum", "tanh", "transpose",
    "where")

PER_LAYER: List[Metric] = [
    Metric("core.engine.hatch_s", "s", "lower"),
    Metric("core.trainer.steps", "count", "lower"),
    Metric("core.trainer.step_ms.p50", "ms", "lower"),
    Metric("core.boosting_s", "s", "lower"),
    Metric("core.loss_s", "s", "lower"),
    Metric("nn.forward_s", "s", "lower"),
    Metric("nn.predict_probs_s", "s", "lower"),
    Metric("tensor.backward_s", "s", "lower"),
    Metric("tensor.dispatch_overhead_s", "s", "lower"),
    Metric("optim.sgd.step_s", "s", "lower"),
    Metric("data.loader.next_s", "s", "lower"),
    Metric("ops.calls", "count", "lower"),
    Metric("ops.alloc_mb", "MB", "lower"),
    Metric("ops.workspace.pooled_mb", "MB", "lower"),
    Metric("ops.coverage", "fraction", "higher"),
    *[Metric(f"ops.{op}.{phase}_s", "s", "lower")
      for op in REGISTERED_OPS + ("other",) for phase in ("fwd", "bwd")],
    Metric("trace.attributed_share", "fraction", "higher"),
    Metric("serving.transport.submit_us.p50", "us", "lower"),
    Metric("serving.validation.validate_us.p50", "us", "lower"),
    Metric("serving.service.finish_us.p50", "us", "lower"),
    Metric("serving.scheduler.queue_wait_ms.p50", "ms", "lower"),
    Metric("serving.scheduler.queue_wait_ms.p99", "ms", "lower"),
    Metric("serving.scheduler.batches", "count", "lower"),
    Metric("serving.scheduler.batch_requests.mean", "requests", "higher"),
    Metric("serving.scheduler.batch_rows.mean", "rows", "higher"),
    Metric("serving.executor.run_ms.p50", "ms", "lower"),
    Metric("serving.executor.run_ms.p99", "ms", "lower"),
    Metric("serving.executor.busy_s", "s", "lower"),
    Metric("serving.members.predict_ms.p50", "ms", "lower"),
    Metric("serving.members.busy_s", "s", "lower"),
    Metric("serving.transport.completed", "count", "higher"),
    Metric("serving.transport.failed", "count", "lower"),
    Metric("serving.transport.shed", "count", "lower"),
]


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document for this catalogue."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
