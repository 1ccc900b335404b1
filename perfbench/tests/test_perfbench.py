"""Self-test of the benchmark: contract, smoke runs, wrapper removal.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import catalogue  # noqa: E402
from perfbench.run import SMOKE_ENV, WORKLOADS  # noqa: E402
from perfbench.serve import climb  # noqa: E402
from perfbench.spans import self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = "0.5"


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT, out: Path = None):
    command = [sys.executable, str(RUN), *args]
    if out is not None:
        command += ["--out", str(out)]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd,
                          timeout=300)


# ----------------------------------------------------------------------
def test_benchmark_json_is_the_catalogue():
    bench = _benchmark()
    assert bench == catalogue.benchmark_json(bench["run_seconds"])
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in bench["end_to_end"])}
    assert 1 <= len(bench["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_metrics_document_names_every_metric():
    document = (ROOT / "perfbench" / "METRICS.md").read_text()
    for metric in catalogue.END_TO_END + catalogue.UNGATED + \
            catalogue.PER_LAYER:
        if metric.name.startswith("ops.") and metric.name.endswith(
                ("fwd_s", "bwd_s")):
            assert metric.name.split(".")[1] in document
        else:
            stem = metric.name.rsplit(".", 1)[0] if metric.name.endswith(
                (".p99", ".failed", ".shed")) else metric.name
            assert stem in document, metric.name
    for name in catalogue.WORKLOADS:
        assert f"`{name}`" in document


# ----------------------------------------------------------------------
def record_value(out: Path, workload: str, name: str) -> float:
    record = json.loads((out / workload / "seed3-trace0-smoke.json")
                        .read_text())
    return record["metrics"][name]["value"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _assert_printed(stdout: str, metrics) -> None:
    for metric in metrics:
        assert re.search(rf"^\s+{re.escape(metric.name)}\s+\S+ "
                         rf"{re.escape(metric.unit)}$", stdout,
                         re.MULTILINE), metric.name


@pytest.mark.parametrize("workload", list(catalogue.WORKLOADS))
def test_each_workload_runs_at_smallest_size(workload, tmp_path):
    done = _run("--workload", workload, "--seed", "3", "--seconds",
                SMOKE_SECONDS, "--trace", "0", "--smoke", out=tmp_path)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in catalogue.END_TO_END]
    for metric in catalogue.END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0
    _assert_printed(done.stdout, catalogue.END_TO_END)
    for metric in catalogue.UNGATED:
        assert record_value(tmp_path, workload, metric.name) > 0
        assert f"{metric.name}" in done.stdout
    record = json.loads((tmp_path / workload / "seed3-trace0-smoke.json")
                        .read_text())
    assert record["environment"]["dtype"] == "float32"


@pytest.mark.parametrize("workload", ["fit-imdb-textcnn", "serve-uniform"])
def test_traced_run_prints_every_layer_metric(workload, tmp_path):
    done = _run("--workload", workload, "--seconds", SMOKE_SECONDS,
                "--trace", "1", "--smoke", out=tmp_path)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert result["correct"], done.stdout
    assert list(result["metrics"]) == [m.name for m in catalogue.PER_LAYER]
    _assert_printed(done.stdout, catalogue.PER_LAYER)
    assert (tmp_path / workload / "seed0-trace1-smoke-spans.json").is_file()


def _seams():
    """Every object a traced run wraps, keyed by where it lives."""
    import repro.core.boosting as boosting
    from repro.core import losses
    from repro.data.loader import DataLoader
    from repro.nn import losses as nn_losses
    from repro.nn.module import Module
    from repro.optim.sgd import SGD
    from repro.serving.executor import MemberExecutor
    from repro.serving.members import ServingMember
    from repro.serving.service import InferenceService
    from repro.serving.transport import ServingPipeline
    from repro.tensor import Tensor

    functions = [nn_losses.predict_probs, losses.diversity_driven_loss] + [
        getattr(boosting, name) for name in (
            "similarity_per_sample", "bias_per_sample",
            "update_sample_weights", "model_weight", "initial_model_weight")]
    seams = {f"{cls.__name__}.{attr}": vars(cls)[attr] for cls, attr in (
        (Module, "__call__"), (Tensor, "backward"), (SGD, "step"),
        (DataLoader, "__iter__"), (ServingPipeline, "submit"),
        (InferenceService, "validate"), (InferenceService, "finish"),
        (MemberExecutor, "run"), (ServingMember, "predict"))}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if any(value is function for function in functions):
                seams[f"{name}.{attr}"] = value
    return seams


def test_traced_runs_remove_their_wrappers(tmp_path, monkeypatch):
    from perfbench import fit, serve

    for key, value in SMOKE_ENV.items():
        monkeypatch.setenv(key, value)
    before = _seams()
    assert any(key.startswith("repro.core.edde.") for key in before)
    fitted = fit.run("fit-imdb-textcnn", 0, 0.1, trace=True, smoke=True,
                     state_dir=tmp_path)
    served = serve.run("serve-uniform", 0, 0.3, trace=True, smoke=True,
                       state_dir=tmp_path)
    assert fitted.metrics["core.trainer.steps"][0] > 0
    assert served.metrics["serving.scheduler.batches"][0] > 0
    after = _seams()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-uniform",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [-20, -5, 0, 3, 4, 7, 13, 40, 60])
def test_climb_finds_the_highest_passing_rung(capacity):
    runs = []

    def judge(k):
        runs.append(k)
        return k <= capacity

    best = climb(judge, base_passes=0 <= capacity)
    low, high = (-16, 40)
    expected = None if capacity < low else min(capacity, high)
    assert best == expected
    assert len(runs) == len(set(runs))


def test_self_time_subtracts_the_union_of_children():
    spans = [(1, 0, "root", 0.0, 10.0, 1),
             (2, 1, "a", 1.0, 4.0, 1),
             (3, 1, "b", 3.0, 6.0, 2),        # overlaps a (other thread)
             (4, 2, "leaf", 1.5, 2.0, 1)]
    table = self_times(spans)
    assert table["root"]["self_s"] == pytest.approx(5.0)
    assert table["a"]["self_s"] == pytest.approx(2.5)
    assert table["b"]["total_s"] == pytest.approx(3.0)


def test_environment_differences_flag_incomparable_records():
    from perfbench.env import differences

    base = {"python": "3.11", "numpy": "2.0", "blas": "x", "nproc": 2,
            "machine": "x86_64", "dtype": "float32", "repro_env": {},
            "thread_env": {}, "address_layout": "fixed", "git_sha": "a"}
    assert differences(base, dict(base, git_sha="b")) == []
    assert differences(base, dict(base, nproc=4)) == ["nproc"]
    assert differences(base, dict(base, repro_env={"REPRO_SCALE": "2"})) \
        == ["repro_env"]


def test_a_late_generator_invalidates_but_does_not_fail_outputs():
    from perfbench.common import Check, RunResult

    result = RunResult(attempted=1, failed=0, metrics={}, checks=[
        Check("answers finite", True),
        Check("generator on time", False, kind="measurement")])
    assert result.correct and not result.valid
    result.checks.append(Check("batched == solo", False))
    assert not result.correct
