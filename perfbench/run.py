#!/usr/bin/env python3
"""Run the EDDE benchmark: one workload, or all of them.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-c10-resnet --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 1
    python3 perfbench/run.py --compare perfbench/out/A.json perfbench/out/B.json

A single-workload run prints every metric by name with its unit, every
check verdict, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics when
untraced, the per-layer metrics with ``--trace 1``).  It also writes a
run record (environment, metrics, checks, details) under
``perfbench/out/<workload>/``, and with ``--trace 1`` the spans as a
Chrome trace next to it.

``--workload all`` runs each workload in its own process — untraced, and
with ``--trace 1`` traced as well, so tracing overhead is reported — and
prints a summary.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("fit-c10-resnet", "fit-imdb-textcnn", "serve-uniform")
#: Environment for ``--smoke`` runs: the smallest datasets.
SMOKE_ENV = {"REPRO_TRAIN_SIZE": "96", "REPRO_TEST_SIZE": "48"}


#: ``personality(2)`` flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000


def _fix_address_layout() -> None:
    """Re-execute this process with address-space randomisation off.

    With randomisation on, the same fit runs up to 1.6x slower in one
    process than in the next (memory layout decides cache behaviour),
    which would swamp the differences the benchmark exists to measure.
    Every run then sees the one layout the code implies.  Where the
    kernel refuses, the run goes on randomised; the environment record
    says which.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        current = libc.personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        return
    if current == -1 or current & ADDR_NO_RANDOMIZE:
        return
    if libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
        return
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable] + sys.argv)


def _bootstrap() -> bool:
    """Put the checkout's ``src`` and root on the path; False if absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return True


def _record_path(out: Path, workload: str, seed: int, trace: bool,
                 smoke: bool, suffix: str = "") -> Path:
    tag = f"seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}{suffix}"
    return out / workload / f"{tag}.json"


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, out: Path) -> Dict:
    """Run one workload in this process; print and record it."""
    from perfbench import catalogue, fit, serve
    from perfbench.common import Check
    from perfbench.env import environment
    from perfbench.spans import format_self_times, write_chrome_trace

    environment_record = environment(ROOT)
    module = fit if workload in fit.SPECS else serve
    result = module.run(workload, seed, seconds, trace, smoke=smoke,
                        state_dir=out,
                        source_digest=environment_record["src_sha256"])

    wanted = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    metrics: Dict[str, Dict] = {}
    missing = []
    absent = (0.0 if trace else math.nan,)   # traced: layer not exercised
    for metric in wanted:
        value = result.metrics.get(metric.name, absent)[0]
        if not math.isfinite(value):
            missing.append(metric.name)
            value = 0.0
        metrics[metric.name] = {"value": float(value), "unit": metric.unit}
    result.checks.append(Check("every metric measured and finite",
                               not missing, ", ".join(missing) or "all"))

    spans = result.details.pop("spans", None)
    table = result.details.pop("self_times", None)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "environment": environment_record,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
        "valid": result.valid,
        "checks": [vars(check) for check in result.checks],
        "details": result.details,
    }

    label = "traced" if trace else "untraced"
    print(f"== {workload} seed {seed} ({label}, {seconds:g} s) ==")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    for metric in [] if trace else catalogue.UNGATED:
        value = result.metrics[metric.name][0]
        print(f"  {metric.name:<40} {value:>14.6g} {metric.unit} "
              "(recorded, no bound)")
    if trace:
        overhead = _tracing_overhead(out, workload, seed, smoke, result,
                                     environment_record)
        record["tracing_overhead"] = overhead
        print(f"  tracing overhead: {overhead['text']}")
        if table:
            print(format_self_times(table))
    for check in result.checks:
        if check.kind == "output":
            verdict = "check PASS" if check.ok else "check FAIL"
        else:
            verdict = "measurement OK" if check.ok else "measurement INVALID"
        print(f"  {verdict}: {check.name} ({check.detail})")

    path = _record_path(out, workload, seed, trace, smoke)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=float))
    if spans is not None:
        write_chrome_trace(_record_path(out, workload, seed, trace, smoke,
                                        "-spans"), spans)
    return {"correct": result.correct, "attempted": int(result.attempted),
            "failed": int(result.failed), "metrics": metrics}


def _tracing_overhead(out, workload, seed, smoke, result,
                      environment_record) -> Dict:
    """Traced minus untraced fit_s (fits) or p50_ms (serving)."""
    from perfbench.env import differences

    name = "fit_s" if workload.startswith("fit-") else "p50_ms"
    traced = result.metrics[name][0]
    path = _record_path(out, workload, seed, False, smoke)
    if not path.is_file():
        return {"metric": name, "traced": traced,
                "text": f"{name} traced {traced:.6g}; no untraced record "
                        f"of seed {seed} to compare with"}
    untraced_record = json.loads(path.read_text())
    untraced = untraced_record["metrics"][name]["value"]
    changed = differences(untraced_record["environment"], environment_record)
    text = (f"{name} {traced - untraced:+.6g} "
            f"({(traced - untraced) / untraced:+.1%}) vs untraced run")
    if changed:
        text += f" -- NOT COMPARABLE, environment differs in {changed}"
    return {"metric": name, "traced": traced, "untraced": untraced,
            "not_comparable": changed, "text": text}


# ----------------------------------------------------------------------
def run_all(args) -> int:
    """Each workload in a child process; a summary at the end."""
    results: List[Dict] = []
    for workload in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", str(args.out)]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, capture_output=True, text=True,
                                   timeout=900)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(f"!! {workload} (trace {trace}) exited "
                      f"{child.returncode}")
                return 1
            results.append({"workload": workload, "trace": trace,
                            **json.loads(lines[-1])})
    print("== summary (untraced end-to-end metrics) ==")
    for entry in results:
        if entry["trace"]:
            continue
        verdict = "correct" if entry["correct"] else "INCORRECT"
        print(f"  {entry['workload']}: {verdict}, {entry['failed']} failed "
              f"of {entry['attempted']}")
        for name, value in entry["metrics"].items():
            print(f"    {name:<20} {value['value']:>14.6g} {value['unit']}")
    print(json.dumps({
        "correct": all(entry["correct"] for entry in results),
        "attempted": sum(entry["attempted"] for entry in results),
        "failed": sum(entry["failed"] for entry in results),
        "metrics": {f"{entry['workload']}/{name}": value
                    for entry in results if not entry["trace"]
                    for name, value in entry["metrics"].items()},
    }))
    return 0


def compare(paths: List[str]) -> int:
    """Side-by-side metrics of two run records, flagging environments."""
    from perfbench.env import differences

    a, b = (json.loads(Path(path).read_text()) for path in paths)
    changed = differences(a["environment"], b["environment"])
    if changed:
        print(f"NOT COMPARABLE: environments differ in {changed}")
    for name, entry in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        base, new = entry["value"], other["value"]
        ratio = f"{(new - base) / base:+.1%}" if base else "n/a"
        print(f"  {name:<40} {base:>12.6g} {new:>12.6g} {ratio:>8} "
              f"{entry['unit']}")
    return 2 if changed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of each workload (self-test)")
    parser.add_argument("--out", type=Path, default=OUT,
                        help="directory for run records and traces")
    parser.add_argument("--compare", nargs=2, metavar="RECORD",
                        help="compare two run records and exit")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")

    _fix_address_layout()
    if not _bootstrap():
        print(f"error: no library sources at {ROOT / 'src' / 'repro'}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    if args.compare:
        return compare(args.compare)
    if args.smoke:
        os.environ.update(SMOKE_ENV)
    if args.workload == "all":
        return run_all(args)
    summary = run_one(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.smoke, args.out)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
