"""Overload benchmark — goodput and p99 at, past and under saturation.

PR 9's resilience claim, measured: with CoDel-style admission control
and brownout armed, the pipeline at **2× measured capacity** must hold
p99 within 5× of its light-load (0.5×) p99 and keep goodput at ≥ 80% of
capacity, while the same pipeline with neither defence collapses into
standing-queue latency.  Everything runs in virtual time
(:mod:`repro.experiments.serve_overload`), so the numbers are
bit-reproducible per seed and independent of host speed.

The chaos suite (:mod:`repro.experiments.serve_chaos`) rides along:
``REPRO_CHAOS_SCHEDULES`` (default 100) seeded storm / stall /
slow-burst / task-death schedules, each of which must preserve the
conservation ledger, resolve every ticket and never tear a batch.

Results land in ``results/BENCH_overload.json`` and
``results/bench_overload.txt``.
"""

from __future__ import annotations

import os

from _common import emit, write_json

from repro.experiments.serve_chaos import (
    ChaosConfig,
    render_chaos_suite,
    run_chaos_suite,
)
from repro.experiments.serve_overload import (
    render_overload_suite,
    run_overload_suite,
)


def test_overload_bench(capsys):
    payload = run_overload_suite()
    schedules = int(os.environ.get("REPRO_CHAOS_SCHEDULES", "100"))
    chaos = run_chaos_suite(ChaosConfig(schedules=schedules))
    payload["chaos"] = {key: value for key, value in chaos.items()
                       if key != "runs"}
    emit("bench_overload",
         render_overload_suite(payload) + "\nchaos: " +
         render_chaos_suite(chaos), capsys=capsys)
    write_json("BENCH_overload", payload)

    acceptance = payload["acceptance"]
    assert acceptance["conserved"], \
        "a cell's overload ledger did not balance"
    assert acceptance["p99_bounded"], (
        "resilient p99 at 2x capacity exceeded 5x the 0.5x-load p99 "
        f"(bound {payload['p99_bound_ms']:.1f} ms)")
    assert acceptance["goodput_held"], (
        "resilient goodput at 2x capacity fell below 80% of capacity "
        f"(floor {payload['goodput_floor_rps']:.0f} rps)")
    assert acceptance["baseline_collapsed"], (
        "the no-shedding baseline failed to collapse at 2x capacity — "
        "the resilience comparison is vacuous")
    assert acceptance["brownout_engaged"] and \
        acceptance["brownout_parity_ok"], \
        "brownout did not engage, or a browned-out answer diverged " \
        "from Eq. 16 over its member subset"
    assert chaos["ok"], \
        f"chaos invariants failed for seeds {chaos['failed_seeds']}"
