"""Serving-pipeline load benchmark — QPS, tail latency, bit-parity.

The concurrent pipeline (PR 8) claims that adaptive micro-batching plus
parallel member execution turn the T× serving cost of an ensemble into
amortised throughput *without* changing a single served byte.  This
bench measures both halves of that claim with the deterministic load
harness (:mod:`repro.experiments.serve_load`):

* closed-loop QPS and p50/p95/p99 latency at T ∈ {1, 4, 8}, batching on
  vs off — the batched pipeline must clear **≥ 2× QPS at T = 8**;
* one open-loop Poisson replay on the manual clock (batch-size and
  queueing-delay policy numbers, bit-reproducible per seed);
* byte-for-byte parity between micro-batched and solo answers on every
  cell's probe set — the throughput win is void if it costs a bit.

Results land in ``results/BENCH_serving.json`` and
``results/bench_serving.txt``.  Budgets honour ``REPRO_BENCH_REQUESTS``
(timed requests per cell; default 256).
"""

from __future__ import annotations

import os

from _common import emit, write_json

from repro.experiments.serve_load import render_load_suite, run_load_suite

#: The acceptance floor: batching+parallelism at T=8 must at least
#: double throughput over the per-request solo path.
MIN_SPEEDUP_AT_T8 = 2.0


def test_serving_load_bench(capsys):
    requests = int(os.environ.get("REPRO_BENCH_REQUESTS", "256"))
    payload = run_load_suite(ensemble_sizes=(1, 4, 8), seed=0,
                             requests=requests)
    emit("bench_serving", render_load_suite(payload), capsys=capsys)
    write_json("BENCH_serving", payload)

    assert payload["parity_ok"], \
        "micro-batched answers diverged from solo execution"
    speedup = payload["qps_speedup_batched"]["8"]
    assert speedup >= MIN_SPEEDUP_AT_T8, (
        f"batching+parallelism delivered only {speedup:.2f}x QPS at T=8 "
        f"(need >= {MIN_SPEEDUP_AT_T8}x)")
