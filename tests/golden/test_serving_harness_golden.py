"""Golden fingerprints for the virtual-time serving harnesses.

The overload and chaos suites run entirely on a manual clock, so a
(config, seed) pair names every batch, shed, brownout transition and
ledger entry bit for bit.  These digests pin two whole payloads; a
refactor of the replay machinery is neutral exactly when they still
match.  The payloads hold virtual times, counts and verdicts, never
served probabilities, so the digests are the same under the suite's
float64 pin and the library's float32 default.
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments.serve_chaos import ChaosConfig, run_chaos_suite
from repro.experiments.serve_overload import run_overload_suite

OVERLOAD_SUITE_SHA256 = \
    "e429ad6d21345053c12a1c3587f22f347534ccb80e457bf4aa0280fbb2c56d16"
CHAOS_SUITE_10_SHA256 = \
    "da65fd78b563a7f96ce58702be625a343665ddd8f747d48597c6155c0c0672b1"


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_overload_suite_matches_golden():
    assert _digest(run_overload_suite()) == OVERLOAD_SUITE_SHA256


def test_chaos_suite_matches_golden():
    assert _digest(run_chaos_suite(ChaosConfig(schedules=10))) == \
        CHAOS_SUITE_10_SHA256
