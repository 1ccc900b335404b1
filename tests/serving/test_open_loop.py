"""The load harness's open loop: queueing delay bounded by the window.

The open loop replays an arrival profile through the batcher on a manual
clock where serving costs zero time, so a request's queueing delay is
exactly how long it waited for its batch to form: never more than the
batching window.  The batch compositions are pinned to the values the
harness has always produced for these seeds.
"""

import numpy as np
import pytest

from repro.experiments.serve_load import LoadConfig, _run_open_loop

WINDOW_MS = 5.0

#: profile -> (LoadConfig overrides, simulated seconds, mean batch size)
PROFILES = {
    "open": ({}, 0.12636808078099315, 10.666666666666666),
    "ramp": ({"rate": 500.0, "rate_end": 20000.0},
             0.058860020327138475, 12.8),
    "burst": ({}, 0.11318404039049658, 14.222222222222221),
}


def open_loop(profile, **overrides):
    extra, _, _ = PROFILES[profile]
    config = LoadConfig(arrival=profile, max_wait_ms=WINDOW_MS,
                        **{**extra, **overrides})
    rng = np.random.default_rng(
        np.random.SeedSequence([0x10AD5EED, int(config.seed)]))
    return _run_open_loop(config, rng)


@pytest.mark.parametrize("profile", sorted(PROFILES))
class TestOpenLoop:
    def test_no_queueing_delay_exceeds_the_window(self, profile):
        delays = open_loop(profile)["queueing_delay_ms"]
        assert delays["max"] <= WINDOW_MS + 1e-9
        assert delays["p99"] <= WINDOW_MS + 1e-9

    def test_batch_compositions_are_pinned(self, profile):
        _, seconds, mean = PROFILES[profile]
        stats = open_loop(profile)
        assert stats["simulated_seconds"] == seconds
        assert stats["batch_size_mean"] == mean
        assert stats["batch_size_max"] == 16     # 128 rows / 8 per request

    def test_unbatched_cell_answers_inline(self, profile):
        stats = open_loop(profile, batching=False)
        assert stats["queueing_delay_ms"] == {"p50": 0.0, "p99": 0.0,
                                              "max": 0.0}
        assert stats["batch_size_mean"] == 1.0
        assert stats["batch_size_max"] == 1
