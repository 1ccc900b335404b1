"""The virtual-time load engine's arrival processes and summaries."""

import numpy as np

from repro.experiments.load_engine import (
    latency_summary,
    poisson_arrivals,
)


class TestArrivalProcesses:
    def test_constant_rate_matches_one_vectorised_draw(self):
        """Gap by gap draws consume the RNG exactly like one vector draw."""
        gaps = np.random.default_rng(3).exponential(1 / 250.0, size=500)
        times = poisson_arrivals(np.random.default_rng(3),
                                 lambda _i, _now: 250.0, count=500)
        assert np.array_equal(times, np.cumsum(gaps))

    def test_horizon_stops_the_process(self):
        times = poisson_arrivals(np.random.default_rng(5),
                                 lambda _i, _now: 1000.0, horizon=0.25)
        assert times.size > 0 and times[-1] < 0.25


class TestLatencySummary:
    def test_statistics_are_taken_in_seconds_then_scaled(self):
        summary = latency_summary([0.001, 0.002, 0.004],
                                  ("p50", "max", "mean"))
        assert summary == {"p50": 2.0, "max": 4.0,
                           "mean": float(np.mean([0.001, 0.002, 0.004])
                                         * 1000)}

    def test_empty_sample_reports_zeros(self):
        assert latency_summary([]) == {"p50": 0.0, "p99": 0.0, "max": 0.0}
