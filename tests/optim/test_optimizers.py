"""SGD behaviour on analytic objectives."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import SGD


def quadratic_step(optimizer, param, target=3.0):
    """One gradient step on f(w) = (w - target)^2 / 2."""
    param.zero_grad()
    param.grad = param.data - target
    optimizer.step()


class TestSGD:
    def test_converges_on_quadratic(self):
        w = Parameter(np.array([10.0]))
        opt = SGD([w], lr=0.1, momentum=0.0)
        for _ in range(200):
            quadratic_step(opt, w)
        assert w.data[0] == pytest.approx(3.0, abs=1e-6)

    def test_momentum_accelerates(self):
        def distance_after(momentum, steps=15):
            w = Parameter(np.array([10.0]))
            opt = SGD([w], lr=0.02, momentum=momentum)
            for _ in range(steps):
                quadratic_step(opt, w)
            return abs(w.data[0] - 3.0)

        assert distance_after(0.9) < distance_after(0.0)

    def test_weight_decay_shrinks(self):
        w = Parameter(np.array([5.0]))
        opt = SGD([w], lr=0.1, momentum=0.0, weight_decay=1.0)
        w.grad = np.zeros(1)
        opt.step()
        assert w.data[0] < 5.0

    def test_nesterov_runs(self):
        w = Parameter(np.array([10.0]))
        opt = SGD([w], lr=0.05, momentum=0.9, nesterov=True)
        for _ in range(100):
            quadratic_step(opt, w)
        assert abs(w.data[0] - 3.0) < 0.5

    def test_skips_none_grads(self):
        w = Parameter(np.array([1.0]))
        opt = SGD([w], lr=0.1)
        opt.step()  # no grad set: must be a no-op, not a crash
        assert w.data[0] == 1.0

    def test_set_lr(self):
        w = Parameter(np.array([1.0]))
        opt = SGD([w], lr=0.1)
        opt.set_lr(0.01)
        assert opt.lr == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.5)

    def test_zero_grad_clears(self):
        w = Parameter(np.array([1.0]))
        opt = SGD([w], lr=0.1)
        w.grad = np.ones(1)
        opt.zero_grad()
        assert w.grad is None
