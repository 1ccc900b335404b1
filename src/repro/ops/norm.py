"""Batch normalisation as a single registry kernel.

``batch_norm`` replaces the 13-op ``Tensor`` chain BatchNorm used to
build per call (sum, mul, sub, mul, sum, mul, add, pow, div, reshape,
mul, reshape, add) with one graph node.  Bit-parity rule: forward and
backward replicate that chain operation for operation, so fits stay
bitwise identical:

* means are ``sum * (1/count)``, with ``1/count`` and ``eps`` built in
  the input's dtype;
* every (1, C, ...) gradient is reduced with the tape's sequential
  per-axis sums (:func:`_sum_to`), never one multi-axis sum;
* the gradient reaching ``centered = x - mean`` accumulates in the tape's
  order: the division's contribution first, then the two
  ``centered * centered`` contributions;
* ``x`` enters the op twice, once per path the output depends on it
  through (the centring and the batch mean), so the tape adds those two
  gradients into ``x.grad`` separately and in the chain's order.  That
  keeps an ``x`` with other consumers bitwise too (DenseNet concatenates
  the features it normalises).

Kernels that reorder these reductions (a closed-form backward,
single-pass statistics) are a different numerical contract and do not
belong here.
"""

from __future__ import annotations

import numpy as np

from repro.ops.registry import register


def _sum_to(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce ``grad`` onto the size-1 axes of ``shape``, one axis at a time."""
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _batch_norm_forward(ctx, x, x_via_mean, gamma, beta, *, axes, eps,
                        running=None):
    """Normalise ``x`` over ``axes``; ``running=(mean, var)`` means eval mode.

    ``x_via_mean`` is ``x`` itself (see the module docstring).
    """
    shape = tuple(size if axis not in axes else 1
                  for axis, size in enumerate(x.shape))
    gamma_b = gamma.reshape(shape)
    if running is None:
        count = int(np.prod([x.shape[axis] for axis in axes]))
        inv_count = np.asarray(1.0 / count, dtype=x.dtype)
        mean = x.sum(axis=axes, keepdims=True) * inv_count
        centered = x - mean
        x_hat = centered * centered
        var = x_hat.sum(axis=axes, keepdims=True) * inv_count
        shifted = var + np.asarray(eps, dtype=x.dtype)
        std = shifted ** 0.5
        np.divide(centered, std, out=x_hat)
        ctx.inv_count = inv_count
        ctx.shifted = shifted
        ctx.centered = centered
    else:
        running_mean, running_var = running
        std = np.sqrt(running_var.reshape(shape) + eps)
        x_hat = x - running_mean.reshape(shape)
        x_hat /= std

    ctx.training = running is None
    ctx.shape = shape
    ctx.std = std
    ctx.x_hat = x_hat
    ctx.gamma_b = gamma_b
    out = x_hat * gamma_b
    out += beta.reshape(shape)
    return out


def _batch_norm_backward(ctx, g):
    needs = ctx.needs
    shape = ctx.shape
    grad_gamma = _sum_to(g * ctx.x_hat, shape).reshape(-1) if needs[2] else None
    grad_beta = _sum_to(g, shape).reshape(-1) if needs[3] else None
    if not needs[0]:
        return (None, None, grad_gamma, grad_beta)

    g_hat = g * ctx.gamma_b
    grad_centered = g_hat / ctx.std
    if not ctx.training:
        return (grad_centered, None, grad_gamma, grad_beta)

    # In-place steps below reuse scratch arrays; each computes the same
    # values, in the same order, as the chain's expression it stands for.
    centered = ctx.centered
    scratch = np.negative(g_hat, out=g_hat)            # -g_hat
    scratch *= centered
    scratch /= ctx.std ** 2
    grad_std = _sum_to(scratch, shape)
    grad_var = grad_std * 0.5 * ctx.shifted ** (0.5 - 1)
    grad_square = (grad_var * ctx.inv_count) * centered
    grad_centered += grad_square
    grad_centered += grad_square
    grad_mean = _sum_to(np.negative(grad_centered, out=scratch), shape)
    grad_mean *= ctx.inv_count
    return (grad_centered, np.broadcast_to(grad_mean, centered.shape),
            grad_gamma, grad_beta)


register("batch_norm", _batch_norm_forward, _batch_norm_backward)
