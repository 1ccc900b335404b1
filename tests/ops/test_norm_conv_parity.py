"""Bytewise parity of the ``batch_norm`` and padded-conv kernels.

``batch_norm`` replaces a 13-op chain of ``Tensor`` primitives, and the
conv kernels' own ``padding=`` replaces a separate ``pad1d``/``pad2d``
dispatch.  Both promise *bitwise* identical results — fit fingerprints
and the goldens depend on it — so every comparison here is on
``tobytes()``, never a tolerance.  The compositions they replaced live
on only as the oracles in this file.  Every test runs under the numerics
sanitizer, which only observes: parity must hold with it on, and neither
path may drift dtypes or produce a NaN.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.ops.conv import _im2col_pooled
from repro.ops import workspace
from repro.tensor import Tensor, apply, dtype_scope, sanitize_mode
from repro.tensor.ops import concatenate, pad1d, pad2d

RNG = np.random.default_rng(1234)
DTYPES = (np.float32, np.float64)


@pytest.fixture(autouse=True)
def _sanitized():
    with sanitize_mode():
        yield


def _chain_batch_norm(bn, x: Tensor) -> Tensor:
    """The compositional BatchNorm forward ``batch_norm`` replaced."""
    axes = bn._reduce_axes()
    shape = tuple(size if axis not in axes else 1
                  for axis, size in enumerate(x.shape))
    if bn.training:
        batch_mean = x.data.mean(axis=axes)
        batch_var = x.data.var(axis=axes)
        m = bn.momentum
        bn._buffers["running_mean"] = m * bn._buffers["running_mean"] + (1 - m) * batch_mean
        bn._buffers["running_var"] = m * bn._buffers["running_var"] + (1 - m) * batch_var
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=axes, keepdims=True)
        x_hat = centered / ((var + bn.eps) ** 0.5)
    else:
        mean = bn._buffers["running_mean"].reshape(shape)
        std = np.sqrt(bn._buffers["running_var"].reshape(shape) + bn.eps)
        x_hat = (x - Tensor(mean)) / Tensor(std)
    return x_hat * bn.gamma.reshape(shape) + bn.beta.reshape(shape)


def _make_bn(kind, features, dtype):
    bn = kind(features)
    bn.gamma.data[...] = RNG.uniform(0.5, 1.5, size=features).astype(dtype)
    bn.beta.data[...] = RNG.normal(size=features).astype(dtype)
    bn._buffers["running_mean"] = RNG.normal(size=features).astype(dtype)
    bn._buffers["running_var"] = RNG.uniform(0.5, 2.0, size=features).astype(dtype)
    return bn


def _clone_bn(bn):
    twin = type(bn)(bn.num_features)
    twin.load_state_dict(bn.state_dict())
    twin.train(bn.training)
    return twin


def _bn_run(bn, forward, x_data, g_data, shared_input):
    x = Tensor(x_data.copy(), requires_grad=True)
    out = forward(bn, x)
    if shared_input:
        # x also feeds a second consumer (DenseNet's concatenation), so
        # the order its gradient contributions accumulate in matters.
        out = concatenate([x, out], axis=1)
    out.backward(g_data)
    return [out.data, bn._buffers["running_mean"], bn._buffers["running_var"],
            x.grad, bn.gamma.grad, bn.beta.grad]


BN_CASES = [(nn.BatchNorm1d, (16, 5)), (nn.BatchNorm2d, (8, 3, 5, 5)),
            (nn.BatchNorm2d, (1, 2, 1, 1))]


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("kind,shape", BN_CASES, ids=["bn1d", "bn2d", "bn2d-single"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shared_input", [False, True],
                         ids=["sole", "shared"])
def test_batch_norm_matches_tensor_chain(dtype, kind, shape, training,
                                         shared_input):
    with dtype_scope(dtype):
        bn = _make_bn(kind, shape[1], dtype)
        bn.train(training)
        twin = _clone_bn(bn)
        x_data = (RNG.normal(size=shape) * 3.0 + 1.0).astype(dtype)
        out_shape = (shape[0], 2 * shape[1]) + shape[2:] if shared_input \
            else shape
        g_data = RNG.normal(size=out_shape).astype(dtype)
        fused = _bn_run(bn, lambda m, x: m(x), x_data, g_data, shared_input)
        chain = _bn_run(twin, _chain_batch_norm, x_data, g_data, shared_input)
    names = ["out", "running_mean", "running_var", "x.grad", "gamma.grad",
             "beta.grad"]
    for name, got, want in zip(names, fused, chain):
        assert got.dtype == want.dtype == dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_batch_norm_is_one_dispatch():
    bn = nn.BatchNorm2d(3)
    out = bn(Tensor(RNG.normal(size=(4, 3, 2, 2)), requires_grad=True))
    assert out._op == "batch_norm"
    assert out._parents[0] is out._parents[1]


def test_batch_norm_frozen_affine_skips_parameter_grads():
    bn = nn.BatchNorm1d(3)
    bn.gamma.requires_grad = False
    bn.beta.requires_grad = False
    x = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
    bn(x).sum().backward()
    assert x.grad is not None
    assert bn.gamma.grad is None and bn.beta.grad is None


# ----------------------------------------------------------------------
# Convolutions: padding inside the kernel vs a separate pad op
# ----------------------------------------------------------------------
def _conv_run(conv, x_data, w_data, b_data, g_data):
    x = Tensor(x_data.copy(), requires_grad=True)
    w = Tensor(w_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    out = conv(x, w, b)
    out.backward(g_data)
    return [out.data, x.grad, w.grad, b.grad]


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_padding_matches_pad2d(dtype, kernel, stride, padding):
    with dtype_scope(dtype):
        x_data = RNG.normal(size=(3, 2, 7, 6)).astype(dtype)
        w_data = RNG.normal(size=(4, 2, kernel, kernel)).astype(dtype)
        b_data = RNG.normal(size=4).astype(dtype)
        out_h = (7 + 2 * padding - kernel) // stride + 1
        out_w = (6 + 2 * padding - kernel) // stride + 1
        g_data = RNG.normal(size=(3, 4, out_h, out_w)).astype(dtype)
        folded = _conv_run(
            lambda x, w, b: F.conv2d(x, w, b, stride=stride, padding=padding),
            x_data, w_data, b_data, g_data)
        separate = _conv_run(
            lambda x, w, b: apply("conv2d", (pad2d(x, padding), w, b),
                                  stride=stride),
            x_data, w_data, b_data, g_data)
    for name, got, want in zip(["out", "x.grad", "w.grad", "b.grad"],
                               folded, separate):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv1d_padding_matches_pad1d(dtype, kernel, stride, padding):
    with dtype_scope(dtype):
        x_data = RNG.normal(size=(3, 2, 9)).astype(dtype)
        w_data = RNG.normal(size=(4, 2, kernel)).astype(dtype)
        b_data = RNG.normal(size=4).astype(dtype)
        out_l = (9 + 2 * padding - kernel) // stride + 1
        g_data = RNG.normal(size=(3, 4, out_l)).astype(dtype)
        folded = _conv_run(
            lambda x, w, b: F.conv1d(x, w, b, stride=stride, padding=padding),
            x_data, w_data, b_data, g_data)
        separate = _conv_run(
            lambda x, w, b: apply("conv1d", (pad1d(x, padding), w, b),
                                  stride=stride),
            x_data, w_data, b_data, g_data)
    for name, got, want in zip(["out", "x.grad", "w.grad", "b.grad"],
                               folded, separate):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("kernel,stride", [(1, 2), (3, 1), (3, 2), (2, 3)])
def test_sliding_window_im2col_matches_slice_loop(kernel, stride):
    x = RNG.normal(size=(2, 3, 8, 7)).astype(np.float32)
    cols, buffer = _im2col_pooled(x, kernel, kernel, stride)
    out_h = (8 - kernel) // stride + 1
    out_w = (7 - kernel) // stride + 1
    expected = np.empty((2, 3, kernel, kernel, out_h, out_w), np.float32)
    for i in range(kernel):
        for j in range(kernel):
            expected[:, :, i, j] = x[:, :, i:i + stride * out_h:stride,
                                     j:j + stride * out_w:stride]
    try:
        assert buffer.tobytes() == expected.tobytes()
        assert cols.shape == (2, 3 * kernel * kernel, out_h * out_w)
    finally:
        workspace.release(buffer)


def test_functional_convs_dispatch_no_pad_op():
    x2 = Tensor(RNG.normal(size=(1, 2, 4, 4)), requires_grad=True)
    w2 = Tensor(RNG.normal(size=(3, 2, 3, 3)), requires_grad=True)
    out2 = F.conv2d(x2, w2, padding=1)
    assert out2._op == "conv2d" and out2._parents[0] is x2
    x1 = Tensor(RNG.normal(size=(1, 2, 5)), requires_grad=True)
    w1 = Tensor(RNG.normal(size=(3, 2, 3)), requires_grad=True)
    out1 = F.conv1d(x1, w1, padding=2)
    assert out1._op == "conv1d" and out1._parents[0] is x1
