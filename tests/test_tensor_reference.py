"""The tape ops against the same maths written with numpy's Python-level helpers.

The ops call numpy's C entry points (ufuncs, ``ufunc.reduce``, ``np.matmul``
and the ``np.ndarray`` constructor).  Each one is checked here, forward and
backward and bit for bit, against a reference written with ``.mean``,
``.sum``, ``.max``, ``np.transpose``, ``np.roll``, ``einsum(optimize=True)``,
``sliding_window_view`` and ``as_strided``, at shapes of the toy model (64x64
input) and of lite-SEA (128x128 input, and the decoder maps of 480x640);
``linear`` is checked against the batched ``np.matmul`` it replaced.  The
backward cases take strided gradients, as a convolution's input gradient
(a ``[:, :, 1:-1, 1:-1]`` view of its padded buffer) is.  The last test checks
that a forward pass enters none of those helpers.
"""

import os
import sys

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from matchformer import tensor as T
from matchformer.model import MatchModel, build_model
from matchformer.tensor import Tensor, _upsample_matrix
from matchformer.trainer import TrainConfig


def strided(rng, shape):
    """A random array of ``shape`` that is a view with a one-element border
    cut from every axis of a larger buffer, so no axis is contiguous."""
    big = rng.normal(size=tuple(n + 2 for n in shape))
    return big[tuple(slice(1, -1) for _ in shape)]


def forward_and_vjp(op, inputs, g):
    """``op``'s output on leaves holding ``inputs``, and its recorded node's
    gradients for the upstream gradient ``g``."""
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    T.active_tape().clear()
    out = op(*leaves)
    node = T.active_tape().nodes[-1]
    grads = node.backward_fn(g)
    T.active_tape().clear()
    return out.data, grads


def layout(a):
    """Strides of the axes longer than 1 (the others' strides are arbitrary)."""
    return tuple(s for s, n in zip(np.asarray(a).strides, np.shape(a)) if n > 1)


def assert_same_bits(got, want):
    """Equal values, bit for bit; the gradients also keep the reference's
    memory layout, which sets the summation order of later gradient sums."""
    got_val, got_grads = got
    want_val, want_grads = want
    assert got_val.shape == want_val.shape
    assert np.ascontiguousarray(got_val).tobytes() == np.ascontiguousarray(want_val).tobytes()
    assert len(got_grads) == len(want_grads)
    for a, b in zip(got_grads, want_grads):
        assert a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
        assert layout(a) == layout(b)


# -- reference formulas ------------------------------------------------------


def ref_layer_norm(x, gain, offset, g):
    n = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + T.LAYER_NORM_EPS)
    xhat = xc * inv
    sum_axes = tuple(range(g.ndim - 1))
    dxhat = g * gain
    dx = inv / n * (n * dxhat - dxhat.sum(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    return xhat * gain + offset, (dx, (g * xhat).sum(axis=sum_axes), g.sum(axis=sum_axes))


def ref_softmax(x, axis, g):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    return y, (y * (g - (g * y).sum(axis=axis, keepdims=True)),)


def ref_l2_normalize(x, axis, g):
    norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    safe = np.where(norm > 0, norm, 1.0)
    y = x / safe
    dx = (g - y * (g * y).sum(axis=axis, keepdims=True)) / safe
    return y, (np.where(norm > 0, dx, 0.0),)


def ref_unbroadcast(g, shape):
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def ref_conv2d(x, w, bias, stride, padding, g):
    b_, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho, wo = g.shape[2:]
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(np.moveaxis(win, (2, 3), (4, 5))).reshape(b_, cin * k * k, ho * wo)
    wf = w.reshape(cout, cin * k * k)
    val = np.stack([wf @ cols[i] for i in range(b_)]).reshape(b_, cout, ho, wo)
    val += bias[None, :, None, None]
    gg = g.reshape(b_, cout, ho * wo)
    dw = np.matmul(gg, np.swapaxes(cols, -1, -2)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(wf.T, gg).reshape(b_, cin, k, k, ho, wo)
    dxp = np.zeros(xp.shape)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += dcols[:, :, ki, kj]
    return val, (dxp[:, :, p:p + h, p:p + wd], dw, g.sum(axis=(0, 2, 3)))


def ref_depthwise(x, w, bias, g):
    """One slab of rows; the op runs one slab when ``_DEPTHWISE_SLAB`` allows."""
    k = w.shape[-1]
    p = k // 2
    taps = np.ascontiguousarray(w[:, 0].transpose(1, 2, 0))

    def windows(a):
        ap = np.pad(a, ((0, 0), (p, p), (p, p), (0, 0)))
        return as_strided(ap, a.shape + (k, k), ap.strides + ap.strides[1:3], writeable=False)

    val = np.einsum("bhwcij,ijc->bhwc", windows(x), taps)
    val += bias
    dw = np.zeros((k, k, w.shape[0]))
    dw += np.einsum("bhwc,bhwcij->ijc", g, windows(x))
    dx = np.einsum("bhwcij,ijc->bhwc", windows(g), taps[::-1, ::-1])
    return val, (dx, np.moveaxis(dw, -1, 0).reshape(w.shape), g.sum(axis=(0, 1, 2)))


def ref_upsample(x, g):
    uh, uw = _upsample_matrix(x.shape[2]), _upsample_matrix(x.shape[3])
    return (np.einsum("ih,bchw,jw->bcij", uh, x, uw, optimize=True),
            (np.einsum("ih,bcij,jw->bchw", uh, g, uw, optimize=True),))


# -- the ops -----------------------------------------------------------------


@pytest.mark.parametrize("shape", [(2, 256, 32), (2, 4, 128), (2, 1024, 128), (2, 16, 512)])
def test_layer_norm(shape):
    rng = np.random.default_rng(1)
    x, gain, offset = rng.normal(size=shape) * 3 + 1, rng.normal(size=shape[-1:]), \
        rng.normal(size=shape[-1:])
    g = strided(rng, shape)
    assert_same_bits(forward_and_vjp(T.layer_norm, (x, gain, offset), g),
                     ref_layer_norm(x, gain, offset, g))


@pytest.mark.parametrize("shape,axis", [((2, 8, 256, 4), -1), ((2, 8, 256, 4), -2),
                                        ((2, 8, 16, 8), -2), ((2, 1, 1024, 64), -1),
                                        ((2, 8, 16, 16), -1)])
def test_softmax(shape, axis):
    rng = np.random.default_rng(2)
    x, g = rng.normal(size=shape) * 4, strided(rng, shape)
    assert_same_bits(forward_and_vjp(lambda t: T.softmax(t, axis=axis), (x,), g),
                     ref_softmax(x, axis, g))


@pytest.mark.parametrize("shape,axis", [((256, 128), -1), ((2, 64, 8, 8), 1)])
def test_l2_normalize(shape, axis):
    rng = np.random.default_rng(3)
    x, g = rng.normal(size=shape), strided(rng, shape)
    x[0] = 0.0   # a zero vector stays zero, with a zero gradient
    assert_same_bits(forward_and_vjp(lambda t: T.l2_normalize(t, axis=axis), (x,), g),
                     ref_l2_normalize(x, axis, g))


@pytest.mark.parametrize("axis,keepdims", [(None, False), (1, False), ((0, 2), False),
                                           (-1, True), (None, True)])
def test_reduce_sum(axis, keepdims):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 16, 64))
    want_val = x.sum(axis=axis, keepdims=keepdims)
    g = strided(rng, np.shape(want_val))
    norm = None if axis is None else tuple(a % 3 for a in np.atleast_1d(axis))
    ge = g if norm is None or keepdims else np.expand_dims(g, norm)
    assert_same_bits(forward_and_vjp(lambda t: T.reduce_sum(t, axis=axis, keepdims=keepdims),
                                     (x,), g),
                     (want_val, (np.broadcast_to(ge, x.shape).copy(),)))


@pytest.mark.parametrize("x_shape,b_shape", [((2, 256, 32), (32,)), ((2, 16, 64), (1,)),
                                             ((2, 1024, 128), (128,))])
def test_add_bias_gradient(x_shape, b_shape):
    rng = np.random.default_rng(5)
    x, b, g = rng.normal(size=x_shape), rng.normal(size=b_shape), strided(rng, x_shape)
    assert_same_bits(forward_and_vjp(T.add, (x, b), g),
                     (x + b, (ref_unbroadcast(g, x_shape), ref_unbroadcast(g, b_shape))))


@pytest.mark.parametrize("shape,axes", [((2, 32, 16, 16), (0, 2, 3, 1)),
                                        ((2, 16, 8, 8), (0, 2, 1, 3)),
                                        ((2, 8, 16, 8), (0, 1, 3, 2)),
                                        ((2, 16, 16, 192), (0, 3, 1, 2)),
                                        ((2, 1, 1024, 128), (0, 2, 1, 3))])
def test_transpose(shape, axes):
    rng = np.random.default_rng(7)
    x = rng.normal(size=shape)
    g = strided(rng, np.transpose(x, axes).shape)
    assert_same_bits(forward_and_vjp(lambda t: T.transpose(t, axes), (x,), g),
                     (np.transpose(x, axes), (np.transpose(g, np.argsort(axes)),)))


@pytest.mark.parametrize("shape", [(2, 256, 32), (2, 1024, 128), (4, 3, 2)])
def test_swap_halves(shape):
    rng = np.random.default_rng(8)
    x, g = rng.normal(size=shape), strided(rng, shape)
    half = shape[0] // 2
    assert_same_bits(forward_and_vjp(T.swap_halves, (x,), g),
                     (np.roll(x, half, axis=0), (np.roll(g, half, axis=0),)))


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
    ((2, 1, 64, 64), (32, 1, 7, 7), 4, 3),        # toy stage-1 projection
    ((2, 32, 16, 16), (48, 32, 3, 3), 2, 1),      # toy stage-2 projection
    ((2, 64, 8, 8), (64, 64, 3, 3), 1, 1),        # toy decoder smooth
    ((2, 128, 2, 2), (64, 128, 1, 1), 1, 0),      # toy lateral
    ((2, 1, 128, 128), (128, 1, 7, 7), 4, 3),     # lite stage-1 projection
    ((2, 128, 16, 16), (128, 128, 3, 3), 1, 1),   # lite decoder smooth
    ((1, 3, 9, 7), (4, 3, 3, 3), 2, 0),           # unpadded strided windows
])
def test_conv2d(x_shape, w_shape, stride, padding):
    rng = np.random.default_rng(9)
    x, w, b = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])
    ho = (x_shape[2] + 2 * padding - w_shape[2]) // stride + 1
    wo = (x_shape[3] + 2 * padding - w_shape[2]) // stride + 1
    g = strided(rng, (x_shape[0], w_shape[0], ho, wo))
    assert_same_bits(forward_and_vjp(
        lambda *t: T.conv2d(*t, stride=stride, padding=padding), (x, w, b), g),
        ref_conv2d(x, w, b, stride, padding, g))


def test_conv2d_of_a_strided_unpadded_map():
    # padding 0 on a non-contiguous map: the window view needs a C-order copy
    rng = np.random.default_rng(10)
    x = strided(rng, (2, 3, 8, 8))
    w, b = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    g = strided(rng, (2, 4, 6, 6))
    assert_same_bits(forward_and_vjp(T.conv2d, (x, w, b), g), ref_conv2d(x, w, b, 1, 0, g))


def batched_linear(x, w, b):
    out = np.matmul(x, w)
    out += b
    return out


@pytest.mark.parametrize("gemm_macs", [T._LINEAR_GEMM_MACS, 0])  # 0: every shape
@pytest.mark.parametrize("build,size", [
    (lambda: MatchModel(TrainConfig().model_config(), seed=0), 64),  # toy
    (lambda: build_model("lite", "sea", seed=5), 128),               # lite-SEA
])
def test_linear_equals_the_batched_matmul_at_every_model_shape(build, size, gemm_macs,
                                                                monkeypatch):
    net = build()
    real, calls = T.linear, []

    def checked(x, w, b):
        out = real(x, w, b)
        assert out.data.tobytes() == batched_linear(x.data, w.data, b.data).tobytes()
        calls.append(x.ndim > 2 and x.data.flags.c_contiguous
                     and x.size * w.shape[1] >= gemm_macs)
        return out
    monkeypatch.setattr(T, "linear", checked)
    monkeypatch.setattr(T, "_LINEAR_GEMM_MACS", gemm_macs)
    img = np.random.default_rng(15).random((size, size))
    net.forward_pair(Tensor(img[None, None]), Tensor(img.T.copy()[None, None]))
    T.active_tape().clear()
    # with the default bound the toy's linears all stay batched
    assert any(calls) == (size > 64 or gemm_macs == 0)


@pytest.mark.parametrize("x", [
    strided(np.random.default_rng(16), (2, 16, 64)),
    np.random.default_rng(17).normal(size=(2, 64, 16)).swapaxes(1, 2),
    np.random.default_rng(18).normal(size=(16, 64)),
])
def test_linear_of_any_layout_equals_the_batched_matmul(x, monkeypatch):
    monkeypatch.setattr(T, "_LINEAR_GEMM_MACS", 0)  # only the layout decides
    rng = np.random.default_rng(19)
    w, b = rng.normal(size=(64, 24)), rng.normal(size=24)
    out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
    assert out.tobytes() == batched_linear(x, w, b).tobytes()


@pytest.mark.parametrize("x_shape", [(2, 16, 16, 32), (2, 2, 2, 512), (2, 32, 32, 128),
                                     (2, 8, 8, 1024)])
def test_depthwise_conv2d(x_shape, monkeypatch):
    monkeypatch.setattr(T, "_DEPTHWISE_SLAB", 1 << 30)
    rng = np.random.default_rng(11)
    c = x_shape[-1]
    x, w, b = rng.normal(size=x_shape), rng.normal(size=(c, 1, 3, 3)), rng.normal(size=c)
    g = strided(rng, x_shape)
    assert_same_bits(forward_and_vjp(T.depthwise_conv2d, (x, w, b), g),
                     ref_depthwise(x, w, b, g))


def test_halo_windows_match_as_strided():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 6, 5, 3))
    buf = np.zeros((2, 4 + 2, 5 + 2, 3))
    win = T._halo_windows(buf, x, 2, 6, 3)
    want = as_strided(buf, (2, 4, 5, 3, 3, 3), buf.strides + buf.strides[1:3], writeable=False)
    assert win.strides == want.strides and np.array_equal(win, want)
    assert not win.flags.writeable


@pytest.mark.parametrize("shape", [
    (2, 64, 2, 2), (2, 64, 4, 4), (2, 64, 8, 8),      # toy decoder
    (2, 128, 4, 4), (2, 128, 16, 16),                 # lite decoder at 128x128
    (2, 128, 15, 20), (2, 128, 30, 40),               # lite decoder at 480x640
    (2, 64, 4, 3), (1, 3, 1, 7),
])
def test_bilinear_upsample2x(shape):
    # the forward's GEMM order is einsum's: the bits move if it is reversed
    rng = np.random.default_rng(13)
    x = rng.normal(size=shape)
    g = strided(rng, (*shape[:2], 2 * shape[2], 2 * shape[3]))
    assert_same_bits(forward_and_vjp(T.bilinear_upsample2x, (x,), g), ref_upsample(x, g))


@pytest.mark.parametrize("rows,cols", [([0], [2]), ([5], [2]), ([2], [0]), ([2], [6])])
def test_window_gather_bounds(rows, cols):
    x = Tensor(np.ones((2, 6, 7)))
    with pytest.raises(T.ShapeError, match="window exceeds"):
        T.window_gather(x, np.array(rows), np.array(cols), 1)
    inside = T.window_gather(x, np.array([1, 4]), np.array([1, 5]), 1)
    assert inside.shape == (2, 2, 3, 3)


# -- the guard ---------------------------------------------------------------


def _wrapper_entered(frame) -> bool:
    """Whether ``frame`` runs one of numpy's Python-level helpers that the
    ops avoid."""
    code = frame.f_code
    path = code.co_filename.replace(os.sep, "/")
    return (path.endswith("numpy/_core/_methods.py")
            or path.endswith("numpy/lib/_stride_tricks_impl.py")
            or (code.co_name == "roll" and path.endswith("numpy/_core/numeric.py"))
            or code.co_name == "einsum_path")


def test_forward_enters_no_python_level_numpy_helper():
    cfg = TrainConfig()
    net = MatchModel(cfg.model_config(), seed=0)
    img = np.random.default_rng(14).random(cfg.image_size)
    a, b = Tensor(img[None, None]), Tensor(img.T.copy()[None, None])
    tensor_py = T.__file__
    hits = []

    def profile(frame, event, arg):
        if event != "call" or not _wrapper_entered(frame):
            return
        caller = frame.f_back
        while caller is not None and "numpy" in caller.f_code.co_filename:
            caller = caller.f_back
        if caller is not None and caller.f_code.co_filename == tensor_py:
            hits.append(f"{caller.f_code.co_name} -> {frame.f_code.co_name}")

    with T.no_grad():
        sys.setprofile(profile)
        try:
            net.forward_pair(a, b)
        finally:
            sys.setprofile(None)
    assert hits == []
