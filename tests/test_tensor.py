"""Tensor core: forward semantics, gradient rules, and the oracle checks."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from matchformer import matcher as M
from matchformer import tensor as T
from matchformer.selftest import naive_conv2d, naive_depthwise, naive_matmul
from matchformer.tensor import Tensor


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_add(self):
        assert T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data.tolist() == [4.0, 6.0]

    def test_mul_gradient_product_rule(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        T.backward(T.reduce_sum(T.mul(a, b)))
        assert a.grad[0] == 3.0 and b.grad[0] == 2.0

    def test_trailing_broadcast(self):
        x = Tensor(np.ones((2, 3, 4)))
        bias = Tensor(np.arange(4.0))
        out = T.add(x, bias)
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out.data[0, 0], 1.0 + np.arange(4.0))

    def test_disallowed_broadcast_rejected(self):
        with pytest.raises(T.ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1))))

    def test_division_by_zero_is_hard_error(self):
        with pytest.raises(T.NumericalError):
            T.div(Tensor([1.0]), Tensor([0.0]))

    def test_exp_overflow_is_hard_error(self):
        with pytest.raises(T.NumericalError):
            T.exp(Tensor([1000.0]))

    def test_sigmoid_extremes_stay_finite(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert out[0] == 0.0 and out[1] == 1.0


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        assert np.array_equal(T.matmul(eye, eye).data, np.eye(2))

    def test_column_swap(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        p = Tensor([[0.0, 1.0], [1.0, 0.0]])
        assert T.matmul(a, p).data.tolist() == [[2.0, 1.0], [4.0, 3.0]]

    def test_against_naive_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - naive_matmul(a, b)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_small_shapes_vs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(1, 9, size=3)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - naive_matmul(a, b)).max() < 1e-10

    def test_inner_dim_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_batched_with_2d_weight_gradients(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        T.backward(T.reduce_sum(T.matmul(a, b)))
        assert a.grad.shape == a.shape and b.grad.shape == b.shape


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0])).data
        assert np.abs(out - 1 / 3).max() < 1e-15

    def test_large_values_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0])).data
        assert abs(out[0] - 1.0) < 1e-12 and abs(out[1]) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_sums_to_one_with_large_magnitudes(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1e3, 1e3, size=(4, 6)))
        for axis in (0, 1):
            sums = T.softmax(x, axis=axis).data.sum(axis=axis)
            assert np.abs(sums - 1.0).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(4, 5)))
        rep = T.fd_check(lambda x: T.reduce_sum(T.mul(T.softmax(x, axis=-1), w)),
                         Tensor(rng.normal(size=(4, 5))), tol=1e-4)
        assert rep.passed, rep.max_rel_err


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        assert np.array_equal(T.conv2d(x, w, np.zeros(3)).data, x.data)

    def test_all_ones_overlap_counting(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, np.zeros(1), padding=1).data[0, 0]
        assert out[1, 1] == 9.0 and out[0, 0] == 4.0 and out[0, 3] == 4.0

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 3)])
    def test_against_naive_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 7, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=padding).data
        assert np.abs(got - naive_conv2d(x, w, b, stride, padding)).max() < 1e-10

    def test_channel_mismatch_error(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 1, 3, 3))), np.zeros(2))

    def test_nonpositive_output_error(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))), np.zeros(1))

    def test_one_by_one_on_a_strided_view_matches_the_padded_path(self):
        # padding 0 skips the pad, and a 1x1 stride-1 kernel skips im2col, so
        # x reaches the product as a transposed view of a channels-last map
        rng = np.random.default_rng(5)
        hwc = rng.normal(size=(2, 5, 4, 3))
        w, b = rng.normal(size=(4, 3, 1, 1)), rng.normal(size=4)
        r = rng.normal(size=(2, 4, 5, 4))
        runs = []
        for padding in (0, 1):
            x = Tensor(hwc.transpose(0, 3, 1, 2), requires_grad=True)
            assert not x.data.flags.c_contiguous
            out = T.conv2d(x, Tensor(w), Tensor(b), padding=padding)
            if padding:
                out = T.slice_(out, (slice(None), slice(None), slice(1, -1), slice(1, -1)))
            T.backward(T.reduce_sum(T.mul(out, Tensor(r))))
            runs.append((out.data, x.grad))
        (val, dx), (val_padded, dx_padded) = runs
        assert np.abs(val - naive_conv2d(hwc.transpose(0, 3, 1, 2), w, b, 1, 0)).max() < 1e-12
        assert np.array_equal(val, val_padded)
        assert dx.flags.c_contiguous and np.array_equal(dx, dx_padded)


class TestDepthwiseConv2d:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("shape", [(2, 1, 1, 3), (1, 1, 6, 1), (2, 5, 4, 3)])
    def test_against_per_channel_naive_oracle(self, k, shape):
        rng = np.random.default_rng(40 + k)
        x = rng.normal(size=shape)
        w = rng.normal(size=(shape[-1], 1, k, k))
        b = rng.normal(size=shape[-1])
        got = T.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert got.shape == shape
        assert np.abs(got - naive_depthwise(x, w, b)).max() < 1e-10

    @pytest.mark.parametrize("op", [T.depthwise_conv2d, T.depthwise_gelu])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("slab", [1, 24])
    def test_row_slabs_agree_with_one_pass(self, slab, k, op, monkeypatch):
        # one-row slabs, or two-row slabs with a ragged last one; at k = 5 the
        # halos the backward refills reach past the neighbouring slab
        rng = np.random.default_rng(46)
        x = Tensor(rng.normal(size=(2, 5, 3, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, k, k)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        r = rng.normal(size=(2, 5, 3, 2))
        grads = []
        for size in (1 << 15, slab):
            monkeypatch.setattr(T, "_DEPTHWISE_SLAB", size)
            out = op(x, w, b)
            T.backward(T.reduce_sum(T.mul(out, Tensor(r))))
            grads.append((out.data, x.grad, w.grad, b.grad))
            x.grad = w.grad = b.grad = None
        want = naive_depthwise(x.data, w.data, b.data)
        if op is T.depthwise_gelu:
            want = T.gelu(Tensor(want)).data
        assert np.abs(grads[1][0] - want).max() < 1e-10
        # each output and input-gradient row is summed from its own slab's
        # halo alone; only the weight gradient adds up per-slab sums
        (val, dx, dw, db), (val_s, dx_s, dw_s, db_s) = grads
        assert np.array_equal(val, val_s)
        assert np.array_equal(dx, dx_s)
        assert np.array_equal(db, db_s)
        assert np.abs(dw - dw_s).max() < 1e-12

    @pytest.mark.parametrize("k,hw", [(3, (2, 3)), (5, (1, 4))])
    def test_gradients_match_finite_differences(self, k, hw):
        # every tap reaches into the zero border somewhere on maps this small
        rng = np.random.default_rng(47)
        x = rng.normal(size=(2, *hw, 3))
        w = rng.normal(size=(3, 1, k, k))
        b = rng.normal(size=3)
        r = Tensor(rng.normal(size=(2, *hw, 3)))

        def loss(xx, ww, bb):
            return T.reduce_sum(T.mul(T.depthwise_conv2d(xx, ww, bb), r))

        for rep in (T.fd_check(lambda v: loss(v, Tensor(w), Tensor(b)), Tensor(x)),
                    T.fd_check(lambda v: loss(Tensor(x), v, Tensor(b)), Tensor(w)),
                    T.fd_check(lambda v: loss(Tensor(x), Tensor(w), v), Tensor(b))):
            assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((4, 4, 3), (3, 1, 3, 3), (3,)),          # 3-D input
        ((1, 4, 4, 3), (3, 3, 3, 3), (3,)),       # dense weight
        ((1, 4, 4, 3), (2, 1, 3, 3), (3,)),       # channel count mismatch
        ((1, 4, 4, 3), (3, 1, 3, 5), (3,)),       # non-square kernel
        ((1, 4, 4, 3), (3, 1, 3), (3,)),          # 3-D weight
        ((1, 4, 4, 3), (3, 1, 2, 2), (3,)),       # even kernel
        ((1, 4, 4, 3), (3, 1, 3, 3), (4,)),       # bias of the wrong width
        ((1, 4, 4, 3), (3, 1, 3, 3), (1, 3)),     # bias of the wrong rank
    ])
    def test_shape_errors(self, x_shape, w_shape, b_shape):
        for op in (T.depthwise_conv2d, T.depthwise_gelu):
            with pytest.raises(T.ShapeError, match=op.__name__):
                op(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))


def run_with_grads(fn, inputs, r, record):
    """Output of ``fn`` on fresh leaves holding ``inputs`` and, when
    ``record``, the gradients of sum(output * r) for every input."""
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    T.active_tape().clear()
    if not record:
        with T.no_grad():
            out = fn(*leaves)
        assert not out.requires_grad and len(T.active_tape()) == 0
        return [out.data]
    out = fn(*leaves)
    T.backward(T.reduce_sum(T.mul(out, Tensor(r))))
    return [out.data] + [leaf.grad for leaf in leaves]


class TestFusedOps:
    """``linear`` and ``depthwise_gelu`` equal the chains they replace, bit for bit."""

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)])
    def test_linear_equals_matmul_plus_bias(self, x_shape, record):
        rng = np.random.default_rng(60)
        inputs = [rng.normal(size=x_shape), rng.normal(size=(4, 6)), rng.normal(size=6)]
        r = rng.normal(size=x_shape[:-1] + (6,))
        fused = run_with_grads(T.linear, inputs, r, record)
        chain = run_with_grads(lambda x, w, b: T.add(T.matmul(x, w), b), inputs, r, record)
        assert len(fused) == (4 if record else 1)
        for got, want in zip(fused, chain):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("slab", [1, 24, T._DEPTHWISE_SLAB])
    def test_depthwise_gelu_equals_conv_then_gelu(self, slab, record, monkeypatch):
        # one-row slabs, two-row slabs with a ragged last one, or one slab
        monkeypatch.setattr(T, "_DEPTHWISE_SLAB", slab)
        rng = np.random.default_rng(61)
        inputs = [rng.normal(size=(2, 5, 3, 2)) * 2, rng.normal(size=(2, 1, 3, 3)),
                  rng.normal(size=2)]
        r = rng.normal(size=(2, 5, 3, 2))
        fused = run_with_grads(T.depthwise_gelu, inputs, r, record)
        chain = run_with_grads(lambda x, w, b: T.gelu(T.depthwise_conv2d(x, w, b)),
                               inputs, r, record)
        assert len(fused) == (4 if record else 1)
        for got, want in zip(fused, chain):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_raise(self, which, bad):
        rng = np.random.default_rng(62)
        cases = ((T.linear, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)),
                             rng.normal(size=2)]),
                 (T.depthwise_gelu, [rng.normal(size=(1, 3, 3, 2)),
                                     rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2)]))
        for op, inputs in cases:
            inputs[which].reshape(-1)[0] = bad
            with pytest.raises(T.NumericalError, match=f"{op.__name__} produced"):
                op(*(Tensor(a) for a in inputs))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_depthwise_gelu_raises_when_the_conv_overflows(self, sign):
        # finite inputs whose taps sum past the float64 range, either way
        x = Tensor(np.full((1, 3, 3, 1), sign * 1e308))
        w, b = Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(T.NumericalError, match="depthwise_conv2d"):
                T.depthwise_conv2d(x, w, b)
            with pytest.raises(T.NumericalError, match="depthwise_gelu"):
                T.depthwise_gelu(x, w, b)

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((4,), (4, 2), (2,)),             # 1-D input
        ((3, 4), (5, 2), (2,)),           # inner dims differ
        ((3, 4), (2, 4, 2), (2,)),        # batched weight
        ((3, 4), (4, 2), (3,)),           # bias of the wrong width
        ((3, 4), (4, 2), (1, 2)),         # bias of the wrong rank
    ])
    def test_linear_shape_errors(self, x_shape, w_shape, b_shape):
        with pytest.raises(T.ShapeError, match="linear"):
            T.linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)),
                     Tensor(np.ones(b_shape)))


def unfused_core(op, heads):
    """The chain of tape ops that ``blocks.Attention`` ran in place of ``op``:
    head splits, the two softmaxes and products, and the merge."""
    def split(x):
        b, n, c = x.shape
        return T.transpose(T.reshape(x, (b, n, heads, c // heads)), (0, 2, 1, 3))

    def core(q, k, v):
        q, k, v = split(q), split(k), split(v)
        if op is T.linear_attention:
            ctx = T.matmul(T.transpose(T.softmax(k, axis=-2), (0, 1, 3, 2)), v)
            y = T.matmul(T.softmax(q, axis=-1), ctx)
        else:
            scale = 1.0 / math.sqrt(q.shape[-1])
            scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), scale)
            y = T.matmul(T.softmax(scores, axis=-1), v)
        b, a, n, d = y.shape
        return T.reshape(T.transpose(y, (0, 2, 1, 3)), (b, n, a * d))

    return core


# (op, heads, N, M, cross): self and cross attention (keys and values
# through swap_halves), 1 and 8 heads over 16 features, and N != M as SEA's
# reduced keys give
ATTENTION_CASES = [(op, heads, n, m, cross)
                   for op in (T.attention, T.linear_attention)
                   for heads, n, m, cross in ((1, 5, 5, False), (8, 5, 5, False),
                                              (8, 5, 5, True), (2, 6, 3, True),
                                              (1, 10, 4, False))]


def attention_inputs(seed, n, m, c=16):
    rng = np.random.default_rng(seed)
    return ([rng.normal(size=(2, n, c)), rng.normal(size=(2, m, c)), rng.normal(size=(2, m, c))],
            rng.normal(size=(2, n, c)))


class TestAttentionCores:
    """``attention`` and ``linear_attention`` against the unfused chain they
    replaced in ``blocks.Attention``."""

    @staticmethod
    def with_keys(fn, cross):
        return (lambda q, k, v: fn(q, T.swap_halves(k), T.swap_halves(v))) if cross else fn

    @pytest.mark.parametrize("rows", [T._ATTENTION_ROWS, 4])
    @pytest.mark.parametrize("op,heads,n,m,cross", ATTENTION_CASES)
    def test_equals_the_unfused_chain(self, op, heads, n, m, cross, rows, monkeypatch):
        # rows = 4 runs N = 10 queries as three row blocks, the last one ragged
        monkeypatch.setattr(T, "_ATTENTION_ROWS", rows)
        inputs, r = attention_inputs(70, n, m)
        fused = run_with_grads(self.with_keys(lambda q, k, v: op(q, k, v, heads), cross),
                               inputs, r, True)
        chain = run_with_grads(self.with_keys(unfused_core(op, heads), cross), inputs, r, True)
        for got, want in zip(fused, chain):
            if op is T.linear_attention or n <= rows:
                assert np.array_equal(got, want)
            else:  # the key and value gradients sum the row blocks one by one
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("op", [T.attention, T.linear_attention])
    def test_linear_gradients_equal_the_chain_bit_for_bit(self, op):
        # the input gradients keep the chain's memory layout, so the q, k and
        # v linears' weight and bias sums add in the same order
        rng = np.random.default_rng(76)
        inputs = [rng.normal(size=s) for s in [(2, 9, 8)] + [(8, 8)] * 3 + [(8,)] * 3]

        def projected(core):
            def fn(x, *params):
                q, k, v = (T.linear(x, w, b) for w, b in zip(params[:3], params[3:]))
                return core(q, k, v)
            return fn

        r = rng.normal(size=(2, 9, 8))
        fused = run_with_grads(projected(lambda q, k, v: op(q, k, v, 2)), inputs, r, True)
        chain = run_with_grads(projected(unfused_core(op, 2)), inputs, r, True)
        for got, want in zip(fused, chain):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("op,heads,n,m,cross", ATTENTION_CASES)
    def test_gradients_match_finite_differences(self, op, heads, n, m, cross, monkeypatch):
        monkeypatch.setattr(T, "_ATTENTION_ROWS", 4)
        inputs, r = attention_inputs(71, n, m)
        core = self.with_keys(lambda q, k, v: op(q, k, v, heads), cross)
        for i in range(3):
            def loss(x, i=i):
                args = [Tensor(a) for a in inputs]
                args[i] = x
                return T.reduce_sum(T.mul(core(*args), Tensor(r)))

            rep = T.fd_check(loss, Tensor(inputs[i]), tol=1e-4)
            assert rep.passed, (i, rep.max_rel_err)

    @pytest.mark.parametrize("op", [T.attention, T.linear_attention])
    def test_one_node_per_call(self, op):
        inputs, _ = attention_inputs(72, 6, 4)
        T.active_tape().clear()
        op(*(Tensor(a, requires_grad=True) for a in inputs), 4)
        assert [node.name for node in T.active_tape().nodes] == [op.__name__]
        T.active_tape().clear()

    def test_more_queries_than_one_row_block(self):
        inputs, r = attention_inputs(73, T._ATTENTION_ROWS + 44, 9, c=8)
        fused = run_with_grads(lambda q, k, v: T.attention(q, k, v, 2), inputs, r, True)
        chain = run_with_grads(unfused_core(T.attention, 2), inputs, r, True)
        for got, want in zip(fused, chain):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("op", [T.attention, T.linear_attention])
    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raises_where_the_chain_raised(self, op, which, bad):
        # a -inf that a softmax maps to probability 0 leaves both results
        # finite (linear attention's queries or keys); every other case raises
        inputs, _ = attention_inputs(74, 5, 3)
        inputs[which][1, 0, 0] = bad

        def raises(fn):
            try:
                with np.errstate(invalid="ignore", over="ignore"):
                    fn(*(Tensor(a) for a in inputs))
            except T.NumericalError as e:
                return str(e)
            return None

        fused = raises(lambda q, k, v: op(q, k, v, 2))
        assert (fused is None) == (raises(unfused_core(op, 2)) is None)
        assert (fused is None) == (op is T.linear_attention and bad == -np.inf and which < 2)
        assert fused is None or fused.startswith(f"{op.__name__} produced")

    def test_overflowing_score_raises_as_the_chain_did(self):
        # one score is -inf; its probability is 0, so the output is finite,
        # but the chain's product raised, and so must the op
        inputs, _ = attention_inputs(75, 3, 3, c=4)
        inputs[0][0, 0] = 1e200
        inputs[1][0, 0] = -1e200
        for op in (lambda q, k, v: T.attention(q, k, v, 1), unfused_core(T.attention, 1)):
            with np.errstate(over="ignore"):
                with pytest.raises(T.NumericalError):
                    op(*(Tensor(a) for a in inputs))

    @pytest.mark.parametrize("shapes,heads", [
        (((4, 8), (1, 4, 8), (1, 4, 8)), 2),        # 2-D queries
        (((1, 3, 8), (1, 4, 8), (1, 5, 8)), 2),     # keys and values differ
        (((2, 3, 8), (1, 4, 8), (1, 4, 8)), 2),     # batch differs
        (((1, 3, 8), (1, 4, 6), (1, 4, 6)), 2),     # width differs
        (((1, 3, 8), (1, 4, 8), (1, 4, 8)), 3),     # heads do not divide the width
    ])
    def test_shape_errors(self, shapes, heads):
        for op in (T.attention, T.linear_attention):
            with pytest.raises(T.ShapeError, match=op.__name__):
                op(*(Tensor(np.ones(s)) for s in shapes), heads)


class TestShortAxisReduce:
    @pytest.mark.parametrize("ufunc", [np.add, np.maximum])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_ufunc_reduce_bit_for_bit(self, ufunc, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, 40, n)) * 10.0 ** rng.integers(-8, 9, size=(3, 40, n))
        x[0, :5] = -0.0                  # rows of negative zeros: add starts from 0.0
        x[1, :5, 0] = 0.0
        for view in (x, np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1),
                     x.transpose(1, 0, 2)):
            got, want = T._reduce_keep(ufunc, view, 2), ufunc.reduce(view, axis=2, keepdims=True)
            assert got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def traced_peak(fn):
    """``fn()``'s result, and the bytes it allocated at its peak beyond those
    it still holds afterwards."""
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - kept


def traced_held(fn):
    """``fn()``'s result, and the bytes it allocated that are still held
    afterwards beyond the result's own array (kept by its tape node)."""
    T.active_tape().clear()
    tracemalloc.start()
    try:
        out = fn()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        T.active_tape().clear()
    return out, kept - out.data.nbytes


class TestNoGradBuffers:
    """``conv2d`` builds one image's im2col columns at a time and the
    depthwise ops pad one slab and its halo at a time, with or without a
    tape node, and the backward rebuilds them from the input.  Values are
    the same bit for bit either way, and a recorded node holds no copy of
    its input; only ``depthwise_gelu``'s keeps a full-size pre-activation
    and tanh."""

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("k,stride,padding", [
        (1, 1, 0), (1, 2, 0), (1, 1, 1), (3, 1, 0), (3, 1, 1), (3, 2, 1),
        (7, 1, 3), (7, 2, 3)])
    def test_conv2d_equals_the_recording_path(self, k, stride, padding, transposed):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(3, 11, 9, 4)).transpose(0, 3, 1, 2) if transposed \
            else rng.normal(size=(3, 4, 11, 9))
        inputs = [x, rng.normal(size=(5, 4, k, k)), rng.normal(size=5)]

        def conv(xx, ww, bb):
            return T.conv2d(xx, ww, bb, stride=stride, padding=padding)
        (val,) = run_with_grads(conv, inputs, None, record=False)
        recorded = run_with_grads(conv, inputs, rng.normal(size=val.shape), record=True)
        assert np.array_equal(val, recorded[0])

    @pytest.mark.parametrize("op", [T.depthwise_conv2d, T.depthwise_gelu])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("slab", [1, 24, T._DEPTHWISE_SLAB])
    def test_depthwise_equals_the_recording_path(self, op, k, slab, monkeypatch):
        # one-row slabs and two-row slabs, whose halos reach past the
        # neighbouring slab when k = 5, or one slab
        monkeypatch.setattr(T, "_DEPTHWISE_SLAB", slab)
        rng = np.random.default_rng(64)
        inputs = [rng.normal(size=(2, 5, 3, 2)) * 2, rng.normal(size=(2, 1, k, k)),
                  rng.normal(size=2)]
        (val,) = run_with_grads(op, inputs, None, record=False)
        recorded = run_with_grads(op, inputs, rng.normal(size=val.shape), record=True)
        assert np.array_equal(val, recorded[0])

    def test_conv2d_peak_is_below_the_full_im2col_buffer(self):
        rng = np.random.default_rng(65)
        x = Tensor(rng.normal(size=(4, 8, 32, 32)))
        w = Tensor(rng.normal(size=(8, 8, 3, 3)))
        cols_bytes = 4 * 8 * 9 * 32 * 32 * 8
        with T.no_grad():
            out, peak = traced_peak(lambda: T.conv2d(x, w, np.zeros(8), padding=1))
        assert peak < 0.5 * cols_bytes
        assert out.shape == (4, 8, 32, 32)

    @pytest.mark.parametrize("op", [T.depthwise_conv2d, T.depthwise_gelu])
    def test_depthwise_peak_is_below_the_padded_map(self, op):
        rng = np.random.default_rng(66)
        x = Tensor(rng.normal(size=(2, 256, 16, 32)))
        w, b = Tensor(rng.normal(size=(32, 1, 3, 3))), Tensor(rng.normal(size=32))
        padded_bytes = 2 * 258 * 18 * 32 * 8
        with T.no_grad():
            out, peak = traced_peak(lambda: op(x, w, b))
        assert peak < padded_bytes
        assert out.shape == x.shape

    def test_recorded_conv2d_holds_no_im2col_copy(self):
        rng = np.random.default_rng(67)
        x = Tensor(rng.normal(size=(4, 8, 32, 32)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
        cols_bytes = 4 * 8 * 9 * 32 * 32 * 8
        out, held = traced_held(lambda: T.conv2d(x, w, np.zeros(8), padding=1))
        assert out.requires_grad
        assert held < 0.5 * cols_bytes

    @pytest.mark.parametrize("op", [T.depthwise_conv2d, T.depthwise_gelu])
    def test_recorded_depthwise_holds_no_padded_map(self, op):
        rng = np.random.default_rng(68)
        x = Tensor(rng.normal(size=(2, 256, 16, 32)), requires_grad=True)
        w, b = Tensor(rng.normal(size=(32, 1, 3, 3))), Tensor(rng.normal(size=32))
        padded_bytes = 2 * 258 * 18 * 32 * 8
        # depthwise_gelu's node keeps the full pre-activation and tanh
        kept_bytes = 2 * x.data.nbytes if op is T.depthwise_gelu else 0
        out, held = traced_held(lambda: op(x, w, b))
        assert out.requires_grad
        assert held < kept_bytes + padded_bytes


class TestLayerNorm:
    def test_constant_input_zero_before_affine(self):
        gain = Tensor(np.ones(6))
        off = Tensor(np.zeros(6))
        out = T.layer_norm(Tensor(np.full((3, 6), 2.5)), gain, off).data
        assert np.abs(out).max() < 1e-6

    def test_moments(self):
        rng = np.random.default_rng(6)
        out = T.layer_norm(Tensor(rng.normal(scale=4.0, size=(10, 16))),
                           Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(7)
        gain = Tensor(rng.normal(size=(6,)) * 0.2 + 1.0)
        off = Tensor(rng.normal(size=(6,)) * 0.1)
        w = Tensor(rng.normal(size=(4, 6)))
        rep = T.fd_check(lambda x: T.reduce_sum(T.mul(T.layer_norm(x, gain, off), w)),
                         Tensor(rng.normal(size=(4, 6))), tol=1e-4)
        assert rep.passed, rep.max_rel_err


class TestStructural:
    def test_reshape_roundtrip(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4, 5)))
        assert np.array_equal(T.reshape(T.reshape(x, (12, 5)), (3, 4, 5)).data, x.data)

    def test_transpose_involution(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert np.array_equal(T.transpose(T.transpose(x, (2, 0, 1)), (1, 2, 0)).data,
                              x.data)

    def test_upsample_constant(self):
        out = T.bilinear_upsample2x(Tensor(np.full((1, 2, 3, 5), 7.5)))
        assert out.shape == (1, 2, 6, 10)
        assert np.abs(out.data - 7.5).max() < 1e-12

    def test_upsample_gradient(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.normal(size=(1, 2, 6, 6)))
        rep = T.fd_check(lambda x: T.reduce_sum(T.mul(T.bilinear_upsample2x(x), w)),
                         Tensor(rng.normal(size=(1, 2, 3, 3))), tol=1e-4)
        assert rep.passed

    def test_l2_normalize_345(self):
        out = T.l2_normalize(Tensor([[3.0, 4.0]])).data
        assert np.abs(out - [0.6, 0.8]).max() < 1e-15

    def test_l2_normalize_zero_row_stays_zero(self):
        out = T.l2_normalize(Tensor([[0.0, 0.0], [1.0, 0.0]])).data
        assert np.array_equal(out[0], [0.0, 0.0]) and np.array_equal(out[1], [1.0, 0.0])

    def test_concat_and_split_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        T.backward(T.reduce_sum(T.mul(T.concat([a, b], axis=1), 2.0)))
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))
        assert np.array_equal(b.grad, np.full((2, 2), 2.0))

    def test_slice_gradient_scatters(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        T.backward(T.reduce_sum(T.slice_(x, (slice(1, 3), slice(0, 2)))))
        expect = np.zeros((3, 4))
        expect[1:3, 0:2] = 1.0
        assert np.array_equal(x.grad, expect)

    def test_swap_halves_exchanges_and_is_self_inverse(self):
        x = Tensor(np.random.default_rng(14).normal(size=(4, 3, 2)))
        y = T.swap_halves(x)
        assert np.array_equal(y.data[:2], x.data[2:]) and np.array_equal(y.data[2:], x.data[:2])
        assert np.array_equal(T.swap_halves(y).data, x.data)

    def test_swap_halves_gradient(self):
        rng = np.random.default_rng(15)
        w = Tensor(rng.normal(size=(2, 3, 4)))
        rep = T.fd_check(lambda x: T.reduce_sum(T.mul(T.mul(T.swap_halves(x), x), w)),
                         Tensor(rng.normal(size=(2, 3, 4))), tol=1e-4)
        assert rep.passed, rep.max_rel_err

    def test_swap_halves_odd_leading_axis_rejected(self):
        with pytest.raises(T.ShapeError):
            T.swap_halves(Tensor(np.zeros((3, 2))))

    def test_window_gather_matches_direct_crop(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 8, 8))
        got = T.window_gather(Tensor(m), np.array([3]), np.array([4]), 2).data
        assert np.array_equal(got[0], m[:, 1:6, 2:7])

    # A and B maps of different H x W; A centres (1, 2) and B centres (0, 5)
    # repeat, and the B windows reach past every border of the 5 x 6 map
    wd_a = np.array([[1, 2], [1, 2], [3, 0], [0, 4], [2, 3]])
    wd_b = np.array([[2, 3], [0, 0], [4, 5], [0, 5], [0, 5]])

    def test_window_dot_matches_clamped_crop_oracle(self):
        rng = np.random.default_rng(16)
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 6))
        got = T.window_dot(Tensor(a), Tensor(b), self.wd_a, self.wd_b, 2, 0.7).data
        assert got.shape == (5, 25)
        for k, ((ra, ca), (rb, cb)) in enumerate(zip(self.wd_a, self.wd_b)):
            for t in range(25):
                r, c = rb + t // 5 - 2, cb + t % 5 - 2
                inside = 0 <= r < 5 and 0 <= c < 6
                want = 0.7 * (a[:, ra, ca] @ b[:, min(max(r, 0), 4), min(max(c, 0), 5)]) \
                    + (0.0 if inside else -1e9)
                assert abs(got[k, t] - want) <= 1e-12 * max(1.0, abs(want))

    def test_window_dot_gradients(self):
        rng = np.random.default_rng(17)
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 6))
        w = Tensor(rng.normal(size=(5, 9)))

        def loss(aa, bb):
            logits = T.window_dot(aa, bb, self.wd_a, self.wd_b, 1, 0.7)
            return T.reduce_sum(T.mul(T.softmax(logits, axis=-1), w))

        for rep in (T.fd_check(lambda t: loss(t, Tensor(b)), Tensor(a)),
                    T.fd_check(lambda t: loss(Tensor(a), t), Tensor(b))):
            assert rep.passed, rep.max_rel_err

    def test_window_dot_empty_and_shape_errors(self):
        a = Tensor(np.ones((3, 4, 4)), requires_grad=True)
        none = np.zeros((0, 2), dtype=int)
        out = T.window_dot(a, Tensor(np.ones((3, 2, 6))), none, none, 2, 1.0)
        assert out.shape == (0, 25)
        T.backward(T.reduce_sum(out))
        assert np.array_equal(a.grad, np.zeros((3, 4, 4)))
        one = np.array([[1, 1]])
        for bad in (lambda: T.window_dot(a, a, np.array([[4, 0]]), one, 1, 1.0),
                    lambda: T.window_dot(a, a, np.array([[0, -1]]), one, 1, 1.0),
                    lambda: T.window_dot(a, Tensor(np.ones((2, 4, 4))), one, one, 1, 1.0),
                    lambda: T.window_dot(a, Tensor(np.ones((4, 4))), one, one, 1, 1.0),
                    lambda: T.window_dot(a, a, np.array([[1, 1], [2, 2]]), one, 1, 1.0),
                    lambda: T.window_dot(a, a, np.array([1, 1]), np.array([1, 1]), 1, 1.0)):
            with pytest.raises(T.ShapeError):
                bad()

    def test_take_pairs(self):
        p = Tensor(np.arange(20.0).reshape(4, 5))
        got = T.take_pairs(p, np.array([0, 3]), np.array([1, 4])).data
        assert got.tolist() == [1.0, 19.0]


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(T.reduce_sum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gives_2x(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        T.backward(T.reduce_sum(T.mul(x, x)))
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_gradients_accumulate_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        T.backward(T.reduce_sum(T.add(T.mul(x, 3.0), T.mul(x, 4.0))))
        assert x.grad[0] == 7.0

    def test_leaf_loss_accumulates_in_place(self):
        x = Tensor([3.0], requires_grad=True)
        T.backward(x)
        first = x.grad
        T.backward(x)
        assert x.grad is first and x.grad[0] == 2.0

    def test_second_backward_of_a_consumed_graph_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = T.reduce_sum(T.mul(x, x))
        T.backward(y)
        with pytest.raises(RuntimeError, match="already consumed"):
            T.backward(y)
        assert np.array_equal(x.grad, [0.0, 2.0, 4.0]) and y._g is None
        assert len(T.active_tape()) == 0

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(T.ShapeError):
            T.backward(T.mul(x, 2.0))

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.mul(x, 3.0)
        assert not y.requires_grad

    def test_tape_scope_drops_the_nodes_of_a_forward_that_raises(self):
        T.active_tape().clear()
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(T.NumericalError):
            T.log(T.mul(x, -1.0))
        assert len(T.active_tape()) == 1  # what an unscoped forward leaves
        T.active_tape().clear()
        with pytest.raises(T.NumericalError):
            with T.tape_scope():
                T.log(T.mul(x, -1.0))
        assert len(T.active_tape()) == 0

    def test_tape_scope_keeps_the_nodes_of_a_forward_that_returns(self):
        T.active_tape().clear()
        x = Tensor(np.arange(3.0), requires_grad=True)
        with T.tape_scope():
            y = T.reduce_sum(T.mul(x, x))
        assert len(T.active_tape()) == 2
        T.backward(y)
        assert np.array_equal(x.grad, 2.0 * x.data)


def fd_cases(seed):
    """(scalar function, input) pairs whose tapes hold every op."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(3, 6)))
    w4 = Tensor(rng.normal(size=(1, 2, 6, 6)))
    mm = Tensor(rng.normal(size=(6, 4)))
    ln_g = Tensor(rng.normal(size=(6,)) * 0.2 + 1.0)
    ln_b = Tensor(rng.normal(size=(6,)) * 0.1)
    cw = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.4)
    x, m3, m4 = (Tensor(rng.normal(size=shape)) for shape in ((3, 6), (1, 2, 3, 3),
                                                              (1, 2, 4, 4)))
    wc = Tensor(rng.normal(size=(6, 6)))
    win = Tensor(rng.normal(size=(2, 2, 3, 3)))
    wd = Tensor(rng.normal(size=(2, 9)))
    dw, db = Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.4), Tensor(rng.normal(size=2))
    cases = [
        lambda x: T.reduce_sum(T.mul(T.sigmoid(x), w)),
        lambda x: T.reduce_sum(T.mul(T.gelu(x), w)),
        lambda x: T.reduce_sum(T.mul(T.exp(T.mul(x, 0.3)), w)),
        lambda x: T.reduce_sum(T.mul(T.softmax(x, -1), w)),
        lambda x: T.reduce_sum(T.mul(T.l2_normalize(x), w)),
        lambda x: T.reduce_mean(T.log(T.add(T.mul(x, x), 1.0))),
        lambda x: T.reduce_sum(T.sqrt(T.add(T.mul(x, x), 0.3))),
        lambda x: T.reduce_sum(T.div(w, T.add(T.mul(x, x), 1.5))),
        lambda x: T.reduce_sum(T.maximum_scalar(x, 0.1)),
        lambda x: T.reduce_sum(T.mul(T.matmul(x, mm), T.matmul(x, mm))),
        lambda x: T.reduce_sum(T.mul(y := T.linear(x, mm, lb), y)),
        lambda x: T.reduce_sum(T.mul(T.layer_norm(x, ln_g, ln_b), w)),
        lambda x: T.reduce_sum(T.mul(T.transpose(T.reshape(x, (2, 9)), (1, 0)),
                                     T.transpose(T.reshape(w, (2, 9)), (1, 0)))),
        lambda x: T.reduce_sum(T.mul(T.sub(x, w), T.sub(w, x))),
        lambda x: T.reduce_sum(T.mul(T.concat([x, T.mul(x, x)], axis=0), wc)),
        lambda x: T.reduce_sum(T.mul(T.slice_(x, (slice(0, 2), slice(1, 5))),
                                     T.slice_(w, (slice(1, 3), slice(2, 6))))),
        lambda x: T.reduce_sum(T.mul(T.swap_halves(T.reshape(x, (6, 3))),
                                     T.reshape(w, (6, 3)))),
        lambda x: T.reduce_sum(T.mul(T.take_pairs(x, [0, 2, 1, 2], [5, 0, 3, 3]),
                                     Tensor([0.5, -1.0, 2.0, 1.5]))),
    ]
    map_cases = [
        (lambda m: T.reduce_sum(T.mul(T.bilinear_upsample2x(m), w4)), m3),
        (lambda m: T.reduce_sum(T.mul(c := T.conv2d(m, cw, np.zeros(2), padding=1), c)), m4),
        (lambda m: T.reduce_sum(T.mul(T.window_gather(m, [1, 2], [2, 1], 1), win)),
         Tensor(rng.normal(size=(2, 4, 4)))),
        (lambda m: T.reduce_sum(T.mul(T.softmax(T.window_dot(
            m, T.slice_(m, (slice(None), slice(1, 4), slice(0, 3))), [[1, 2], [3, 0]],
            [[0, 2], [2, 0]], 1, 0.7), axis=-1), wd)), Tensor(rng.normal(size=(2, 4, 4)))),
        (lambda m: T.reduce_sum(T.mul(c := T.depthwise_conv2d(m, dw, db), c)),
         Tensor(rng.normal(size=(1, 4, 4, 2)))),
        (lambda m: T.reduce_sum(T.mul(c := T.depthwise_gelu(m, dw, db), c)),
         Tensor(rng.normal(size=(1, 4, 4, 2)))),
    ]
    lb = Tensor(rng.normal(size=4))  # drawn after the cases above, so they keep their inputs
    cb = Tensor(rng.normal(size=(1, 3, 2, 2)))
    # a repeated row and a shared column among the labelled cells
    map_cases.append((lambda m: M.dual_softmax_nll(M.coarse_pass(m, cb, 0.5), [0, 3, 5, 5],
                                                   [1, 1, 0, 2]),
                      Tensor(rng.normal(size=(1, 3, 2, 3)))))
    wa = Tensor(rng.normal(size=(2, 3, 4)))
    for core in (T.attention, T.linear_attention):
        map_cases.append((lambda m, core=core: T.reduce_sum(T.mul(
            core(m, T.swap_halves(m), T.mul(m, m), 2), wa)), Tensor(rng.normal(size=(2, 3, 4)))))
    return [(fn, x) for fn in cases] + map_cases


def recorded_ops(fn, x):
    """Names of the tape nodes that ``fn`` records on a grad-requiring ``x``."""
    T.active_tape().clear()
    fn(Tensor(x.data, requires_grad=True))
    names = {node.name for node in T.active_tape().nodes}
    T.active_tape().clear()
    return names


class TestFdCheck:
    def test_sum_is_exact(self):
        rng = np.random.default_rng(12)
        rep = T.fd_check(T.reduce_sum, Tensor(rng.normal(size=(3, 3))), tol=1e-10)
        assert rep.passed

    def test_softmax_sum_of_squares(self):
        rng = np.random.default_rng(13)
        rep = T.fd_check(lambda x: T.reduce_sum(T.mul(sm := T.softmax(x, -1), sm)),
                         Tensor(rng.normal(size=(3, 5))), tol=1e-4)
        assert rep.passed

    @pytest.mark.parametrize("op", sorted(T._OPS))
    def test_corrupted_rule_is_detected(self, op):
        fn, x = next((fn, x) for fn, x in fd_cases(0) if op in recorded_ops(fn, x))
        assert T.fd_check(fn, x, tol=1e-4).passed
        T.inject_fault(op)
        try:
            rep = T.fd_check(fn, x, tol=1e-4)
        finally:
            T.clear_faults()
        assert not rep.passed

    def test_fault_names_are_the_ops_that_record_nodes(self):
        in_source = set(re.findall(r'_op\("(\w+)"',
                                   inspect.getsource(T) + inspect.getsource(M)))
        recorded = set().union(*(recorded_ops(fn, x) for fn, x in fd_cases(0)))
        assert in_source == recorded == T._OPS
        with pytest.raises(ValueError, match="valid ops"):
            T.inject_fault("nosuchop")

    @pytest.mark.parametrize("seed", range(10))
    def test_every_op_passes_on_random_seeds(self, seed):
        for fn, x in fd_cases(seed):
            assert T.fd_check(fn, x, tol=1e-4).passed

    @pytest.mark.parametrize("seed", range(8))
    def test_conv_and_matmul_random_small_shapes_vs_oracles(self, seed):
        rng = np.random.default_rng(seed + 100)
        b, cin, cout = rng.integers(1, 4, size=3)
        h, wd = rng.integers(4, 9, size=2)
        k = int(rng.choice([1, 3]))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 3))
        x = rng.normal(size=(b, cin, h, wd))
        wt = rng.normal(size=(cout, cin, k, k))
        bias = rng.normal(size=cout)
        got = T.conv2d(Tensor(x), Tensor(wt), Tensor(bias), stride=stride,
                       padding=padding).data
        assert np.abs(got - naive_conv2d(x, wt, bias, stride, padding)).max() < 1e-10
