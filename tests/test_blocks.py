"""Blocks: patch embeddings, attention kernels, FFN, residual wiring."""

import tracemalloc

import numpy as np
import pytest

from matchformer import blocks as B
from matchformer import selftest as S
from matchformer import tensor as T
from matchformer.blocks import (CHECKPOINT_MAGIC, Attention, AttentionBlock, MixFFN,
                                PosPatchEmbed, StdPatchEmbed, load_checkpoint,
                                save_checkpoint, seq_to_map, sinusoidal_position_code)
from matchformer.encoder import make_config
from matchformer.model import MatchModel
from matchformer.tensor import Tensor
from matchformer.trainer import TrainConfig


def rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestPosPatchEmbed:
    def test_zero_input_zero_biases_gives_zero(self):
        pe = PosPatchEmbed(np.random.default_rng(0), 1, 8, 7, 4)
        pe.proj.bias.data[:] = 0.0
        pe.gate.bias.data[:] = 0.0
        out = pe(Tensor(np.zeros((1, 1, 32, 32))))
        assert np.abs(out.data).max() == 0.0

    @pytest.mark.parametrize("stride,expect", [(4, 16), (2, 32)])
    def test_stage1_output_extent(self, stride, expect):
        pe = PosPatchEmbed(np.random.default_rng(1), 1, 128, 7, stride)
        out = pe(Tensor(np.random.default_rng(2).uniform(size=(1, 1, 64, 64))))
        assert out.shape == (1, expect, expect, 128)  # channels-last

    def test_saturated_gate_reduces_to_plain_conv(self):
        rng = np.random.default_rng(3)
        pe = PosPatchEmbed(rng, 1, 6, 7, 4)
        pe.gate.weight.data[:] = 0.0
        pe.gate.bias.data[:] = 50.0  # sigmoid(50) == 1 to double precision
        x = Tensor(rng.uniform(size=(1, 1, 32, 32)))
        plain = T.conv2d(x, pe.proj.weight, pe.proj.bias, stride=4, padding=3)
        assert np.abs(pe(x).data - plain.data.transpose(0, 2, 3, 1)).max() < 1e-15

    def test_indivisible_extent_rejected(self):
        pe = PosPatchEmbed(np.random.default_rng(4), 1, 8, 7, 4)
        with pytest.raises(T.ShapeError):
            pe(Tensor(np.zeros((1, 1, 30, 32))))


class TestConv2d:
    @pytest.mark.parametrize("pe", ["pos", "std"])
    @pytest.mark.parametrize("attention", ["la", "sea", "full"])
    @pytest.mark.parametrize("variant", ["lite", "large"])
    def test_every_model_conv_pads_half_its_kernel(self, monkeypatch, variant, attention, pe):
        model = MatchModel(make_config(variant, attention, pe, channels=(8, 12, 16, 24),
                                       coarse_channels=16, fine_channels=16,
                                       fusion_channels=16), seed=0)
        padded = {}
        real = T.conv2d

        def recorded(x, w, b, stride=1, padding=0):
            padded[id(w)] = (w.shape[-1], padding)
            return real(x, w, b, stride=stride, padding=padding)

        monkeypatch.setattr(T, "conv2d", recorded)
        img = Tensor(np.random.default_rng(0).uniform(size=(1, 1, 64, 64)))
        with T.no_grad():
            model.forward_pair(img, img)
        got = {name: padded[id(p)] for name, p in model.named_parameters() if id(p) in padded}
        expect = {f"decoder.laterals.{i}.weight": (1, 0) for i in range(4)}
        expect.update({f"decoder.smooths.{i}.weight": (3, 1) for i in range(3)})
        expect.update({"decoder.coarse_head.weight": (1, 0), "decoder.fine_head.weight": (1, 0)})
        if pe == "pos":  # the std embedding projects patches with a linear layer
            expect["encoder.stages.0.pe.proj.weight"] = (7, 3)
            expect.update({f"encoder.stages.{i}.pe.proj.weight": (3, 1) for i in (1, 2, 3)})
        assert all(pad == k // 2 for k, pad in got.values())
        assert got == expect
        assert len(padded) == len(expect)


class TestStdPatchEmbed:
    def test_whole_image_patch_gives_single_token(self):
        pe = StdPatchEmbed(np.random.default_rng(5), 1, 16, 8)
        out = pe(Tensor(np.random.default_rng(6).uniform(size=(1, 1, 8, 8))))
        assert out.shape == (1, 1, 1, 16)

    def test_token_count(self):
        pe = StdPatchEmbed(np.random.default_rng(7), 1, 16, 4)
        out = pe(Tensor(np.zeros((1, 1, 64, 64))))
        assert out.shape == (1, 16, 16, 16)  # 64 * 64 / 16 tokens, channels-last

    def test_position_code_origin_values(self):
        code = sinusoidal_position_code(4, 4, 16)
        origin = code[0]
        assert np.array_equal(origin[0::2], np.zeros(8))  # sin(0)
        assert np.array_equal(origin[1::2], np.ones(8))   # cos(0)


class TestFullAttention:
    def test_single_kv_token_returns_projected_v(self):
        rng = np.random.default_rng(8)
        attn = Attention(rng, "full", 16, 4)
        q_src = Tensor(rng.normal(size=(1, 6, 16)))
        kv = Tensor(rng.normal(size=(1, 1, 16)))
        out = attn(q_src, kv, (1, 1)).data
        v_row = (kv.data @ attn.v.weight.data + attn.v.bias.data)
        expect = v_row @ attn.out.weight.data + attn.out.bias.data
        assert np.abs(out - expect).max() < 1e-12

    def test_matches_bruteforce_softmax_oracle(self):
        rng = np.random.default_rng(9)
        attn = Attention(rng, "full", 8, 2)
        q_src = Tensor(rng.normal(size=(1, 5, 8)))
        kv = Tensor(rng.normal(size=(1, 7, 8)))
        got = attn(q_src, kv, (7, 1))
        assert S.attention_error(got, attn, q_src, kv, (7, 1)) < 1e-12

    def test_kv_permutation_invariance(self):
        rng = np.random.default_rng(10)
        attn = Attention(rng, "full", 16, 4)
        q_src = Tensor(rng.normal(size=(1, 6, 16)))
        kv = Tensor(rng.normal(size=(1, 12, 16)))
        perm = rng.permutation(12)
        err = S.kv_permutation_error(lambda m: attn(q_src, Tensor(m), (3, 4)), kv, perm)
        assert err < 1e-10

    def test_query_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        attn = Attention(rng, "full", 16, 4)
        q_src = Tensor(rng.normal(size=(1, 6, 16)))
        kv = Tensor(rng.normal(size=(1, 9, 16)))
        perm = rng.permutation(6)
        a = attn(Tensor(q_src.data[:, perm]), kv, (3, 3)).data
        b = attn(q_src, kv, (3, 3)).data[:, perm]
        assert np.abs(a - b).max() < 1e-12


class TestLinearAttention:
    def test_single_token_collapses_to_v(self):
        rng = np.random.default_rng(12)
        attn = Attention(rng, "la", 16, 4)
        x = Tensor(rng.normal(size=(1, 1, 16)))
        out = attn(x, x, (1, 1)).data
        v_row = x.data @ attn.v.weight.data + attn.v.bias.data
        expect = v_row @ attn.out.weight.data + attn.out.bias.data
        assert np.abs(out - expect).max() < 1e-12

    def test_kv_permutation_invariance(self):
        rng = np.random.default_rng(13)
        attn = Attention(rng, "la", 16, 8)
        q_src = Tensor(rng.normal(size=(1, 5, 16)))
        kv = Tensor(rng.normal(size=(1, 16, 16)))
        perm = rng.permutation(16)
        err = S.kv_permutation_error(lambda m: attn(q_src, Tensor(m), (4, 4)), kv, perm)
        assert err < 1e-12

    def test_agrees_with_unfactorized_oracle_n16(self):
        rng = np.random.default_rng(14)
        attn = Attention(rng, "la", 32, 4)
        x = Tensor(rng.normal(size=(1, 16, 32)))
        assert S.attention_error(attn(x, x, (4, 4)), attn, x, x, (4, 4)) < 1e-12


class TestSpatialEfficientAttention:
    def test_r1_equals_full_bit_exact(self):
        full = Attention(np.random.default_rng(15), "full", 32, 4)
        sea = Attention(np.random.default_rng(16), "sea", 32, 4, reduction=1)
        S.copy_weights(full, sea)
        x = Tensor(np.random.default_rng(17).normal(size=(2, 16, 32)))
        assert np.array_equal(full(x, x, (4, 4)).data, sea(x, x, (4, 4)).data)

    def test_r4_reduces_16x16_to_16_tokens(self):
        rng = np.random.default_rng(18)
        attn = Attention(rng, "sea", 16, 1, reduction=4)
        kv = Tensor(rng.normal(size=(1, 256, 16)))
        reduced = attn._reduce(kv, (16, 16))
        assert reduced.shape == (1, 16, 16)

    def test_r2_matches_straightline_reimplementation(self):
        rng = np.random.default_rng(19)
        attn = Attention(rng, "sea", 8, 2, reduction=2)
        q_src = Tensor(rng.normal(size=(1, 16, 8)))
        kv = Tensor(rng.normal(size=(1, 16, 8)))
        got = attn(q_src, kv, (4, 4))
        assert S.attention_error(got, attn, q_src, kv, (4, 4)) < 1e-12

    def test_indivisible_reduction_rejected(self):
        attn = Attention(np.random.default_rng(20), "sea", 8, 2, reduction=4)
        with pytest.raises(T.ShapeError):
            attn(Tensor(np.zeros((1, 6, 8))), Tensor(np.zeros((1, 6, 8))), (2, 3))


class TestAttentionMemory:
    """Full attention at N = 4096 tokens (dim 64, 1 head) holds one row block
    of scores at a time, never the N x N matrix: 4096^2 float64 is 134 MB."""

    n = 4096

    def traced(self, fn):
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_no_grad_peak_below_32_mb(self):
        rng = np.random.default_rng(31)
        attn = Attention(rng, "full", 64, 1)
        x = Tensor(rng.normal(size=(1, self.n, 64)))
        with T.no_grad():
            peak = self.traced(lambda: attn(x, x, (64, 64)))
        assert peak < 32e6, peak

    def test_forward_and_backward_peak_below_one_score_matrix(self):
        rng = np.random.default_rng(32)
        attn = Attention(rng, "full", 64, 1)
        x = Tensor(rng.normal(size=(1, self.n, 64)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, self.n, 64)))
        T.active_tape().clear()
        peak = self.traced(lambda: T.backward(T.reduce_sum(T.mul(attn(x, x, (64, 64)), w))))
        assert x.grad.any() and attn.q.weight.grad.any()
        assert peak < self.n * self.n * 8, peak


class TestMixFFN:
    def test_zero_weights_zero_output(self):
        ffn = MixFFN(np.random.default_rng(21), 8)
        for _, p in ffn.named_parameters():
            p.data[:] = 0.0
        out = ffn(Tensor(np.random.default_rng(22).normal(size=(1, 9, 8))), (3, 3))
        assert np.abs(out.data).max() == 0.0

    def test_hidden_width_is_expansion_times_dim(self):
        ffn = MixFFN(np.random.default_rng(23), 128)
        assert ffn.fc1.weight.shape == (128, 512)

    def test_depthwise_weights_keep_checkpoint_names_and_shapes(self):
        ffn = MixFFN(np.random.default_rng(25), 8)
        shapes = {n: p.shape for n, p in ffn.named_parameters()}
        assert shapes["dw.weight"] == (32, 1, 3, 3) and shapes["dw.bias"] == (32,)
        pe = PosPatchEmbed(np.random.default_rng(26), 1, 8, 7, 4)
        shapes = {n: p.shape for n, p in pe.named_parameters()}
        assert shapes["gate.weight"] == (8, 1, 3, 3) and shapes["gate.bias"] == (8,)

    def test_extent_mismatch_rejected(self):
        ffn = MixFFN(np.random.default_rng(27), 8)
        with pytest.raises(T.ShapeError):
            ffn(Tensor(np.zeros((1, 9, 8))), (2, 4))

    def test_gradient_through_block(self):
        rng = np.random.default_rng(24)
        block = AttentionBlock(rng, dim=8, heads=2, kind="la")
        w = Tensor(rng.normal(size=(1, 4, 8)))
        rep = T.fd_check(lambda x: T.reduce_sum(T.mul(block(x, (2, 2), cross=False), w)),
                         Tensor(rng.normal(size=(1, 4, 8))), tol=1e-3)
        assert rep.passed, rep.max_rel_err


def stack(xa, xb):
    return T.concat([xa, xb], axis=0)


class TestAttentionBlock:
    def make(self, seed, kind="full"):
        return AttentionBlock(np.random.default_rng(seed), dim=16, heads=4, kind=kind)

    def test_self_mode_ignores_partner(self):
        rng = np.random.default_rng(25)
        block = self.make(26)
        xa = Tensor(rng.normal(size=(1, 9, 16)))
        xb = Tensor(rng.normal(size=(1, 9, 16)))
        y1 = block(stack(xa, xb), (3, 3), cross=False)
        y2 = block(stack(xa, Tensor(np.zeros((1, 9, 16)))), (3, 3), cross=False)
        assert S.stream_a_unchanged([y1], [y2])

    def test_cross_with_identical_streams_equals_self(self):
        rng = np.random.default_rng(27)
        block = self.make(28)
        x = Tensor(rng.normal(size=(1, 9, 16)))
        yc = block(stack(x, x), (3, 3), cross=True)
        ys = block(stack(x, x), (3, 3), cross=False)
        assert np.array_equal(yc.data, ys.data)
        assert np.array_equal(yc.data[:1], yc.data[1:])

    def test_swap_symmetry(self):
        rng = np.random.default_rng(29)
        block = self.make(30)
        xa = Tensor(rng.normal(size=(1, 9, 16)))
        xb = Tensor(rng.normal(size=(1, 9, 16)))
        y_ab = block(stack(xa, xb), (3, 3), cross=True)
        y_ba = block(stack(xb, xa), (3, 3), cross=True)
        assert S.swap_symmetric([y_ab], [y_ba])

    def test_output_shape_preserved(self):
        rng = np.random.default_rng(31)
        for kind, red in (("full", 1), ("la", 1), ("sea", 2)):
            block = AttentionBlock(np.random.default_rng(32), 16, 4, kind, red)
            x = Tensor(rng.normal(size=(1, 16, 16)))
            y = block(stack(x, Tensor(x.data + 1)), (4, 4), cross=True)
            assert y.shape == (2, 16, 16)

    def test_all_parameters_receive_gradient(self):
        rng = np.random.default_rng(33)
        block = AttentionBlock(np.random.default_rng(34), 8, 2, "sea", 2)
        x = Tensor(rng.normal(size=(2, 16, 8)))
        y = block(x, (4, 4), cross=True)
        T.backward(T.reduce_sum(T.mul(y, y)))
        dead = [n for n, p in block.named_parameters()
                if p.grad is None or np.abs(p.grad).max() == 0.0]
        assert dead == []

    def test_records_the_fused_ops(self):
        # every Linear is one `linear` node and MixFFN's conv + GELU one
        # `depthwise_gelu`; a fall-back to the unfused chain shows up here
        block = AttentionBlock(np.random.default_rng(35), 8, 2, "sea", 2)
        T.active_tape().clear()
        block(Tensor(np.random.default_rng(36).normal(size=(2, 16, 8))), (4, 4), cross=True)
        nodes = list(T.active_tape().nodes)
        T.active_tape().clear()
        names = [n.name for n in nodes]
        linears = [block.attn.sr, block.attn.q, block.attn.k, block.attn.v, block.attn.out,
                   block.ffn.fc1, block.ffn.fc2]
        assert [n.parents[1] for n in nodes if n.name == "linear"] == \
            [lin.weight for lin in linears]
        assert names.count("depthwise_gelu") == 1
        assert "gelu" not in names and "depthwise_conv2d" not in names
        adds = [n for n in nodes if n.name == "add"]
        assert len(adds) == 2  # the two residual adds, no bias add
        assert all(p.shape == (2, 16, 8) for n in adds for p in n.parents)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        block = AttentionBlock(np.random.default_rng(35), 8, 2, "sea", 2)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, block.named_parameters())
        other = AttentionBlock(np.random.default_rng(99), 8, 2, "sea", 2)
        load_checkpoint(path, into=other)
        for (_, a), (_, b) in zip(block.named_parameters(), other.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_name_mismatch_rejected(self, tmp_path):
        block = AttentionBlock(np.random.default_rng(36), 8, 2, "full")
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, block.named_parameters())
        other = AttentionBlock(np.random.default_rng(37), 8, 2, "sea", 2)
        with pytest.raises(ValueError):
            load_checkpoint(path, into=other)

    def test_truncated_file_rejected(self, tmp_path):
        block = AttentionBlock(np.random.default_rng(41), 8, 2, "full")
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, block.named_parameters()[:2])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("into", [False, True], ids=["state", "into"])
    def test_duplicate_name_rejected(self, tmp_path, into):
        module = B.Module()
        module.w, module.v = Tensor(np.ones(2)), Tensor(np.ones(3))
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, [("w", np.zeros(2)), ("v", np.zeros(3)), ("w", np.full(2, 5.0))])
        with pytest.raises(ValueError, match="tensor 'w' appears twice") as info:
            load_checkpoint(path, into=module if into else None)
        assert str(path) in str(info.value)

    def test_snapshot_header_format(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, [("w", np.zeros((2, 3))), ("v", np.ones((3, 4, 2)))])
        lines = path.read_text().splitlines()
        assert lines[1:3] == ["w", "shape: 2 3"]
        assert lines[4:6] == ["v", "shape: 3 4 2"]

    def test_snapshot_roundtrip_exact(self, tmp_path):
        arr = np.random.default_rng(14).normal(size=(3, 4, 2))
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, [("v", arr)])
        assert np.array_equal(load_checkpoint(path)["v"], arr)

    def test_malformed_snapshot_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(CHECKPOINT_MAGIC + "\nw\nshap: 2 2\n1 2 3 4\n")
        with pytest.raises(ValueError, match="shape:"):
            load_checkpoint(path)

    def test_load_into_copies_the_state(self, tmp_path):
        block = AttentionBlock(np.random.default_rng(42), 8, 2, "la")
        state = {name: p.data.copy() for name, p in block.named_parameters()}
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, list(state.items()))
        other = AttentionBlock(np.random.default_rng(43), 8, 2, "la")
        load_checkpoint(path, into=other)
        for arr in state.values():
            arr[...] = 7.0
        for (_, a), (_, b) in zip(block.named_parameters(), other.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_seq_map_roundtrip(self):
        rng = np.random.default_rng(38)
        x = Tensor(rng.normal(size=(2, 4, 6, 5)))
        seq = T.reshape(T.transpose(x, (0, 2, 3, 1)), (2, 30, 4))
        assert np.array_equal(seq_to_map(seq, 6, 5).data, x.data)


# ---------------------------------------------------------------------------
# Streaming checkpoint loader against the whole-file loader it replaced
# ---------------------------------------------------------------------------


def _oracle_parse_snapshot(tokens):
    if len(tokens) < 2 or tokens[0] != "shape:":
        raise ValueError("tensor snapshot must start with 'shape:'")
    shape = []
    i = 1
    while i < len(tokens):
        try:
            shape.append(int(tokens[i]))
        except ValueError:
            break
        i += 1
    count = int(np.prod(shape)) if shape else 1
    vals = tokens[i:i + count]
    if len(vals) != count:
        raise ValueError(f"tensor snapshot expects {count} values, found {len(vals)}")
    return np.array([float(v) for v in vals]).reshape(shape)


def _oracle_load_checkpoint(path):
    """The loader as it was before it streamed: the whole file, then its line
    list, then one Python float per value."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic line)")
    out = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        name = lines[i].strip()
        if i + 2 >= len(lines):
            raise ValueError(f"{path}: truncated at tensor {name!r}")
        tokens = (lines[i + 1] + " " + lines[i + 2]).split()
        out[name] = _oracle_parse_snapshot(tokens)
        i += 3
    return out


def _outcome(load, path):
    """Names in order with shapes and bytes, or the exception's type and text."""
    try:
        state = load(path)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e), str(e)
    return [(name, arr.shape, arr.dtype, arr.tobytes()) for name, arr in state.items()]


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                    1.7976931348623157e308, -1e-300, 1e300, 0.1, -1 / 3])
MAGIC = CHECKPOINT_MAGIC
WELL_FORMED = MAGIC + "\nw\nshape: 2\n1.0 -2.5\nv\nshape: 1 2\n3.0 4.0\n"
EDGE_FILES = {  # malformed files, and odd ones the loader accepts
    "bad-magic": "# matchformer-checkpoint v2\nw\nshape: 1\n1.0\n",
    "empty-file": "",
    "magic-not-first": "\n" + WELL_FORMED,
    "truncated-after-name": MAGIC + "\nw\n",
    "truncated-after-header": MAGIC + "\nw\nshape: 2\n",
    "truncated-header-without-line-end": MAGIC + "\nw\nshape: 2",
    "name-blank-end": MAGIC + "\nw\n\n",
    "blank-header-and-body": MAGIC + "\nw\n\n\n",
    "blank-lines-between-tensors":
        MAGIC + "\n\n\nw\nshape: 2\n1.0 2.0\n\n\nv\nshape: 1\n3.0\n\n",
    "short-body": MAGIC + "\nw\nshape: 2 2\n1.0 2.0 3.0\n",
    "non-numeric-token": MAGIC + "\nw\nshape: 2\n1.0 abc\n",
    "shap-header": MAGIC + "\nw\nshap: 2 2\n1 2 3 4\n",
    "no-final-line-end": MAGIC + "  \nw\nshape: 2\n1.0 2.0",
    "crlf": WELL_FORMED.replace("\n", "\r\n"),
    "crlf-truncated": (MAGIC + "\nw\nshape: 2\n").replace("\n", "\r\n"),
}


class TestStreamingLoader:
    def test_saved_checkpoints_load_as_with_the_whole_file(self, tmp_path):
        block = AttentionBlock(np.random.default_rng(44), 8, 2, "sea", 2)
        extra = [("special", SPECIAL.reshape(3, 4)), ("scalar", np.array(2.5)),
                 ("empty", np.zeros((0, 3)))]
        model = MatchModel(TrainConfig(channels=(8, 8, 8, 16), coarse_channels=8,
                                       fine_channels=8, fusion_channels=8).model_config())
        for k, params in enumerate((block.named_parameters() + extra,
                                    model.named_parameters())):
            path = tmp_path / f"ckpt{k}.txt"
            save_checkpoint(path, params)
            want = _outcome(_oracle_load_checkpoint, path)
            assert [w[0] for w in want] == [name for name, _ in params]
            assert _outcome(load_checkpoint, path) == want

    @pytest.mark.parametrize("text", EDGE_FILES.values(), ids=EDGE_FILES.keys())
    def test_edge_files_fail_or_load_as_with_the_whole_file(self, tmp_path, text):
        path = tmp_path / "ckpt.txt"
        path.write_bytes(text.encode())
        assert _outcome(load_checkpoint, path) == _outcome(_oracle_load_checkpoint, path)

    def test_integer_body_tokens_are_values(self, tmp_path):
        # the whole-file loader read them as two more dimensions, shape [2, 1, 2]
        path = tmp_path / "ckpt.txt"
        path.write_text(MAGIC + "\nw\nshape: 2\n1 2\n")
        w = load_checkpoint(path)["w"]
        assert w.shape == (2,) and w.tolist() == [1.0, 2.0]

    def test_extra_values_are_an_error(self, tmp_path):
        # the whole-file loader dropped the third value and loaded [1.0, 2.0]
        path = tmp_path / "ckpt.txt"
        path.write_text(MAGIC + "\nw\nshape: 2\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="expects 2 values, found 3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", ["shape: 2 x", "shape: 2.0", "shape: -1",
                                        "shape: 2 1.0 2.0"],
                             ids=["letter", "decimal-point", "negative", "values"])
    def test_shape_header_holds_integers_only(self, tmp_path, header):
        path = tmp_path / "ckpt.txt"
        path.write_text(f"{MAGIC}\nw\n{header}\n1.0 2.0\n")
        with pytest.raises(ValueError, match="non-negative integers"):
            load_checkpoint(path)

    def test_peak_memory_is_one_tensor_not_the_file(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        rng = np.random.default_rng(45)
        save_checkpoint(path, [(f"t{i}", rng.normal(size=400)) for i in range(250)])
        size = path.stat().st_size
        peaks = {}
        for load in (load_checkpoint, _oracle_load_checkpoint):
            tracemalloc.start()
            try:
                state = load(path)  # noqa: F841 - held so that it counts as kept
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[load] = peak - kept
        assert peaks[_oracle_load_checkpoint] > size  # the measure sees the file
        assert peaks[load_checkpoint] < 0.1 * size


class TestLoadIntoModule:
    def make_model(self, seed):
        return MatchModel(TrainConfig(channels=(8, 8, 8, 16), coarse_channels=8,
                                      fine_channels=8, fusion_channels=8).model_config(),
                          seed=seed)

    def test_load_equals_apply_of_the_state(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        self.make_model(1).save(path)
        into = self.make_model(2)
        assert load_checkpoint(path, into=into) is None
        state = load_checkpoint(path)
        assert [name for name, _ in into.named_parameters()] == list(state)
        for name, a in into.named_parameters():
            assert np.array_equal(a.data, state[name])
            assert a.data.flags.c_contiguous and a.data.dtype == np.float64

    @pytest.mark.parametrize("case,message", [
        ("missing", "checkpoint mismatch: missing=['attn.k.weight', 'norm1.gain'] extra=[]"),
        ("extra", "checkpoint mismatch: missing=[] extra=['attn.sr.weight']"),
        ("both", "checkpoint mismatch: missing=['attn.k.weight', 'norm1.gain'] "
                 "extra=['attn.sr.weight']"),
        ("shape", "checkpoint shape mismatch at attn.q.bias: (3,) vs (8,)")],
        ids=["missing", "extra", "both", "shape"])
    def test_mismatches_raise_apply_checkpoints_messages(self, tmp_path, case, message):
        params = dict(AttentionBlock(np.random.default_rng(46), 8, 2, "full")
                      .named_parameters())
        saved = {n: p.data for n, p in params.items()}
        if case in ("missing", "both"):
            del saved["attn.k.weight"], saved["norm1.gain"]
        if case in ("extra", "both"):
            saved["attn.sr.weight"] = np.zeros((2, 2))
        if case == "shape":
            saved["attn.q.bias"] = np.zeros(3)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, list(saved.items()))
        with pytest.raises(ValueError) as info:
            load_checkpoint(path, into=AttentionBlock(np.random.default_rng(47), 8, 2, "full"))
        assert str(info.value) == message
        assert ("shape mismatch at attn.q.bias" if case == "shape"
                else "checkpoint mismatch") in str(info.value)

    def test_peak_memory_is_one_tensor_not_the_state(self, tmp_path):
        rng = np.random.default_rng(48)
        module = B.Module()
        for i in range(500):
            setattr(module, f"t{i}", Tensor(rng.normal(size=400)))
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, module.named_parameters())
        state_bytes = 500 * 400 * 8
        peaks = {}
        for name, load in (("into", lambda: load_checkpoint(path, into=module)),
                           ("state", lambda: load_checkpoint(path))):
            tracemalloc.start()
            try:
                load()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[name] = peak - kept
        assert peaks["state"] > state_bytes  # the measure sees the whole state
        assert peaks["into"] < 0.1 * state_bytes


def _oracle_trunc_normal(rng, shape, std=0.02):
    """The whole-array redraw loop that trunc_normal replaced."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


class TestTruncNormal:
    @pytest.mark.parametrize("shape", [(1,), (7,), (64, 256), (3, 5, 11), (0, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_equal_the_whole_array_loop(self, shape, seed):
        for std in (0.02, 1.0):
            (r1, r2) = rng_pair(seed)
            got, want = B.trunc_normal(r1, shape, std), _oracle_trunc_normal(r2, shape, std)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.abs(got).max(initial=0.0) <= 2 * std
            assert r1.random() == r2.random()  # the generators drew as much

    def test_seeded_lite_sea_parameters_unchanged(self, monkeypatch):
        new = MatchModel(make_config("lite", "sea"), seed=5)
        monkeypatch.setattr(B, "trunc_normal", _oracle_trunc_normal)
        old = MatchModel(make_config("lite", "sea"), seed=5)
        for (na, a), (nb, b) in zip(new.named_parameters(), old.named_parameters()):
            assert na == nb and a.data.tobytes() == b.data.tobytes()
