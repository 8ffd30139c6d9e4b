"""Negative controls for the shared reference checks in `matchformer.selftest`.

Each case runs one check twice: on the code under test, where it must pass,
and on a copy corrupted by a known amount, where it must fail.  A check that
compared the code with itself would pass both.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from matchformer import data as D
from matchformer import evalkit as E
from matchformer import matcher as M
from matchformer import selftest as S
from matchformer import tensor as T
from matchformer.blocks import Attention
from matchformer.tensor import Tensor


def shifted(h_mat, dx=1.0):
    """``h_mat`` followed by a translation of ``dx`` px along x."""
    shift = np.eye(3)
    shift[0, 2] = dx
    return shift @ h_mat


def matmul(corrupt):
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
    got = T.matmul(Tensor(a), Tensor(b)).data
    if corrupt:
        got[1, 2] += 1e-9
    return np.abs(got - S.naive_matmul(a, b)).max() < 1e-10


def conv2d(corrupt):
    rng = np.random.default_rng(1)
    x, w, bias = rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    kernel = w[:, :, ::-1, ::-1].copy() if corrupt else w  # convolution for correlation
    got = T.conv2d(Tensor(x), Tensor(kernel), Tensor(bias), stride=2, padding=1).data
    return np.abs(got - S.naive_conv2d(x, w, bias, 2, 1)).max() < 1e-10


def depthwise(corrupt):
    rng = np.random.default_rng(18)
    x, w, bias = rng.normal(size=(2, 5, 4, 3)), rng.normal(size=(3, 1, 3, 3)), rng.normal(size=3)
    kernel = w.transpose(0, 1, 3, 2).copy() if corrupt else w  # rows for columns
    got = T.depthwise_conv2d(Tensor(x), Tensor(kernel), Tensor(bias)).data
    return np.abs(got - S.naive_depthwise(x, w, bias)).max() < 1e-10


def attention(kind, reduction, layer):
    def check(corrupt):
        ref = Attention(np.random.default_rng(2), kind, 8, 2, reduction)
        subject = Attention(np.random.default_rng(2), kind, 8, 2, reduction)
        if corrupt:  # a weight that only the module sees
            getattr(subject, layer).weight.data[0, 0] += 1e-6
        rng = np.random.default_rng(3)
        q_src, kv = Tensor(rng.normal(size=(1, 16, 8))), Tensor(rng.normal(size=(1, 16, 8)))
        return S.attention_error(subject(q_src, kv, (4, 4)), ref, q_src, kv, (4, 4)) < 1e-12
    return check


def kv_permutation(corrupt):
    rng = np.random.default_rng(4)
    attn = Attention(rng, "full", 16, 4)
    q_src, kv = Tensor(rng.normal(size=(1, 6, 16))), rng.normal(size=(1, 12, 16))
    code = 0.1 * np.arange(12)[None, :, None] if corrupt else 0.0  # keys tagged by position

    def attend(m):
        return attn(q_src, Tensor(m + code), (3, 4))

    return S.kv_permutation_error(attend, kv, rng.permutation(12)) < 1e-10


def sea_r1_bit_exact(corrupt):
    full = Attention(np.random.default_rng(5), "full", 16, 4)
    sea = Attention(np.random.default_rng(6), "sea", 16, 4, reduction=1)
    S.copy_weights(full, sea)
    if corrupt:
        sea.out.weight.data[0, 0] *= 1 + 1e-9
    x = Tensor(np.random.default_rng(7).normal(size=(2, 9, 16)))
    return np.array_equal(full(x, x, (3, 3)).data, sea(x, x, (3, 3)).data)


def mnn(corrupt):
    p = np.random.default_rng(8).uniform(size=(10, 10))
    pairs = M.select_coarse(p, 0.0).pairs.copy()
    if corrupt:  # the first two matches exchange their B cells
        pairs[[0, 1], 1] = pairs[[1, 0], 1]
    return S.mnn_matches_bruteforce(pairs, p, 0.0)


def dual_softmax(corrupt):
    s = Tensor(np.random.default_rng(9).normal(size=(5, 7)) * 3)
    probs = T.softmax(s, axis=1) if corrupt else M.dual_softmax(s)  # row softmax alone
    return S.dual_softmax_error(probs, s) < 1e-13


def pyramids(seed):
    """A two-stream pyramid, and a copy of it in which stream B changed."""
    rng = np.random.default_rng(seed)
    p = [rng.normal(size=(2, c, n, n)) for c, n in ((4, 8), (6, 4), (8, 2))]
    return p, [np.stack([x[0], x[1] + 1.0]) for x in p]


def swap_symmetry(corrupt):
    p_ab, _ = pyramids(10)
    p_ba = [np.concatenate([x[1:], x[:1]]) for x in p_ab]
    if corrupt:  # one level's halves left in place
        p_ba[1] = p_ab[1]
    return S.swap_symmetric(p_ab, p_ba)


def no_cross_factorization(corrupt):
    p, p2 = pyramids(11)
    if corrupt:  # one ulp of stream A
        p2[2][0, 0, 0, 0] = np.nextafter(p2[2][0, 0, 0, 0], np.inf)
    return S.stream_a_unchanged(p, p2)


def cross_sensitivity(corrupt):
    p, p2 = pyramids(12)
    if not corrupt:  # B's change reached A at the coarsest level
        p2[-1][0, 0, 0, 0] += 1e-3
    return S.stream_a_change(p, p2) > 0


def dlt(corrupt):
    h_gt = D.random_homography(13, size=(64, 64))
    pts_a = np.random.default_rng(13).uniform(2, 62, size=(24, 2))
    pts_b = D.hom_apply(h_gt, pts_a)
    h = E.dlt_homography(np.concatenate([pts_a, pts_b], axis=1))
    return S.reprojection_error(shifted(h) if corrupt else h, pts_a, pts_b) < 1e-8


def corner_error(corrupt):
    h_est = D.random_homography(15, size=(64, 64))
    h_gt = D.random_homography(16, size=(64, 64))
    got = E.corner_error(h_est, h_gt, 63 if corrupt else 64, 64)  # right corners one px in
    return got == S.mean_corner_distance(h_est, h_gt, 64, 64)


def mma(corrupt):
    rng = np.random.default_rng(17)
    h_gt = D.random_homography(17, size=(64, 64))
    pts_a = rng.uniform(2, 62, size=(30, 2))
    m = np.concatenate([pts_a, D.hom_apply(h_gt, pts_a) + rng.normal(0, 2, size=(30, 2))], 1)
    curve, _ = E.mma(m, shifted(h_gt) if corrupt else h_gt)
    return S.mma_error(curve, m, h_gt) == 0.0


CASES = {
    "matmul-one-entry-off": matmul,
    "conv2d-flipped-kernel": conv2d,
    "depthwise-transposed-kernel": depthwise,
    "attention-full-k-weight": attention("full", 1, "k"),
    "attention-la-v-weight": attention("la", 1, "v"),
    "attention-sea-r2-reduction-weight": attention("sea", 2, "sr"),
    "kv-permutation-position-tagged-keys": kv_permutation,
    "sea-r1-weight-changed-after-copy": sea_r1_bit_exact,
    "mnn-swapped-pair": mnn,
    "dual-softmax-row-softmax-only": dual_softmax,
    "swap-symmetry-level-not-swapped": swap_symmetry,
    "no-cross-one-ulp-of-stream-a": no_cross_factorization,
    "cross-sensitivity-stream-a-unchanged": cross_sensitivity,
    "dlt-one-pixel-off": dlt,
    "corner-error-one-corner-off": corner_error,
    "mma-one-pixel-off": mma,
}


@pytest.mark.parametrize("check", CASES.values(), ids=CASES.keys())
def test_passes_the_subject_and_fails_its_corruption(check):
    assert check(corrupt=False)
    assert not check(corrupt=True)


def test_attention_group_fails_on_a_wrong_full_attention_scale(monkeypatch):
    assert S.attention_equivalences(0)[0]
    # 1/d in place of 1/sqrt(d); SEA with R = 1 shares the scale, so it still
    # equals full attention bit for bit, and only the reference sees the change
    monkeypatch.setattr(T, "math", SimpleNamespace(**{**vars(math), "sqrt": lambda v: v}))
    ok, detail = S.attention_equivalences(0)
    assert not ok and "SEA(R=1)==FULL True" in detail
