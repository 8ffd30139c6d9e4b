"""Self-contained invariant suite behind `matchformer selftest`, and the one
copy of each reference check that the test suite shares with it.

Each group re-derives its expected values from an independent oracle (naive
loops, finite differences, brute-force scans) so a single corrupted rule
anywhere in the stack turns the run red.  The reference checks compute their
expected values with numpy alone: they read module weights, but call no
`tensor` op and no module, so a fault in the code under test cannot also
enter its reference.  The groups run them on fixed inputs; the tests run them
with their own seeds, shapes and tolerances.
"""

from __future__ import annotations

import numpy as np

from . import data as D
from . import evalkit as E
from . import matcher as M
from . import tensor as T
from .blocks import Attention, AttentionBlock
from .encoder import make_config
from .model import MatchModel
from .tensor import Tensor


# ---------------------------------------------------------------------------
# Reference checks (numpy only)
# ---------------------------------------------------------------------------


def _arr(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x))  # a Tensor's values, or the array


def naive_matmul(a, b):
    """[m, k] @ [k, n] as a triple loop."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i, j, p in np.ndindex(a.shape[0], b.shape[1], a.shape[1]):
        out[i, j] += a[i, p] * b[p, j]
    return out


def naive_conv2d(x, w, bias, stride, padding):
    """Zero-padded [B, C, H, W] convolution, one output value at a time."""
    h, wd = x.shape[2:]
    k = w.shape[-1]
    out = np.zeros((len(x), len(w), (h + 2 * padding - k) // stride + 1,
                    (wd + 2 * padding - k) // stride + 1))
    for n, o, oy, ox in np.ndindex(out.shape):
        acc = bias[o]
        for c, ky, kx in np.ndindex(w.shape[1:]):
            iy, ix = oy * stride + ky - padding, ox * stride + kx - padding
            if 0 <= iy < h and 0 <= ix < wd:
                acc += x[n, c, iy, ix] * w[o, c, ky, kx]
        out[n, o, oy, ox] = acc
    return out


def naive_depthwise(x, w, bias):
    """Channels-last depthwise conv as ``naive_conv2d`` with a kernel zero off the diagonal."""
    dense = np.eye(len(w))[:, :, None, None] * w
    return naive_conv2d(np.transpose(x, (0, 3, 1, 2)), dense, bias, 1,
                        w.shape[-1] // 2).transpose(0, 2, 3, 1)


def _softmax(m, axis):
    e = np.exp(m - m.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _linear(layer, x):
    return x @ layer.weight.data + layer.bias.data


def attention_error(got, attn: Attention, q_src, kv_src, kv_hw) -> float:
    """Max |got - reference| for ``attn`` of any kind and reduction, over
    [B, N, C] queries and [B, M, C] keys/values on the ``kv_hw`` grid.  The
    reference gathers each RxR key/value block in a loop, and materialises
    linear attention's N x N matrix."""
    q_src, kv_src = _arr(q_src), _arr(kv_src)
    if attn.kind == "sea" and attn.reduction > 1:
        r, (h, w) = attn.reduction, kv_hw
        kv_map = kv_src.reshape(len(kv_src), h, w, -1)
        blocks = [kv_map[:, i:i + r, j:j + r].reshape(len(kv_map), -1)
                  for i in range(0, h, r) for j in range(0, w, r)]
        red = _linear(attn.sr, np.stack(blocks, axis=1))
        mu = red.mean(-1, keepdims=True)
        red = (red - mu) / np.sqrt(((red - mu) ** 2).mean(-1, keepdims=True) + T.LAYER_NORM_EPS)
        kv_src = red * attn.sr_norm.gain.data + attn.sr_norm.offset.data
    b, n, dim = q_src.shape
    d = dim // attn.heads

    def heads(layer, x):
        return _linear(layer, x).reshape(b, x.shape[1], attn.heads, d).transpose(0, 2, 1, 3)

    q, k, v = heads(attn.q, q_src), heads(attn.k, kv_src), heads(attn.v, kv_src)
    if attn.kind == "la":
        mix = _softmax(q, -1) @ _softmax(k, -2).transpose(0, 1, 3, 2)
    else:
        mix = _softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(d), -1)
    ref = (mix @ v).transpose(0, 2, 1, 3).reshape(b, n, dim)
    return float(np.abs(_arr(got) - _linear(attn.out, ref)).max())


def kv_permutation_error(attend, kv_src, perm) -> float:
    """Max change of ``attend(kv)`` when the key/value tokens are reordered."""
    kv_src = _arr(kv_src)
    return float(np.abs(_arr(attend(kv_src)) - _arr(attend(kv_src[:, perm]))).max())


def copy_weights(src, dst) -> None:
    """Copy each parameter of ``src`` into the one at the same place in ``dst``."""
    for (_, a), (_, b) in zip(src.named_parameters(), dst.named_parameters()):
        b.data = a.data.copy()


def mnn_matches_bruteforce(pairs, probs, theta: float) -> bool:
    """Whether ``pairs`` lists, in row order, the cells (i, j) with P > theta
    that hold the first maximum of both their row and their column."""
    p = _arr(probs)
    ref = []
    for i, row in enumerate(p):
        j = int(np.argmax(row))
        if int(np.argmax(p[:, j])) == i and p[i, j] > theta:
            ref.append([i, j])
    return np.asarray(pairs).tolist() == ref


def dual_softmax_error(probs, scores) -> float:
    """Max deviation of P from row-softmax(S) * col-softmax(S), or excess of P
    over the smaller factor; infinite where P leaves [0, 1]."""
    p, s = _arr(probs), _arr(scores)
    if not ((p >= 0).all() and (p <= 1).all()):
        return float("inf")
    r, c = _softmax(s, 1), _softmax(s, 0)
    return float(max(np.abs(p - r * c).max(), (p - np.minimum(r, c)).max()))


def swap_symmetric(p_ab, p_ba) -> bool:
    """Whether pyramid (B, A) is (A, B) with every level's stream halves swapped."""
    def swapped(y):
        y = _arr(y)
        return np.roll(y, len(y) // 2, axis=0)

    return all(np.array_equal(_arr(x), swapped(y)) for x, y in zip(p_ab, p_ba))


def stream_a_unchanged(p, p2) -> bool:
    """Whether stream A (batch item 0) is bit-identical at every level."""
    return all(np.array_equal(_arr(x)[:1], _arr(y)[:1]) for x, y in zip(p, p2))


def stream_a_change(p, p2) -> float:
    """Max change of stream A at the coarsest level."""
    return float(np.abs(_arr(p[-1])[:1] - _arr(p2[-1])[:1]).max())


def _project(h_mat, pts):
    ph = np.concatenate([pts, np.ones((len(pts), 1))], axis=1) @ h_mat.T
    return ph[:, :2] / ph[:, 2:3]


def _distances(h_mat, pts_a, pts_b):
    return np.sqrt(((_project(h_mat, pts_a) - pts_b) ** 2).sum(1))


def reprojection_error(h_mat, pts_a, pts_b) -> float:
    """Largest distance in px between H applied to ``pts_a`` and ``pts_b``."""
    return float(_distances(h_mat, pts_a, pts_b).max())


def mean_corner_distance(h_est, h_gt, width: int, height: int) -> float:
    """Mean distance in px between the four image corners mapped by each."""
    corners = np.array([[0, 0], [width - 1, 0], [width - 1, height - 1],
                        [0, height - 1]], dtype=np.float64)
    return float(_distances(h_est, corners, _project(h_gt, corners)).mean())


def mma_error(curve, matches, h_gt) -> float:
    """Max |curve - reference|: per threshold t of ``MMA_THRESHOLDS``, the
    share of matches (x1 y1 x2 y2 ...) within t px of H's mapping."""
    m = _arr(matches)
    d = _distances(h_gt, m[:, :2], m[:, 2:4])
    return float(np.abs(np.asarray(curve) - [(d <= t).mean() for t in E.MMA_THRESHOLDS]).max())


# ---------------------------------------------------------------------------
# Invariant groups
# ---------------------------------------------------------------------------


def gradients_elementwise(seed: int):
    rng = np.random.default_rng(seed)
    worst = 0.0
    wc = Tensor(rng.normal(size=(8, 6)))
    picks = ([0, 3, 1, 2], [5, 0, 3, 3])
    wm = Tensor(rng.normal(size=(6, 3)))
    cases = [
        ("mul", lambda x: T.reduce_sum(T.mul(x, x))),
        ("matmul", lambda x: T.reduce_sum(T.mul(T.matmul(x, wm), T.matmul(x, wm)))),
        ("sigmoid", lambda x: T.reduce_sum(T.sigmoid(x))),
        ("gelu", lambda x: T.reduce_sum(T.gelu(x))),
        ("exp", lambda x: T.reduce_sum(T.exp(x))),
        ("log", lambda x: T.reduce_sum(T.log(T.add(T.mul(x, x), 1.0)))),
        ("sqrt", lambda x: T.reduce_sum(T.sqrt(T.add(T.mul(x, x), 0.5)))),
        ("div", lambda x: T.reduce_sum(T.div(x, T.add(T.mul(x, x), 2.0)))),
        ("l2", lambda x: T.reduce_sum(T.mul(T.l2_normalize(x), T.sigmoid(x)))),
        ("sub", lambda x: T.reduce_sum(T.mul(T.sub(x, 0.5), T.sub(0.5, x)))),
        ("clip", lambda x: T.reduce_sum(T.mul(T.maximum_scalar(x, 0.1), x))),
        ("concat", lambda x: T.reduce_sum(T.mul(T.concat([x, T.sigmoid(x)], axis=0), wc))),
        ("slice", lambda x: T.reduce_sum(T.mul(T.slice_(x, (slice(0, 2), slice(1, 5))),
                                               T.slice_(x, (slice(2, 4), slice(2, 6)))))),
        ("pairs", lambda x: T.reduce_sum(T.mul(T.take_pairs(x, *picks),
                                               T.take_pairs(x, *picks)))),
    ]
    for _ in range(3):
        x = Tensor(rng.normal(size=(4, 6)))
        for _, fn in cases:
            worst = max(worst, T.fd_check(fn, x, tol=1e-4).max_rel_err)
    return worst < 1e-4, f"max rel err {worst:.2e} (tol 1e-4)"


def gradients_composite(seed: int):
    rng = np.random.default_rng(seed + 1)
    block = AttentionBlock(rng, dim=8, heads=2, kind="full")
    x = Tensor(rng.normal(size=(2, 9, 8)))
    wgt = Tensor(rng.normal(size=(2, 9, 8)))

    def block_loss(inp):
        return T.reduce_sum(T.mul(block(inp, (3, 3), cross=True), wgt))

    r1 = T.fd_check(block_loss, x, tol=1e-3)
    gain = Tensor(rng.normal(size=(6,)) * 0.1 + 1.0, requires_grad=True)
    off = Tensor(np.zeros(6), requires_grad=True)
    w_ln = Tensor(rng.normal(size=(5, 6)))
    r2 = T.fd_check(lambda v: T.reduce_sum(T.mul(
        T.softmax(T.layer_norm(v, gain, off), axis=-1), w_ln)),
        Tensor(rng.normal(size=(5, 6))), tol=1e-4)

    # the map ops of the decoder, the patch embedding and fine refinement
    cw, cb = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.4), Tensor(np.zeros(2))
    dw, db = Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.4), Tensor(rng.normal(size=2))
    w_dot, w_win = Tensor(rng.normal(size=(2, 9))), Tensor(rng.normal(size=(2, 2, 3, 3)))

    def map_loss(m):
        up = T.bilinear_upsample2x(T.conv2d(m, cw, cb, padding=1))      # [1, 2, 8, 8]
        dwc = T.depthwise_conv2d(T.transpose(up, (0, 2, 3, 1)), dw, db)
        f = T.reshape(T.transpose(dwc, (0, 3, 1, 2)), (2, 8, 8))
        win = T.window_gather(f, [2, 5], [3, 4], 1)
        # A and B maps of different sizes, B windows over two borders
        dots = T.window_dot(f, T.slice_(f, (slice(None), slice(0, 7), slice(1, 8))),
                            [[1, 0], [7, 6]], [[0, 6], [4, 0]], 1, 0.5)
        return T.add(T.reduce_sum(T.mul(win, w_win)),
                     T.reduce_sum(T.mul(T.softmax(dots, axis=-1), w_dot)))

    r3 = T.fd_check(map_loss, Tensor(rng.normal(size=(1, 2, 4, 4))), tol=1e-4)

    # the streamed coarse loss; 17 x 16 A cells make two row blocks of S
    nll_b = Tensor(rng.normal(size=(1, 4, 3, 3)))
    r4 = T.fd_check(lambda m: M.dual_softmax_nll(M.coarse_pass(m, nll_b, 0.5), [0, 5, 9, 270],
                                                  [2, 2, 0, 8]),
                    Tensor(rng.normal(size=(1, 4, 17, 16))), tol=1e-4, max_coords=24)
    # both attention cores, 2 heads, keys and values from the swapped halves
    w_att = Tensor(rng.normal(size=(2, 5, 8)))
    r5, r6 = (T.fd_check(lambda t, core=core: T.reduce_sum(T.mul(
        core(t, T.swap_halves(t), T.mul(T.swap_halves(t), t), 2), w_att)),
        Tensor(rng.normal(size=(2, 5, 8))), tol=1e-4)
        for core in (T.attention, T.linear_attention))
    reports = (r1, r2, r3, r4, r5, r6)
    worst = max(r.max_rel_err for r in reports)
    return all(r.passed for r in reports), f"max rel err {worst:.2e}"


def numeric_oracles(seed: int):
    rng = np.random.default_rng(seed + 2)
    a, b = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
    x, w, bias = rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    xd, wd, bd = rng.normal(size=(2, 5, 4, 3)), rng.normal(size=(3, 1, 3, 3)), rng.normal(size=3)
    errs = {"matmul": T.matmul(Tensor(a), Tensor(b)).data - naive_matmul(a, b),
            "conv": T.conv2d(Tensor(x), Tensor(w), Tensor(bias), stride=2, padding=1).data
            - naive_conv2d(x, w, bias, 2, 1),
            "depthwise": T.depthwise_conv2d(Tensor(xd), Tensor(wd), Tensor(bd)).data
            - naive_depthwise(xd, wd, bd)}
    worst = {name: np.abs(e).max() for name, e in errs.items()}
    return all(e < 1e-10 for e in worst.values()), ", ".join(
        f"{name} err {e:.1e}" for name, e in worst.items()) + " (tol 1e-10)"


def attention_equivalences(seed: int):
    rng = np.random.default_rng(seed + 3)
    full = Attention(np.random.default_rng(seed + 50), "full", 32, 4)
    sea1 = Attention(np.random.default_rng(seed + 50), "sea", 32, 4, reduction=1)
    copy_weights(full, sea1)
    x = Tensor(rng.normal(size=(1, 16, 32)))
    with T.no_grad():
        bitexact = np.array_equal(full(x, x, (4, 4)).data, sea1(x, x, (4, 4)).data)

    la = Attention(np.random.default_rng(seed + 51), "la", 32, 4)
    with T.no_grad():
        err_full = attention_error(full(x, x, (4, 4)), full, x, x, (4, 4))
        err_la = attention_error(la(x, x, (4, 4)), la, x, x, (4, 4))

    perm = np.random.default_rng(seed).permutation(16)
    kv = rng.normal(size=(1, 16, 32))
    with T.no_grad():
        err_perm = max(kv_permutation_error(lambda m: attn(x, Tensor(m), (4, 4)), kv, perm)
                       for attn in (full, la))
    ok = bitexact and err_full < 1e-12 and err_la < 1e-12 and err_perm < 1e-10
    return ok, (f"SEA(R=1)==FULL {bitexact}, FULL-oracle err {err_full:.1e}, "
                f"LA-oracle err {err_la:.1e}, perm err {err_perm:.1e}")


def encoder_symmetries(seed: int):
    rng = np.random.default_rng(seed + 4)
    toy = dict(channels=(8, 12, 16, 24), coarse_channels=16, fine_channels=16,
               fusion_channels=16)
    model = MatchModel(make_config("lite", "sea", **toy), seed=seed)
    a = Tensor(rng.uniform(size=(1, 1, 64, 64)))
    b = Tensor(rng.uniform(size=(1, 1, 64, 64)))
    with T.no_grad():
        p_ab = model.encoder.encode_pair(a, b)
        p_ba = model.encoder.encode_pair(b, a)
    swap_ok = swap_symmetric(p_ab, p_ba)

    m_nc = MatchModel(make_config("lite", "sea", schedule="self_only", **toy), seed=seed)
    with T.no_grad():
        q = m_nc.encoder.encode_pair(a, b)
        q2 = m_nc.encoder.encode_pair(a, Tensor(b.data + 1.0))
    factor_ok = stream_a_unchanged(q, q2)

    bp = b.data.copy()
    bp[0, 0, 10, 10] += 0.5
    with T.no_grad():
        r2 = model.encoder.encode_pair(a, Tensor(bp))
    sens = stream_a_change(p_ab, r2)
    ok = swap_ok and factor_ok and sens > 0
    return ok, f"swap {swap_ok}, no-cross-factorization {factor_ok}, F4 sensitivity {sens:.1e}"


def matcher_oracles(seed: int):
    rng = np.random.default_rng(seed + 5)
    ok_sel = True
    for _ in range(30):
        p = rng.uniform(size=(10, 10))
        ok_sel &= mnn_matches_bruteforce(M.select_coarse(p, 0.0).pairs, p, 0.0)

    s = rng.normal(size=(6, 7))
    ok_ds = dual_softmax_error(M.dual_softmax(Tensor(s)), s) < 1e-12

    # streamed selection against the dense chain; 17 x 16 A cells make two
    # row blocks of S
    ca, cb = Tensor(rng.normal(size=(1, 8, 17, 16))), Tensor(rng.normal(size=(1, 8, 9, 7)))
    p = M.dual_softmax(M.coarse_scores(ca, cb, M.DEFAULT_TAU)).data
    st = M.stream_select_coarse(ca, cb, M.DEFAULT_TAU, 0.0)
    ok_st = mnn_matches_bruteforce(st.pairs, p, 0.0) and np.allclose(
        st.confidences, p[st.pairs[:, 0], st.pairs[:, 1]], rtol=1e-12, atol=0.0)
    # the streamed coarse loss against the dense P, every A cell labelled
    labels = rng.integers(0, p.shape[1], size=p.shape[0])
    rows = np.arange(p.shape[0])
    nll = float(M.dual_softmax_nll(M.coarse_pass(ca, cb, M.DEFAULT_TAU), rows, labels).data)
    ref = -np.log(np.maximum(p[rows, labels], 1e-12)).mean()
    ok_nll = abs(nll - ref) <= 1e-12 * ref

    # a uniform window leaves the coordinate at the query; a point mass at
    # the window corner shifts it by exactly radius * r_f
    one_pair = M.CoarseMatchResult(pairs=np.array([[0, 0]]), confidences=np.array([1.0]),
                                   grid_a=(1, 1), grid_b=(1, 1))
    window, r_c, r_f = M.DEFAULT_WINDOW, 16, 2
    radius = window // 2
    u = np.zeros((3, 1, 1)); u[0] = 1.0
    fine_a = np.tile(u, (1, 9, 9))
    fine_b = -fine_a.copy()
    fine_b[:, 4 + radius, 4 + radius] = u[:, 0, 0]   # window center is cell (4, 4)
    ms_u = M.fine_refine(one_pair, Tensor(fine_a), Tensor(fine_a), window, r_c, r_f, tau=0.01)
    x1 = ms_u.points[0][0]
    uniform_ok = abs(ms_u.points[0][2] - x1) < 1e-9 \
        and abs(ms_u.points[0][3] - ms_u.points[0][1]) < 1e-9
    ms_c = M.fine_refine(one_pair, Tensor(fine_a), Tensor(fine_b), window, r_c, r_f, tau=0.01)
    corner_ok = abs((ms_c.points[0][2] - ms_u.points[0][2]) - radius * r_f) < 1e-9 \
        and abs((ms_c.points[0][3] - ms_u.points[0][3]) - radius * r_f) < 1e-9
    ok = ok_sel and ok_ds and ok_st and ok_nll and corner_ok and uniform_ok
    return ok, (f"select-vs-bruteforce {ok_sel}, dual-softmax bounds {ok_ds}, "
                f"streamed-vs-dense {ok_st}, streamed-nll-vs-dense {ok_nll}, "
                f"corner point-mass {corner_ok}, "
                f"uniform window {uniform_ok}")


def structural_identities(seed: int):
    rng = np.random.default_rng(seed + 6)
    x = Tensor(rng.normal(size=(3, 4, 5)))
    rt = T.reshape(T.reshape(x, (12, 5)), (3, 4, 5))
    tt = T.transpose(T.transpose(x, (2, 0, 1)), (1, 2, 0))
    big = rng.normal(size=(4, 6)) * 1000
    sums = T.softmax(Tensor(big), axis=-1).data.sum(axis=-1)
    up = T.bilinear_upsample2x(Tensor(np.full((1, 2, 5, 5), 3.25)))
    l2 = T.l2_normalize(Tensor([[3.0, 4.0]])).data
    ok = (np.array_equal(rt.data, x.data) and np.array_equal(tt.data, x.data)
          and np.abs(sums - 1).max() < 1e-12
          and np.abs(up.data - 3.25).max() < 1e-12
          and np.abs(l2 - [0.6, 0.8]).max() < 1e-12)
    return ok, f"softmax sum err {np.abs(sums - 1).max():.1e}"


def geometry_oracles(seed: int):
    rng = np.random.default_rng(seed + 7)
    h_gt = D.random_homography(seed + 70, size=(64, 64))
    pts_a = rng.uniform(2, 62, size=(40, 2))
    pts_b = D.hom_apply(h_gt, pts_a)
    h_est = E.dlt_homography(np.concatenate([pts_a, pts_b], axis=1))
    reproj = reprojection_error(h_est, pts_a, pts_b)

    pts_b_noisy = pts_b.copy()
    out_idx = rng.choice(40, 12, replace=False)
    pts_b_noisy[out_idx] = rng.uniform(0, 63, size=(12, 2))
    h_r, inl = E.ransac_homography(np.concatenate([pts_a, pts_b_noisy], 1), 2.0,
                                   1000, seed=seed)
    cerr = mean_corner_distance(h_r, h_gt, 64, 64)

    shift = np.eye(3)
    shift[0, 2] = 2.0
    ce2 = E.corner_error(shift @ h_gt, h_gt, 64, 64)

    pts = np.concatenate([pts_a, pts_b + [2.5, 0.0]], axis=1)
    curve, _ = E.mma(pts, h_gt)
    mma_ok = curve[1] == 0.0 and curve[2] == 1.0  # off by exactly 2.5 px
    ok = reproj < 1e-8 and cerr < 0.5 and abs(ce2 - 2.0) < 1e-9 and mma_ok
    return ok, f"dlt reproj {reproj:.1e}, ransac corner err {cerr:.1e}"


def determinism(seed: int):
    rng = np.random.default_rng(seed + 8)
    cfg = make_config("lite", "la", channels=(8, 12, 16, 24),
                      coarse_channels=16, fine_channels=16, fusion_channels=16)
    img = Tensor(rng.uniform(size=(1, 1, 64, 64)))
    outs = []
    for _ in range(2):
        model = MatchModel(cfg, seed=seed)
        with T.no_grad():
            pyr = model.encoder.encode_pair(img, img)
        outs.append(np.concatenate([m.data.reshape(-1) for m in pyr]))
    ok = np.array_equal(outs[0], outs[1])
    imgs = [D.gen_pattern(seed + 123, 64, 64) for _ in range(2)]
    ok = ok and np.array_equal(imgs[0], imgs[1])
    return ok, "re-runs bit-identical"


def run_all(seed: int = 0):
    """Run every invariant group; returns [(name, passed, detail)]."""
    groups = [
        gradients_elementwise, gradients_composite, numeric_oracles,
        attention_equivalences, encoder_symmetries, matcher_oracles,
        structural_identities, geometry_oracles, determinism,
    ]
    results = []
    for fn in groups:
        try:
            ok, detail = fn(seed)
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        results.append((fn.__name__, ok, detail))
    return results
