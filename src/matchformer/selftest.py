"""Self-contained invariant suite behind `matchformer selftest`.

Each group re-derives its expected values from an independent oracle (naive
loops, finite differences, brute-force scans) so a single corrupted rule
anywhere in the stack turns the run red.
"""

from __future__ import annotations

import numpy as np

from . import data as D
from . import evalkit as E
from . import matcher as M
from . import tensor as T
from .blocks import Attention, AttentionBlock
from .encoder import make_config, schedule_from_strings, with_schedule
from .model import MatchModel
from .tensor import Tensor


def _group(fn):
    fn._is_group = True
    return fn


@_group
def gradients_elementwise(seed: int):
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = [
        ("mul", lambda x: T.reduce_sum(T.mul(x, x))),
        ("sigmoid", lambda x: T.reduce_sum(T.sigmoid(x))),
        ("gelu", lambda x: T.reduce_sum(T.gelu(x))),
        ("exp", lambda x: T.reduce_sum(T.exp(x))),
        ("log", lambda x: T.reduce_sum(T.log(T.add(T.mul(x, x), 1.0)))),
        ("sqrt", lambda x: T.reduce_sum(T.sqrt(T.add(T.mul(x, x), 0.5)))),
        ("div", lambda x: T.reduce_sum(T.div(x, T.add(T.mul(x, x), 2.0)))),
        ("l2", lambda x: T.reduce_sum(T.mul(T.l2_normalize(x), T.sigmoid(x)))),
    ]
    for _ in range(3):
        x = Tensor(rng.normal(size=(4, 6)))
        for _, fn in cases:
            worst = max(worst, T.fd_check(fn, x, tol=1e-4).max_rel_err)
    return worst < 1e-4, f"max rel err {worst:.2e} (tol 1e-4)"


@_group
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
    worst = max(r1.max_rel_err, r2.max_rel_err)
    return r1.passed and r2.passed, f"max rel err {worst:.2e}"


@_group
def numeric_oracles(seed: int):
    rng = np.random.default_rng(seed + 2)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                ref[i, j] += a[i, k] * b[k, j]
    err_mm = np.abs(T.matmul(Tensor(a), Tensor(b)).data - ref).max()

    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    bias = rng.normal(size=4)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(bias), stride=2, padding=1).data
    ref_c = np.zeros_like(out)
    for n in range(2):
        for o in range(4):
            for oy in range(out.shape[2]):
                for ox in range(out.shape[3]):
                    acc = bias[o]
                    for c in range(3):
                        for ky in range(3):
                            for kx in range(3):
                                iy, ix = oy * 2 + ky - 1, ox * 2 + kx - 1
                                if 0 <= iy < 6 and 0 <= ix < 6:
                                    acc += x[n, c, iy, ix] * w[o, c, ky, kx]
                    ref_c[n, o, oy, ox] = acc
    err_cv = np.abs(out - ref_c).max()
    ok = err_mm < 1e-10 and err_cv < 1e-10
    return ok, f"matmul err {err_mm:.1e}, conv err {err_cv:.1e} (tol 1e-10)"


@_group
def attention_equivalences(seed: int):
    rng = np.random.default_rng(seed + 3)
    full = Attention(np.random.default_rng(seed + 50), "full", 32, 4)
    sea1 = Attention(np.random.default_rng(seed + 50), "sea", 32, 4, reduction=1)
    for (_, p1), (_, p2) in zip(full.named_parameters(), sea1.named_parameters()):
        p2.data = p1.data.copy()
    x = Tensor(rng.normal(size=(1, 16, 32)))
    with T.no_grad():
        bitexact = np.array_equal(full(x, x, (4, 4)).data, sea1(x, x, (4, 4)).data)

    la = Attention(np.random.default_rng(seed + 51), "la", 32, 4)
    with T.no_grad():
        y = la(x, x, (4, 4)).data
    q = (x.data @ la.q.weight.data + la.q.bias.data).reshape(1, 16, 4, 8).transpose(0, 2, 1, 3)
    k = (x.data @ la.k.weight.data + la.k.bias.data).reshape(1, 16, 4, 8).transpose(0, 2, 1, 3)
    v = (x.data @ la.v.weight.data + la.v.bias.data).reshape(1, 16, 4, 8).transpose(0, 2, 1, 3)

    def sm(m, ax):
        e = np.exp(m - m.max(axis=ax, keepdims=True))
        return e / e.sum(axis=ax, keepdims=True)

    big = sm(q, -1) @ sm(k, -2).transpose(0, 1, 3, 2)
    ref = ((big @ v).transpose(0, 2, 1, 3).reshape(1, 16, 32)
           @ la.out.weight.data + la.out.bias.data)
    err_la = np.abs(y - ref).max()

    perm = np.random.default_rng(seed).permutation(16)
    kv = Tensor(rng.normal(size=(1, 16, 32)))
    kvp = Tensor(kv.data[:, perm])
    with T.no_grad():
        err_perm = max(np.abs(full(x, kv, (4, 4)).data - full(x, kvp, (4, 4)).data).max(),
                       np.abs(la(x, kv, (4, 4)).data - la(x, kvp, (4, 4)).data).max())
    ok = bitexact and err_la < 1e-12 and err_perm < 1e-10
    return ok, (f"SEA(R=1)==FULL {bitexact}, LA-oracle err {err_la:.1e}, "
                f"perm err {err_perm:.1e}")


@_group
def encoder_symmetries(seed: int):
    rng = np.random.default_rng(seed + 4)
    cfg = make_config("lite", "sea", channels=(8, 12, 16, 24),
                      coarse_channels=16, fine_channels=16, fusion_channels=16)
    model = MatchModel(cfg, seed=seed)
    a = Tensor(rng.uniform(size=(1, 1, 64, 64)))
    b = Tensor(rng.uniform(size=(1, 1, 64, 64)))
    with T.no_grad():
        p_ab = model.encoder.encode_pair(a, b)
        p_ba = model.encoder.encode_pair(b, a)
        swap_ok = all(np.array_equal(x.data, T.swap_halves(y).data)
                      for x, y in zip(p_ab, p_ba))

    cfg_nc = with_schedule(cfg, schedule_from_strings(("SSS",) * 4))
    m_nc = MatchModel(cfg_nc, seed=seed)
    with T.no_grad():
        q = m_nc.encoder.encode_pair(a, b)
        q2 = m_nc.encoder.encode_pair(a, Tensor(b.data + 1.0))
    factor_ok = all(np.array_equal(x.data[:1], y.data[:1]) for x, y in zip(q, q2))

    bp = b.data.copy()
    bp[0, 0, 10, 10] += 0.5
    with T.no_grad():
        r2 = model.encoder.encode_pair(a, Tensor(bp))
    sens = float(np.abs(p_ab[3].data[:1] - r2[3].data[:1]).max())
    ok = swap_ok and factor_ok and sens > 0
    return ok, f"swap {swap_ok}, no-cross-factorization {factor_ok}, F4 sensitivity {sens:.1e}"


@_group
def matcher_oracles(seed: int):
    rng = np.random.default_rng(seed + 5)
    ok_sel = True
    for _ in range(30):
        p = rng.uniform(size=(10, 10))
        got = M.mutual_argmax_pairs(p, 0.0)
        ref = [(i, j) for i in range(10) for j in range(10)
               if p[i, j] == p[i].max() and p[i, j] == p[:, j].max()
               and j == int(p[i].argmax()) and i == int(p[:, j].argmax())]
        ok_sel &= got.tolist() == [list(t) for t in ref]

    s = rng.normal(size=(6, 7))
    probs = M.dual_softmax(Tensor(s)).data
    r = np.exp(s - s.max(1, keepdims=True)); r /= r.sum(1, keepdims=True)
    c = np.exp(s - s.max(0, keepdims=True)); c /= c.sum(0, keepdims=True)
    ok_ds = (np.abs(probs - r * c).max() < 1e-12
             and (probs <= np.minimum(r, c) + 1e-12).all()
             and probs.min() >= 0 and probs.max() <= 1)

    # a uniform window leaves the coordinate at the query; a point mass at
    # the window corner shifts it by exactly 2 r_f
    one_pair = M.CoarseMatchResult(pairs=np.array([[0, 0]]), confidences=np.array([1.0]),
                                   grid_a=(1, 1), grid_b=(1, 1))
    u = np.zeros((3, 1, 1)); u[0] = 1.0
    fine_a = np.tile(u, (1, 9, 9))
    fine_b = -fine_a.copy()
    fine_b[:, 6, 6] = u[:, 0, 0]           # window center is cell (4, 4)
    ms_u = M.fine_refine(one_pair, Tensor(fine_a), Tensor(fine_a),
                         window=5, r_c=16, r_f=2, tau=0.01)
    x1 = ms_u.points[0][0]
    uniform_ok = abs(ms_u.points[0][2] - x1) < 1e-9 \
        and abs(ms_u.points[0][3] - ms_u.points[0][1]) < 1e-9
    ms_c = M.fine_refine(one_pair, Tensor(fine_a), Tensor(fine_b),
                         window=5, r_c=16, r_f=2, tau=0.01)
    corner_ok = abs((ms_c.points[0][2] - ms_u.points[0][2]) - 2 * 2) < 1e-9 \
        and abs((ms_c.points[0][3] - ms_u.points[0][3]) - 2 * 2) < 1e-9
    ok = ok_sel and ok_ds and corner_ok and uniform_ok
    return ok, (f"select-vs-bruteforce {ok_sel}, dual-softmax bounds {ok_ds}, "
                f"corner point-mass {corner_ok}, uniform window {uniform_ok}")


@_group
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


@_group
def geometry_oracles(seed: int):
    rng = np.random.default_rng(seed + 7)
    h_gt = D.random_homography(seed + 70, size=(64, 64))
    pts_a = rng.uniform(2, 62, size=(40, 2))
    pts_b = D.hom_apply(h_gt, pts_a)
    h_est = E.dlt_homography(np.concatenate([pts_a, pts_b], axis=1))
    reproj = np.sqrt(((D.hom_apply(h_est, pts_a) - pts_b) ** 2).sum(1)).max()

    pts_b_noisy = pts_b.copy()
    out_idx = rng.choice(40, 12, replace=False)
    pts_b_noisy[out_idx] = rng.uniform(0, 63, size=(12, 2))
    h_r, inl = E.ransac_homography(np.concatenate([pts_a, pts_b_noisy], 1), 2.0,
                                   1000, seed=seed)
    cerr = E.corner_error(h_r, h_gt, 64, 64)

    shift = np.eye(3)
    shift[0, 2] = 2.0
    ce2 = E.corner_error(shift @ h_gt, h_gt, 64, 64)

    pts = np.concatenate([pts_a, pts_b + [2.5, 0.0]], axis=1)
    curve, _ = E.mma(pts, h_gt)
    mma_ok = curve[1] == 0.0 and curve[2] == 1.0  # off by exactly 2.5 px
    ok = reproj < 1e-8 and cerr < 0.5 and abs(ce2 - 2.0) < 1e-9 and mma_ok
    return ok, f"dlt reproj {reproj:.1e}, ransac corner err {cerr:.1e}"


@_group
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
