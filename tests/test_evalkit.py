"""Eval kit: DLT, RANSAC, corner error, MMA, FLOPs accounting."""

import numpy as np
import pytest

from matchformer import data as D
from matchformer import evalkit as E
from matchformer import selftest as S
from matchformer import tensor as T
from matchformer.blocks import Attention
from matchformer.encoder import make_config
from matchformer.model import MatchModel
from matchformer.tensor import Tensor


def exact_matches(h_mat, n, seed=0, lo=2, hi=62):
    rng = np.random.default_rng(seed)
    pts_a = rng.uniform(lo, hi, size=(n, 2))
    return np.concatenate([pts_a, D.hom_apply(h_mat, pts_a)], axis=1)


class TestDlt:
    def test_identity_correspondences(self):
        sq = np.array([[0, 0], [63, 0], [63, 63], [0, 63]], dtype=float)
        h = E.dlt_homography(np.concatenate([sq, sq], axis=1))
        assert np.abs(h - np.eye(3)).max() < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_recovers_random_homography_exactly(self, seed):
        h_gt = D.random_homography(seed, size=(64, 64))
        m = exact_matches(h_gt, 20, seed=seed)
        assert S.reprojection_error(E.dlt_homography(m), m[:, :2], m[:, 2:4]) < 1e-8

    def test_three_collinear_points_rejected(self):
        for pts in ([[0, 0], [1, 1], [2, 2], [5, 1]],     # rank 7
                    [[0, 0], [0, 0], [5, 1], [2, 7]]):    # duplicated point, rank 6
            pts = np.array(pts, dtype=float)
            with pytest.raises(E.GeometryError):
                E.dlt_homography(np.concatenate([pts, pts + 1], axis=1))

    def test_batch_equals_single_calls(self):
        h_gt = D.random_homography(8, size=(64, 64))
        good = exact_matches(h_gt, 4, seed=8)
        pts = np.array([[0, 0], [1, 1], [2, 2], [5, 1]], dtype=float)
        collinear = np.concatenate([pts, pts + 1], axis=1)
        duplicated = good.copy()
        duplicated[1] = duplicated[0]
        h, ok = E._dlt(np.stack([good, collinear, duplicated]))
        assert ok.tolist() == [True, False, False]
        assert np.array_equal(h[0], E.dlt_homography(good))

    def test_fewer_than_four_rejected(self):
        with pytest.raises(ValueError):
            E.dlt_homography(np.zeros((3, 4)))


def _oracle_normalize(pts):
    centroid = pts.mean(axis=0)
    dist = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
    scale = np.sqrt(2.0) / max(dist, 1e-12)
    t = np.array([[scale, 0, -scale * centroid[0]],
                  [0, scale, -scale * centroid[1]],
                  [0, 0, 1.0]])
    ph = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
    return (ph @ t.T)[:, :2], t


def _oracle_dlt(pts):
    """One DLT at a time: a rank check by its own SVD, then the solving SVD."""
    src, t_src = _oracle_normalize(pts[:, 0:2])
    dst, t_dst = _oracle_normalize(pts[:, 2:4])
    n = len(pts)
    x, y = src[:, 0], src[:, 1]
    u, v = dst[:, 0], dst[:, 1]
    a = np.zeros((2 * n, 9))
    a[0::2] = np.c_[x, y, np.ones(n), np.zeros((n, 3)), -u * x, -u * y, -u]
    a[1::2] = np.c_[np.zeros((n, 3)), x, y, np.ones(n), -v * x, -v * y, -v]
    if np.linalg.matrix_rank(a, tol=1e-8 * max(1.0, np.abs(a).max())) < 8:
        raise E.GeometryError("rank deficient")
    _, _, vt = np.linalg.svd(a)
    h = np.linalg.inv(t_dst) @ vt[-1].reshape(3, 3) @ t_src
    if abs(h[2, 2]) < 1e-12:
        raise E.GeometryError("vanishing scale")
    return h / h[2, 2]


def _oracle_errors(h_mat, pts):
    ph = np.concatenate([pts[:, 0:2], np.ones((len(pts), 1))], axis=1)
    q = ph @ h_mat.T
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = q[:, :2] / q[:, 2:3]
        err = np.sqrt(((proj - pts[:, 2:4]) ** 2).sum(axis=1))
    return np.where(np.isfinite(err), err, np.inf)


def _oracle_ransac(pts, thresh, iters, seed):
    """RANSAC one trial at a time, as it ran before all trials were batched.

    Returns (H, inlier indices, indices of the skipped degenerate trials).
    """
    n = len(pts)
    min_consensus = min(n, max(8, 4 - (-2 * n) // 25))
    best_count, best_h, skipped = -1, None, []
    for trial in range(iters):
        idx = np.random.default_rng([seed, trial]).choice(n, size=4, replace=False)
        try:
            h_try = _oracle_dlt(pts[idx])
        except E.GeometryError:
            skipped.append(trial)
            continue
        count = int((_oracle_errors(h_try, pts) < thresh).sum())
        if count > best_count:
            best_count, best_h = count, h_try
    if best_h is None or best_count < min_consensus:
        raise E.RansacError(f"no hypothesis reached consensus {min_consensus} "
                            f"(best {max(best_count, 0)})")
    h_fit = _oracle_dlt(pts[_oracle_errors(best_h, pts) < thresh])
    return h_fit, np.flatnonzero(_oracle_errors(h_fit, pts) < thresh), skipped


def _ransac_sets():
    """(name, matches, iters) on exact, noisy, outlier and degenerate inputs."""
    rng = np.random.default_rng(11)
    h_gt = D.random_homography(11, size=(64, 64))
    exact = exact_matches(h_gt, 40, seed=11)
    noisy = exact_matches(h_gt, 80, seed=12)
    noisy[:, 2:4] += rng.normal(0, 0.5, (80, 2))
    outliers = exact_matches(h_gt, 100, seed=13)
    bad = rng.choice(100, 30, replace=False)
    outliers[bad, 2:4] = rng.uniform(0, 63, size=(30, 2))
    # 30 copies of three points next to 20 distinct ones: many trials draw
    # a repeated point and are rank deficient
    duplicated = exact_matches(h_gt, 50, seed=14)
    duplicated[20:] = duplicated[rng.integers(0, 3, 30)]
    # a 4x4 grid: many trials draw three collinear points (rank 7)
    g = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0)), -1).reshape(-1, 2)
    grid = np.concatenate([8 + 14 * g, D.hom_apply(h_gt, 8 + 14 * g)], axis=1)
    return [("exact", exact, 300), ("noisy", noisy, 500), ("outliers", outliers, 2000),
            ("duplicated", duplicated, 500), ("grid", grid, 500)]


RANSAC_SETS = _ransac_sets()


class TestRansacOracle:
    @pytest.mark.parametrize("name,m,iters", RANSAC_SETS, ids=[s[0] for s in RANSAC_SETS])
    def test_same_h_and_inliers_as_per_trial_loop(self, name, m, iters):
        h_o, inl_o, skipped = _oracle_ransac(m, 2.0, iters, seed=5)
        h_r, inl_r = E.ransac_homography(m, 2.0, iters, seed=5)
        assert np.array_equal(h_r, h_o)
        assert np.array_equal(inl_r, inl_o)
        idx = np.array([np.random.default_rng([5, t]).choice(len(m), 4, replace=False)
                        for t in range(iters)])
        _, ok = E._dlt(m[idx])
        assert np.flatnonzero(~ok).tolist() == skipped
        if name in ("duplicated", "grid"):
            assert skipped

    @pytest.mark.parametrize("case", ["collinear", "duplicated", "pure_outliers",
                                      "zero_iters"])
    def test_same_error_as_per_trial_loop(self, case):
        rng = np.random.default_rng(21)
        iters = 500
        if case == "collinear":
            t = rng.uniform(0, 1, 30)
            a = np.stack([3 + 50 * t, 5 + 40 * t], axis=1)
            m = np.concatenate([a, a + 2], axis=1)
        elif case == "duplicated":          # only three distinct matches
            m = exact_matches(np.eye(3), 3, seed=21)[rng.integers(0, 3, 30)]
        elif case == "pure_outliers":
            m = np.concatenate([rng.uniform(0, 63, (60, 2)),
                                rng.uniform(0, 63, (60, 2))], axis=1)
        else:
            m, iters = exact_matches(np.eye(3), 20, seed=21), 0
        with pytest.raises(E.RansacError) as want:
            _oracle_ransac(m, 2.0, iters, seed=3)
        with pytest.raises(E.RansacError) as got:
            E.ransac_homography(m, 2.0, iters, seed=3)
        assert str(got.value) == str(want.value)


class TestRansac:
    def test_outlier_free_returns_dlt_solution(self):
        h_gt = D.random_homography(3, size=(64, 64))
        m = exact_matches(h_gt, 30, seed=3)
        h_r, inliers = E.ransac_homography(m, 2.0, 500, seed=0)
        assert len(inliers) == 30
        assert np.abs(h_r - E.dlt_homography(m)).max() < 1e-12

    def test_thirty_percent_outliers(self):
        rng = np.random.default_rng(4)
        h_gt = D.random_homography(4, size=(64, 64))
        m = exact_matches(h_gt, 100, seed=4)
        bad = rng.choice(100, 30, replace=False)
        m[bad, 2:4] = rng.uniform(0, 63, size=(30, 2))
        h_r, inliers = E.ransac_homography(m, 2.0, 2000, seed=0)
        assert S.mean_corner_distance(h_r, h_gt, 64, 64) < 0.5
        assert len(inliers) >= 70

    def test_pure_outliers_raise(self):
        rng = np.random.default_rng(5)
        m = np.concatenate([rng.uniform(0, 63, (60, 2)),
                            rng.uniform(0, 63, (60, 2))], axis=1)
        with pytest.raises(E.RansacError):
            E.ransac_homography(m, 2.0, 1500, seed=0)

    def test_deterministic_per_seed(self):
        h_gt = D.random_homography(6, size=(64, 64))
        m = exact_matches(h_gt, 40, seed=6)
        m[::5, 2:4] += 5.0
        a = E.ransac_homography(m, 2.0, 300, seed=9)
        b = E.ransac_homography(m, 2.0, 300, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestCornerError:
    def test_equal_transforms_give_zero(self):
        h = D.random_homography(7, size=(64, 64))
        assert E.corner_error(h, h, 64, 64) == 0.0

    def test_pure_output_translation(self):
        h_gt = D.random_homography(8, size=(64, 64))
        shift = np.eye(3)
        shift[0, 2] = 2.0
        assert abs(E.corner_error(shift @ h_gt, h_gt, 64, 64) - 2.0) < 1e-9

    def test_matches_four_corner_hand_computation(self):
        h_gt = np.eye(3)
        h_est = D.random_homography(9, size=(64, 48))
        expect = S.mean_corner_distance(h_est, h_gt, 64, 48)
        assert abs(E.corner_error(h_est, h_gt, 64, 48) - expect) < 1e-12


class TestMma:
    def test_exact_matches_give_ones(self):
        h_gt = D.random_homography(10, size=(64, 64))
        curve, warned = E.mma(exact_matches(h_gt, 25, seed=10), h_gt)
        assert not warned and np.array_equal(curve, np.ones(10))

    def test_uniform_offset_threshold_step(self):
        h_gt = np.eye(3)
        m = exact_matches(h_gt, 15, seed=11)
        m[:, 2] += 2.5
        curve, _ = E.mma(m, h_gt)
        assert np.array_equal(curve[:2], [0.0, 0.0])
        assert np.array_equal(curve[2:], np.ones(8))

    def test_mixed_set_matches_distance_oracle(self):
        rng = np.random.default_rng(12)
        h_gt = D.random_homography(12, size=(64, 64))
        m = exact_matches(h_gt, 50, seed=12)
        m[:, 2:4] += rng.normal(0, 2.0, size=(50, 2))
        curve, _ = E.mma(m, h_gt)
        assert S.mma_error(curve, m, h_gt) == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(13)
        h_gt = D.random_homography(13, size=(64, 64))
        m = exact_matches(h_gt, 40, seed=13)
        m[:, 2:4] += rng.normal(0, 3.0, size=(40, 2))
        curve, _ = E.mma(m, h_gt)
        assert (np.diff(curve) >= 0).all()

    def test_empty_set_zero_curve_with_warning(self):
        curve, warned = E.mma(np.zeros((0, 5)), np.eye(3))
        assert warned and np.array_equal(curve, np.zeros(10))


class TestFlops:
    @pytest.mark.parametrize("attention", ["la", "sea"])
    @pytest.mark.parametrize("pe", ["pos", "std"])
    def test_module_flops_equal_the_ops_the_model_runs(self, pe, attention, monkeypatch):
        # 2 x output elements x fan-in, over every linear, dense conv and
        # depthwise conv of one forward pair, is the conv + linear count
        cfg = make_config("lite", attention, pe, channels=(8, 12, 16, 24),
                          coarse_channels=16, fine_channels=16, fusion_channels=16)
        model = MatchModel(cfg, seed=0)
        counted = []

        def counting(op, fan_in):
            def counted_op(x, w, *args, **kwargs):
                out = op(x, w, *args, **kwargs)
                counted.append(2 * out.size * fan_in(w.shape))
                return out
            return counted_op

        for name, fan_in in (("linear", lambda s: s[0]),
                             ("conv2d", lambda s: s[1] * s[2] * s[3]),
                             ("depthwise_conv2d", lambda s: s[2] * s[3]),
                             ("depthwise_gelu", lambda s: s[2] * s[3])):
            monkeypatch.setattr(T, name, counting(getattr(T, name), fan_in))
        img = Tensor(np.random.default_rng(0).uniform(size=(1, 1, 64, 64)))
        with T.no_grad():
            model.forward_pair(img, img)
        assert sum(counted) == E.flops_count(cfg, 64, 64).module_flops

    def test_single_1x1_conv_is_two_flops(self):
        assert E._mac2(1, 1, 1, 1) == 2.0

    def test_breakdown_total_equals_sum_of_parts(self):
        bd = E.flops_count(make_config("lite", "sea"), 480, 640, include_matcher=True)
        assert abs(bd.total - sum(e.flops for e in bd.entries)) < 1e-6
        assert abs(sum(bd.by_kind().values()) - bd.total) < 1e-6

    def test_lite_sea_within_30pct_of_140(self):
        bd = E.flops_count(make_config("lite", "sea"), 480, 640)
        assert 140 * 0.7 <= bd.table_gflops <= 140 * 1.3

    def test_large_sea_within_30pct_of_414(self):
        bd = E.flops_count(make_config("large", "sea"), 480, 640)
        assert 414 * 0.7 <= bd.table_gflops <= 414 * 1.3

    def test_attention_kernel_formulas(self):
        # FULL: 2 N N' d per head for QK^T and PV, over 4 heads of width 16
        assert E.attention_kernel_flops("full", 100, 64, 4) \
            == 2 * 2 * 100 * 100 * 16 * 4
        # SEA reduces N' by R^2
        assert E.attention_kernel_flops("sea", 100, 64, 4, reduction=2) \
            == 2 * 2 * 100 * 25 * 16 * 4
        # LA: 2 N d^2 per head per factor
        assert E.attention_kernel_flops("la", 100, 64, 4) == 2 * 2 * 100 * 16 * 16 * 4

    def test_sea_sits_between_la_and_full(self):
        # SEA is exactly FULL / R^2; it exceeds LA once N/R^2 outgrows d
        for n in (256, 1024, 4096):
            sea = E.attention_kernel_flops("sea", n, 64, 1, reduction=4)
            full = E.attention_kernel_flops("full", n, 64, 1)
            assert sea == full / 16
            assert sea < full
        la = E.attention_kernel_flops("la", 4096, 64, 1)
        sea = E.attention_kernel_flops("sea", 4096, 64, 1, reduction=4)
        assert la < sea < E.attention_kernel_flops("full", 4096, 64, 1)

    def test_analytic_exponents(self):
        exps = E.complexity_exponents()
        assert abs(exps["full_analytic"] - 2.0) < 0.05
        assert abs(exps["la_analytic"] - 1.0) < 0.05
        assert exps["sea_analytic"] == pytest.approx(2.0, abs=0.05)

    def test_matcher_entries_only_when_requested(self):
        cfg = make_config("lite", "sea")
        without = E.flops_count(cfg, 480, 640)
        with_m = E.flops_count(cfg, 480, 640, include_matcher=True)
        assert "matcher" not in without.by_kind()
        assert with_m.by_kind()["matcher"] > 0

    def test_runtime_bench_times_the_model_attention(self, monkeypatch):
        calls = []
        real = Attention.__call__

        def counted(self, q_src, kv_src, kv_hw):
            calls.append((self.kind, self.heads, q_src.shape, kv_hw))
            return real(self, q_src, kv_src, kv_hw)

        monkeypatch.setattr(Attention, "__call__", counted)
        [median] = E.bench_attention_sweep("la", (32,), dim=8)
        assert median > 0
        # one warm-up call, then the timed repeats
        assert calls == [("la", 1, (1, 32, 8), (32, 1))] * (1 + E.BENCH_REPEATS)

    def test_runtime_sweep_times_the_sizes_round_robin(self, monkeypatch):
        calls = []
        real = Attention.__call__

        def counted(self, q_src, kv_src, kv_hw):
            calls.append((self.kind, q_src.shape))
            return real(self, q_src, kv_src, kv_hw)

        monkeypatch.setattr(Attention, "__call__", counted)
        exps = E.complexity_exponents(ns=(64, 32), dim=8, measure_runtime=True)
        assert {"full_runtime", "la_runtime"} <= exps.keys()
        # per kind: one warm-up per size, then rounds that each time every
        # size once, largest first
        assert calls == [(kind, (1, n, 8)) for kind in ("full", "la")
                         for n in (64, 32) * (1 + E.BENCH_REPEATS)]

    def test_power_law_fit(self):
        xs = [256, 512, 1024, 2048]
        assert abs(E.fit_power_law(xs, [x ** 1.5 for x in xs]) - 1.5) < 1e-9
