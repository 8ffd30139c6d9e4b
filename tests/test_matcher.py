"""Matcher: scores, dual softmax, MNN selection, fine refinement, end to end."""

import re

import numpy as np
import pytest

from matchformer import matcher as M
from matchformer import selftest as S
from matchformer import tensor as T
from matchformer.encoder import make_config
from matchformer.model import MatchModel
from matchformer.tensor import Tensor

TOY = dict(channels=(8, 12, 16, 24), coarse_channels=16, fine_channels=16,
           fusion_channels=16)


class TestCoarseScores:
    def test_identical_maps_have_diagonal_max_one_over_tau(self):
        rng = np.random.default_rng(0)
        fmap = Tensor(rng.normal(size=(1, 16, 4, 4)))
        s = M.coarse_scores(fmap, fmap, tau=0.1).data
        assert np.abs(np.diag(s) - 10.0).max() < 1e-12
        assert np.all(np.argmax(s, axis=1) == np.arange(16))  # Cauchy-Schwarz

    def test_orthogonal_one_hot_descriptors(self):
        eye = np.zeros((1, 4, 2, 2))
        eye[0, :, :, :] = np.eye(4).reshape(4, 2, 2)
        s = M.coarse_scores(Tensor(eye), Tensor(eye), tau=0.5).data
        assert np.abs(s - np.eye(4) / 0.5).max() < 1e-12

    def test_matches_naive_inner_product_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(1, 8, 2, 3))
        b = rng.normal(size=(1, 8, 3, 2))
        s = M.coarse_scores(Tensor(a), Tensor(b), tau=0.25).data
        seq_a = a[0].reshape(8, 6).T
        seq_b = b[0].reshape(8, 6).T
        ref = np.zeros((6, 6))
        for i in range(6):
            for j in range(6):
                ref[i, j] = np.dot(seq_a[i] / np.linalg.norm(seq_a[i]),
                                   seq_b[j] / np.linalg.norm(seq_b[j])) / 0.25
        assert np.abs(s - ref).max() < 1e-12

    def test_nonpositive_tau_rejected(self):
        fmap = Tensor(np.ones((1, 4, 2, 2)))
        with pytest.raises(ValueError):
            M.coarse_scores(fmap, fmap, tau=0.0)


class TestDualSoftmax:
    def test_single_entry_is_one(self):
        assert M.dual_softmax(Tensor([[3.7]])).data.tolist() == [[1.0]]

    def test_saturated_diagonal(self):
        s = np.full((3, 3), -1e3)
        np.fill_diagonal(s, 1e3)
        probs = M.dual_softmax(Tensor(s)).data
        assert np.abs(probs - np.eye(3)).max() < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_product_and_bound_invariants(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(4, 5)) * rng.uniform(0.1, 10)
        assert S.dual_softmax_error(M.dual_softmax(Tensor(s)), s) < 1e-14


class TestSelectCoarse:
    def test_identity_matrix(self):
        res = M.select_coarse(np.eye(3), 0.2)
        assert res.pairs.tolist() == [[0, 0], [1, 1], [2, 2]]
        assert np.array_equal(res.confidences, np.ones(3))

    def test_all_below_threshold_is_empty(self):
        res = M.select_coarse(np.full((3, 3), 0.1), 0.2)
        assert len(res.pairs) == 0

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_bruteforce_mutual_argmax(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=(10, 10))
        assert S.mnn_matches_bruteforce(M.select_coarse(p, 0.0).pairs, p, 0.0)

    def test_partial_bijection(self):
        rng = np.random.default_rng(42)
        p = rng.uniform(size=(12, 9))
        pairs = M.select_coarse(p, 0.0).pairs
        assert len(set(pairs[:, 0])) == len(pairs)
        assert len(set(pairs[:, 1])) == len(pairs)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(43)
        p = rng.uniform(size=(10, 10))
        low = {tuple(t) for t in M.select_coarse(p, 0.1).pairs.tolist()}
        high = {tuple(t) for t in M.select_coarse(p, 0.5).pairs.tolist()}
        assert high <= low

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            M.select_coarse(np.eye(2), 1.0)


def dense_probs(a, b, tau):
    with T.no_grad():
        return M.dual_softmax(M.coarse_scores(Tensor(a), Tensor(b), tau=tau)).data


def assert_agrees_with_dense(a, b, tau, theta):
    """The streamed selection picks the dense chain's mutual argmaxes above
    theta, with the dense chain's confidences."""
    p = dense_probs(a, b, tau)
    res = M.stream_select_coarse(Tensor(a), Tensor(b), tau=tau, theta=theta)
    assert S.mnn_matches_bruteforce(res.pairs, p, theta)
    want = p[res.pairs[:, 0], res.pairs[:, 1]]
    assert np.abs(res.confidences - want).max(initial=0.0) <= 1e-12 * want.max(initial=0.0)
    assert res.grid_a == a.shape[-2:] and res.grid_b == b.shape[-2:]
    return res


def one_hot_maps(cells_a, cells_b, c=8):
    """[1, c, 1, n] maps whose cells are unit vectors e_k: every score is
    exactly 0 or 1/tau, so equal descriptors tie exactly."""
    eye = np.eye(c)
    return eye[cells_a].T[None, :, None, :], eye[cells_b].T[None, :, None, :]


class TestStreamSelectCoarse:
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_dense_chain_on_random_maps(self, block, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 12))
        ha, wa, hb, wb = (int(v) for v in rng.integers(1, 9, size=4))
        a = rng.normal(size=(1, c, ha, wa))
        b = rng.normal(size=(c, hb, wb))        # rectangular, and unbatched
        monkeypatch.setattr(M, "_SCORE_BLOCK", block or ha * wa)
        for tau in (0.05, 0.1, 1.0):
            assert_agrees_with_dense(a, b, tau, 0.0)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_exact_ties_go_to_the_lowest_index(self, block, monkeypatch):
        # A rows 0 and 5 and B columns 1 and 2 are e0; A rows 1 and 3 are e1.
        # Blocks of 1 and 2 put each tied pair of rows in different blocks.
        # A's e3 and B's e4 meet nothing, so they are each other's best.
        a, b = one_hot_maps([0, 1, 2, 1, 3, 0], [2, 0, 0, 1, 4])
        monkeypatch.setattr(M, "_SCORE_BLOCK", block)
        res = assert_agrees_with_dense(a, b, 0.5, 0.0)
        assert res.pairs.tolist() == [[0, 1], [1, 3], [2, 0], [4, 4]]

    def test_theta_is_a_strict_lower_bound(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(1, 6, 4, 5)), rng.normal(size=(1, 6, 5, 4))
        everything = M.stream_select_coarse(Tensor(a), Tensor(b), tau=0.1, theta=0.0)
        conf = np.sort(everything.confidences)
        assert len(conf) >= 3
        for theta, dropped in ((conf[1], 2), (np.nextafter(conf[1], 0.0), 1)):
            res = M.stream_select_coarse(Tensor(a), Tensor(b), tau=0.1, theta=theta)
            assert np.array_equal(np.sort(res.confidences), conf[dropped:])

    def test_saturated_identity_survives_theta_near_one(self):
        a, b = one_hot_maps(range(6), range(6))
        res = M.stream_select_coarse(Tensor(a), Tensor(b), tau=0.01, theta=0.999)
        assert res.pairs.tolist() == [[i, i] for i in range(6)]

    @pytest.mark.parametrize("theta", [1.0, -0.1, 1.5])
    def test_theta_domain(self, theta):
        fmap = Tensor(np.ones((1, 4, 2, 2)))
        with pytest.raises(ValueError, match="theta"):
            M.stream_select_coarse(fmap, fmap, tau=M.DEFAULT_TAU, theta=theta)

    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_tau_domain(self, tau):
        fmap = Tensor(np.ones((1, 4, 2, 2)))
        for select in (lambda a, b, tau: M.stream_select_coarse(a, b, tau, M.DEFAULT_THETA),
                       M.coarse_scores):
            with pytest.raises(ValueError, match="tau must be finite and > 0"):
                select(fmap, fmap, tau=tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_descriptors_raise(self, bad):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(1, 4, 3, 3)), rng.normal(size=(1, 4, 3, 3))
        a[0, 2, 1, 1] = bad
        with pytest.raises(T.NumericalError):
            M.stream_select_coarse(Tensor(a), Tensor(b), M.DEFAULT_TAU, M.DEFAULT_THETA)

    def test_overflowing_scores_raise_as_in_the_dense_chain(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(1, 4, 3, 3)), rng.normal(size=(1, 4, 3, 3))
        with pytest.raises(T.NumericalError):
            dense_probs(a, b, 1e-310)
        with pytest.raises(T.NumericalError):
            M.stream_select_coarse(Tensor(a), Tensor(b), tau=1e-310, theta=M.DEFAULT_THETA)


def one_pair_result():
    return M.CoarseMatchResult(pairs=np.array([[0, 0]]), confidences=np.array([0.9]),
                               grid_a=(1, 1), grid_b=(1, 1))


class TestFineRefine:
    # r_c=16, r_f=2 back-locates the single coarse cell to fine cell (4, 4)
    # on a 9 x 9 fine map, with the window fully interior.

    def setup_maps(self):
        u = np.zeros((3, 1, 1))
        u[0] = 1.0
        fine_a = np.tile(u, (1, 9, 9))
        return u, fine_a

    def test_point_mass_at_center_gives_zero_offset(self):
        u, fine_a = self.setup_maps()
        fine_b = -fine_a.copy()
        fine_b[:, 4, 4] = u[:, 0, 0]
        ms = M.fine_refine(one_pair_result(), Tensor(fine_a), Tensor(fine_b),
                           window=5, r_c=16, r_f=2, tau=0.01)
        x1, y1, x2, y2, conf = ms.points[0]
        assert abs(x2 - (x1 + (4.5 * 2 - 0.5) - (4.5 * 2 - 0.5))) < 1e-9
        assert conf == 0.9

    def test_uniform_window_gives_zero_offset(self):
        u, fine_a = self.setup_maps()
        ms = M.fine_refine(one_pair_result(), Tensor(fine_a), Tensor(fine_a),
                           window=5, r_c=16, r_f=2, tau=0.01)
        x1, _, x2, _, _ = ms.points[0]
        assert abs(x2 - x1) < 1e-9

    def test_point_mass_at_corner_shifts_by_two_rf(self):
        u, fine_a = self.setup_maps()
        fine_b = -fine_a.copy()
        fine_b[:, 6, 6] = u[:, 0, 0]
        center = M.fine_refine(one_pair_result(), Tensor(fine_a), Tensor(fine_a),
                               window=5, r_c=16, r_f=2, tau=0.01)
        corner = M.fine_refine(one_pair_result(), Tensor(fine_a), Tensor(fine_b),
                               window=5, r_c=16, r_f=2, tau=0.01)
        assert abs((corner.points[0][2] - center.points[0][2]) - 2 * 2) < 1e-9
        assert abs((corner.points[0][3] - center.points[0][3]) - 2 * 2) < 1e-9

    def test_expected_offset_bounded_by_window(self):
        rng = np.random.default_rng(3)
        fine_a = rng.normal(size=(4, 9, 9))
        fine_b = rng.normal(size=(4, 9, 9))
        ms = M.fine_refine(one_pair_result(), Tensor(fine_a), Tensor(fine_b),
                           window=5, r_c=16, r_f=2, tau=0.1)
        x1, y1, x2, y2, _ = ms.points[0]
        # |offset| <= (w-1)/2 in fine cells even for arbitrary features
        assert abs(x2 - x1) <= 2 * 2 + 1e-9 and abs(y2 - y1) <= 2 * 2 + 1e-9

    def test_border_window_clamps_and_renormalizes(self):
        rng = np.random.default_rng(4)
        fine = rng.normal(size=(4, 9, 9))
        res = M.CoarseMatchResult(pairs=np.array([[0, 0]]), confidences=np.array([1.0]),
                                  grid_a=(1, 1), grid_b=(1, 1))
        # r_c=2, r_f=2 back-locates to fine cell (0, 0): window clamps
        ms = M.fine_refine(res, Tensor(fine), Tensor(fine), window=5,
                           r_c=2, r_f=2, tau=0.1)
        assert len(ms) == 1 and np.isfinite(ms.points).all()

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            M.fine_refine(one_pair_result(), Tensor(np.zeros((1, 9, 9))),
                          Tensor(np.zeros((1, 9, 9))), window=4, r_c=16, r_f=2, tau=0.01)

    def test_differentiable_offsets_agree_with_inference(self):
        # fine_refine against a per-match crop-and-softmax loop, on interior
        # windows and on windows clamped at every border of the fine map
        for r_c, r_f, grid in ((4, 2, 6), (2, 2, 12), (4, 8, 12)):
            rng = np.random.default_rng(5 + r_c + r_f)
            hf = grid * r_c // r_f
            fine_a = rng.normal(size=(6, hf, hf))
            fine_b = rng.normal(size=(6, hf, hf))
            n = grid * grid
            pairs = np.concatenate([[[0, 0], [n - 1, n - 1], [grid - 1, n - grid],
                                     [0, n // 2 + grid // 2]],
                                    rng.integers(0, n, size=(8, 2))])
            res = M.CoarseMatchResult(pairs=pairs, confidences=rng.uniform(size=len(pairs)),
                                      grid_a=(grid, grid), grid_b=(grid, grid))
            ms = M.fine_refine(res, Tensor(fine_a), Tensor(fine_b), window=5,
                               r_c=r_c, r_f=r_f, tau=0.1)
            ref = loop_refine(res, fine_a, fine_b, 5, r_c, r_f, 0.1)
            assert ms.points.shape == ref.shape
            assert np.abs(ms.points - ref).max() < 1e-12


class TestFineOffsets:
    # two matches share A centre (1, 2); B centre (0, 5) sits in a corner, so
    # its window is clamped on two sides
    centers_a = np.array([[1, 2], [1, 2], [3, 4], [4, 0]])
    centers_b = np.array([[2, 3], [0, 5], [3, 1], [2, 2]])

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_gradient_matches_finite_differences(self, side):
        rng = np.random.default_rng(7)
        maps = {"a": rng.normal(size=(3, 5, 6)), "b": rng.normal(size=(3, 5, 6))}
        wgt = Tensor(rng.normal(size=(4, 2)))

        def loss(x):
            fa = x if side == "a" else Tensor(maps["a"])
            fb = x if side == "b" else Tensor(maps["b"])
            off = M.fine_offsets(fa, fb, self.centers_a, self.centers_b, radius=2, tau=0.5)
            return T.reduce_sum(T.mul(off, wgt))

        rep = T.fd_check(loss, Tensor(maps[side]), tol=1e-5)
        assert rep.passed, rep.max_rel_err

    def test_records_one_window_op(self):
        # the gather of the A centres, the 1/tau scale and the border floor all
        # live inside window_dot
        fa, fb = (Tensor(np.ones((1, 3, 5, 6)), requires_grad=True) for _ in range(2))
        T.active_tape().clear()
        M.fine_offsets(fa, fb, self.centers_a, self.centers_b, radius=2, tau=0.5)
        names = [node.name for node in T.active_tape().nodes]
        T.active_tape().clear()
        assert names == ["reshape", "l2_normalize", "reshape", "l2_normalize",
                         "window_dot", "softmax", "matmul"]

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
    def test_fine_tau_domain(self, tau):
        fmap = Tensor(np.ones((4, 5, 6)))
        calls = (lambda: M.fine_offsets(fmap, fmap, self.centers_a, self.centers_b,
                                        radius=2, tau=tau),
                 lambda: M.fine_refine(one_pair_result(), fmap, fmap, window=5,
                                       r_c=16, r_f=2, tau=tau),
                 lambda: M.match_pair(np.zeros((64, 64)), np.zeros((64, 64)),
                                      MatchModel(make_config("lite", "la", **TOY)),
                                      fine_tau=tau))
        for call in calls:
            with pytest.raises(ValueError, match="fine_tau must be finite and > 0"):
                call()


def loop_refine(coarse, fine_a, fine_b, window, r_c, r_f, tau):
    """One match at a time: crop the window inside the map, softmax, expect."""
    def unit(m):
        n = np.sqrt((m * m).sum(axis=0, keepdims=True))
        return m / np.where(n > 0, n, 1.0)

    def center(k, r):
        return (k + 0.5) * r - 0.5

    def back_locate(k, size):
        return min(max(int(np.floor((k + 0.5) * r_c / r_f)), 0), size - 1)

    fa, fb = unit(fine_a), unit(fine_b)
    hf, wf = fb.shape[1:]
    radius = window // 2
    rows = []
    for (i, j), conf in zip(coarse.pairs, coarse.confidences):
        ra, ca = divmod(int(i), coarse.grid_a[1])
        rb, cb = divmod(int(j), coarse.grid_b[1])
        ka_r, ka_c = back_locate(ra, fa.shape[1]), back_locate(ca, fa.shape[2])
        kb_r, kb_c = back_locate(rb, hf), back_locate(cb, wf)
        r_lo, r_hi = max(kb_r - radius, 0), min(kb_r + radius, hf - 1)
        c_lo, c_hi = max(kb_c - radius, 0), min(kb_c + radius, wf - 1)
        logits = np.einsum("c,cij->ij", fa[:, ka_r, ka_c],
                           fb[:, r_lo:r_hi + 1, c_lo:c_hi + 1]) / tau
        p = np.exp(logits - logits.max())
        p /= p.sum()
        dy = (p.sum(axis=1) * (np.arange(r_lo, r_hi + 1) - kb_r)).sum()
        dx = (p.sum(axis=0) * (np.arange(c_lo, c_hi + 1) - kb_c)).sum()
        x1, y1 = center(ca, r_c), center(ra, r_c)
        x2 = center(kb_c + dx, r_f) + x1 - center(ka_c, r_f)
        y2 = center(kb_r + dy, r_f) + y1 - center(ka_r, r_f)
        rows.append((x1, y1, min(max(x2, 0.0), wf * r_f - 1.0),
                     min(max(y2, 0.0), hf * r_f - 1.0), conf))
    return np.array(rows, dtype=np.float64).reshape(-1, 5)


class TestMatchPair:
    def make_model(self, seed=0):
        return MatchModel(make_config("lite", "la", **TOY), seed=seed)

    def test_identity_pair_returns_identity_mapping(self):
        from matchformer.data import gen_pattern
        model = MatchModel(make_config("lite", "la"), seed=3)
        img = gen_pattern(5, 64, 64)
        ms = M.match_pair(img, img, model, tau=0.1, theta=0.0, window=5)
        # MNN keeps (nearly) every cell matched to itself, at zero offset
        assert len(ms) >= 0.95 * 256
        err = np.abs(ms.xy1 - ms.xy2).max(axis=1)
        assert (err < 0.5 * 8).sum() >= 0.95 * 256

    def test_blank_images_never_crash(self):
        model = self.make_model(4)
        blank = np.full((64, 64), 0.5)
        ms = M.match_pair(blank, blank, model)
        assert isinstance(ms, M.MatchSet)

    def test_coarse_pairs_equal_the_dense_chain(self, monkeypatch):
        from matchformer.data import gen_pattern
        model = self.make_model(6)
        a, b = gen_pattern(8, 64, 64), gen_pattern(9, 64, 64)
        with T.no_grad():
            ca, _, cb, _ = model.forward_pair(Tensor(a[None, None]), Tensor(b[None, None]))
        seen = []
        monkeypatch.setattr(M, "fine_refine", lambda res, *_, **__: seen.append(res))
        M.match_pair(a, b, model, tau=0.1, theta=0.0)
        want = assert_agrees_with_dense(ca.data, cb.data, 0.1, 0.0)
        assert np.array_equal(seen[0].pairs, want.pairs)
        assert np.array_equal(seen[0].confidences, want.confidences)

    @pytest.mark.parametrize("key,value", [
        ("tau", 0.0), ("tau", np.nan), ("theta", 1.0), ("theta", -0.1),
        ("window", 4), ("window", -1), ("fine_tau", 0.0), ("fine_tau", np.inf)])
    def test_bad_values_raise_before_the_forward(self, key, value):
        class NoForward:
            def forward_pair(self, *_):
                raise AssertionError("forward_pair ran before the value checks")

        img = np.zeros((64, 64))
        with pytest.raises(ValueError, match=f"^{key} must be"):
            M.match_pair(img, img, NoForward(), **{key: value})

    def test_swap_symmetry_of_coarse_sets_at_theta_zero(self):
        from matchformer.data import gen_pattern
        model = self.make_model(5)
        a = gen_pattern(6, 64, 64)
        b = gen_pattern(7, 64, 64)
        with T.no_grad():
            ca, fa, cb, fb = model.forward_pair(Tensor(a[None, None]),
                                                Tensor(b[None, None]))
            p_ab = M.dual_softmax(M.coarse_scores(ca, cb, tau=0.1))
            p_ba = M.dual_softmax(M.coarse_scores(cb, ca, tau=0.1))
        ab = M.select_coarse(p_ab, 0.0).pairs
        ba = M.select_coarse(p_ba, 0.0).pairs
        assert sorted(map(tuple, ab[:, ::-1].tolist())) == sorted(map(tuple, ba.tolist()))
        assert np.abs(p_ab.data - p_ba.data.T).max() < 1e-15


class TestLargeStrides:
    """``match_pair`` on the large variant: coarse stride 2, fine stride 8."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("attention", ["la", "sea"])
    def test_identity_pair_points(self, attention, seed):
        from matchformer.data import gen_pattern
        model = MatchModel(make_config("large", attention, **TOY), seed=seed)
        r_c, r_f = model.cfg.coarse_stride, model.cfg.fine_stride
        assert (r_c, r_f) == (2, 8)
        img = gen_pattern(seed, 64, 64)
        ms = M.match_pair(img, img, model, theta=0.0)
        assert len(ms) > 0
        # every A point is a stride-2 cell centre
        cells = (ms.xy1 + 0.5) / r_c - 0.5
        assert np.array_equal(cells, np.round(cells))
        assert cells.min() >= 0 and cells.max() < 64 // r_c
        # every B point lies inside the window around its A point: at most
        # radius fine cells, 2 * 8 = 16 px, along each axis
        shift = ms.xy2 - ms.xy1
        assert np.abs(shift).max() <= (M.DEFAULT_WINDOW // 2) * r_f
        assert np.median(np.hypot(*shift.T)) < r_f / 2


class TestMatchFileIO:
    def test_roundtrip(self, tmp_path):
        pts = np.array([[1.5, 2.25, 3.125, 4.0, 0.75], [0, 0, 63, 63, 1.0]])
        path = tmp_path / "m.tsv"
        M.save_matches(path, M.MatchSet(points=pts))
        back = M.load_matches(path)
        assert np.abs(back.points - pts).max() < 1e-6
        assert path.read_text().splitlines()[0] == "# matchformer-matches v1"

    def test_empty_set_roundtrip(self, tmp_path):
        # fine_refine turns a coarse set without pairs into an empty set
        res = M.CoarseMatchResult(pairs=np.zeros((0, 2), dtype=int), confidences=np.zeros(0),
                                  grid_a=(9, 9), grid_b=(9, 9))
        fine = Tensor(np.random.default_rng(6).normal(size=(4, 9, 9)))
        refined = M.fine_refine(res, fine, fine, window=5, r_c=2, r_f=2,
                                tau=M.DEFAULT_FINE_TAU)
        for k, matches in enumerate([M.MatchSet(points=np.zeros((0, 5))), refined]):
            path = tmp_path / f"empty{k}.tsv"
            M.save_matches(path, matches)
            assert matches.points.shape == (0, 5)
            assert M.load_matches(path).points.shape == (0, 5)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\t3\t4\t0.5\n")
        with pytest.raises(ValueError):
            M.load_matches(path)

    @pytest.mark.parametrize("row", ["1\t2\t3\t4", "1\t2\t3\t4\t0.5\t6",
                                     "1\t2\tnan\t4\t0.5", "1\t2\t3\t4\tinf",
                                     "1 2 3 4 0.5"])
    def test_malformed_row_names_path_and_line(self, tmp_path, row):
        # five 4-field rows would re-slice into four shifted 5-field matches
        path = tmp_path / "bad.tsv"
        path.write_text(M.MATCH_FILE_MAGIC + "\n1\t2\t3\t4\t0.5\n\n"
                        + (row + "\n") * 5)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: ")):
            M.load_matches(path)
