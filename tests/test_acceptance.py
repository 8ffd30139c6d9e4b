"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 performs the full reference training run (about seven
minutes on one desktop core set); everything else is fast.

Criterion 5c (published lite/large GFLOPs ratio) is asserted exactly as
specified and is expected to fail: every component of the architecture costs
exactly 4x (per-position work) or 16x (attention and coarse-score products)
more in the large variant at equal input size, so no counting convention can
push the ratio above 0.25, while the published ratio is 0.338.  The
published linear-attention ratio (97/389 = 0.249) matches module-level
counting exactly, which is how the absolute comparisons here are counted.
"""

import time

import numpy as np
import pytest

from matchformer import data as D
from matchformer import evalkit as E
from matchformer import matcher as M
from matchformer import selftest as S
from matchformer import tensor as T
from matchformer.blocks import Attention, AttentionBlock
from matchformer.encoder import make_config, output_plan, stage_plan
from matchformer.model import MatchModel
from matchformer.tensor import Tensor
from matchformer.trainer import TrainConfig, coarse_loss, train_toy


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. Gradient integrity
# ---------------------------------------------------------------------------


class TestCriterion1Gradients:
    def test_elementwise_ops_rel_err_below_1e4(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        w = Tensor(rng.normal(size=(4, 5)))
        cases = [
            lambda x: T.reduce_sum(T.mul(T.sigmoid(x), w)),
            lambda x: T.reduce_sum(T.mul(T.gelu(x), w)),
            lambda x: T.reduce_sum(T.mul(T.exp(T.mul(x, 0.3)), w)),
            lambda x: T.reduce_sum(T.div(w, T.add(T.mul(x, x), 1.5))),
            lambda x: T.reduce_sum(T.mul(T.softmax(x, -1), w)),
            lambda x: T.reduce_sum(T.mul(T.l2_normalize(x), w)),
        ]
        for seed in range(3):
            x = Tensor(np.random.default_rng(seed).normal(size=(4, 5)))
            for fn in cases:
                worst = max(worst, T.fd_check(fn, x, h=1e-5, tol=1e-4).max_rel_err)
        assert report("1a elementwise gradients", worst < 1e-4,
                      f"max rel err {worst:.2e} < 1e-4")

    def test_composite_block_rel_err_below_1e3(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for kind, red in (("full", 1), ("la", 1), ("sea", 2)):
            block = AttentionBlock(np.random.default_rng(7), 8, 2, kind, red)
            w = Tensor(rng.normal(size=(2, 16, 8)))
            rep = T.fd_check(
                lambda x: T.reduce_sum(T.mul(block(x, (4, 4), cross=True), w)),
                Tensor(rng.normal(size=(2, 16, 8))), h=1e-5, tol=1e-3)
            worst = max(worst, rep.max_rel_err)
        assert report("1b composite blocks", worst < 1e-3,
                      f"max rel err {worst:.2e} < 1e-3")

    def test_full_pipeline_loss_path_on_32px_toy(self):
        t0 = time.time()
        cfg = make_config("lite", "sea", channels=(8, 8, 8, 16),
                          coarse_channels=8, fine_channels=8, fusion_channels=8)
        model = MatchModel(cfg, seed=0)
        sample = D.make_pair(3, 32, 32)
        labels = D.gt_coarse_labels(sample.h_mat, (32, 32), cfg.coarse_stride)
        img_a = Tensor(sample.image_a[None, None])
        img_b = Tensor(sample.image_b[None, None])

        probes = [
            (model.encoder.stages[0].pe.proj, "weight"),
            (model.encoder.stages[2].blocks[0].attn.q, "weight"),
            (model.decoder.laterals[1], "weight"),
            (model.decoder.fine_head, "weight"),
        ]
        worst = 0.0
        for owner, attr in probes:
            original = getattr(owner, attr)

            def loss_fn(p, _owner=owner, _attr=attr, _orig=original):
                setattr(_owner, _attr, p)
                try:
                    ca, fa, cb, fb = model.forward_pair(img_a, img_b)
                    loss = coarse_loss(M.coarse_pass(ca, cb, 0.1), labels)
                    offs = M.fine_offsets(fa, fb, np.array([[2, 2]]),
                                          np.array([[2, 2]]), radius=1, tau=0.05)
                    return T.add(loss, T.reduce_sum(T.mul(offs, offs)))
                finally:
                    setattr(_owner, _attr, _orig)
            rep = T.fd_check(loss_fn, Tensor(original.data.copy()), h=1e-5,
                             tol=1e-3, max_coords=4, seed=11)
            worst = max(worst, rep.max_rel_err)
        elapsed = time.time() - t0
        ok = worst < 1e-3 and elapsed < 300
        assert report("1c full pipeline gradient", ok,
                      f"max rel err {worst:.2e} < 1e-3 in {elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 2. Table 1 conformance
# ---------------------------------------------------------------------------

TABLE1 = {
    # variant -> (stage channel/scale plan, coarse spec, fine spec)
    "lite": ([(128, 4), (192, 8), (256, 16), (512, 32)], (128, 4), (192, 8)),
    "large": ([(128, 2), (192, 4), (256, 8), (512, 16)], (128, 2), (256, 8)),
}


class TestCriterion2Table1:
    @pytest.mark.parametrize("variant", ["lite", "large"])
    @pytest.mark.parametrize("attention", ["la", "sea"])
    @pytest.mark.parametrize("hw", [(64, 64), (480, 640)])
    def test_symbolic_shapes(self, variant, attention, hw):
        cfg = make_config(variant, attention)
        h, w = hw
        stages, coarse_spec, fine_spec = TABLE1[variant]
        plan = stage_plan(cfg, h, w)
        assert plan == [(c, h // s, w // s) for c, s in stages]
        coarse, fine = output_plan(cfg, h, w)
        assert coarse == (coarse_spec[0], h // coarse_spec[1], w // coarse_spec[1])
        assert fine == (fine_spec[0], h // fine_spec[1], w // fine_spec[1])

    @pytest.mark.parametrize("variant", ["lite", "large"])
    @pytest.mark.parametrize("attention", ["la", "sea"])
    def test_real_forward_produces_planned_shapes_at_64(self, variant, attention):
        cfg = make_config(variant, attention)
        model = MatchModel(cfg, seed=0)
        img = Tensor(np.random.default_rng(0).uniform(size=(1, 1, 64, 64)))
        with T.no_grad():
            pyr = model.encoder.encode_pair(img, img)
            coarse, fine = model.decoder.fuse(pyr)
        assert [m.shape[1:] for m in pyr] == [tuple(p) for p in stage_plan(cfg, 64, 64)]
        c_spec, f_spec = output_plan(cfg, 64, 64)
        ok = coarse.shape[1:] == c_spec and fine.shape[1:] == f_spec
        assert report(f"2 Table-1 shapes {variant}-{attention}", ok,
                      f"coarse {coarse.shape[1:]}, fine {fine.shape[1:]}")


# ---------------------------------------------------------------------------
# 3. Attention equivalences
# ---------------------------------------------------------------------------


class TestCriterion3AttentionEquivalences:
    def test_sea_r1_bit_exact_with_full(self):
        full = Attention(np.random.default_rng(0), "full", 32, 4)
        sea = Attention(np.random.default_rng(1), "sea", 32, 4, reduction=1)
        S.copy_weights(full, sea)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 16, 32)))
        with T.no_grad():
            same = np.array_equal(full(x, x, (4, 4)).data, sea(x, x, (4, 4)).data)
        assert report("3a SEA(R=1) == FULL bit-exact", same)

    def test_la_matches_unfactorized_oracle_at_n16(self):
        rng = np.random.default_rng(3)
        attn = Attention(rng, "la", 32, 4)
        x = Tensor(rng.normal(size=(1, 16, 32)))
        with T.no_grad():
            err = S.attention_error(attn(x, x, (4, 4)), attn, x, x, (4, 4))
        assert report("3b LA vs unfactorized oracle", err < 1e-12, f"err {err:.1e}")

    @pytest.mark.parametrize("kind", ["full", "la"])
    def test_joint_kv_permutation_invariance(self, kind):
        rng = np.random.default_rng(4)
        attn = Attention(rng, kind, 32, 8)
        q_src = Tensor(rng.normal(size=(1, 10, 32)))
        kv = rng.normal(size=(1, 16, 32))
        perm = rng.permutation(16)
        with T.no_grad():
            err = S.kv_permutation_error(lambda m: attn(q_src, Tensor(m), (4, 4)), kv, perm)
        assert report(f"3c {kind} K/V-permutation invariance", err < 1e-10,
                      f"err {err:.1e}")


# ---------------------------------------------------------------------------
# 4. Complexity claims
# ---------------------------------------------------------------------------

SWEEP = (256, 512, 1024, 2048, 4096)


class TestCriterion4Complexity:
    def test_analytic_exponents(self):
        full = E.fit_power_law(SWEEP, [E.attention_kernel_flops("full", n, 64, 1)
                                       for n in SWEEP])
        la = E.fit_power_law(SWEEP, [E.attention_kernel_flops("la", n, 64, 1)
                                     for n in SWEEP])
        ok = abs(full - 2.0) < 0.05 and abs(la - 1.0) < 0.05
        assert report("4a analytic FLOPs exponents", ok,
                      f"full {full:.3f} (2.0 +- 0.05), la {la:.3f} (1.0 +- 0.05)")

    def test_measured_runtime_exponents(self):
        exps = E.complexity_exponents(SWEEP, measure_runtime=True)
        full, la = exps["full_runtime"], exps["la_runtime"]
        ok = abs(full - 2.0) < 0.3 and abs(la - 1.0) < 0.3
        assert report("4b measured runtime exponents", ok,
                      f"full {full:.2f} (2.0 +- 0.3), la {la:.2f} (1.0 +- 0.3)")


# ---------------------------------------------------------------------------
# 5. Table 5 efficiency
# ---------------------------------------------------------------------------


class TestCriterion5Table5:
    def test_lite_sea_absolute(self):
        g = E.flops_count(make_config("lite", "sea"), 480, 640).table_gflops
        ok = 140 * 0.7 <= g <= 140 * 1.3
        assert report("5a lite-SEA GFLOPs", ok, f"{g:.1f} in [98, 182]")

    def test_large_sea_absolute(self):
        g = E.flops_count(make_config("large", "sea"), 480, 640).table_gflops
        ok = 414 * 0.7 <= g <= 414 * 1.3
        assert report("5b large-SEA GFLOPs", ok, f"{g:.1f} in [289.8, 538.2]")

    def test_ratio_as_published(self):
        lite = E.flops_count(make_config("lite", "sea"), 480, 640).table_gflops
        large = E.flops_count(make_config("large", "sea"), 480, 640).table_gflops
        ratio = lite / large
        ok = abs(ratio - 0.338) <= 0.15 * 0.338
        # Expected red: see the module docstring and the decisions ledger.
        assert report("5c lite/large ratio vs published 0.338 +- 15%", ok,
                      f"ratio {ratio:.3f}, bound [0.287, 0.389]; unattainable "
                      "for uniform counting of this architecture (ledgered)")


# ---------------------------------------------------------------------------
# 6. Matcher oracle equivalence
# ---------------------------------------------------------------------------


class TestCriterion6MatcherOracles:
    def test_select_coarse_vs_bruteforce_100_matrices(self):
        ok = True
        for seed in range(100):
            p = np.random.default_rng(seed).uniform(size=(10, 10))
            ok &= S.mnn_matches_bruteforce(M.select_coarse(p, 0.0).pairs, p, 0.0)
        assert report("6a select_coarse vs brute force (100 x 10x10)", ok)

    def test_dual_softmax_invariants_1000_matrices(self):
        ok = True
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            s = rng.normal(size=(5, 7)) * rng.uniform(0.2, 20)
            ok &= S.dual_softmax_error(M.dual_softmax(Tensor(s)), s) < 1e-13
            if not ok:
                break
        assert report("6b dual-softmax product/bounds (1000 matrices)", ok)


# ---------------------------------------------------------------------------
# 7. Identity-pair property
# ---------------------------------------------------------------------------


class TestCriterion7IdentityPair:
    def test_identity_mapping_and_offsets_over_20_seeds(self):
        frac_ok = []
        for seed in range(20):
            model = MatchModel(make_config("lite", "la"), seed=seed)
            img = D.gen_pattern(1000 + seed, 64, 64)
            ms = M.match_pair(img, img, model, tau=0.1, theta=0.0, window=5)
            n_cells = 16 * 16
            err = np.abs(ms.xy1 - ms.xy2).max(axis=1)
            good = (err < 0.5 * model.cfg.fine_stride).sum()
            frac_ok.append(good / n_cells)
        worst = min(frac_ok)
        ok = worst >= 0.95
        assert report("7 identity-pair mapping + offsets", ok,
                      f"worst seed fraction {worst:.3f} >= 0.95")


# ---------------------------------------------------------------------------
# 8. Toy training reference run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_run():
    cfg = TrainConfig(steps=2000, seed=0)
    t0 = time.time()
    result = train_toy(cfg)
    minutes = (time.time() - t0) / 60.0
    mmas = []
    for k in range(10):
        s = D.make_pair(777000 + k, 64, 64, max_rot=cfg.max_rot,
                        max_persp=cfg.max_persp, max_trans=cfg.max_trans,
                        max_scale=cfg.max_scale)
        ms = M.match_pair(s.image_a, s.image_b, result.model, tau=cfg.tau,
                          theta=cfg.theta, window=cfg.window,
                          fine_tau=cfg.fine_tau)
        try:
            _, inl = E.ransac_homography(ms.points, 2.0, 2000, seed=k)
            curve, _ = E.mma(M.MatchSet(points=ms.points[inl]), s.h_mat)
            mmas.append(float(curve[2]))
        except (E.RansacError, ValueError):
            mmas.append(0.0)
    return result, minutes, float(np.mean(mmas))


@pytest.mark.slow  # every test here shares the 2000-step reference_run
class TestCriterion8ToyTraining:
    def test_runtime_budget(self, reference_run):
        _, minutes, _ = reference_run
        assert report("8a reference run wall time", minutes < 30,
                      f"{minutes:.1f} min < 30 min")

    def test_loss_halves(self, reference_run):
        result, _, _ = reference_run
        metrics = np.array(result.metrics)
        first = metrics[:10, 1].mean()
        last = metrics[-10:, 1].mean()
        ok = last < 0.5 * first
        assert report("8b final loss < 0.5 x initial-window loss", ok,
                      f"{last:.3f} < 0.5 x {first:.3f}")

    def test_holdout_precision(self, reference_run):
        result, _, _ = reference_run
        ok = result.holdout_precision >= 0.8
        assert report("8c held-out coarse precision@1cell", ok,
                      f"{result.holdout_precision:.3f} >= 0.8")

    def test_mma_after_ransac_filtering(self, reference_run):
        _, _, mean_mma3 = reference_run
        ok = mean_mma3 >= 0.8
        assert report("8d MMA@3px on RANSAC inliers", ok,
                      f"{mean_mma3:.3f} >= 0.8")

    def test_loss_finite_throughout(self, reference_run):
        result, _, _ = reference_run
        ok = all(np.isfinite(row[1]) for row in result.metrics)
        assert report("8e loss finite at every step", ok)


# ---------------------------------------------------------------------------
# 9. Geometry
# ---------------------------------------------------------------------------


class TestCriterion9Geometry:
    def test_dlt_noise_free_recovery(self):
        worst = 0.0
        for seed in range(10):
            h_gt = D.random_homography(seed, size=(64, 64))
            rng = np.random.default_rng(seed)
            pts_a = rng.uniform(2, 62, size=(24, 2))
            m = np.concatenate([pts_a, D.hom_apply(h_gt, pts_a)], axis=1)
            worst = max(worst, S.reprojection_error(E.dlt_homography(m), pts_a, m[:, 2:4]))
        assert report("9a DLT noise-free reprojection", worst < 1e-8,
                      f"max {worst:.1e} px < 1e-8")

    def test_ransac_with_30pct_outliers(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed + 50)
            h_gt = D.random_homography(seed + 50, size=(64, 64))
            pts_a = rng.uniform(2, 62, size=(100, 2))
            pts_b = D.hom_apply(h_gt, pts_a)
            bad = rng.choice(100, 30, replace=False)
            pts_b[bad] = rng.uniform(0, 63, size=(30, 2))
            h_r, _ = E.ransac_homography(np.concatenate([pts_a, pts_b], 1),
                                         2.0, 2000, seed=seed)
            worst = max(worst, S.mean_corner_distance(h_r, h_gt, 64, 64))
        assert report("9b RANSAC corner error @30% outliers", worst < 0.5,
                      f"max {worst:.2e} px < 0.5")

    def test_corner_error_and_mma_match_hand_oracles(self):
        h_gt = D.random_homography(77, size=(64, 64))
        h_est = D.random_homography(78, size=(64, 64))
        ce_ok = (E.corner_error(h_est, h_gt, 64, 64)
                 == S.mean_corner_distance(h_est, h_gt, 64, 64))

        rng = np.random.default_rng(79)
        pts_a = rng.uniform(2, 62, size=(30, 2))
        pts_b = D.hom_apply(h_gt, pts_a) + rng.normal(0, 2, size=(30, 2))
        m = np.concatenate([pts_a, pts_b], axis=1)
        curve, _ = E.mma(m, h_gt)
        mma_ok = S.mma_error(curve, m, h_gt) == 0.0
        assert report("9c corner-error and MMA vs hand oracles", ce_ok and mma_ok)


# ---------------------------------------------------------------------------
# 10. Schedule ablation harness
# ---------------------------------------------------------------------------

ABLATIONS = [
    ("self_only", "pos"),
    ("cross_only", "pos"),
    ("sequential", "pos"),
    ("interleaving", "pos"),
    ("interleaving", "std"),
]


class TestCriterion10Ablations:
    @pytest.mark.parametrize("schedule,pe", ABLATIONS)
    def test_arrangement_trains_end_to_end(self, schedule, pe):
        cfg = TrainConfig(steps=2, seed=0, schedule=schedule, patch_embed=pe,
                          channels=(8, 8, 8, 16), coarse_channels=8,
                          fine_channels=8, fusion_channels=8)
        result = train_toy(cfg)
        ok = len(result.metrics) == 2 and np.isfinite(result.metrics[-1][1])
        assert report(f"10 ablation {schedule}/{pe} trains", ok)

    def test_no_cross_factorization_for_self_only_schedule(self):
        cfg = make_config("lite", "sea", channels=(8, 8, 8, 16), schedule="self_only",
                          coarse_channels=8, fine_channels=8, fusion_channels=8)
        model = MatchModel(cfg, seed=1)
        rng = np.random.default_rng(2)
        a = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        b = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        with T.no_grad():
            p = model.encoder.encode_pair(a, b)
            p2 = model.encoder.encode_pair(a, Tensor(1.0 - b.data))
        ok = S.stream_a_unchanged(p, p2)
        assert report("10 no-cross factorization (self-only)", ok)

    def test_cross_sensitivity_for_default_schedule(self):
        cfg = make_config("lite", "sea", channels=(8, 8, 8, 16), coarse_channels=8,
                          fine_channels=8, fusion_channels=8)
        model = MatchModel(cfg, seed=3)
        rng = np.random.default_rng(4)
        a = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        b = rng.uniform(size=(1, 1, 64, 64))
        b2 = b.copy()
        b2[0, 0, 13, 29] += 0.3
        with T.no_grad():
            p = model.encoder.encode_pair(a, Tensor(b))
            p2 = model.encoder.encode_pair(a, Tensor(b2))
        diff = S.stream_a_change(p, p2)
        assert report("10 cross sensitivity (interleaving)", diff > 0,
                      f"F4 max diff {diff:.1e} > 0")
