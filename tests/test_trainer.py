"""Trainer: losses, Adam, short training loops, reproducibility."""

import tracemalloc

import numpy as np
import pytest

from matchformer import matcher as M
from matchformer import tensor as T
from matchformer import trainer
from matchformer.data import make_pair, gt_coarse_labels
from matchformer.model import MatchModel
from matchformer.tensor import Tensor
from matchformer.trainer import (AdamState, EmptyAssignmentError, TrainConfig,
                                 TrainingDivergedError, adam_step, coarse_loss,
                                 config_from_dict, fine_loss, holdout_precision,
                                 train_toy)

TINY = dict(channels=(8, 8, 8, 16), coarse_channels=8, fine_channels=8,
            fusion_channels=8)


def tiny_config(**kw):
    return TrainConfig(steps=kw.pop("steps", 3), seed=kw.pop("seed", 0),
                       **{**TINY, **kw})


def one_hot_maps(n):
    """A [1, n, 1, n] coarse map whose n descriptor rows are the unit vectors."""
    return Tensor(np.eye(n).reshape(1, n, 1, n))


def streamed_coarse_loss(coarse_a, coarse_b, labels, tau):
    """``coarse_loss`` on the coarse pass of two maps, as a training step runs it."""
    return coarse_loss(M.coarse_pass(coarse_a, coarse_b, tau), labels)


def dense_coarse_loss(coarse_a, coarse_b, labels, tau):
    """The coarse loss through the dense chain: coarse_scores -> dual_softmax
    -> take_pairs -> P floored at 1e-12 -> mean negative log."""
    labeled = np.flatnonzero(labels >= 0)
    probs = M.dual_softmax(M.coarse_scores(coarse_a, coarse_b, tau))
    picked = T.take_pairs(probs, labeled, labels[labeled])
    return T.mul(T.reduce_mean(T.log(T.maximum_scalar(picked, 1e-12))), -1.0)


def two_block_case(seed):
    """Random maps with 17 x 16 = 272 A cells (two row blocks of S) and 63 B
    cells, every third row unlabelled, rows 1 and 2 labelled with the same
    column, and row 4 labelled with its lowest-scoring column, whose P is
    below the 1e-12 floor at tau = 0.1."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(1, 8, 17, 16)), rng.normal(size=(1, 8, 9, 7))
    labels = rng.integers(0, 63, size=272)
    labels[::3] = -1
    labels[2] = labels[1]
    labels[4] = M.coarse_scores(Tensor(a), Tensor(b), 0.1).data[4].argmin()
    return a, b, labels, 0.1


class TestCoarseLoss:
    def test_perfect_probabilities_give_zero(self):
        # S = 1000 on the diagonal and 0 elsewhere: P = 1 at every label
        labels = np.arange(4)
        loss = streamed_coarse_loss(one_hot_maps(4), one_hot_maps(4), labels, 1e-3)
        assert float(loss.data) == 0.0

    def test_e_inverse_gives_one(self):
        # 2 x 2 S = s I: log P_ii = 2s - 2 log(e^s + 1) = -1 at e^-s = e^0.5 - 1
        tau = -1.0 / np.log(np.expm1(0.5))
        labels = np.arange(2)
        loss = float(streamed_coarse_loss(one_hot_maps(2), one_hot_maps(2), labels, tau).data)
        assert abs(loss - 1.0) < 1e-12

    def test_unlabeled_cells_ignored(self):
        # A's row 1 is -e0: P = 1 at (0, 0) and 1/2 at (1, 1)
        ca = Tensor(np.array([[1.0, -1.0], [0.0, 0.0]]).reshape(1, 2, 1, 2))
        cb = one_hot_maps(2)
        assert float(streamed_coarse_loss(ca, cb, np.array([0, -1]), 1e-3).data) == 0.0
        assert float(streamed_coarse_loss(ca, cb, np.array([0, 1]), 1e-3).data) > 0.3

    def test_empty_assignment_raises(self):
        with pytest.raises(EmptyAssignmentError):
            streamed_coarse_loss(one_hot_maps(2), one_hot_maps(2), np.array([-1, -1]), 0.1)

    def test_floor_prevents_infinite_loss(self):
        # log P = -2000 at both off-diagonal labels: each adds -log(1e-12)
        # and no gradient
        ca, cb = (Tensor(m.data, requires_grad=True) for m in (one_hot_maps(2),) * 2)
        loss_t = streamed_coarse_loss(ca, cb, np.array([1, 0]), 1e-3)
        loss = float(loss_t.data)
        assert np.isfinite(loss) and loss <= -np.log(1e-12) + 1e-9
        T.backward(loss_t)
        assert not ca.grad.any() and not cb.grad.any()

    def test_gradient_through_dual_softmax(self):
        rng = np.random.default_rng(0)
        labels = np.array([1, 0, 2, -1])
        cb = Tensor(rng.normal(size=(1, 5, 1, 3)))

        def fn(ca):
            return streamed_coarse_loss(ca, cb, labels, 0.5)

        rep = T.fd_check(fn, Tensor(rng.normal(size=(1, 5, 2, 2))), tol=1e-3)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", range(3))
    def test_loss_and_gradients_equal_the_dense_chain(self, seed):
        a, b, labels, tau = two_block_case(seed)
        got = []
        for loss_fn in (streamed_coarse_loss, dense_coarse_loss):
            ca, cb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
            loss = loss_fn(ca, cb, labels, tau)
            T.backward(loss)
            got.append((float(loss.data), ca.grad, cb.grad))
        (loss, ga, gb), (ref, ref_ga, ref_gb) = got
        assert abs(loss - ref) <= 1e-12 * ref
        for g, ref_g in ((ga, ref_ga), (gb, ref_gb)):
            assert np.abs(g - ref_g).max() <= 1e-10 * np.abs(ref_g).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_case_holds_clamped_and_live_labels(self, seed):
        a, b, labels, tau = two_block_case(seed)
        p = M.dual_softmax(M.coarse_scores(Tensor(a), Tensor(b), tau)).data
        labeled = np.flatnonzero(labels >= 0)
        p_lab = p[labeled, labels[labeled]]
        assert p[4, labels[4]] < 1e-12 and (p_lab > 1e-12).sum() > 100

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_fd_check_on_two_row_blocks(self, side):
        a, b, labels, tau = two_block_case(1)

        def fn(x):
            ca, cb = (x, Tensor(b)) if side == "a" else (Tensor(a), x)
            return streamed_coarse_loss(ca, cb, labels, tau)

        rep = T.fd_check(fn, Tensor(a if side == "a" else b), max_coords=40, tol=1e-4)
        assert rep.passed, rep.max_rel_err

    def test_train_toy_never_runs_the_dense_chain(self, monkeypatch):
        for name in ("coarse_scores", "dual_softmax", "select_coarse"):
            monkeypatch.setattr(M, name, lambda *a, _n=name, **kw: pytest.fail(f"{_n} ran"))
        result = train_toy(tiny_config(steps=3))
        assert len(result.metrics) == 3

    def test_peak_memory_below_one_dense_score_matrix(self):
        # toy widths at 256 x 256: 64 x 64 = 4096 coarse cells per image, so
        # one dense 4096 x 4096 float64 array is 134 MB
        cfg = TrainConfig(image_size=(256, 256))
        side = 256 // cfg.model_config().coarse_stride
        rng = np.random.default_rng(0)
        shape = (1, cfg.coarse_channels, side, side)
        ca, cb = (Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(2))
        labels = rng.integers(-1, side * side, size=side * side)
        assert side * side == 4096
        tracemalloc.start()
        try:
            T.backward(streamed_coarse_loss(ca, cb, labels, cfg.tau))
            M.stream_select_coarse(ca, cb, cfg.tau, cfg.theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ca.grad.any() and cb.grad.any()
        assert peak < 4096 * 4096 * 8, peak


class TestFineLoss:
    def test_perfect_offsets_give_zero(self):
        off = Tensor(np.array([[0.5, -0.25], [1.0, 2.0]]))
        assert float(fine_loss(off, off.data.copy()).data) == 0.0

    def test_unit_x_error_gives_one(self):
        pred = Tensor(np.array([[1.0, 0.0], [2.0, 3.0]]))
        gt = pred.data - np.array([1.0, 0.0])
        assert abs(float(fine_loss(pred, gt).data) - 1.0) < 1e-12

    def test_gradient_reaches_fine_maps(self):
        rng = np.random.default_rng(1)
        fine_a = Tensor(rng.normal(size=(4, 8, 8)), requires_grad=True)
        fine_b = Tensor(rng.normal(size=(4, 8, 8)), requires_grad=True)
        centers = np.array([[3, 3], [4, 4]])
        offs = M.fine_offsets(fine_a, fine_b, centers, centers, radius=2, tau=0.05)
        T.backward(fine_loss(offs, np.array([[0.5, 0.5], [-0.5, 0.0]])))
        assert fine_a.grad is not None and np.abs(fine_a.grad).sum() > 0
        assert fine_b.grad is not None and np.abs(fine_b.grad).sum() > 0


ADAM = {k: getattr(TrainConfig(), k) for k in ("beta1", "beta2", "eps")}


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = AdamState.for_params([p])
        before = p.data.copy()
        adam_step(state, lr=0.1, **ADAM)
        assert np.array_equal(p.data, before)

    def test_first_step_moves_by_lr(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamState.for_params([p])
        p.grad[...] = 1.0
        adam_step(state, lr=0.1, **ADAM)
        assert abs(p.data[0] + 0.1) < 1e-8  # bias-corrected ratio is 1

    def test_minimizes_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.for_params([p])
        for _ in range(500):
            p.grad[...] = 2.0 * p.data
            adam_step(state, lr=0.05, **ADAM)
        assert abs(p.data[0]) < 1e-3


class ListAdamState:
    """Adam as it was before the arena: one pair of moment arrays per
    parameter, and gradients left to the leaves."""

    def __init__(self, params):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    @classmethod
    def for_params(cls, params):
        return cls(params)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def list_adam_step(state, lr, beta1, beta2, eps):
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for p, m, v in zip(state.params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def flat_params(result):
    return np.concatenate([p.data.reshape(-1) for p in result.model.parameters()])


class TestAdamArena:
    @pytest.mark.parametrize("warmup", [0.3, 0.0])  # 0.0: the fine loss runs too
    def test_training_equals_per_parameter_adam(self, monkeypatch, warmup):
        cfg = tiny_config(steps=5, fine_warmup_precision=warmup)
        arena = train_toy(cfg)
        monkeypatch.setattr(trainer, "AdamState", ListAdamState)
        monkeypatch.setattr(trainer, "adam_step", list_adam_step)
        reference = train_toy(cfg)
        assert arena.metrics == reference.metrics
        assert arena.holdout_precision == reference.holdout_precision
        assert flat_params(arena).tobytes() == flat_params(reference).tobytes()

    def test_training_keeps_every_array_in_the_arena(self, monkeypatch):
        states = []
        real = trainer.adam_step

        def checked(state, *args):
            # backward has just run: its gradients landed in the arena
            assert state.grad.any()
            states.append(state)
            real(state, *args)
        monkeypatch.setattr(trainer, "adam_step", checked)
        result = train_toy(tiny_config(steps=2))
        assert len(states) == 2 and states[0] is states[1]
        state = states[0]
        params = result.model.parameters()
        assert state.data.size == sum(p.data.size for p in params)
        for p in params:
            assert np.shares_memory(p.data, state.data)
            assert np.shares_memory(p.grad, state.grad)

    def test_for_params_starts_every_gradient_at_zero(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.full(2, 5.0)
        state = AdamState.for_params([p])
        assert np.shares_memory(p.grad, state.grad) and not state.grad.any()

    def test_leaf_used_twice_sums_in_place(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        state = AdamState.for_params([p])
        view = p.grad
        x, y = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        T.backward(T.add(T.reduce_sum(T.mul(p, Tensor(x))),
                         T.reduce_sum(T.mul(p, Tensor(y)))))
        assert p.grad is view and np.shares_memory(view, state.grad)
        assert np.array_equal(p.grad, x + y)

    def test_update_spans_several_blocks(self):
        # parameters straddle block bounds; each element moves as in the
        # per-parameter reference
        rng = np.random.default_rng(4)
        sizes = [trainer._ADAM_BLOCK - 3, 7, 2 * trainer._ADAM_BLOCK + 1]
        params = [Tensor(rng.normal(size=n), requires_grad=True) for n in sizes]
        twins = [Tensor(p.data.copy(), requires_grad=True) for p in params]
        state, ref = AdamState.for_params(params), ListAdamState(twins)
        for _ in range(3):
            for p, q in zip(params, twins):
                q.grad = rng.normal(size=p.data.shape)
                p.grad[...] = q.grad
            adam_step(state, lr=0.01, **ADAM)
            list_adam_step(ref, lr=0.01, **ADAM)
        for p, q in zip(params, twins):
            assert p.data.tobytes() == q.data.tobytes()


class TestTrainToy:
    def test_zero_steps_returns_initialization(self, tmp_path):
        cfg = tiny_config(steps=0)
        result = train_toy(cfg, checkpoint_path=tmp_path / "ckpt.txt")
        fresh = MatchModel(cfg.model_config(), seed=cfg.seed)
        for (_, a), (_, b) in zip(result.model.named_parameters(),
                                  fresh.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_bit_reproducible(self):
        runs = []
        for _ in range(2):
            result = train_toy(tiny_config(steps=3))
            runs.append(np.concatenate([p.data.reshape(-1)
                                        for p in result.model.parameters()]))
        assert np.array_equal(runs[0], runs[1])

    def test_every_parameter_gets_gradient_within_ten_steps(self):
        # both loss terms active: the fine head only feeds the fine loss
        cfg = tiny_config(steps=0)
        model = MatchModel(cfg.model_config(), seed=0)
        params = dict(model.named_parameters())
        touched = {name: False for name in params}
        state = AdamState.for_params(params.values())
        centers = np.array([[3, 3], [4, 4]])
        for step in range(10):
            sample = make_pair(1_000_003 * cfg.seed + step, 64, 64)
            labels = gt_coarse_labels(sample.h_mat, (64, 64), model.cfg.coarse_stride)
            ca, fa, cb, fb = model.forward_pair(Tensor(sample.image_a[None, None]),
                                                Tensor(sample.image_b[None, None]))
            offs = M.fine_offsets(fa, fb, centers, centers, radius=2, tau=0.05)
            loss = T.add(streamed_coarse_loss(ca, cb, labels, 0.1),
                         T.mul(fine_loss(offs, np.zeros((2, 2))), 0.25))
            T.backward(loss)
            for name, p in params.items():
                if np.abs(p.grad).max() > 0:
                    touched[name] = True
            state.zero_grad()
        dead = [n for n, ok in touched.items() if not ok]
        assert dead == [], f"dead parameters: {dead[:6]}"

    def test_metrics_log_format(self, tmp_path):
        path = tmp_path / "metrics.csv"
        train_toy(tiny_config(steps=2), log_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss_coarse,loss_fine,precision"
        assert len(lines) == 3

    def test_loss_finite_every_step(self):
        result = train_toy(tiny_config(steps=5))
        assert all(np.isfinite(row[1]) for row in result.metrics)

    def test_holdout_precision_in_unit_interval(self):
        result = train_toy(tiny_config(steps=2))
        assert 0.0 <= result.holdout_precision <= 1.0

    @pytest.mark.parametrize("error, corrupt", [
        (TrainingDivergedError, lambda loss: T.mul(loss, np.nan)),
        (T.NumericalError, lambda loss: T.log(T.mul(loss, -1.0))),
    ])
    def test_step_that_raises_leaves_an_empty_tape(self, monkeypatch, error, corrupt):
        # the step's forward graph is abandoned; its nodes must not stay on
        # the global tape holding their activations
        if error is TrainingDivergedError:  # a NaN the op checks let through
            monkeypatch.setattr(T, "_UNCHECKED_OPS", T._OPS)
        real = trainer.coarse_loss
        monkeypatch.setattr(trainer, "coarse_loss",
                            lambda *args: corrupt(real(*args)))
        T.active_tape().clear()
        with pytest.raises(error):
            train_toy(tiny_config(steps=1))
        assert len(T.active_tape()) == 0


def dense_holdout_precision(model, cfg):
    """Holdout precision through the dense chain (coarse_scores ->
    dual_softmax -> select_coarse), as holdout_precision computed it before
    it took match_pair's streamed selection."""
    scores = []
    for k in range(trainer.HOLDOUT_PAIRS):
        sample = trainer._sample_pair(cfg, trainer.HOLDOUT_SEED_OFFSET + k)
        labels = gt_coarse_labels(sample.h_mat, cfg.image_size, model.cfg.coarse_stride)
        with T.no_grad():
            ca, _, cb, _ = model.forward_pair(Tensor(sample.image_a[None, None]),
                                              Tensor(sample.image_b[None, None]))
            probs = M.dual_softmax(M.coarse_scores(ca, cb, tau=cfg.tau))
        pairs = M.select_coarse(probs, cfg.theta).pairs
        scores.append(trainer._step_precision(pairs, labels, ca.shape[2:]))
    return float(np.mean(scores))


class TestHoldoutPrecision:
    @pytest.mark.parametrize("theta", [0.2, 0.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_streamed_selection_equals_dense_chain(self, seed, theta):
        # untrained toy models: low-contrast probabilities, where a rounding
        # difference between the two selectors would show first
        cfg = TrainConfig(steps=0, seed=seed, theta=theta)
        model = MatchModel(cfg.model_config(), seed=seed)
        assert holdout_precision(model, cfg) == dense_holdout_precision(model, cfg)

    def test_runs_the_streamed_selection_on_every_holdout_pair(self, monkeypatch):
        calls = []
        real = M.stream_select_coarse

        def spy(ca, cb, **kw):
            calls.append(kw)
            return real(ca, cb, **kw)
        monkeypatch.setattr(M, "stream_select_coarse", spy)
        monkeypatch.setattr(M, "dual_softmax", lambda s: pytest.fail("dense chain ran"))
        cfg = tiny_config(steps=0, tau=0.2, theta=0.1)
        holdout_precision(MatchModel(cfg.model_config(), seed=0), cfg)
        assert calls == [dict(tau=0.2, theta=0.1)] * trainer.HOLDOUT_PAIRS


class TestTrainConfig:
    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    def test_both_weights_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda_coarse=0.0, lambda_fine=0.0)

    def test_config_from_dict_roundtrip(self):
        cfg = config_from_dict({"steps": "7", "lr": "0.001", "attention": "sea",
                                "channels": "8 8 8 16", "schedule": "sequential"})
        assert cfg.steps == 7 and cfg.lr == 0.001 and cfg.attention == "sea"
        assert cfg.model_config().stages[0].cross_flags == (False, False, False)

    def test_config_file_aliases_win_over_field_names(self):
        cfg = config_from_dict({"pe": "std", "patch_embed": "pos",
                                "cross_flags": "self_only", "schedule": "sequential"})
        assert cfg.patch_embed == "std" and cfg.schedule == "self_only"

    def test_unknown_key_rejected(self):
        # so is a value outside its key's domain: an even or non-positive fine
        # window, an image_size that is not two positive multiples of 32, a
        # negative count, a non-finite or out-of-range rate, weight, moment or
        # warp bound, and a model width below its minimum
        for key, value in (("leerning_rate", "1"), ("batch_size", "1"),
                           ("window", "4"), ("window", "0"), ("image_size", "48 64"),
                           ("image_size", "0 64"), ("image_size", "64 64 64"),
                           ("seed", "-1"), ("steps", "-1"), ("max_rot", "nan"),
                           ("max_rot", "1e308"), ("max_trans", "1e308"),
                           ("max_scale", "1e308"), ("max_persp", "1e308"),
                           ("lr", "inf"), ("beta1", "1.0"), ("lambda_fine", "nan"),
                           ("fine_warmup_precision", "nan"), ("eps", "-1"),
                           ("max_fine_matches", "-1"), ("coarse_channels", "0"),
                           ("fusion_channels", "0"), ("channels", "0 0 0 0"),
                           ("fine_channels", "-1")):
            with pytest.raises(ValueError, match=key):
                config_from_dict({key: value})
        with pytest.raises(ValueError, match="channels"):
            config_from_dict({"pe": "std", "channels": "6 6 6 6"})

    def test_config_fuzz(self):
        # every key gets each hostile value alone, then seeded random sets of
        # the values accepted alone: each config is either rejected with
        # ValueError or builds its model and draws its first training and
        # holdout pairs
        values = ("nan", "inf", "-inf", "-1", "0", "1e308", "x", "")
        singles = [(key, value) for key, kind in TrainConfig.__annotations__.items()
                   for value in values + (("0 0 0 0",) if kind == "tuple" else ())]

        def accepts(raw):
            try:
                cfg = config_from_dict(raw)
            except ValueError:
                return False
            MatchModel(cfg.model_config())
            trainer._sample_pair(cfg, 0)
            trainer._sample_pair(cfg, trainer.HOLDOUT_SEED_OFFSET)
            return True

        accepted = [kv for kv in singles if accepts(dict([kv]))]
        assert accepted
        rng = np.random.default_rng(0)
        for _ in range(100):
            picked = rng.choice(len(accepted), size=4, replace=False)
            accepts(dict(accepted[i] for i in picked))

    @pytest.mark.parametrize("name", ["self_only", "cross_only", "sequential",
                                      "interleaving"])
    def test_named_schedules_run_end_to_end(self, name):
        result = train_toy(tiny_config(steps=1, schedule=name))
        assert len(result.metrics) == 1

    def test_std_pe_ablation_runs_end_to_end(self):
        result = train_toy(tiny_config(steps=1, patch_embed="std"))
        assert len(result.metrics) == 1
