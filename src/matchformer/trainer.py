"""Toy-scale supervised training on synthetic homography pairs.

One optimizer step per synthetic pair: the coarse head is trained with a
negative-log-likelihood over the dual-softmax probabilities at ground-truth
cell assignments, the fine head with a squared-distance regression on the
window-expectation offsets.  The coarse loss and the step's precision run
on one streamed log-sum-exp pass (``matcher.coarse_pass``), shared by the
loss (``matcher.dual_softmax_nll``) and by the selection and mutual-best
rule that ``match_pair`` uses (``matcher.stream_select``), so no step holds
an N1 x N2 array.  Fine supervision switches on only after the coarse
precision clears a warm-up bar, so the windows being supervised are not
garbage.  Everything is bit-reproducible from (seed, config).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from . import matcher as M
from . import tensor as T
from .encoder import check_input_extents, make_config
from .model import MatchModel
from .tensor import Tensor


class EmptyAssignmentError(ValueError):
    """No labeled cells; the caller should skip this sample."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the offending step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def coarse_loss(coarse: M.CoarsePass, labels: np.ndarray) -> Tensor:
    """Mean negative log dual-softmax probability at the labeled (i, j)
    cells, ``labels[i] = j`` (``-1`` for none), of the scores of a
    ``matcher.coarse_pass``.  log P is floored at log(1e-12); the streamed op
    ``matcher.dual_softmax_nll`` holds no N1 x N2 array.
    """
    labeled = np.flatnonzero(labels >= 0)
    if len(labeled) == 0:
        raise EmptyAssignmentError("no labeled cells; skip this sample")
    return M.dual_softmax_nll(coarse, labeled, labels[labeled])


def fine_loss(pred_offsets: Tensor, gt_offsets: np.ndarray) -> Tensor:
    """Mean squared Euclidean distance, in fine-grid units."""
    diff = T.sub(pred_offsets, Tensor(np.asarray(gt_offsets, dtype=np.float64)))
    return T.reduce_mean(T.reduce_sum(T.mul(diff, diff), axis=1))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Elements per pass of ``adam_step``: 128 KB of each buffer, so the six
# blocks one pass touches (768 KB) stay in L2.
_ADAM_BLOCK = 1 << 14


@dataclass(eq=False)
class AdamState:
    """Adam over one flat arena, the only owner of the training storage: the
    parameters, their gradients and both moments are four float64 buffers of
    one length, and every ``p.data`` and ``p.grad`` is a view of its
    parameter's span (the layout ZeRO keeps, arXiv 1910.02054).  Backward adds
    into each ``p.grad`` in place; rebinding ``p.data`` or ``p.grad`` detaches
    the parameter, which Adam then neither reads nor moves.  Adam is
    elementwise, so a step runs over the whole buffers and allocates nothing."""

    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple = field(default_factory=lambda: (np.empty(_ADAM_BLOCK),
                                                    np.empty(_ADAM_BLOCK)))

    @classmethod
    def for_params(cls, params) -> "AdamState":
        """Copy each parameter into its span and bind ``p.data`` and
        ``p.grad`` to the span's views; every gradient starts at zero."""
        params = tuple(params)
        total = sum(p.data.size for p in params)
        data, grad, m, v = (np.zeros(total) for _ in range(4))
        start = 0
        for p in params:
            end = start + p.data.size
            dview = data[start:end].reshape(p.data.shape)
            dview[...] = p.data
            p.data, p.grad = dview, grad[start:end].reshape(dview.shape)
            start = end
        return cls(data, grad, m, v)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def adam_step(state: AdamState, lr: float, beta1: float, beta2: float,
              eps: float) -> None:
    """Standard bias-corrected Adam update, in place on the arena.

    The update runs in blocks of ``_ADAM_BLOCK`` elements, one ufunc pass per
    operation of ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``, evaluated in that order.
    """
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    k1, k2 = 1.0 - beta1, 1.0 - beta2
    buf_a, buf_b = state.scratch
    for start in range(0, state.data.size, _ADAM_BLOCK):
        end = min(start + _ADAM_BLOCK, state.data.size)
        p, g = state.data[start:end], state.grad[start:end]
        m, v = state.m[start:end], state.v[start:end]
        a, b = buf_a[:end - start], buf_b[:end - start]
        np.multiply(m, beta1, out=m)
        np.multiply(g, k1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(g, k2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.divide(m, c1, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(p, b, out=p)


# ---------------------------------------------------------------------------
# Training configuration and loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    steps: int = 2000
    lr: float = 3e-4
    lambda_coarse: float = 1.0
    lambda_fine: float = 0.25
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    variant: str = "lite"
    attention: str = "la"
    patch_embed: str = "pos"
    schedule: str = "interleaving"
    channels: tuple = (32, 48, 64, 128)
    coarse_channels: int = 64
    fine_channels: int = 64
    fusion_channels: int = 64
    image_size: tuple = (64, 64)
    tau: float = M.DEFAULT_TAU
    fine_tau: float = M.DEFAULT_FINE_TAU
    theta: float = M.DEFAULT_THETA
    window: int = M.DEFAULT_WINDOW
    max_rot: float = 0.12
    max_persp: float = 3e-4
    max_trans: float = 3.0
    max_scale: float = 0.06
    fine_warmup_precision: float = 0.3
    max_fine_matches: int = 48

    def __post_init__(self):
        """Every value gets its domain here, before any model is built.  The
        matcher owns the matching values and the encoder the model keys and
        input extents; this table holds the rest."""
        if len(self.image_size) != 2:
            raise ValueError(f"image_size must be two values, got {self.image_size}")
        check_input_extents(*self.image_size, what="image_size")
        h, w = self.image_size
        for names, valid, what in (
            (("seed", "steps", "max_fine_matches"), lambda v: v >= 0, ">= 0"),
            (("lr", "eps"), lambda v: 0 < v < np.inf, "finite and > 0"),
            (("lambda_coarse", "lambda_fine"), lambda v: 0 <= v < np.inf,
             "finite and >= 0"),
            (("beta1", "beta2", "fine_warmup_precision"), lambda v: 0 <= v < 1,
             "in [0, 1)"),
            (("max_rot",), lambda v: 0 <= v <= np.pi, "in [0, pi]"),
            (("max_scale",), lambda v: 0 <= v < 1, "in [0, 1)"),
            # a larger shift leaves the pair no overlap to supervise
            (("max_trans",), lambda v: 0 <= v <= min(h, w),
             f"in [0, {min(h, w)}] px, the smaller image extent"),
            # below this bound no pixel of the image maps through the horizon
            (("max_persp",), lambda v: 0 <= v < 2 / (h + w - 2),
             f"in [0, 2 / (h + w - 2)) = [0, {2 / (h + w - 2):.4g})"),
        ):
            for name in names:
                value = getattr(self, name)
                if not valid(value):
                    raise ValueError(f"{name} must be {what}, got {value}")
        if self.lambda_coarse == 0 and self.lambda_fine == 0:
            raise ValueError("lambda_coarse and lambda_fine must not both be 0")
        M.check_temperature("tau", self.tau)
        M.check_temperature("fine_tau", self.fine_tau)
        M.check_theta(self.theta)
        M.check_window(self.window)
        self.model_config()  # bad model keys fail here, before any model is built

    def model_config(self):
        return make_config(self.variant, self.attention, self.patch_embed,
                           channels=self.channels, schedule=self.schedule,
                           coarse_channels=self.coarse_channels,
                           fine_channels=self.fine_channels,
                           fusion_channels=self.fusion_channels)


@dataclass
class TrainResult:
    model: MatchModel
    metrics: list            # (step, loss_coarse, loss_fine, precision) rows
    holdout_precision: float


def _sample_pair(cfg: TrainConfig, index: int) -> D.PairSample:
    h, w = cfg.image_size
    return D.make_pair(cfg.seed * 1_000_003 + index, h, w,
                       max_rot=cfg.max_rot, max_persp=cfg.max_persp,
                       max_trans=cfg.max_trans, max_scale=cfg.max_scale)


def _step_precision(pairs: np.ndarray, labels: np.ndarray, grid: tuple) -> float:
    """Fraction of selected coarse matches within one cell of ground truth."""
    if len(pairs) == 0:
        return 0.0
    lab = labels[pairs[:, 0]]
    valid = lab >= 0
    if not valid.any():
        return 0.0
    wc = grid[1]
    pr, pc = np.divmod(pairs[valid, 1], wc)
    gr, gc = np.divmod(lab[valid], wc)
    hit = np.maximum(np.abs(pr - gr), np.abs(pc - gc)) <= 1
    return float(hit.mean())


def _fine_supervision(cfg: TrainConfig, model, pairs: np.ndarray,
                      h_mat: np.ndarray, grids, fine_shape, rng):
    """Window centers and ground-truth offsets for the usable labeled pairs."""
    grid_a, grid_b = grids
    r_c, r_f = model.cfg.coarse_stride, model.cfg.fine_stride
    radius = cfg.window // 2
    ka = M.fine_cells(pairs[:, 0], grid_a, r_c, r_f, fine_shape)
    kb = M.fine_cells(pairs[:, 1], grid_b, r_c, r_f, fine_shape)
    # Target: where the A fine-cell CENTER lands in B fine coordinates.  The
    # center vector cannot see the query's sub-cell position, so supervising
    # the cell center keeps the target a function of the available input;
    # fine_refine adds the query's offset from that center back in pixels.
    mapped = D.hom_apply(h_mat, M.cell_center_px(ka, r_f)[:, ::-1])
    gt_rc = (mapped[:, ::-1] + 0.5) / r_f - 0.5
    gt_off = gt_rc - kb
    # windows may be clamped at the map border (window_dot floors the slots
    # outside it); only require the target itself to fall inside the window
    usable = (np.abs(gt_off) <= radius).all(axis=1)
    idx = np.flatnonzero(usable)
    if len(idx) > cfg.max_fine_matches:
        idx = rng.choice(idx, size=cfg.max_fine_matches, replace=False)
    return ka[idx], kb[idx], gt_off[idx]


def train_toy(cfg: TrainConfig, log_path=None, checkpoint_path=None,
              progress=None) -> TrainResult:
    """Run the reference toy training loop; see module docstring."""
    model = MatchModel(cfg.model_config(), seed=cfg.seed)
    state = AdamState.for_params(model.parameters())
    rng = np.random.default_rng(cfg.seed + 17)
    r_c = model.cfg.coarse_stride
    metrics = []
    running_precision = 0.0
    fine_active = False

    with T.tape_scope():  # a step that raises leaves no nodes behind
        for step in range(cfg.steps):
            sample = _sample_pair(cfg, step)
            labels = D.gt_coarse_labels(sample.h_mat, cfg.image_size, r_c)
            if (labels >= 0).sum() == 0:
                continue
            img_a = Tensor(sample.image_a[None, None])
            img_b = Tensor(sample.image_b[None, None])
            coarse_a, fine_a, coarse_b, fine_b = model.forward_pair(img_a, img_b)
            coarse = M.coarse_pass(coarse_a, coarse_b, cfg.tau)
            loss_c = coarse_loss(coarse, labels)
            selected = M.stream_select(coarse, cfg.theta)
            grids = (coarse.grid_a, coarse.grid_b)
            precision = _step_precision(selected.pairs, labels, grids[0])
            running_precision = 0.9 * running_precision + 0.1 * precision
            if running_precision > cfg.fine_warmup_precision:
                fine_active = True

            loss_f_val = 0.0
            loss = T.mul(loss_c, cfg.lambda_coarse)
            if fine_active and cfg.lambda_fine > 0:
                labeled = np.flatnonzero(labels >= 0)
                gt_pairs = np.stack([labeled, labels[labeled]], axis=1)
                ka, kb, gt_off = _fine_supervision(cfg, model, gt_pairs, sample.h_mat,
                                                   grids, fine_a.shape[2:], rng)
                if len(ka):
                    offsets = M.fine_offsets(fine_a, fine_b, ka, kb,
                                             radius=cfg.window // 2, tau=cfg.fine_tau)
                    loss_f = fine_loss(offsets, gt_off)
                    loss_f_val = float(loss_f.data)
                    loss = T.add(loss, T.mul(loss_f, cfg.lambda_fine))

            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise TrainingDivergedError(step, f"non-finite loss {loss_val}")
            T.backward(loss)
            adam_step(state, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
            state.zero_grad()
            metrics.append((step, float(loss_c.data), loss_f_val, precision))
            if progress and step % progress == 0:
                print(f"step {step:5d}  loss_c {float(loss_c.data):.4f}  "
                      f"loss_f {loss_f_val:.4f}  precision {precision:.3f}")

    holdout = holdout_precision(model, cfg)
    if log_path is not None:
        write_metrics_csv(log_path, metrics)
    if checkpoint_path is not None:
        model.save(checkpoint_path)
    return TrainResult(model=model, metrics=metrics, holdout_precision=holdout)


# Held-out pairs: sample indices HOLDOUT_SEED_OFFSET + k for k < HOLDOUT_PAIRS.
HOLDOUT_PAIRS = 16
HOLDOUT_SEED_OFFSET = 900_000_000


def holdout_precision(model: MatchModel, cfg: TrainConfig) -> float:
    """Coarse precision@1cell over unseen pairs, selected as ``match_pair`` does."""
    scores = []
    r_c = model.cfg.coarse_stride
    for k in range(HOLDOUT_PAIRS):
        sample = _sample_pair(cfg, HOLDOUT_SEED_OFFSET + k)
        labels = D.gt_coarse_labels(sample.h_mat, cfg.image_size, r_c)
        with T.no_grad():
            ca, _, cb, _ = model.forward_pair(Tensor(sample.image_a[None, None]),
                                              Tensor(sample.image_b[None, None]))
        coarse = M.stream_select_coarse(ca, cb, tau=cfg.tau, theta=cfg.theta)
        scores.append(_step_precision(coarse.pairs, labels, coarse.grid_a))
    return float(np.mean(scores))


def write_metrics_csv(path, metrics) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss_coarse", "loss_fine", "precision"])
        writer.writerows(metrics)


# Config-file spellings of two TrainConfig fields; when a file gives both
# spellings, the alias wins.
CONFIG_ALIASES = {"pe": "patch_embed", "cross_flags": "schedule"}


def config_from_dict(raw: dict) -> TrainConfig:
    """Build a TrainConfig from parsed `key: value` config text."""
    raw = dict(raw)
    for alias, key in CONFIG_ALIASES.items():
        if alias in raw:
            raw[key] = raw.pop(alias)
    kwargs = {}
    annotations = TrainConfig.__annotations__  # strings under PEP 563
    for key, value in raw.items():
        if key not in annotations:
            raise ValueError(f"unknown trainer config key {key!r}")
        kind = annotations[key]
        if kind == "int":
            kwargs[key] = int(value)
        elif kind == "float":
            kwargs[key] = float(value)
        elif kind == "tuple":
            kwargs[key] = tuple(int(v) for v in value.split())
        else:
            kwargs[key] = value
    return TrainConfig(**kwargs)
