"""Geometric evaluation and analytic FLOPs accounting.

Geometry: Hartley-normalized DLT, seeded RANSAC that solves all its trials as
one batch and refits by least squares, mean corner error, and the
per-threshold matching-accuracy curve.

FLOPs: closed-form multiply-add counts (1 MAC = 2 FLOPs) for every conv,
linear, and attention product in the model, grouped per stage and operation
kind.  Elementwise maps, normalizations, softmaxes, and interpolation are
excluded from the counts.

Reported headline convention: published efficiency figures for this family
of models come from module-hook profilers that see conv/linear layers but
not functional attention products (the published lite/large ratio for the
linear-attention variants, 97/389 = 0.249, matches module-only counting
exactly, and no uniform counting that includes the quadratic attention terms
can reproduce the published large-model totals).  The breakdown therefore
carries every component, and ``table_gflops`` (used for comparisons against
published numbers) is the conv+linear subtotal for a two-image pair.

Runtime: median wall time of the model's own ``blocks.Attention`` over a
sweep of token counts, and the fitted log-log scaling exponents.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .blocks import DEPTHWISE_K, FFN_RATIO, Attention
from .data import hom_apply
from .encoder import IN_CHANNELS, ModelConfig, stage_plan, output_plan
from .matcher import DEFAULT_WINDOW
from .tensor import Tensor

MMA_THRESHOLDS = tuple(range(1, 11))


class GeometryError(ValueError):
    """Degenerate point configuration (rank-deficient DLT system)."""


class RansacError(RuntimeError):
    """No hypothesis reached the required consensus."""


# ---------------------------------------------------------------------------
# Homography estimation
# ---------------------------------------------------------------------------


# RANSAC scores its trials this many at a time, which bounds the
# [block, n, 3] transfer-error temporaries.
_SCORE_BLOCK = 256


def _normalize_points(pts: np.ndarray):
    """Hartley normalization of [..., n, 2] points; returns them and [..., 3, 3] T."""
    centroid = pts.mean(axis=-2)
    dist = np.sqrt(((pts - centroid[..., None, :]) ** 2).sum(axis=-1)).mean(axis=-1)
    scale = np.sqrt(2.0) / np.maximum(dist, 1e-12)
    t = np.zeros(scale.shape + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = scale
    t[..., :2, 2] = -scale[..., None] * centroid
    t[..., 2, 2] = 1.0
    return hom_apply(t, pts), t


def _match_points(matches) -> np.ndarray:
    pts = matches.points if hasattr(matches, "points") else np.asarray(matches, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 4:
        raise ValueError("matches must be [N, >=4] with columns x1 y1 x2 y2")
    return pts[:, :4]


def _dlt(pts: np.ndarray):
    """Normalized DLT of every [n, 4] match set in ``pts[..., n, 4]``.

    Returns (H, ok).  H is [..., 3, 3] with H[2,2] = 1.  ok is False where the
    system's rank, read from the singular values of the SVD that solves it,
    is below 8, or where H[2,2] vanishes; H means nothing there.
    """
    src, t_src = _normalize_points(pts[..., 0:2])
    dst, t_dst = _normalize_points(pts[..., 2:4])
    x, y = src[..., 0], src[..., 1]
    u, v = dst[..., 0], dst[..., 1]
    one, zero = np.ones_like(x), np.zeros_like(x)
    a = np.zeros(x.shape[:-1] + (2 * x.shape[-1], 9))
    a[..., 0::2, :] = np.stack([x, y, one, zero, zero, zero, -u * x, -u * y, -u], axis=-1)
    a[..., 1::2, :] = np.stack([zero, zero, zero, x, y, one, -v * x, -v * y, -v], axis=-1)
    _, s, vt = np.linalg.svd(a)
    tol = 1e-8 * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    h = np.linalg.inv(t_dst) @ vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3)) @ t_src
    scale = h[..., 2:3, 2:3]
    ok = (s[..., 7] > tol) & (np.abs(scale[..., 0, 0]) >= 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        return h / scale, ok


def dlt_homography(matches) -> np.ndarray:
    """Hartley-normalized direct linear transform; returns H with H[2,2] = 1."""
    pts = _match_points(matches)
    if len(pts) < 4:
        raise ValueError("homography estimation needs at least 4 matches")
    h, ok = _dlt(pts)
    if not ok:
        raise GeometryError("degenerate configuration: DLT system is rank "
                            "deficient or its scale vanishes")
    return h


def _transfer_errors(h_mat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """[..., n] transfer errors of the matches under [..., 3, 3] homographies."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        proj = hom_apply(h_mat, pts[:, 0:2])
        err = np.sqrt(((proj - pts[:, 2:4]) ** 2).sum(axis=-1))
    # points sent to infinity (vanishing scale) count as unbounded error
    return np.where(np.isfinite(err), err, np.inf)


def ransac_homography(matches, inlier_thresh_px: float, iters: int, seed: int = 0):
    """Best-consensus 4-point DLT, refit on the consensus set.

    Deterministic per seed: trial t draws from generator seeded (seed, t), and
    the lowest trial index wins consensus ties.  All trials are solved as one
    batch, and degenerate ones are skipped.  Success needs a consensus of
    min(n, max(8, 4 + ceil(0.08 n))), which sits above the measured chance
    consensus of wild minimal hypotheses on uniform outliers, so pure-outlier
    input raises instead of returning a chance self-fit.
    """
    pts = _match_points(matches)
    n = len(pts)
    if n < 4:
        raise ValueError("RANSAC needs at least 4 matches")
    min_consensus = min(n, max(8, 4 - (-2 * n) // 25))
    best_count = -1
    if iters > 0:
        idx = np.array([np.random.default_rng([seed, trial]).choice(n, size=4, replace=False)
                        for trial in range(iters)])
        h_try, ok = _dlt(pts[idx])
        counts = np.concatenate([
            (_transfer_errors(h_try[lo:lo + _SCORE_BLOCK], pts) < inlier_thresh_px).sum(axis=-1)
            for lo in range(0, iters, _SCORE_BLOCK)])
        counts[~ok] = -1
        best = int(np.argmax(counts))
        best_count = int(counts[best])
    if best_count < min_consensus:
        raise RansacError(f"no hypothesis reached consensus {min_consensus} "
                          f"(best {max(best_count, 0)})")
    inliers = _transfer_errors(h_try[best], pts) < inlier_thresh_px
    h_fit = dlt_homography(pts[inliers])
    inliers = _transfer_errors(h_fit, pts) < inlier_thresh_px
    return h_fit, np.flatnonzero(inliers)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def corner_error(h_est: np.ndarray, h_gt: np.ndarray, width: int, height: int) -> float:
    """Mean distance between the four image corners under both transforms."""
    corners = np.array([[0, 0], [width - 1, 0], [width - 1, height - 1],
                        [0, height - 1]], dtype=np.float64)
    diff = hom_apply(h_est, corners) - hom_apply(h_gt, corners)
    return float(np.sqrt((diff ** 2).sum(axis=1)).mean())


def mma(matches, h_gt: np.ndarray):
    """Fraction of matches within t px of the ground-truth mapping, per t in
    ``MMA_THRESHOLDS``.

    Returns (curve, warned); an empty match set yields a zero curve with the
    warning flag set.
    """
    pts = _match_points(matches)
    thresholds = np.asarray(MMA_THRESHOLDS, dtype=np.float64)
    if len(pts) == 0:
        return np.zeros(len(thresholds)), True
    errs = _transfer_errors(h_gt, pts)
    return (errs[None, :] <= thresholds[:, None]).mean(axis=1), False


# ---------------------------------------------------------------------------
# FLOPs accounting
# ---------------------------------------------------------------------------


@dataclass
class FlopsEntry:
    stage: str
    kind: str      # conv | linear | attention | matcher
    name: str
    flops: float


@dataclass
class FlopsBreakdown:
    entries: list = field(default_factory=list)

    def add(self, stage: str, kind: str, name: str, flops: float) -> None:
        self.entries.append(FlopsEntry(stage, kind, name, float(flops)))

    @property
    def total(self) -> float:
        return sum(e.flops for e in self.entries)

    def by_kind(self) -> dict:
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.kind] = out.get(e.kind, 0.0) + e.flops
        return out

    def by_stage(self) -> dict:
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.stage] = out.get(e.stage, 0.0) + e.flops
        return out

    @property
    def module_flops(self) -> float:
        """conv + linear subtotal (what module-hook profilers count)."""
        kinds = self.by_kind()
        return kinds.get("conv", 0.0) + kinds.get("linear", 0.0)

    @property
    def table_gflops(self) -> float:
        """Headline figure comparable to published per-pair GFLOPs."""
        return self.module_flops / 1e9

    @property
    def total_gflops(self) -> float:
        return self.total / 1e9


def _mac2(*dims) -> float:
    out = 2.0
    for d in dims:
        out *= d
    return out


def flops_count(cfg: ModelConfig, height: int, width: int,
                include_matcher: bool = False) -> FlopsBreakdown:
    """Analytic FLOPs for one matched pair (both streams counted).

    conv: 2 k^2 C_in C_out H_out W_out (depthwise: 2 k^2 C H_out W_out);
    linear: 2 N C_in C_out, which for the standard patch embedding's PxP
    patches is C_in = P^2 C_prev (and that embedding has no gate);
    full/SEA attention: 2 N N' d per head for QK^T and again for PV, with N'
    reduced by R^2; LA: 2 N d^2 per head per factor.  The matcher adds the
    coarse score product and, as a documented upper-bound convention, one
    fine window correlation per A coarse cell.
    """
    bd = FlopsBreakdown()
    plan = stage_plan(cfg, height, width)
    pair = 2  # encoder/decoder run once per image
    c_in = IN_CHANNELS
    dw_taps = DEPTHWISE_K * DEPTHWISE_K
    for i, (st, (c, h, w)) in enumerate(zip(cfg.stages, plan)):
        stage = f"stage{i + 1}"
        n = h * w
        if cfg.patch_embed == "std":
            p = st.pe_stride
            bd.add(stage, "linear", "pe.proj", pair * _mac2(n, c_in * p * p, c))
        else:
            k = st.pe_kernel
            bd.add(stage, "conv", "pe.proj", pair * _mac2(k * k, c_in, c, n))
            bd.add(stage, "conv", "pe.gate", pair * _mac2(dw_taps, 1, c, n))
        a = st.heads
        d = c // a
        r = st.reduction
        n_kv = n // (r * r)
        for b in range(st.depth):
            blk = f"block{b}"
            bd.add(stage, "linear", f"{blk}.q", pair * _mac2(n, c, c))
            if r > 1:
                bd.add(stage, "conv", f"{blk}.sr", pair * _mac2(n_kv, r * r * c, c))
            bd.add(stage, "linear", f"{blk}.k", pair * _mac2(n_kv, c, c))
            bd.add(stage, "linear", f"{blk}.v", pair * _mac2(n_kv, c, c))
            bd.add(stage, "linear", f"{blk}.out", pair * _mac2(n, c, c))
            bd.add(stage, "attention", f"{blk}.kernel",
                   pair * attention_kernel_flops(st.attention, n, c, a, r))
            e = FFN_RATIO
            bd.add(stage, "linear", f"{blk}.ffn.fc1", pair * _mac2(n, c, e * c))
            bd.add(stage, "conv", f"{blk}.ffn.dw", pair * _mac2(dw_taps, 1, e * c, n))
            bd.add(stage, "linear", f"{blk}.ffn.fc2", pair * _mac2(n, e * c, c))
        c_in = c

    fw = cfg.fusion_channels
    for i, (c, h, w) in enumerate(plan):
        bd.add("decoder", "conv", f"lateral{i + 1}", pair * _mac2(1, c, fw, h * w))
    for i in (2, 1, 0):
        _, h, w = plan[i]
        bd.add("decoder", "conv", f"smooth{i + 1}", pair * _mac2(9, fw, fw, h * w))
    _, h0, w0 = plan[0]
    _, hf, wf = plan[cfg.fine_level]
    bd.add("decoder", "conv", "coarse_head", pair * _mac2(1, fw, cfg.coarse_channels, h0 * w0))
    bd.add("decoder", "conv", "fine_head", pair * _mac2(1, fw, cfg.fine_channels, hf * wf))

    if include_matcher:
        (cc, hc, wc), (cf, hfo, wfo) = output_plan(cfg, height, width)
        n_c = hc * wc
        bd.add("matcher", "matcher", "coarse_scores", _mac2(n_c, n_c, cc))
        bd.add("matcher", "matcher", "fine_windows", _mac2(n_c, DEFAULT_WINDOW ** 2, cf))
    return bd


def attention_kernel_flops(kind: str, n_tokens: int, dim: int, heads: int,
                           reduction: int = 1) -> float:
    """Closed-form cost of the attention products alone (no projections)."""
    d = dim // heads
    if kind == "la":
        return 2.0 * _mac2(n_tokens, d, d, heads)  # two factors, 2 N d^2 per head
    n_kv = n_tokens // (reduction * reduction) if kind == "sea" else n_tokens
    return 2.0 * _mac2(n_tokens, n_kv, d, heads)   # QK^T and PV


def fit_power_law(xs, ys) -> float:
    """Least-squares exponent of y ~ x^a on a log-log scale."""
    xs = np.log(np.asarray(xs, dtype=np.float64))
    ys = np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# Runtime benchmark
# ---------------------------------------------------------------------------


BENCH_REPEATS = 5


def bench_attention_sweep(kind: str, ns, dim: int = 64) -> list[float]:
    """Median wall-clock seconds of one single-head ``blocks.Attention``
    self-attention call per token count in ``ns``, with the tape off.

    Each size gets one warm-up call.  Then each of ``BENCH_REPEATS`` rounds
    times every size once, in the order of ``ns``, so a load that comes or
    goes mid-sweep falls on all sizes alike instead of tilting the fit."""
    rng = np.random.default_rng(0)
    attn = Attention(rng, kind, dim, heads=1)
    xs = [Tensor(rng.normal(size=(1, n, dim))) for n in ns]
    times = [[] for _ in ns]
    with T.no_grad():
        for x, n in zip(xs, ns):
            attn(x, x, (n, 1))  # warm-up
        for _ in range(BENCH_REPEATS):
            for x, n, t in zip(xs, ns, times):
                t0 = time.perf_counter()
                attn(x, x, (n, 1))
                t.append(time.perf_counter() - t0)
    return [float(np.median(t)) for t in times]


def complexity_exponents(ns=(256, 512, 1024, 2048, 4096), dim: int = 64,
                         measure_runtime: bool = False):
    """Analytic (and optionally measured) scaling exponents over token count."""
    out = {}
    for kind in ("full", "la"):
        counts = [attention_kernel_flops(kind, n, dim, 1) for n in ns]
        out[f"{kind}_analytic"] = fit_power_law(ns, counts)
        if measure_runtime:
            # largest N first in every round: the short calls are timed after
            # the long ones have woken the BLAS threads and warmed the process,
            # so start-up cost does not inflate them and flatten the exponent
            big_first = sorted(ns, reverse=True)
            out[f"{kind}_runtime"] = fit_power_law(big_first,
                                                   bench_attention_sweep(kind, big_first, dim))
    counts_sea = [attention_kernel_flops("sea", n, dim, 1, reduction=4) for n in ns]
    out["sea_analytic"] = fit_power_law(ns, counts_sea)
    return out
