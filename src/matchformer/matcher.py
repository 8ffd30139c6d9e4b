"""Coarse-to-fine matching.

Coarse stage: temperature-scaled inner products between (by default
l2-normalized) coarse descriptors, a dual softmax turning scores into mutual
match probabilities, and threshold + mutual-nearest-neighbor selection.

Fine stage: each selected coarse match is back-located onto the fine maps,
a square window is cropped around the candidate on the B side, and the
expectation of a softmax correlation against the A-side center vector gives a
subpixel B coordinate.  The A side stays at coarse cell centers.

Coordinate conventions (pixels have their centers at integer coordinates):
  coarse cell (r, c)   center pixel ((c + 0.5) * r_c - 0.5, (r + 0.5) * r_c - 0.5)
  fine cell k          center pixel  (k + 0.5) * r_f - 0.5
Fine correlation uses l2-normalized vectors with its own (sharper)
temperature.  Windows that overrun the map are clamped to it and the softmax
renormalizes over the surviving cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

MATCH_FILE_MAGIC = "# matchformer-matches v1"

# Correlation temperature of the fine window softmax.  With l2-normalized
# descriptors an identical pair's window center holds the largest logit (unit
# self-similarity, 1/tau = 40), so the expected offset is pulled toward the
# query cell; how far it strays depends on how similar the neighbouring
# descriptors are, so no bound holds for arbitrary weights.  Untrained
# lite-LA at 64x64 keeps at least 95% of identity matches inside half a fine
# cell (acceptance criterion 7); untrained lite-SEA at 128x128 put 0.4% to 9%
# of a pair's identity matches beyond half a cell, at worst 5.4 px against 4.
DEFAULT_FINE_TAU = 0.025


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


@dataclass
class ScoreMatrix:
    scores: Tensor          # [N1, N2]
    tau: float
    grid_a: tuple           # coarse grid (h, w) of image A
    grid_b: tuple


@dataclass
class CoarseMatchResult:
    probs: np.ndarray       # [N1, N2] dual-softmax probabilities
    theta: float
    pairs: np.ndarray       # [M, 2] int flat indices (i into A grid, j into B grid)
    confidences: np.ndarray # [M]
    grid_a: tuple
    grid_b: tuple


@dataclass
class MatchSet:
    """Full-resolution correspondences, columns x1 y1 x2 y2 confidence."""

    points: np.ndarray      # [M, 5] float

    def __len__(self) -> int:
        return len(self.points)

    @property
    def xy1(self) -> np.ndarray:
        return self.points[:, 0:2]

    @property
    def xy2(self) -> np.ndarray:
        return self.points[:, 2:4]

    @property
    def confidences(self) -> np.ndarray:
        return self.points[:, 4]


# ---------------------------------------------------------------------------
# Coarse matching
# ---------------------------------------------------------------------------


def _as_single_map(x: Tensor) -> Tensor:
    if x.ndim == 4:
        if x.shape[0] != 1:
            raise T.ShapeError("matching expects batch size 1")
        return T.reshape(x, x.shape[1:])
    if x.ndim != 3:
        raise T.ShapeError("expected a [C, h, w] or [1, C, h, w] map")
    return x


def coarse_scores(coarse_a: Tensor, coarse_b: Tensor, tau: float = 0.1,
                  normalize: bool = True) -> ScoreMatrix:
    """S[i, j] = <a_i, b_j> / tau over flattened coarse grids."""
    if tau <= 0:
        raise ValueError("temperature tau must be positive")
    a, b = _as_single_map(coarse_a), _as_single_map(coarse_b)
    if a.shape[0] != b.shape[0]:
        raise T.ShapeError("coarse descriptor widths differ")
    c, ha, wa = a.shape
    _, hb, wb = b.shape
    seq_a = T.transpose(T.reshape(a, (c, ha * wa)), (1, 0))
    seq_b = T.transpose(T.reshape(b, (c, hb * wb)), (1, 0))
    if normalize:
        seq_a = T.l2_normalize(seq_a, axis=-1)
        seq_b = T.l2_normalize(seq_b, axis=-1)
    s = T.mul(T.matmul(seq_a, T.transpose(seq_b, (1, 0))), 1.0 / tau)
    return ScoreMatrix(scores=s, tau=tau, grid_a=(ha, wa), grid_b=(hb, wb))


def dual_softmax(scores) -> Tensor:
    """P[i, j] = softmax_row_i(S)[j] * softmax_col_j(S)[i]."""
    s = scores.scores if isinstance(scores, ScoreMatrix) else scores
    return T.mul(T.softmax(s, axis=1), T.softmax(s, axis=0))


def mutual_argmax_pairs(probs: np.ndarray, theta: float) -> np.ndarray:
    """Flat index pairs (i, j) that are each other's argmax with P > theta.

    numpy's argmax takes the lowest index on ties, which is the documented
    tie-break.
    """
    row_best = probs.argmax(axis=1)
    col_best = probs.argmax(axis=0)
    i = np.arange(probs.shape[0])
    keep = (col_best[row_best] == i) & (probs[i, row_best] > theta)
    return np.stack([i[keep], row_best[keep]], axis=1)


def select_coarse(probs, theta: float, grid_a=None, grid_b=None) -> CoarseMatchResult:
    """Threshold + mutual-nearest-neighbor selection; a partial bijection."""
    if not 0 <= theta < 1:
        raise ValueError("theta must lie in [0, 1)")
    p = probs.data if isinstance(probs, Tensor) else np.asarray(probs)
    pairs = mutual_argmax_pairs(p, theta)
    conf = p[pairs[:, 0], pairs[:, 1]] if len(pairs) else np.zeros(0)
    return CoarseMatchResult(probs=p, theta=theta, pairs=pairs, confidences=conf,
                             grid_a=grid_a, grid_b=grid_b)


# ---------------------------------------------------------------------------
# Fine refinement
# ---------------------------------------------------------------------------


def _cell_center_px(cell: np.ndarray, stride: int) -> np.ndarray:
    return (cell + 0.5) * stride - 0.5


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(int)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    n = np.sqrt((m * m).sum(axis=0, keepdims=True))
    return m / np.where(n > 0, n, 1.0)


def fine_refine(coarse: CoarseMatchResult, fine_a: Tensor, fine_b: Tensor,
                window: int = 5, r_c: int = 4, r_f: int = 8,
                tau: float = DEFAULT_FINE_TAU) -> MatchSet:
    """Refine coarse matches to subpixel B-side coordinates.

    For each coarse pair, the A coordinate is the coarse cell center; the B
    coordinate is the window-softmax expectation around the back-located fine
    cell, mapped back to pixels, plus the A query's known sub-cell offset.

    The correction term exists because the center vector is a single fine
    cell: when the coarse grid is finer than the fine grid (r_c < r_f), the
    query's position inside its fine cell is invisible to the correlation, so
    the expectation can only locate the match for the fine cell center.
    Re-adding the query's offset from that center (exact under a locally
    rigid mapping) removes an otherwise irreducible +-0.25 r_f error.
    """
    if window % 2 == 0 or window < 1:
        raise ValueError("window must be odd and positive")
    fa = _as_single_map(fine_a).data
    fb = _as_single_map(fine_b).data
    fa = _normalize_rows(fa.reshape(fa.shape[0], -1)).reshape(fa.shape)
    fb = _normalize_rows(fb.reshape(fb.shape[0], -1)).reshape(fb.shape)
    hf_a, wf_a = fa.shape[1:]
    hf_b, wf_b = fb.shape[1:]
    radius = window // 2
    scale = r_c / r_f

    rows = []
    for (i, j), conf in zip(coarse.pairs, coarse.confidences):
        ra, ca = divmod(int(i), coarse.grid_a[1])
        rb, cb = divmod(int(j), coarse.grid_b[1])
        x1 = _cell_center_px(np.float64(ca), r_c)
        y1 = _cell_center_px(np.float64(ra), r_c)
        # back-located fine cells (A center vector; B window center)
        ka_r = min(max(_round_half_up((ra + 0.5) * scale - 0.5), 0), hf_a - 1)
        ka_c = min(max(_round_half_up((ca + 0.5) * scale - 0.5), 0), wf_a - 1)
        kb_r = min(max(_round_half_up((rb + 0.5) * scale - 0.5), 0), hf_b - 1)
        kb_c = min(max(_round_half_up((cb + 0.5) * scale - 0.5), 0), wf_b - 1)
        r_lo, r_hi = max(kb_r - radius, 0), min(kb_r + radius, hf_b - 1)
        c_lo, c_hi = max(kb_c - radius, 0), min(kb_c + radius, wf_b - 1)
        win = fb[:, r_lo:r_hi + 1, c_lo:c_hi + 1]
        center = fa[:, ka_r, ka_c]
        logits = np.einsum("c,cij->ij", center, win) / tau
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        dy = (p.sum(axis=1) * (np.arange(r_lo, r_hi + 1) - kb_r)).sum()
        dx = (p.sum(axis=0) * (np.arange(c_lo, c_hi + 1) - kb_c)).sum()
        x2 = _cell_center_px(kb_c + dx, r_f) + (x1 - _cell_center_px(np.float64(ka_c), r_f))
        y2 = _cell_center_px(kb_r + dy, r_f) + (y1 - _cell_center_px(np.float64(ka_r), r_f))
        # refined points stay inside the B image (the fine grid tiles it)
        x2 = min(max(x2, 0.0), wf_b * r_f - 1.0)
        y2 = min(max(y2, 0.0), hf_b * r_f - 1.0)
        rows.append((x1, y1, x2, y2, float(conf)))
    pts = np.array(rows, dtype=np.float64).reshape(-1, 5)
    return MatchSet(points=pts)


def fine_offsets(fine_a: Tensor, fine_b: Tensor, centers_a: np.ndarray,
                 centers_b: np.ndarray, radius: int = 2,
                 tau: float = DEFAULT_FINE_TAU) -> Tensor:
    """Differentiable expected (dy, dx) offsets, in fine-cell units.

    ``centers_*`` are [M, 2] integer (row, col) fine cells.  Windows that
    overrun the B map are clamped exactly as in ``fine_refine``: slots
    outside the map are masked out of the softmax.
    """
    fa = T.l2_normalize(_as_single_map(fine_a), axis=0)
    fb = T.l2_normalize(_as_single_map(fine_b), axis=0)
    m = len(centers_a)
    c = fa.shape[0]
    w = 2 * radius + 1
    cvec = T.window_gather(fa, centers_a[:, 0], centers_a[:, 1], 0)
    cvec = T.reshape(cvec, (m, 1, c))
    wins = T.window_gather(fb, centers_b[:, 0], centers_b[:, 1], radius, clip=True)
    wins = T.reshape(wins, (m, c, w * w))
    logits = T.mul(T.reshape(T.matmul(cvec, wins), (m, w * w)), 1.0 / tau)
    valid = T.window_valid_mask(fb.shape[1:], centers_b[:, 0], centers_b[:, 1],
                                radius).reshape(m, w * w)
    if not valid.all():
        logits = T.add(logits, Tensor(np.where(valid, 0.0, -1e9)))
    p = T.softmax(logits, axis=-1)
    off = np.arange(-radius, radius + 1, dtype=np.float64)
    grid = np.stack([np.repeat(off, w), np.tile(off, w)], axis=1)  # [w*w, (dy,dx)]
    return T.matmul(p, Tensor(grid))


# ---------------------------------------------------------------------------
# End-to-end matching
# ---------------------------------------------------------------------------


def match_pair(img_a, img_b, model, tau: float = 0.1, theta: float = 0.2,
               window: int = 5, fine_tau: float = DEFAULT_FINE_TAU) -> MatchSet:
    """encode -> fuse -> score -> dual softmax -> MNN -> fine refinement."""
    a = _as_image_tensor(img_a)
    b = _as_image_tensor(img_b)
    with T.no_grad():
        coarse_a, fine_a, coarse_b, fine_b = model.forward_pair(a, b)
        sm = coarse_scores(coarse_a, coarse_b, tau=tau)
        probs = dual_softmax(sm)
    result = select_coarse(probs, theta, grid_a=sm.grid_a, grid_b=sm.grid_b)
    return fine_refine(result, fine_a, fine_b, window=window,
                       r_c=model.cfg.coarse_stride, r_f=model.cfg.fine_stride,
                       tau=fine_tau)


def _as_image_tensor(img) -> Tensor:
    if isinstance(img, Tensor):
        x = img
    else:
        x = Tensor(np.asarray(img, dtype=np.float64))
    if x.ndim == 2:
        x = T.reshape(x, (1, 1) + x.shape)
    if x.ndim != 4:
        raise T.ShapeError("image must be [H, W] or [1, 1, H, W]")
    return x


# ---------------------------------------------------------------------------
# Match file IO
# ---------------------------------------------------------------------------


def save_matches(path, matches: MatchSet) -> None:
    """TSV: magic header, then one `x1 y1 x2 y2 conf` line per match."""
    with open(path, "w") as fh:
        fh.write(MATCH_FILE_MAGIC + "\n")
        for x1, y1, x2, y2, conf in matches.points:
            fh.write(f"{x1:.6f}\t{y1:.6f}\t{x2:.6f}\t{y2:.6f}\t{conf:.6f}\n")


def load_matches(path) -> MatchSet:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != MATCH_FILE_MAGIC:
        raise ValueError(f"{path}: missing match-file header")
    rows = [tuple(float(v) for v in line.split("\t")) for line in lines[1:] if line.strip()]
    return MatchSet(points=np.array(rows, dtype=np.float64).reshape(-1, 5))
