"""Coarse-to-fine matching.

Coarse stage: temperature-scaled inner products between l2-normalized coarse
descriptors, a dual softmax turning scores into mutual match probabilities,
and threshold + mutual-nearest-neighbor selection.  Training, inference and
the holdout precision all run on one pass over row blocks of S that takes
its row and column log-sum-exps (``coarse_pass``) and never holds an
N1 x N2 array: ``stream_select`` selects from it, and the coarse loss
``dual_softmax_nll`` takes log P at the labelled cells from it and
recomputes the blocks in its backward; a training step runs the pass once
for both.  The dense chain (``coarse_scores`` -> ``dual_softmax`` ->
``select_coarse``) is the reference that the self-test and the tests compare
against.  Both selectors end in one mutual-best rule
(``_mutual_best``).

Fine stage: each selected coarse match is back-located onto the fine maps,
and the expectation of a softmax correlation between the A-side center
vector and a square window around the B-side cell gives a subpixel B
coordinate.  The A side stays at coarse cell centers.  Training
(``fine_offsets``) and inference (``fine_refine``) share that one window
softmax.

Pixels have their centers at integer coordinates; ``cell_center_px`` maps a
grid cell to its center pixel and ``fine_cells`` back-locates coarse cells
onto the fine grid.  Fine correlation uses l2-normalized vectors with its own
(sharper) temperature.  Windows that overrun the map are clamped to it and
the softmax renormalizes over the surviving cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

MATCH_FILE_MAGIC = "# matchformer-matches v1"

# The matching values every caller starts from (``match_pair``'s defaults and
# ``TrainConfig``'s): the coarse softmax temperature, the confidence threshold
# on the dual-softmax probability, and the odd side of the fine window.
DEFAULT_TAU = 0.1
DEFAULT_THETA = 0.2
DEFAULT_WINDOW = 5

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
class CoarseMatchResult:
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


def check_temperature(name: str, value: float) -> None:
    """A softmax temperature (``tau``, ``fine_tau``) is finite and > 0."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def check_theta(theta: float) -> None:
    """The coarse threshold theta is a probability in [0, 1)."""
    if not 0 <= theta < 1:
        raise ValueError(f"theta must be in [0, 1), got {theta}")


def check_window(window: int) -> int:
    if window % 2 == 0 or window < 1:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    return window


def _descriptor_rows(coarse_a: Tensor, coarse_b: Tensor, tau: float) -> tuple:
    """l2-normalized [N, C] descriptor rows of both coarse maps, and their grids."""
    check_temperature("tau", tau)
    a, b = _as_single_map(coarse_a), _as_single_map(coarse_b)
    if a.shape[0] != b.shape[0]:
        raise T.ShapeError("coarse descriptor widths differ")
    c, ha, wa = a.shape
    _, hb, wb = b.shape
    seq_a = T.l2_normalize(T.transpose(T.reshape(a, (c, ha * wa)), (1, 0)), axis=-1)
    seq_b = T.l2_normalize(T.transpose(T.reshape(b, (c, hb * wb)), (1, 0)), axis=-1)
    return seq_a, seq_b, (ha, wa), (hb, wb)


def coarse_scores(coarse_a: Tensor, coarse_b: Tensor, tau: float) -> Tensor:
    """S[i, j] = <a_i, b_j> / tau over flattened, l2-normalized coarse grids."""
    seq_a, seq_b, _, _ = _descriptor_rows(coarse_a, coarse_b, tau)
    return T.mul(T.matmul(seq_a, T.transpose(seq_b, (1, 0))), 1.0 / tau)


def dual_softmax(scores: Tensor) -> Tensor:
    """P[i, j] = softmax_row_i(S)[j] * softmax_col_j(S)[i]."""
    return T.mul(T.softmax(scores, axis=1), T.softmax(scores, axis=0))


def _mutual_best(best_j: np.ndarray, best_p: np.ndarray, col_best_i: np.ndarray,
                 theta: float, grid_a=None, grid_b=None) -> CoarseMatchResult:
    """Row i keeps its best column j = best_j[i] when i = col_best_i[j] and
    P = best_p[i] > theta.  Both selectors pass the lowest index of each
    maximum, which is the documented tie-break."""
    rows = np.arange(len(best_j))
    keep = (col_best_i[best_j] == rows) & (best_p > theta)
    return CoarseMatchResult(pairs=np.stack([rows[keep], best_j[keep]], axis=1),
                             confidences=best_p[keep], grid_a=grid_a, grid_b=grid_b)


def select_coarse(probs, theta: float) -> CoarseMatchResult:
    """Threshold + mutual-nearest-neighbor selection on a dense P."""
    check_theta(theta)
    p = probs.data if isinstance(probs, Tensor) else np.asarray(probs)
    return _mutual_best(p.argmax(axis=1), p.max(axis=1), p.argmax(axis=0), theta)


# Rows of S per block of the streamed passes and of ``dual_softmax_nll``.
# A block is 256 x N2 float64: 2 MB at N2 = 1024 and 39 MB at 640x480's
# N2 = 19200, where the block GEMM still runs at full speed.
_SCORE_BLOCK = 256

# log(1e-12), the floor of the coarse loss's log P.
_LOG_P_FLOOR = float(np.log(1e-12))


def _row_blocks(n1: int) -> list:
    return [(r, min(n1, r + _SCORE_BLOCK)) for r in range(0, n1, _SCORE_BLOCK)]


def _score_block(rows_a: np.ndarray, cols_b: np.ndarray, tau: float, r0: int,
                 r1: int) -> np.ndarray:
    """Rows ``r0:r1`` of S from [N1, C] descriptor rows and [C, N2] columns."""
    s = np.matmul(rows_a[r0:r1], cols_b)
    s *= 1.0 / tau
    return s


def _log_sum_exps(rows_a: np.ndarray, cols_b: np.ndarray, tau: float) -> tuple:
    """Every row's and every column's log-sum-exp of S, one row block at a
    time: the row ones directly, the column ones online as a running max and
    a sum rescaled to it (Milakov & Gimelshein, arXiv 1805.02867).  Raises
    ``NumericalError`` on a non-finite score."""
    n1, n2 = rows_a.shape[0], cols_b.shape[1]
    lse_row = np.empty(n1)
    col_max = np.full(n2, -np.inf)
    col_sum = np.zeros(n2)
    for r0, r1 in _row_blocks(n1):
        s = _score_block(rows_a, cols_b, tau, r0, r1)
        if not np.logical_and.reduce(np.isfinite(s), axis=None):
            raise T.NumericalError("coarse scores produced non-finite values")
        new_max = np.maximum(col_max, s.max(axis=0))
        col_sum *= np.exp(col_max - new_max)
        col_max = new_max
        e = np.exp(s - col_max)
        col_sum += e.sum(axis=0)
        row_max = s.max(axis=1, keepdims=True)
        np.exp(np.subtract(s, row_max, out=e), out=e)
        lse_row[r0:r1] = row_max[:, 0] + np.log(e.sum(axis=1))
    return lse_row, col_max + np.log(col_sum)


@dataclass
class CoarsePass:
    """The first pass over S of two coarse maps at temperature ``tau``
    (``coarse_pass``): the l2-normalized [N, C] descriptor rows, recorded on
    the tape when gradients are on, the grids, and every row's and column's
    log-sum-exp of S.  The coarse loss and the streamed selection both read
    it."""

    seq_a: Tensor
    seq_b: Tensor
    grid_a: tuple
    grid_b: tuple
    tau: float
    lse_row: np.ndarray
    lse_col: np.ndarray


def coarse_pass(coarse_a: Tensor, coarse_b: Tensor, tau: float) -> CoarsePass:
    seq_a, seq_b, grid_a, grid_b = _descriptor_rows(coarse_a, coarse_b, tau)
    return CoarsePass(seq_a, seq_b, grid_a, grid_b, tau,
                      *_log_sum_exps(seq_a.data, seq_b.data.T, tau))


def stream_select_coarse(coarse_a: Tensor, coarse_b: Tensor, tau: float,
                         theta: float) -> CoarseMatchResult:
    """``select_coarse(dual_softmax(coarse_scores(a, b, tau)), theta)``
    without gradients and without any N1 x N2 array: ``coarse_pass`` and
    then ``stream_select``."""
    with T.no_grad():
        return stream_select(coarse_pass(coarse_a, coarse_b, tau), theta)


def stream_select(coarse: CoarsePass, theta: float) -> CoarseMatchResult:
    """Threshold + mutual-nearest-neighbor selection from a ``CoarsePass``.

    The second pass over blocks of rows of S, each block recomputed from the
    descriptor rows, forms log P = 2 S - lse_row - lse_col and keeps each
    row's best value and index, and each column's best over the blocks so
    far.  A column's best moves only to a strictly greater value, so the
    lowest index wins ties, as ``argmax`` does in the dense chain.  MNN and
    theta then run on O(N) vectors (``_mutual_best``).  The result equals
    the dense chain's up to rounding: pairs may differ only where two
    probabilities tie to the last bits.
    """
    check_theta(theta)
    rows_a, cols_b, tau = coarse.seq_a.data, coarse.seq_b.data.T, coarse.tau
    n1, n2 = rows_a.shape[0], cols_b.shape[1]
    best_j = np.empty(n1, dtype=np.intp)
    best_lp = np.empty(n1)
    col_best_i = np.zeros(n2, dtype=np.intp)
    col_best_lp = np.full(n2, -np.inf)
    cols = np.arange(n2)
    for r0, r1 in _row_blocks(n1):
        lp = _score_block(rows_a, cols_b, tau, r0, r1)
        lp *= 2.0
        lp -= coarse.lse_row[r0:r1, None]
        lp -= coarse.lse_col
        j = lp.argmax(axis=1)
        best_j[r0:r1] = j
        best_lp[r0:r1] = lp[np.arange(r1 - r0), j]
        i = lp.argmax(axis=0)
        v = lp[i, cols]
        better = v > col_best_lp
        col_best_lp[better] = v[better]
        col_best_i[better] = i[better] + r0
    return _mutual_best(best_j, np.exp(best_lp), col_best_i, theta,
                        coarse.grid_a, coarse.grid_b)


def dual_softmax_nll(coarse: CoarsePass, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Mean over k of ``-max(log P[rows[k], cols[k]], log 1e-12)``, P the dual
    softmax of the scores of a ``CoarsePass``, as one tape op that holds no
    N1 x N2 array.

    The forward reads the pass's log-sum-exps and forms
    log P_ij = 2 S_ij - lse_row_i - lse_col_j at the given cells only.  The
    backward recomputes S block by block (as FlashAttention does, arXiv
    2205.14135): with r_i and c_j the number of cells above the floor in
    row i and column j, and L the number of cells,
    dl/dS = (r_i softmax_row(S) + c_j softmax_col(S) - 2 [ij above the
    floor]) / L, and each block is contracted into the gradients of both
    descriptor rows.  A cell at or below the floor adds a constant and no
    gradient.
    """
    rows_a, rows_b, tau = coarse.seq_a.data, coarse.seq_b.data, coarse.tau
    cols_b = rows_b.T
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    lse_row, lse_col = coarse.lse_row, coarse.lse_col
    s_lab = np.add.reduce(rows_a[rows] * rows_b[cols], axis=1) * (1.0 / tau)
    log_p = 2.0 * s_lab - lse_row[rows] - lse_col[cols]
    live = log_p > _LOG_P_FLOOR
    loss = -np.add.reduce(np.where(live, log_p, _LOG_P_FLOOR)) / len(rows)

    def bwd(g):
        n1, n2 = rows_a.shape[0], rows_b.shape[0]
        r = np.bincount(rows[live], minlength=n1).astype(np.float64)[:, None]
        c = np.bincount(cols[live], minlength=n2).astype(np.float64)
        scale = float(g) / (len(rows) * tau)
        da, db = np.empty(rows_a.shape), np.zeros(rows_b.shape)
        for r0, r1 in _row_blocks(n1):
            s = _score_block(rows_a, cols_b, tau, r0, r1)
            d = np.subtract(s, lse_row[r0:r1, None])
            np.exp(d, out=d)
            d *= r[r0:r1]
            s -= lse_col
            np.exp(s, out=s)
            s *= c
            d += s
            here = live & (rows >= r0) & (rows < r1)
            np.add.at(d, (rows[here] - r0, cols[here]), -2.0)
            d *= scale
            np.matmul(d, rows_b, out=da[r0:r1])
            db += np.matmul(d.T, rows_a[r0:r1])
        return da, db

    return T._op("dual_softmax_nll", loss, (coarse.seq_a, coarse.seq_b), bwd)


# ---------------------------------------------------------------------------
# Fine refinement
# ---------------------------------------------------------------------------


def cell_center_px(cell, stride: int) -> np.ndarray:
    """Pixel coordinate of the center of grid cell ``cell`` at ``stride``."""
    return (cell + 0.5) * stride - 0.5


def fine_cells(flat: np.ndarray, grid: tuple, r_c: int, r_f: int,
               fine_hw: tuple) -> np.ndarray:
    """[M, 2] (row, col) fine cells holding the centers of flat coarse cells.

    Cells past the fine map (extents not divisible by the strides) are
    clamped to its border.
    """
    rc = np.stack(np.divmod(flat, grid[1]), axis=1)
    k = np.floor((rc + 0.5) * (r_c / r_f)).astype(np.intp)
    return np.clip(k, 0, np.asarray(fine_hw) - 1)


def fine_refine(coarse: CoarseMatchResult, fine_a: Tensor, fine_b: Tensor,
                window: int, r_c: int, r_f: int, tau: float) -> MatchSet:
    """Refine coarse matches to subpixel B-side coordinates.

    ``r_c`` and ``r_f`` are the model's coarse and fine strides, ``window``
    the odd side of the fine window and ``tau`` its temperature.  For each
    coarse pair, the A coordinate is the coarse cell center; the B
    coordinate is the ``fine_offsets`` expectation around the back-located
    fine cell, mapped back to pixels, plus the A query's known sub-cell
    offset.

    The correction term exists because the center vector is a single fine
    cell: when the coarse grid is finer than the fine grid (r_c < r_f), the
    query's position inside its fine cell is invisible to the correlation, so
    the expectation can only locate the match for the fine cell center.
    Re-adding the query's offset from that center (exact under a locally
    rigid mapping) removes an otherwise irreducible +-0.25 r_f error.
    """
    check_window(window)
    hw_b = np.asarray(fine_b.shape[-2:])
    ka = fine_cells(coarse.pairs[:, 0], coarse.grid_a, r_c, r_f, fine_a.shape[-2:])
    kb = fine_cells(coarse.pairs[:, 1], coarse.grid_b, r_c, r_f, hw_b)
    with T.no_grad():
        off = fine_offsets(fine_a, fine_b, ka, kb, radius=window // 2, tau=tau).data
    yx1 = cell_center_px(np.stack(np.divmod(coarse.pairs[:, 0], coarse.grid_a[1]),
                                  axis=1), r_c)
    yx2 = cell_center_px(kb + off, r_f) + (yx1 - cell_center_px(ka, r_f))
    # refined points stay inside the B image (the fine grid tiles it)
    yx2 = np.clip(yx2, 0.0, hw_b * r_f - 1.0)
    return MatchSet(points=np.column_stack([yx1[:, ::-1], yx2[:, ::-1],
                                            coarse.confidences]))


def fine_offsets(fine_a: Tensor, fine_b: Tensor, centers_a: np.ndarray,
                 centers_b: np.ndarray, radius: int, tau: float) -> Tensor:
    """Differentiable expected (dy, dx) offsets, in fine-cell units.

    ``centers_*`` are [M, 2] integer (row, col) fine cells.  Windows that
    overrun the B map are clamped to it: ``window_dot`` floors the slots
    outside the map, so the softmax renormalizes over the cells inside.
    """
    check_temperature("fine_tau", tau)
    fa = T.l2_normalize(_as_single_map(fine_a), axis=0)
    fb = T.l2_normalize(_as_single_map(fine_b), axis=0)
    w = 2 * radius + 1
    logits = T.window_dot(fa, fb, centers_a, centers_b, radius, 1.0 / tau)
    p = T.softmax(logits, axis=-1)
    off = np.arange(-radius, radius + 1, dtype=np.float64)
    grid = np.stack([np.repeat(off, w), np.tile(off, w)], axis=1)  # [w*w, (dy,dx)]
    return T.matmul(p, Tensor(grid))


# ---------------------------------------------------------------------------
# End-to-end matching
# ---------------------------------------------------------------------------


def match_pair(img_a, img_b, model, tau: float = DEFAULT_TAU,
               theta: float = DEFAULT_THETA, window: int = DEFAULT_WINDOW,
               fine_tau: float = DEFAULT_FINE_TAU) -> MatchSet:
    """Check the values, then encode -> fuse -> streamed dual softmax + MNN -> fine refinement."""
    check_temperature("tau", tau)
    check_theta(theta)
    check_window(window)
    check_temperature("fine_tau", fine_tau)
    a, b = _as_image_tensor(img_a), _as_image_tensor(img_b)
    with T.no_grad():
        coarse_a, fine_a, coarse_b, fine_b = model.forward_pair(a, b)
    result = stream_select_coarse(coarse_a, coarse_b, tau=tau, theta=theta)
    return fine_refine(result, fine_a, fine_b, window=window,
                       r_c=model.cfg.coarse_stride, r_f=model.cfg.fine_stride,
                       tau=fine_tau)


def _as_image_tensor(img) -> Tensor:
    x = img if isinstance(img, Tensor) else Tensor(img)
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
    """Read a ``save_matches`` file; every data line holds five finite values."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != MATCH_FILE_MAGIC:
        raise ValueError(f"{path}: missing match-file header")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split("\t")]
            if len(row) != 5 or not np.isfinite(row).all():
                raise ValueError(f"expected 5 finite tab-separated values, got {line!r}")
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
        rows.append(row)
    return MatchSet(points=np.array(rows, dtype=np.float64).reshape(-1, 5))
