"""Correctness checks of the benchmark's workloads.

Every check compares the program's output with a computation made apart
from the program, or tests a property the method must have.  None compares
with a stored copy of an earlier output.  Each returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

# Bars (see README.md for how they were chosen).
LOSS_DROP = 0.9             # last-window mean coarse loss < 0.9 x first window
LOSS_WINDOW = 10            # steps per window, as in acceptance criterion 8b
FINE_ON_SHARE = 0.9         # steps past the warm-up that must carry a fine loss
MMA3_BAR = 0.7              # mean over a run's pairs of MMA@3px on inliers
CORNER_BAR_PX = 4.0         # median over a run's pairs of the corner error


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def check_training(metrics, warmup_precision: float) -> list[str]:
    """``metrics`` rows are (step, loss_coarse, loss_fine, precision).

    The coarse loss must fall, and fine supervision must follow its warm-up
    rule, recomputed here from the logged precisions: on from the step where
    their running average (weight 0.1) first exceeds ``warmup_precision``,
    never before.
    """
    rows = np.asarray(metrics, dtype=np.float64)
    out = []
    if len(rows) < 2 * LOSS_WINDOW:
        return [f"only {len(rows)} training steps recorded"]
    if not np.isfinite(rows[:, 1:3]).all():
        out.append("non-finite loss recorded")
    first = rows[:LOSS_WINDOW, 1].mean()
    last = rows[-LOSS_WINDOW:, 1].mean()
    if not last < LOSS_DROP * first:
        out.append(f"coarse loss did not drop: last window {last:.4f} "
                   f">= {LOSS_DROP} x first window {first:.4f}")
    running, on_from = 0.0, len(rows)
    for k, precision in enumerate(rows[:, 3]):
        running = 0.9 * running + 0.1 * precision
        if running > warmup_precision:
            on_from = k
            break
    fine = rows[:, 2] > 0
    if fine[:on_from].any():
        out.append(f"fine loss before the warm-up ended (row {on_from})")
    if on_from < len(rows) and fine[on_from:].mean() < FINE_ON_SHARE:
        out.append(f"fine loss on only {fine[on_from:].mean():.2f} of the steps "
                   f"after the warm-up ended at row {on_from}")
    return out


def holdout_labels(h_mat: np.ndarray, size: tuple, stride: int) -> np.ndarray:
    """Ground-truth B cell of every A coarse cell, -1 when off-image or when
    two A cells land in one B cell."""
    h, w = size
    hc, wc = h // stride, w // stride
    rows, cols = np.divmod(np.arange(hc * wc), wc)
    pts = np.stack([(cols + 0.5) * stride - 0.5, (rows + 0.5) * stride - 0.5,
                    np.ones(hc * wc)], axis=1) @ h_mat.T
    bx = np.floor((pts[:, 0] / pts[:, 2] + 0.5) / stride).astype(int)
    by = np.floor((pts[:, 1] / pts[:, 2] + 0.5) / stride).astype(int)
    labels = np.where((bx >= 0) & (bx < wc) & (by >= 0) & (by < hc), by * wc + bx, -1)
    values, counts = np.unique(labels[labels >= 0], return_counts=True)
    labels[np.isin(labels, values[counts > 1])] = -1
    return labels


def check_holdout(reported: float, coarse_maps, h_mats, size: tuple, stride: int,
                  tau: float, theta: float) -> list[str]:
    """The reported holdout precision@1cell equals one recomputed from the
    model's coarse maps with the oracle and the generators' homographies.

    ``coarse_maps`` holds one (coarse_a, coarse_b) [C, h, w] pair per holdout
    pair.  The comparison is skipped when the oracle meets a rounding-level
    tie in any pair, since the mean could then differ without a fault.
    """
    scores = []
    wc = size[1] // stride
    for (ca, cb), h_mat in zip(coarse_maps, h_mats):
        oracle, ambiguous = oracle_coarse_matches(ca, cb, tau, theta)
        if ambiguous:
            return []
        labels = holdout_labels(h_mat, size, stride)
        hits = [max(abs(j // wc - labels[i] // wc), abs(j % wc - labels[i] % wc)) <= 1
                for i, (j, _) in oracle.items() if labels[i] >= 0]
        scores.append(float(np.mean(hits)) if hits else 0.0)
    recomputed = float(np.mean(scores))
    if abs(recomputed - reported) > 1e-9:
        return [f"holdout precision {reported:.4f} != recomputed {recomputed:.4f}"]
    return []


def check_reload(named_params, state: dict) -> list[str]:
    """The reloaded checkpoint equals the saved parameters bit for bit."""
    params = {name: p.data for name, p in named_params}
    if set(params) != set(state):
        return [f"reloaded names differ: {sorted(set(params) ^ set(state))[:4]}"]
    bad = [name for name, arr in params.items()
           if arr.shape != state[name].shape
           or not np.array_equal(arr.view(np.uint64), state[name].view(np.uint64))]
    return [f"reloaded tensors differ from saved ones: {bad[:4]}"] if bad else []


# ---------------------------------------------------------------------------
# Geometry against the generator's ground truth
# ---------------------------------------------------------------------------


def check_geometry(mma3: list[float], corner_px: list[float]) -> list[str]:
    """Per-pair MMA@3px and corner errors, judged over all pairs of a run.

    Single pairs vary (MMA@3px 0.62 to 1.0 over 160 pairs), so the bars
    apply to the run: the mean MMA@3px, as in acceptance criterion 8d, and
    the median corner error.
    """
    if not mma3:
        return ["no evaluated pairs"]
    out = []
    mean_mma3 = float(np.mean(mma3))
    median_corner = float(np.median(corner_px))
    if not mean_mma3 >= MMA3_BAR:
        out.append(f"mean MMA@3px {mean_mma3:.3f} < {MMA3_BAR}")
    if not median_corner < CORNER_BAR_PX:
        out.append(f"median corner error {median_corner:.3f} px >= {CORNER_BAR_PX}")
    return out


def check_identity(points: np.ndarray, fine_stride: int) -> list[str]:
    """A pattern matched with itself maps each cell into its own fine cell.

    Half a fine cell, criterion 7's radius, is too tight for untrained
    lite-SEA weights at 128x128: 0.91 to 0.996 of the matches of a pair fall
    within it, and the largest error seen over 13k matches was 5.4 px.
    """
    if len(points) == 0:
        return ["identity pair returned no matches"]
    err = np.abs(points[:, 0:2] - points[:, 2:4]).max(axis=1)
    far = int((err >= fine_stride).sum())
    if far:
        return [f"{far} identity matches land a fine cell or more away "
                f"(largest {err.max():.2f} px)"]
    return []


# ---------------------------------------------------------------------------
# Coarse matching oracle
# ---------------------------------------------------------------------------


def oracle_coarse_matches(coarse_a: np.ndarray, coarse_b: np.ndarray,
                          tau: float, theta: float):
    """Plain-numpy dual softmax and brute-force mutual nearest neighbours.

    ``coarse_*`` are [C, h, w] maps.  Returns ({i: (j, P[i, j])}, ambiguous
    rows) where a row is ambiguous when a rounding-level change could flip
    its decision (a near-tie or a probability within 1e-9 of theta).
    """
    c = coarse_a.shape[0]
    a = coarse_a.reshape(c, -1).T
    b = coarse_b.reshape(c, -1).T
    a = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-300)
    b = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-300)
    s = (a @ b.T) / tau
    row = np.exp(s - s.max(axis=1, keepdims=True))
    row /= row.sum(axis=1, keepdims=True)
    col = np.exp(s - s.max(axis=0, keepdims=True))
    col /= col.sum(axis=0, keepdims=True)
    p = row * col
    n1, n2 = p.shape
    matches, ambiguous = {}, set()
    tol = 1e-9
    for i in range(n1):
        best_j, best, second = -1, -math.inf, -math.inf
        for j in range(n2):
            v = p[i, j]
            if v > best:
                best_j, best, second = j, v, best
            elif v > second:
                second = v
        col_j = p[:, best_j]
        rivals = np.delete(col_j, i)
        mutual = best > rivals.max() if len(rivals) else True
        if best - second <= tol * best or abs(best - theta) <= tol \
                or (len(rivals) and abs(best - rivals.max()) <= tol * best):
            ambiguous.add(i)
        if mutual and best > theta:
            matches[i] = (best_j, best)
    return matches, ambiguous


def check_coarse_oracle(points: np.ndarray, coarse_a: np.ndarray,
                        coarse_b: np.ndarray, tau: float, theta: float,
                        coarse_stride: int) -> list[str]:
    """The match set's coarse cells and confidences equal the oracle's."""
    oracle, ambiguous = oracle_coarse_matches(coarse_a, coarse_b, tau, theta)
    w = coarse_a.shape[2]
    cells = (points[:, 0:2] + 0.5) / coarse_stride - 0.5
    if not np.allclose(cells, np.round(cells), atol=1e-9):
        return ["A-side match coordinates are not coarse cell centers"]
    flat = (np.round(cells[:, 1]) * w + np.round(cells[:, 0])).astype(int)
    got = dict(zip(flat.tolist(), points[:, 4].tolist()))
    if len(got) != len(flat):
        return ["an A cell is matched twice"]
    out = []
    missing = sorted(set(oracle) - set(got) - ambiguous)
    extra = sorted(set(got) - set(oracle) - ambiguous)
    if missing or extra:
        out.append(f"coarse match set differs from the oracle: "
                   f"{len(missing)} missing (e.g. {missing[:3]}), "
                   f"{len(extra)} extra (e.g. {extra[:3]})")
    wrong = [i for i in set(got) & set(oracle)
             if abs(got[i] - oracle[i][1]) > 1e-9]
    if wrong:
        out.append(f"{len(wrong)} confidences differ from the oracle's "
                   f"P[i, j] (e.g. cell {wrong[0]})")
    return out


# ---------------------------------------------------------------------------
# Encoder structure
# ---------------------------------------------------------------------------


def check_shapes(outputs, plan) -> list[str]:
    """(coarse_a, fine_a, coarse_b, fine_b) shapes equal encoder.output_plan."""
    (cc, hc, wc), (cf, hf, wf) = plan
    want = [(1, cc, hc, wc), (1, cf, hf, wf)] * 2
    got = [tuple(t.shape) for t in outputs]
    return [] if got == want else [f"output shapes {got} != planned {want}"]


def check_swap(out_ab, out_ba) -> list[str]:
    """forward_pair(b, a) returns a's maps in b's slots, bit for bit."""
    ca, fa, cb, fb = (t.data for t in out_ab)
    cb2, fb2, ca2, fa2 = (t.data for t in out_ba)
    same = all(np.array_equal(x, y) for x, y in
               ((ca, ca2), (fa, fa2), (cb, cb2), (fb, fb2)))
    return [] if same else ["swapping the inputs did not swap the outputs"]
