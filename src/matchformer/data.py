"""Synthetic supervised pairs and grayscale image IO.

Training and evaluation data are procedural textures warped by known
homographies, so ground truth is exact by construction.  Images are float
arrays in [0, 1]; on disk the only formats are binary PGM (P5) for grayscale
and PPM (P6) for color overlays, both with maxval 255.

Pixel centers sit at integer coordinates; a homography maps A pixel
coordinates to B pixel coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcher import cell_center_px


class ImageFormatError(ValueError):
    """Malformed PGM/PPM header or payload."""


# ---------------------------------------------------------------------------
# Homographies
# ---------------------------------------------------------------------------


def hom_apply(h_mat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """[..., 3, 3] homographies applied to [..., N, 2] (x, y); leading axes broadcast."""
    pts = np.asarray(pts, dtype=np.float64)
    ph = np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)
    q = ph @ np.swapaxes(h_mat, -1, -2)
    return q[..., :2] / q[..., 2:3]


def hom_normalize(h_mat: np.ndarray) -> np.ndarray:
    h_mat = np.asarray(h_mat, dtype=np.float64)
    if abs(h_mat[2, 2]) > 1e-12:
        h_mat = h_mat / h_mat[2, 2]
    return h_mat


def hom_is_valid(h_mat: np.ndarray) -> bool:
    return abs(np.linalg.det(h_mat)) > 1e-9


def random_homography(seed: int, max_rot: float = 0.15, max_persp: float = 5e-4,
                      max_trans: float = 4.0, max_scale: float = 0.08,
                      size: tuple | None = None) -> np.ndarray:
    """Rotation, anisotropic scale, translation, and mild perspective.

    ``size`` = (height, width) centers the rotation/scale/perspective on the
    image so mild draws keep most of the frame valid.  All-zero bounds give
    the identity.  Degenerate draws are retried a bounded number of times.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        theta = rng.uniform(-max_rot, max_rot)
        sx = 1.0 + rng.uniform(-max_scale, max_scale)
        sy = 1.0 + rng.uniform(-max_scale, max_scale)
        tx = rng.uniform(-max_trans, max_trans)
        ty = rng.uniform(-max_trans, max_trans)
        px = rng.uniform(-max_persp, max_persp)
        py = rng.uniform(-max_persp, max_persp)
        core = np.array([
            [sx * np.cos(theta), -sx * np.sin(theta), tx],
            [sy * np.sin(theta), sy * np.cos(theta), ty],
            [px, py, 1.0],
        ])
        if size is not None:
            cy, cx = (size[0] - 1) / 2.0, (size[1] - 1) / 2.0
            to_center = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1.0]])
            from_center = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1.0]])
            core = from_center @ core @ to_center
        core = hom_normalize(core)
        if hom_is_valid(core):
            return core
    raise RuntimeError("random_homography: no invertible draw in 100 tries")


# ---------------------------------------------------------------------------
# Pattern synthesis
# ---------------------------------------------------------------------------


def gen_pattern(seed: int, height: int, width: int) -> np.ndarray:
    """Deterministic band-limited noise plus high-contrast random shapes."""
    rng = np.random.default_rng(seed)
    spectrum = np.fft.rfft2(rng.normal(size=(height, width)))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    spectrum *= np.hypot(fy, fx) < 0.12
    base = np.fft.irfft2(spectrum, s=(height, width))
    lo, hi = base.min(), base.max()
    img = 0.25 + 0.5 * (base - lo) / max(hi - lo, 1e-12)

    ys, xs = np.mgrid[0:height, 0:width]
    for _ in range(10):
        kind = rng.integers(3)
        value = rng.uniform(0, 1)
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        if kind == 0:      # axis-aligned rectangle
            hh = rng.uniform(2, height / 4)
            ww = rng.uniform(2, width / 4)
            mask = (np.abs(ys - cy) < hh) & (np.abs(xs - cx) < ww)
        elif kind == 1:    # ellipse
            ay = rng.uniform(2, height / 4)
            ax = rng.uniform(2, width / 4)
            mask = ((ys - cy) / ay) ** 2 + ((xs - cx) / ax) ** 2 < 1.0
        else:              # thick line
            ang = rng.uniform(0, np.pi)
            dist = np.abs((xs - cx) * np.sin(ang) - (ys - cy) * np.cos(ang))
            mask = dist < rng.uniform(1, 3)
        img = np.where(mask, 0.35 * img + 0.65 * value, img)
    img = np.clip(img, 0.0, 1.0)
    if img.std() <= 0.05:
        raise RuntimeError(f"gen_pattern(seed={seed}) produced a near-constant image")
    return img


# ---------------------------------------------------------------------------
# Warping and ground truth
# ---------------------------------------------------------------------------


def warp(image: np.ndarray, h_mat: np.ndarray):
    """Inverse-mapping bilinear warp; returns (warped, valid_mask).

    Output pixel (x, y) samples the input at H^-1 (x, y); samples falling
    outside the input grid produce 0 with mask False.
    """
    if not hom_is_valid(h_mat):
        raise ValueError("warp requires an invertible homography")
    h, w = image.shape
    inv = np.linalg.inv(h_mat)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    src = hom_apply(inv, np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1))
    sx, sy = src[:, 0].reshape(h, w), src[:, 1].reshape(h, w)
    valid = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    x0 = np.clip(np.floor(sx).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(sy).astype(int), 0, h - 2)
    fx = np.clip(sx - x0, 0.0, 1.0)
    fy = np.clip(sy - y0, 0.0, 1.0)
    out = ((1 - fy) * (1 - fx) * image[y0, x0] + (1 - fy) * fx * image[y0, x0 + 1]
           + fy * (1 - fx) * image[y0 + 1, x0] + fy * fx * image[y0 + 1, x0 + 1])
    return np.where(valid, out, 0.0), valid


@dataclass
class PairSample:
    image_a: np.ndarray
    image_b: np.ndarray
    h_mat: np.ndarray      # maps A pixel coords to B pixel coords


def make_pair(seed: int, height: int = 64, width: int = 64,
              max_rot: float = 0.15, max_persp: float = 5e-4,
              max_trans: float = 4.0, max_scale: float = 0.08) -> PairSample:
    """One synthetic supervised pair; B is A warped by a known homography."""
    image_a = gen_pattern(seed, height, width)
    h_mat = random_homography(seed + 1, max_rot=max_rot, max_persp=max_persp,
                              max_trans=max_trans, max_scale=max_scale,
                              size=(height, width))
    image_b, _ = warp(image_a, h_mat)
    return PairSample(image_a=image_a, image_b=image_b, h_mat=h_mat)


def gt_coarse_labels(h_mat: np.ndarray, size: tuple, r_c: int) -> np.ndarray:
    """Map A coarse cell centers through H to B coarse cells.

    Returns a flat int array over A cells: the flat B cell index, or -1 for
    cells whose center maps off-image or whose target cell is claimed by more
    than one A cell (labels form a partial injection).
    """
    h_img, w_img = size
    hc, wc = h_img // r_c, w_img // r_c
    rows, cols = np.divmod(np.arange(hc * wc), wc)
    mapped = hom_apply(h_mat, cell_center_px(np.stack([cols, rows], axis=1), r_c))
    cell_x = np.floor((mapped[:, 0] + 0.5) / r_c).astype(int)
    cell_y = np.floor((mapped[:, 1] + 0.5) / r_c).astype(int)
    inside = (cell_x >= 0) & (cell_x < wc) & (cell_y >= 0) & (cell_y < hc)
    labels = np.where(inside, cell_y * wc + cell_x, -1)
    tgt, counts = np.unique(labels[labels >= 0], return_counts=True)
    for dup in tgt[counts > 1]:
        labels[labels == dup] = -1
    return labels


# ---------------------------------------------------------------------------
# PGM / PPM IO
# ---------------------------------------------------------------------------


def _parse_pnm_header(blob: bytes, path, magic: bytes):
    if blob[:2] != magic:
        raise ImageFormatError(f"{path}: offset 0: expected magic {magic.decode()}, "
                               f"got {blob[:2]!r}")
    fields, pos = [], 2
    while len(fields) < 3:
        if pos >= len(blob):
            raise ImageFormatError(f"{path}: offset {pos}: truncated header")
        ch = blob[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(blob) and blob[pos:pos + 1].isdigit():
                pos += 1
            fields.append(int(blob[start:pos]))
        else:
            raise ImageFormatError(f"{path}: offset {pos}: unexpected byte {ch!r} in header")
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise ImageFormatError(f"{path}: offset {pos}: missing whitespace before payload")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"{path}: maxval {maxval} unsupported (expected 255)")
    return width, height, pos


def read_pgm(path) -> np.ndarray:
    """Binary P5, maxval 255, scaled to [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    width, height, pos = _parse_pnm_header(blob, path, b"P5")
    need = width * height
    payload = blob[pos:pos + need]
    if len(payload) != need:
        raise ImageFormatError(f"{path}: offset {pos}: payload has {len(payload)} "
                               f"bytes, expected {need}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width) / 255.0


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(np.asarray(img) * 255.0 + 0.5), 0, 255).astype(np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    data = _quantize(img)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    data = _quantize(rgb)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError("write_ppm expects [H, W, 3]")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# Dataset manifest
# ---------------------------------------------------------------------------


def save_manifest(path, entries) -> None:
    """One line per sample: seed, TAB, the nine homography entries."""
    with open(path, "w") as fh:
        for seed, h_mat in entries:
            vals = " ".join(repr(float(v)) for v in np.asarray(h_mat).reshape(-1))
            fh.write(f"{seed}\t{vals}\n")


def load_manifest(path):
    """The (seed, homography) samples of a ``save_manifest`` file; blank
    lines are skipped, and a file with no sample line is an error."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                seed_s, vals = line.split("\t")
                seed = int(seed_s)
                if seed < 0:
                    raise ValueError(f"seed must be >= 0, got {seed}")
                h_mat = np.array([float(v) for v in vals.split()]).reshape(3, 3)
                if not np.isfinite(h_mat).all():
                    raise ValueError("homography entries must be finite")
                if not hom_is_valid(h_mat):
                    raise ValueError("homography must be invertible")
                out.append((seed, h_mat))
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    if not out:
        raise ValueError(f"{path}: no sample lines")
    return out
