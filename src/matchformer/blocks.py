"""Building blocks of the matching encoder.

Contains the gated positional patch embedding, the standard patch embedding
baseline (sinusoidal codes), the three attention kernels (full,
linear-factorized, spatially reduced) wired for self or cross attention, and
the conv-augmented feed-forward unit.  Blocks see the two image streams as
one batch (A stacked over B), so weights are shared by construction; they are
pure functions of (weights, inputs).
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor

# Mix-FFN's hidden width per input feature, and the kernel extent of every
# depthwise convolution (the Mix-FFN's and the patch-embedding gate's).
FFN_RATIO = 4
DEPTHWISE_K = 3


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------


class Module:
    """Minimal parameter container: children discovered by attribute walk."""

    def named_parameters(self, prefix: str = ""):
        out = []
        for name, value in vars(self).items():
            full = f"{prefix}{name}" if prefix else name
            if isinstance(value, Tensor):
                out.append((full, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(full + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{full}.{i}."))
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two deviations.

    Each round redraws only the entries still rejected, in index order, so a
    round costs its rejects rather than a scan of the whole array.
    """
    x = rng.normal(0.0, std, size=shape)
    flat = x.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2 * std)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2 * std]
    return x


def _param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class Linear(Module):
    """``x @ weight + bias`` over the last axis, one fused ``tensor.linear``."""

    def __init__(self, rng, d_in: int, d_out: int):
        self.weight = _param(trunc_normal(rng, (d_in, d_out)))
        self.bias = _param(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """k x k convolution padded by ``k // 2``, as every convolution in the
    model is (7 -> 3, 3 -> 1, 1 -> 0)."""

    def __init__(self, rng, c_in: int, c_out: int, k: int, stride: int = 1):
        self.weight = _param(rng.normal(0.0, math.sqrt(2.0 / (k * k * c_out)),
                                        size=(c_out, c_in, k, k)))
        self.bias = _param(np.zeros(c_out))
        self.stride, self.padding = stride, k // 2

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding)


class DepthwiseConv(Module):
    """Depthwise convolution on channels-last [B, H, W, C] maps, ``DEPTHWISE_K`` square.

    The weight keeps the grouped-convolution shape [C, 1, k, k] and its
    He draw (fan-out k*k), so checkpoints and seeded models carry over.
    """

    def __init__(self, rng, channels: int):
        k = DEPTHWISE_K
        self.weight = _param(rng.normal(0.0, math.sqrt(2.0 / (k * k)),
                                        size=(channels, 1, k, k)))
        self.bias = _param(np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return T.depthwise_conv2d(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = _param(np.ones(dim))
        self.offset = _param(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.offset)


# ---------------------------------------------------------------------------
# Sequence/map layout helpers
# ---------------------------------------------------------------------------


def seq_to_map(x: Tensor, h: int, w: int) -> Tensor:
    """[B, H*W, C] -> [B, C, H, W]"""
    b, n, c = x.shape
    if n != h * w:
        raise T.ShapeError(f"sequence length {n} does not match {h}x{w}")
    return T.transpose(T.reshape(x, (b, h, w, c)), (0, 3, 1, 2))


# ---------------------------------------------------------------------------
# Patch embeddings
# ---------------------------------------------------------------------------


class PosPatchEmbed(Module):
    """Overlapping strided convolution gated by sigmoid(depthwise conv).

    The depthwise gate encodes position implicitly through its zero
    padding; the gate bias starts at 0 so the gate opens at 0.5.  Takes a
    [B, C_in, H, W] image or map and returns a channels-last [B, h, w, C].
    """

    def __init__(self, rng, c_in: int, c_out: int, k: int, stride: int):
        self.proj = Conv2d(rng, c_in, c_out, k, stride=stride)
        self.gate = DepthwiseConv(rng, c_out)
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[2] % self.stride or x.shape[3] % self.stride:
            raise T.ShapeError(f"input extents {x.shape[2:]} not divisible by stride {self.stride}")
        c = T.transpose(self.proj(x), (0, 2, 3, 1))
        return T.mul(c, T.sigmoid(self.gate(c)))


def sinusoidal_position_code(h: int, w: int, dim: int) -> np.ndarray:
    """Fixed 2-D sine/cosine code, x in the first half of channels, y in the
    second; returns [h*w, dim]."""
    if dim % 4:
        raise T.ShapeError("sinusoidal code needs dim divisible by 4")
    half = dim // 2

    def axis_code(positions):
        freq = np.exp(-math.log(10000.0) * np.arange(half // 2) * 2.0 / half)
        ang = positions[:, None] * freq[None, :]
        code = np.zeros((len(positions), half))
        code[:, 0::2] = np.sin(ang)
        code[:, 1::2] = np.cos(ang)
        return code

    ys, xs = np.mgrid[0:h, 0:w]
    return np.concatenate([axis_code(xs.reshape(-1).astype(float)),
                           axis_code(ys.reshape(-1).astype(float))], axis=1)


class StdPatchEmbed(Module):
    """Non-overlapping PxP patches, linear projection, additive fixed code.

    Returns a channels-last [B, h, w, C] map like ``PosPatchEmbed``.
    """

    def __init__(self, rng, c_in: int, c_out: int, patch: int):
        self.proj = Linear(rng, c_in * patch * patch, c_out)
        self.patch = patch
        self.c_out = c_out
        self._codes: dict[tuple, np.ndarray] = {}

    def __call__(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        p = self.patch
        if h % p or w % p:
            raise T.ShapeError(f"input extents {(h, w)} not divisible by patch {p}")
        ho, wo = h // p, w // p
        tokens = T.reshape(x, (b, c, ho, p, wo, p))
        tokens = T.transpose(tokens, (0, 2, 4, 1, 3, 5))
        tokens = T.reshape(tokens, (b, ho * wo, c * p * p))
        y = self.proj(tokens)
        key = (ho, wo)
        if key not in self._codes:
            self._codes[key] = sinusoidal_position_code(ho, wo, self.c_out)
        y = T.add(y, Tensor(self._codes[key]))
        return T.reshape(y, (b, ho, wo, self.c_out))


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

ATTENTION_KINDS = ("full", "la", "sea")


class Attention(Module):
    """Multi-head attention over token sequences: the q, k and v linears,
    one attention core op on their outputs, and the output linear.

    kind:
      full  softmax(Q K^T / sqrt(d)) V, ``tensor.attention`` (row blocks)
      la    softmax_feat(Q) (softmax_pos(K)^T V), ``tensor.linear_attention``,
            never materializes N x M
      sea   key/value map reduced RxR before ``tensor.attention``; R == 1
            skips the reduction entirely so it equals ``full`` bit for bit
    """

    def __init__(self, rng, kind: str, dim: int, heads: int, reduction: int = 1):
        if kind not in ATTENTION_KINDS:
            raise ValueError(f"unknown attention kind {kind!r}")
        if dim % heads:
            raise T.ShapeError(f"dim {dim} not divisible by heads {heads}")
        if reduction < 1:
            raise ValueError("reduction ratio must be >= 1")
        self.kind = kind
        self.dim, self.heads, self.reduction = dim, heads, reduction
        self.q = Linear(rng, dim, dim)
        self.k = Linear(rng, dim, dim)
        self.v = Linear(rng, dim, dim)
        self.out = Linear(rng, dim, dim)
        if kind == "sea" and reduction > 1:
            # RxR stride-R aggregation expressed as reshape + linear (exactly
            # an RxR stride-R convolution with zero padding).
            self.sr = Linear(rng, dim * reduction * reduction, dim)
            self.sr_norm = LayerNorm(dim)

    def _reduce(self, kv: Tensor, hw: tuple) -> Tensor:
        h, w = hw
        r = self.reduction
        if h % r or w % r:
            raise T.ShapeError(f"kv extents {(h, w)} not divisible by reduction {r}")
        b, n, c = kv.shape
        blocks = T.reshape(kv, (b, h // r, r, w // r, r, c))
        blocks = T.transpose(blocks, (0, 1, 3, 2, 4, 5))
        blocks = T.reshape(blocks, (b, (h // r) * (w // r), r * r * c))
        return self.sr_norm(self.sr(blocks))

    def __call__(self, q_src: Tensor, kv_src: Tensor, kv_hw: tuple) -> Tensor:
        if q_src.shape[-1] != self.dim or kv_src.shape[-1] != self.dim:
            raise T.ShapeError("attention input width does not match configured dim")
        if self.kind == "sea" and self.reduction > 1:
            kv_src = self._reduce(kv_src, kv_hw)
        q, k, v = self.q(q_src), self.k(kv_src), self.v(kv_src)
        core = T.linear_attention if self.kind == "la" else T.attention
        return self.out(core(q, k, v, self.heads))


class MixFFN(Module):
    """linear C -> EC with E = ``FFN_RATIO``, depthwise conv on the
    channels-last spatial map, GELU, linear EC -> C.  The [B, N, EC] sequence
    is viewed as [B, H, W, EC], so no transpose is needed around the
    depthwise conv, and the conv and GELU run as one ``tensor.depthwise_gelu``
    with ``dw``'s weights."""

    def __init__(self, rng, dim: int):
        hidden = dim * FFN_RATIO
        self.fc1 = Linear(rng, dim, hidden)
        self.dw = DepthwiseConv(rng, hidden)
        self.fc2 = Linear(rng, hidden, dim)

    def __call__(self, x: Tensor, hw: tuple) -> Tensor:
        b, n, _ = x.shape
        y = self.fc1(x)
        hidden = y.shape[-1]
        y = T.depthwise_gelu(T.reshape(y, (b, *hw, hidden)), self.dw.weight, self.dw.bias)
        return self.fc2(T.reshape(y, (b, n, hidden)))


class AttentionBlock(Module):
    """Pre-norm residual block over both streams stacked on the batch axis.

    The input holds stream A's batch over stream B's.  Self blocks attend
    within each item; cross blocks take keys and values from the swapped
    tensor, so both streams attend to their partner simultaneously from
    pre-update values, with shared weights.
    """

    def __init__(self, rng, dim: int, heads: int, kind: str, reduction: int = 1):
        self.norm1 = LayerNorm(dim)
        self.attn = Attention(rng, kind, dim, heads, reduction)
        self.norm2 = LayerNorm(dim)
        self.ffn = MixFFN(rng, dim)

    def __call__(self, x: Tensor, hw: tuple, cross: bool) -> Tensor:
        n = self.norm1(x)
        x = T.add(x, self.attn(n, T.swap_halves(n) if cross else n, hw))
        return T.add(x, self.ffn(self.norm2(x), hw))


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "# matchformer-checkpoint v1"


def _snapshot_str(arr: np.ndarray) -> str:
    head = "shape: " + " ".join(str(d) for d in arr.shape)
    body = " ".join(repr(float(v)) for v in arr.reshape(-1))
    return head + "\n" + body + "\n"


def _snapshot_shape(header: str) -> tuple:
    """The shape on a tensor's ``shape:`` header line."""
    head = header.split()
    if not head or head[0] != "shape:":
        raise ValueError("tensor snapshot must start with 'shape:'")
    if not all(t.isdecimal() for t in head[1:]):
        raise ValueError(f"tensor shape must be non-negative integers, got {header.strip()!r}")
    return tuple(int(t) for t in head[1:])


def _parse_body(shape: tuple, body: str) -> np.ndarray:
    """A tensor from its body line, which must hold exactly the shape's count
    of values."""
    count = math.prod(shape)
    vals = body.split()
    if len(vals) != count:
        raise ValueError(f"tensor snapshot expects {count} values, found {len(vals)}")
    return np.array(vals, dtype=np.float64).reshape(shape)


def save_checkpoint(path, named_params) -> None:
    """One file: magic line, then per tensor a name line followed by its
    snapshot (``shape:`` header plus row-major decimals)."""
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        for name, p in named_params:
            arr = p.data if isinstance(p, Tensor) else np.asarray(p)
            fh.write(name + "\n")
            fh.write(_snapshot_str(arr))


def _snapshots(path, names: set):
    """Yield each tensor's name, header shape and unparsed body line: after
    the magic line, a tensor is a name line, a ``shape:`` header and a body
    line.  Blank lines between tensors are skipped.  Each name is added to
    ``names``; a name that comes twice is an error, as is non-UTF-8 text."""
    try:
        with open(path) as fh:
            if fh.readline().strip() != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a checkpoint file (bad magic line)")
            for line in fh:
                name = line.strip()
                if not name:
                    continue
                if name in names:
                    raise ValueError(f"{path}: tensor {name!r} appears twice")
                names.add(name)
                header, body = fh.readline(), fh.readline()
                if not body:
                    raise ValueError(f"{path}: truncated at tensor {name!r}")
                yield name, _snapshot_shape(header), body
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None


def load_checkpoint(path, into: Module | None = None) -> dict[str, np.ndarray] | None:
    """Read a checkpoint one tensor at a time, each parsed as soon as its body
    is read, into a ``{name: array}`` state.

    Given a module ``into``, each tensor is parsed straight into that
    module's parameter of the same name instead, and nothing is returned.
    Each name and header shape is checked before its body is parsed, and each
    body before its parameter is replaced (a non-finite value is an error);
    names the file lacks or the module lacks are reported at the end.  In
    either mode a name that the file holds twice is an error.  A failed load
    can leave the tensors read before the failure replaced.
    """
    names: set = set()
    if into is None:
        return {name: _parse_body(shape, body) for name, shape, body in _snapshots(path, names)}
    params = dict(into.named_parameters())
    for name, shape, body in _snapshots(path, names):
        p = params.get(name)
        if p is not None:
            if p.data.shape != shape:
                raise ValueError(f"checkpoint shape mismatch at {name}: {shape} vs {p.data.shape}")
            value = _parse_body(shape, body)
            if not np.isfinite(value).all():
                raise ValueError(f"{path}: tensor {name!r} holds non-finite values")
            p.data = value
    missing, extra = sorted(params.keys() - names), sorted(names - params.keys())
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing={missing[:4]} extra={extra[:4]}")
    return None
