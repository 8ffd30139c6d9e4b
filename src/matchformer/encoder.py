"""Four-stage hierarchical two-stream encoder with interleaved attention.

Both streams run as one batch, image A stacked over image B on the batch
axis.  Each stage applies a patch embedding and then a fixed number of
attention blocks, each flagged self or cross.  The per-stage self/cross
pattern is fully configurable; the default follows the strongest arrangement,
SSC SSC SCC SCC, with relatively more cross layers in the deeper stages.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .blocks import (ATTENTION_KINDS, AttentionBlock, LayerNorm, Module,
                     PosPatchEmbed, StdPatchEmbed, seq_to_map)
from .tensor import Tensor

VARIANTS = ("lite", "large")
PATCH_EMBEDS = ("pos", "std")

DEFAULT_CHANNELS = (128, 192, 256, 512)
SEA_HEADS = (1, 2, 4, 8)
SEA_REDUCTIONS = (4, 2, 2, 1)
LA_HEADS = (8, 8, 8, 8)
FINE_STRIDE = 8
IN_CHANNELS = 1  # grayscale images


def schedule_from_strings(rows) -> tuple:
    """Parse per-stage strings like 'SSC' into cross-flag tuples."""
    out = []
    for row in rows:
        flags = []
        for ch in row.strip().upper():
            if ch not in "SC":
                raise ValueError(f"schedule token {row!r}: use only S and C")
            flags.append(ch == "C")
        out.append(tuple(flags))
    if len(out) != 4:
        raise ValueError("schedule needs exactly 4 stage rows")
    return tuple(out)


NAMED_SCHEDULES = {
    "interleaving": ("SSC", "SSC", "SCC", "SCC"),
    "self_only": ("SSS", "SSS", "SSS", "SSS"),
    "cross_only": ("CCC", "CCC", "CCC", "CCC"),
    "sequential": ("SSS", "SSS", "CCC", "CCC"),
}


@dataclass(frozen=True)
class StageConfig:
    channels: int
    pe_kernel: int
    pe_stride: int
    cross_flags: tuple
    attention: str
    heads: int
    reduction: int  # SEA's key/value reduction R; 1 for the other kinds

    @property
    def depth(self) -> int:
        return len(self.cross_flags)


@dataclass(frozen=True)
class ModelConfig:
    """The whole model description; ``make_config`` is its one builder."""
    patch_embed: str
    stages: tuple
    coarse_channels: int
    fine_channels: int
    fusion_channels: int

    @property
    def stage_strides(self) -> tuple:
        """Cumulative downscale factor of each stage output."""
        out, s = [], 1
        for st in self.stages:
            s *= st.pe_stride
            out.append(s)
        return tuple(out)

    @property
    def coarse_stride(self) -> int:
        return self.stage_strides[0]

    @property
    def fine_stride(self) -> int:
        return FINE_STRIDE

    @property
    def fine_level(self) -> int:
        """Stage index whose resolution matches the fine output (1/8)."""
        return self.stage_strides.index(FINE_STRIDE)


def make_config(variant: str = "lite", attention: str = "sea",
                patch_embed: str = "pos", channels=None,
                schedule: str = "interleaving",
                coarse_channels: int = 128,
                fine_channels: int | None = None,
                fusion_channels: int = 128) -> ModelConfig:
    """Build a model configuration.

    Defaults reproduce the four published variants; ``channels`` and the
    head widths may be overridden for toy-scale models (heads scale with the
    channel override so the per-head width stays valid).  The fine width
    defaults to 192 (lite) or 256 (large).  ``schedule`` is a
    ``NAMED_SCHEDULES`` name or four space-separated S/C rows, one per stage
    (e.g. "SSC SSC SCC SCC").
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if attention not in ATTENTION_KINDS:
        raise ValueError(f"attention must be one of {ATTENTION_KINDS}")
    if patch_embed not in PATCH_EMBEDS:
        raise ValueError(f"patch_embed must be one of {PATCH_EMBEDS}")
    channels = tuple(channels) if channels is not None else DEFAULT_CHANNELS
    # a stage needs 2 features for its narrowest attention head
    if len(channels) != 4 or min(channels) < 2:
        raise ValueError(f"channels must be 4 widths >= 2, got {channels}")
    if patch_embed == "std" and any(c % 4 for c in channels):  # its sine/cosine code
        raise ValueError(f"channels must be multiples of 4 with pe std, got {channels}")
    if fine_channels is None:
        fine_channels = 192 if variant == "lite" else 256
    for name, width in (("coarse_channels", coarse_channels),
                        ("fine_channels", fine_channels),
                        ("fusion_channels", fusion_channels)):
        if width < 1:
            raise ValueError(f"{name} must be >= 1, got {width}")
    schedule = schedule_from_strings(NAMED_SCHEDULES.get(schedule) or schedule.split())

    first_stride = 4 if variant == "lite" else 2
    pe_params = [(7, first_stride), (3, 2), (3, 2), (3, 2)]
    stages = []
    for i in range(4):
        if attention == "sea":
            heads, red = SEA_HEADS[i], SEA_REDUCTIONS[i]
        else:
            heads, red = LA_HEADS[i], 1
        # keep per-head width integral and >= 2 under toy overrides (a single
        # feature per head would make the LA feature softmax constant)
        while channels[i] % heads or channels[i] // heads < 2:
            heads //= 2
        k, s = pe_params[i]
        stages.append(StageConfig(channels=channels[i], pe_kernel=k, pe_stride=s,
                                  cross_flags=schedule[i], attention=attention,
                                  heads=heads, reduction=red))
    return ModelConfig(patch_embed=patch_embed, stages=tuple(stages),
                       coarse_channels=coarse_channels, fine_channels=fine_channels,
                       fusion_channels=fusion_channels)


# ---------------------------------------------------------------------------
# Shape planning (symbolic, no weights)
# ---------------------------------------------------------------------------


def check_input_extents(h: int, w: int, what: str = "input extents") -> None:
    if h <= 0 or w <= 0 or h % 32 or w % 32:
        raise T.ShapeError(f"{what} {(h, w)} must be positive multiples of 32")


def stage_plan(cfg: ModelConfig, h: int, w: int):
    """Per-stage (channels, height, width) for an input of extent h x w."""
    check_input_extents(h, w)
    return [(st.channels, h // s, w // s) for st, s in zip(cfg.stages, cfg.stage_strides)]


def output_plan(cfg: ModelConfig, h: int, w: int):
    """(coarse (C, h, w), fine (C, h, w)) for an input of extent h x w."""
    check_input_extents(h, w)
    rc, rf = cfg.coarse_stride, cfg.fine_stride
    return ((cfg.coarse_channels, h // rc, w // rc),
            (cfg.fine_channels, h // rf, w // rf))


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


class Stage(Module):
    def __init__(self, rng, cfg: StageConfig, c_in: int, patch_embed: str):
        if patch_embed == "pos":
            self.pe = PosPatchEmbed(rng, c_in, cfg.channels, cfg.pe_kernel, cfg.pe_stride)
        else:
            self.pe = StdPatchEmbed(rng, c_in, cfg.channels, cfg.pe_stride)
        self.blocks = [AttentionBlock(rng, cfg.channels, cfg.heads, cfg.attention,
                                      cfg.reduction)
                       for _ in range(cfg.depth)]
        self.norm = LayerNorm(cfg.channels)
        self.cfg = cfg

    def forward_pair(self, x: Tensor) -> Tensor:
        """Both streams stacked on the batch axis, A over B."""
        x = self.pe(x)                        # channels-last [2B, h, w, C]
        b, h, w, c = x.shape
        s = T.reshape(x, (b, h * w, c))
        for block, cross in zip(self.blocks, self.cfg.cross_flags):
            s = block(s, (h, w), cross)
        return seq_to_map(self.norm(s), h, w)


class Encoder(Module):
    def __init__(self, rng, cfg: ModelConfig):
        self.stages = []
        c_in = IN_CHANNELS
        for st in cfg.stages:
            self.stages.append(Stage(rng, st, c_in, cfg.patch_embed))
            c_in = st.channels

    def encode_pair(self, img_a: Tensor, img_b: Tensor) -> list:
        """Run both streams through all stages as one batch, A stacked over B.

        Returns the pyramid: one stacked ``[2B, C, h, w]`` map per stage.
        """
        if img_a.shape != img_b.shape:
            raise T.ShapeError("paired images must share a shape")
        check_input_extents(img_a.shape[2], img_a.shape[3])
        x = T.concat([img_a, img_b], axis=0)
        maps = []
        for stage in self.stages:
            x = stage.forward_pair(x)
            maps.append(x)
        return maps


# ---------------------------------------------------------------------------
# Config file grammar
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key: value`` lines; '#' starts a comment; order-insensitive."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"config line {lineno}: expected 'key: value', got {raw!r}")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out
