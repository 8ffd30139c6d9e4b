"""Top-down multi-scale fusion producing the coarse and fine feature maps.

The pyramid is merged FPN-style: the deepest stage is projected laterally to
the fusion width, then repeatedly upsampled x2, added to the lateral
projection of the next-shallower stage, and smoothed with a 3x3 convolution.
The fine head taps the merged map at the 1/8-scale level; the coarse head
taps the shallowest level.
"""

from __future__ import annotations

from . import tensor as T
from .blocks import Conv2d, Module
from .encoder import ModelConfig


class FPNDecoder(Module):
    def __init__(self, rng, cfg: ModelConfig):
        fw = cfg.fusion_channels
        self.laterals = [Conv2d(rng, st.channels, fw, 1) for st in cfg.stages]
        self.smooths = [Conv2d(rng, fw, fw, 3) for _ in range(3)]
        self.coarse_head = Conv2d(rng, fw, cfg.coarse_channels, 1)
        self.fine_head = Conv2d(rng, fw, cfg.fine_channels, 1)
        self.cfg = cfg

    def fuse(self, pyramid: list):
        """Four stage maps -> (coarse [B,Cc,H/rc,W/rc], fine [B,Cf,H/8,W/8])."""
        cfg = self.cfg
        expected = [st.channels for st in cfg.stages]
        actual = [m.shape[1] for m in pyramid]
        if actual != expected:
            raise T.ShapeError(f"pyramid channels {actual} do not match config {expected}")
        level = self.laterals[3](pyramid[3])
        merged = {3: level}
        for i in (2, 1, 0):
            level = self.smooths[i](T.add(T.bilinear_upsample2x(level),
                                          self.laterals[i](pyramid[i])))
            merged[i] = level
        coarse = self.coarse_head(merged[0])
        fine = self.fine_head(merged[cfg.fine_level])
        return coarse, fine
