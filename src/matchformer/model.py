"""Full model assembly: encoder + decoder plus checkpoint round-tripping."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .blocks import Module, load_checkpoint, save_checkpoint
from .decoder import FPNDecoder
from .encoder import Encoder, ModelConfig, make_config
from .tensor import Tensor


class MatchModel(Module):
    """Two-stream feature extractor producing coarse/fine map pairs."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.encoder = Encoder(rng, cfg)
        self.decoder = FPNDecoder(rng, cfg)
        self.cfg = cfg

    def forward_pair(self, img_a: Tensor, img_b: Tensor):
        """Returns (coarse_a, fine_a, coarse_b, fine_b).

        Both images run through the encoder and decoder as one stacked batch;
        the outputs are split back into the A and B halves.
        """
        coarse, fine = self.decoder.fuse(self.encoder.encode_pair(img_a, img_b))
        a, b = slice(0, img_a.shape[0]), slice(img_a.shape[0], None)
        return (T.slice_(coarse, (a,)), T.slice_(fine, (a,)),
                T.slice_(coarse, (b,)), T.slice_(fine, (b,)))

    def save(self, path) -> None:
        save_checkpoint(path, self.named_parameters())

    def load(self, path) -> None:
        load_checkpoint(path, into=self)


def build_model(*config_args, seed: int = 0, **config_kwargs) -> MatchModel:
    """A model of ``make_config(*config_args, **config_kwargs)``, which owns
    every default, with weights drawn from ``seed``."""
    return MatchModel(make_config(*config_args, **config_kwargs), seed=seed)
