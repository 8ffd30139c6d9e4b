"""Decoder: fusion output shapes, constancy preservation, differentiability."""

import numpy as np
import pytest

from matchformer import tensor as T
from matchformer.decoder import FPNDecoder
from matchformer.encoder import make_config, stage_plan
from matchformer.model import MatchModel
from matchformer.tensor import Tensor


def pyramid_for(cfg, h, w, fill=None, seed=0):
    rng = np.random.default_rng(seed)
    maps = []
    for c, hh, ww in stage_plan(cfg, h, w):
        data = np.full((1, c, hh, ww), fill) if fill is not None \
            else rng.normal(size=(1, c, hh, ww))
        maps.append(Tensor(data))
    return maps


class TestFuse:
    @pytest.mark.parametrize("variant,coarse,fine", [
        ("lite", (1, 128, 16, 16), (1, 192, 8, 8)),
        ("large", (1, 128, 32, 32), (1, 256, 8, 8)),
    ])
    def test_output_shapes_64(self, variant, coarse, fine):
        cfg = make_config(variant, "sea")
        dec = FPNDecoder(np.random.default_rng(0), cfg)
        with T.no_grad():
            c, f = dec.fuse(pyramid_for(cfg, 64, 64))
        assert c.shape == coarse and f.shape == fine

    @pytest.mark.parametrize("variant", ["lite", "large"])
    @pytest.mark.parametrize("hw", [(64, 96), (96, 64), (128, 128)])
    def test_output_shapes_any_valid_size(self, variant, hw):
        cfg = make_config(variant, "la")
        dec = FPNDecoder(np.random.default_rng(1), cfg)
        h, w = hw
        with T.no_grad():
            c, f = dec.fuse(pyramid_for(cfg, h, w))
        rc = cfg.coarse_stride
        assert c.shape == (1, cfg.coarse_channels, h // rc, w // rc)
        assert f.shape == (1, cfg.fine_channels, h // 8, w // 8)

    def test_constant_pyramid_gives_spatially_constant_coarse_interior(self):
        # Linear ops preserve constancy away from the zero-padded conv
        # borders; the contaminated ring is 10 cells at the coarse level
        # (one cell per smoothing conv, doubled by each upsampling).
        cfg = make_config("lite", "sea", channels=(8, 12, 16, 24),
                          coarse_channels=16, fine_channels=16, fusion_channels=16)
        dec = FPNDecoder(np.random.default_rng(2), cfg)
        with T.no_grad():
            c, _ = dec.fuse(pyramid_for(cfg, 128, 128, fill=0.7))
        inner = c.data[:, :, 10:-10, 10:-10]
        spread = inner.max(axis=(2, 3)) - inner.min(axis=(2, 3))
        assert np.abs(spread).max() < 1e-12

    def test_channel_mismatch_rejected(self):
        cfg = make_config("lite", "sea")
        dec = FPNDecoder(np.random.default_rng(3), cfg)
        bad = pyramid_for(make_config("lite", "sea", channels=(8, 12, 16, 24)), 64, 64)
        with pytest.raises(T.ShapeError):
            dec.fuse(bad)


class TestEndToEndGradient:
    def test_encoder_decoder_fd_check(self):
        cfg = make_config("lite", "la", channels=(4, 4, 8, 8), coarse_channels=8,
                          fine_channels=8, fusion_channels=8)
        model = MatchModel(cfg, seed=4)
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(1, 1, 32, 32))
        wc = Tensor(rng.normal(size=(2, 8, 8, 8)))

        def loss_fn(pe_weight):
            model.encoder.stages[0].pe.proj.weight.data = pe_weight.data
            saved = model.encoder.stages[0].pe.proj.weight
            model.encoder.stages[0].pe.proj.weight = pe_weight
            pyr = model.encoder.encode_pair(Tensor(img), Tensor(img))
            coarse, _ = model.decoder.fuse(pyr)
            model.encoder.stages[0].pe.proj.weight = saved
            return T.reduce_sum(T.mul(coarse, wc))

        probe = Tensor(model.encoder.stages[0].pe.proj.weight.data.copy())
        rep = T.fd_check(loss_fn, probe, tol=1e-3, max_coords=10)
        assert rep.passed, rep.max_rel_err


class TestForwardPair:
    def test_swap_symmetry_of_all_four_outputs(self):
        cfg = make_config("lite", "sea", channels=(8, 12, 16, 24), coarse_channels=16,
                          fine_channels=16, fusion_channels=16)
        model = MatchModel(cfg, seed=6)
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        b = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        with T.no_grad():
            ca, fa, cb, fb = model.forward_pair(a, b)
            cb2, fb2, ca2, fa2 = model.forward_pair(b, a)
        for x, y in ((ca, ca2), (fa, fa2), (cb, cb2), (fb, fb2)):
            assert x.shape[0] == 1
            assert np.array_equal(x.data, y.data)

    def test_decoder_runs_once_per_pair(self, monkeypatch):
        cfg = make_config("lite", "la", channels=(8, 8, 8, 16), coarse_channels=8,
                          fine_channels=8, fusion_channels=8)
        model = MatchModel(cfg, seed=0)
        calls = []
        fuse = model.decoder.fuse
        monkeypatch.setattr(model.decoder, "fuse",
                            lambda pyr: calls.append(pyr) or fuse(pyr))
        img = Tensor(np.random.default_rng(8).uniform(size=(1, 1, 32, 32)))
        with T.no_grad():
            model.forward_pair(img, img)
        assert len(calls) == 1 and calls[0][0].shape[0] == 2
