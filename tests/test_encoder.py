"""Encoder: schedules, shape conformance, stream symmetry, config grammar."""

from dataclasses import MISSING, fields

import numpy as np
import pytest

from matchformer import selftest as S
from matchformer import tensor as T
from matchformer.blocks import PosPatchEmbed
from matchformer.encoder import (NAMED_SCHEDULES, ModelConfig, StageConfig, make_config,
                                 output_plan, parse_config_text, schedule_from_strings,
                                 stage_plan)
from matchformer.model import MatchModel, build_model
from matchformer.tensor import Tensor
from matchformer.trainer import config_from_dict

TOY = dict(channels=(8, 12, 16, 24), coarse_channels=16, fine_channels=16,
           fusion_channels=16)


def toy_model(variant="lite", attention="sea", seed=0, **kw):
    return MatchModel(make_config(variant, attention, **{**TOY, **kw}), seed=seed)


def model_config_from_text(text):
    """The config-file path of the CLI."""
    return config_from_dict(parse_config_text(text)).model_config()


class TestSchedules:
    def test_default_is_ssc_ssc_scc_scc(self):
        flags = tuple(st.cross_flags for st in make_config().stages)
        assert flags == ((False, False, True), (False, False, True),
                         (False, True, True), (False, True, True))

    def test_self_only_schedule(self):
        flags = schedule_from_strings(NAMED_SCHEDULES["self_only"])
        assert all(not f for row in flags for f in row)

    def test_cross_only_schedule(self):
        flags = schedule_from_strings(NAMED_SCHEDULES["cross_only"])
        assert all(f for row in flags for f in row)

    def test_sequential_schedule(self):
        flags = schedule_from_strings(NAMED_SCHEDULES["sequential"])
        assert flags == ((False,) * 3, (False,) * 3, (True,) * 3, (True,) * 3)

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_strings(("SSX", "SSC", "SCC", "SCC"))


TABLE1_64 = {
    ("lite", "plan"): [(128, 16, 16), (192, 8, 8), (256, 4, 4), (512, 2, 2)],
    ("large", "plan"): [(128, 32, 32), (192, 16, 16), (256, 8, 8), (512, 4, 4)],
    ("lite", "out"): ((128, 16, 16), (192, 8, 8)),
    ("large", "out"): ((128, 32, 32), (256, 8, 8)),
}


class TestShapePlans:
    @pytest.mark.parametrize("variant", ["lite", "large"])
    @pytest.mark.parametrize("attention", ["la", "sea"])
    def test_symbolic_plan_64(self, variant, attention):
        cfg = make_config(variant, attention)
        assert stage_plan(cfg, 64, 64) == TABLE1_64[(variant, "plan")]
        assert output_plan(cfg, 64, 64) == TABLE1_64[(variant, "out")]

    @pytest.mark.parametrize("variant,coarse,fine", [
        ("lite", (128, 120, 160), (192, 60, 80)),
        ("large", (128, 240, 320), (256, 60, 80)),
    ])
    def test_symbolic_plan_640x480(self, variant, coarse, fine):
        cfg = make_config(variant, "sea")
        assert output_plan(cfg, 480, 640) == (coarse, fine)

    def test_sea_table1_heads_and_reductions(self):
        cfg = make_config("lite", "sea")
        assert [s.heads for s in cfg.stages] == [1, 2, 4, 8]
        assert [s.reduction for s in cfg.stages] == [4, 2, 2, 1]

    def test_la_heads(self):
        cfg = make_config("large", "la")
        assert [s.heads for s in cfg.stages] == [8] * 4
        assert [s.reduction for s in cfg.stages] == [1] * 4  # flops_count reads it as is

    def test_pe_parameters(self):
        lite = make_config("lite", "sea")
        large = make_config("large", "sea")

        def kernel_stride_padding(st):
            pe = PosPatchEmbed(np.random.default_rng(0), 1, 2, st.pe_kernel, st.pe_stride)
            return st.pe_kernel, st.pe_stride, pe.proj.padding

        assert kernel_stride_padding(lite.stages[0]) == (7, 4, 3)
        assert (large.stages[0].pe_kernel, large.stages[0].pe_stride) == (7, 2)
        for st in lite.stages[1:]:
            assert kernel_stride_padding(st) == (3, 2, 1)

    def test_indivisible_input_rejected(self):
        with pytest.raises(T.ShapeError):
            stage_plan(make_config(), 100, 640)


class TestModelConfig:
    """``make_config`` is the one owner of the model description: the config
    classes repeat none of its defaults and hold no field nothing reads."""

    def test_fields_have_no_defaults(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "patch_embed", "stages", "coarse_channels", "fine_channels", "fusion_channels"]
        assert [f.name for f in fields(StageConfig)] == [
            "channels", "pe_kernel", "pe_stride", "cross_flags", "attention", "heads",
            "reduction"]
        for cls in (ModelConfig, StageConfig):
            assert all(f.default is MISSING and f.default_factory is MISSING
                       for f in fields(cls)), cls

    def test_widths_are_required(self):
        # only make_config knows the variant, so only it may pick the widths
        with pytest.raises(TypeError):
            ModelConfig("pos", make_config("large").stages)
        assert make_config("large").fine_channels == 256

    def test_build_model_takes_every_default_from_make_config(self):
        small = dict(channels=(8, 8, 8, 16), coarse_channels=8, fine_channels=8,
                     fusion_channels=8)
        assert build_model(**small).cfg == make_config(**small)
        assert build_model("large", "la", seed=1, **small).cfg == make_config("large", "la", **small)


class TestEncodePair:
    @pytest.mark.parametrize("attention", ["la", "sea"])
    def test_real_forward_shapes_track_symbolic_plan(self, attention):
        # toy channels, but spatial extents must match the symbolic plan
        model = toy_model("lite", attention)
        plan = stage_plan(model.cfg, 64, 64)
        a = Tensor(np.random.default_rng(0).uniform(size=(1, 1, 64, 64)))
        with T.no_grad():
            pyr = model.encoder.encode_pair(a, a)
        for level, (c, h, w) in zip(pyr, plan):
            assert level.shape == (2, c, h, w)

    def test_swap_symmetry_exact(self):
        model = toy_model()
        rng = np.random.default_rng(1)
        a = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        b = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        with T.no_grad():
            p_ab = model.encoder.encode_pair(a, b)
            p_ba = model.encoder.encode_pair(b, a)
        assert S.swap_symmetric(p_ab, p_ba)

    def test_no_cross_factorization_to_last_bit(self):
        cfg = make_config("lite", "sea", schedule="SSS SSS SSS SSS", **TOY)
        model = MatchModel(cfg, seed=3)
        rng = np.random.default_rng(2)
        a = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        b = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        with T.no_grad():
            p = model.encoder.encode_pair(a, b)
            p2 = model.encoder.encode_pair(a, Tensor(1.0 - b.data))
        assert S.stream_a_unchanged(p, p2)

    def test_cross_sensitivity_under_default_schedule(self):
        model = toy_model()
        rng = np.random.default_rng(4)
        a = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        b = rng.uniform(size=(1, 1, 64, 64))
        b2 = b.copy()
        b2[0, 0, 20, 20] += 0.25
        with T.no_grad():
            p = model.encoder.encode_pair(a, Tensor(b))
            p2 = model.encoder.encode_pair(a, Tensor(b2))
        assert S.stream_a_change(p, p2) > 0

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        img = Tensor(rng.uniform(size=(1, 1, 64, 64)))
        outs = []
        for _ in range(2):
            model = toy_model(seed=7)
            with T.no_grad():
                pyr = model.encoder.encode_pair(img, img)
            outs.append(np.concatenate([m.data.reshape(-1) for m in pyr]))
        assert np.array_equal(outs[0], outs[1])

    def test_mismatched_pair_rejected(self):
        model = toy_model()
        with pytest.raises(T.ShapeError):
            model.encoder.encode_pair(Tensor(np.zeros((1, 1, 64, 64))),
                                      Tensor(np.zeros((1, 1, 32, 32))))

    def test_std_pe_variant_runs(self):
        model = toy_model(patch_embed="std")
        a = Tensor(np.random.default_rng(8).uniform(size=(1, 1, 64, 64)))
        with T.no_grad():
            pyr = model.encoder.encode_pair(a, a)
        assert pyr[3].shape == (2, 24, 2, 2)


class TestConfigGrammar:
    def test_order_insensitive(self):
        text_a = "variant: large\nattention: la\n"
        text_b = "attention: la\nvariant: large\n"
        cfg_a = model_config_from_text(text_a)
        cfg_b = model_config_from_text(text_b)
        assert cfg_a == cfg_b

    def test_comments_and_blank_lines(self):
        raw = parse_config_text("# model\nvariant: lite\n\nattention: sea # inline\n")
        assert raw == {"variant": "lite", "attention": "sea"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("variant: lite\nvariant: large\n")

    def test_missing_colon_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("variant lite\n")

    def test_named_and_literal_schedules(self):
        cfg1 = model_config_from_text("cross_flags: sequential")
        cfg2 = model_config_from_text("cross_flags: SSS SSS CCC CCC")
        assert [s.cross_flags for s in cfg1.stages] == [s.cross_flags for s in cfg2.stages]

    def test_channel_override_scales_heads(self):
        cfg = model_config_from_text("channels: 8 12 16 24\nattention: la")
        for st in cfg.stages:
            assert st.channels % st.heads == 0
