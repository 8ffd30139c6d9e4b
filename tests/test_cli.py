"""CLI: subcommands, exit codes, artifact files."""

import numpy as np
import pytest

from matchformer import data as D
from matchformer import matcher as M
from matchformer import tensor as T
from matchformer.blocks import ATTENTION_KINDS, CHECKPOINT_MAGIC
from matchformer.cli import build_parser, main
from matchformer.encoder import VARIANTS, make_config, parse_config_text
from matchformer.model import MatchModel
from matchformer.trainer import TrainConfig, config_from_dict

TOY_CONFIG = """\
variant: lite
attention: la
channels: 8 8 8 16
coarse_channels: 8
fine_channels: 8
fusion_channels: 8
steps: 2
"""
TOY_FIELDS = dict(channels=(8, 8, 8, 16), coarse_channels=8, fine_channels=8,
                  fusion_channels=8)


@pytest.fixture
def spy_match_pair(monkeypatch):
    """Replaces matcher.match_pair; returns the list of (model, kwargs) calls."""
    calls = []

    def spy(img_a, img_b, model, **kw):
        calls.append((model, kw))
        return M.MatchSet(points=np.zeros((0, 5)))
    monkeypatch.setattr(M, "match_pair", spy)
    return calls


@pytest.fixture
def pgm_pair(tmp_path):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    img = D.gen_pattern(0, 64, 64)
    D.write_pgm(a, img)
    D.write_pgm(b, img)
    return str(a), str(b)


class TestShapes:
    def test_lite_640x480(self, capsys):
        assert main(["shapes", "--variant", "lite", "--height", "480",
                     "--width", "640"]) == 0
        out = capsys.readouterr().out
        assert "120x160" in out and "coarse" in out and "192" in out

    def test_large_640x480(self, capsys):
        assert main(["shapes", "--variant", "large", "--height", "480",
                     "--width", "640"]) == 0
        out = capsys.readouterr().out
        assert "240x320" in out and "256" in out

    def test_indivisible_extent_is_usage_error(self):
        assert main(["shapes", "--variant", "lite", "--height", "100",
                     "--width", "640"]) == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["shapes", "--variant", "lite", "--height", "64",
                  "--width", "64", "--bogus"])
        assert exc.value.code == 2


class TestModelChoices:
    """``--variant``/``--attention`` accept what the model modules define."""

    ARGV = {"shapes": ["shapes", "--height", "64", "--width", "64"],
            "match": ["match", "a.pgm", "b.pgm", "--out", "o"],
            "train": ["train", "--out", "o"],
            "eval": ["eval", "--manifest", "m.tsv", "--out", "o"]}

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_choices_come_from_the_model_modules(self, command):
        argv = self.ARGV[command] + (["--variant", "lite"] if command == "shapes" else [])
        parser = build_parser()
        for variant in VARIANTS:
            assert parser.parse_args(argv + ["--variant", variant]).variant == variant
        for kind in ATTENTION_KINDS:
            assert parser.parse_args(argv + ["--attention", kind]).attention == kind

    @pytest.mark.parametrize("command", sorted(ARGV) + ["bench"])
    @pytest.mark.parametrize("flag,value", [("--variant", "huge"), ("--attention", "lsh")])
    def test_unknown_value_is_usage_error(self, command, flag, value):
        argv = self.ARGV.get(command, ["bench"]) + ["--variant", "lite"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2

    def test_bench_keeps_la_and_sea(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--variant", "lite", "--attention", "full"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["shapes", "bench"])
    def test_unset_attention_is_make_configs_default(self, command, tmp_path, capsys):
        # the parser holds no default; the run reports and records make_config's
        default = make_config("lite").stages[0].attention
        argv = [command, "--variant", "lite", "--height", "64", "--width", "64"]
        assert build_parser().parse_args(argv).attention is None
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith(f"lite-{default} @ 64x64")
        assert f"attention: {default}\n" in (tmp_path / "manifest.txt").read_text()


class TestMatch:
    def test_writes_tsv_and_overlay_and_manifest(self, pgm_pair, tmp_path, capsys):
        a, b = pgm_pair
        out = tmp_path / "out"
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        code = main(["match", a, b, "--out", str(out), "--config", str(cfgfile),
                     "--seed", "0", "--theta", "0.0"])
        assert code == 0
        matches = M.load_matches(out / "matches.tsv")
        assert len(matches) > 0
        assert (out / "overlay.ppm").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "command: match" in manifest and "theta: 0.0" in manifest

    def test_truncated_checkpoint_is_io_error(self, pgm_pair, tmp_path, capsys):
        a, b = pgm_pair
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        ckpt = tmp_path / "ckpt.txt"
        cfg = TrainConfig(**TOY_FIELDS)
        MatchModel(cfg.model_config(), seed=0).save(ckpt)
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:-1]) + "\n")
        manifest = tmp_path / "pairs.tsv"
        D.save_manifest(manifest, [(0, np.eye(3))])
        for argv in (["match", a, b, "--out", str(tmp_path / "o")],
                     ["eval", "--manifest", str(manifest), "--out", str(tmp_path / "e")]):
            code = main(argv + ["--config", str(cfgfile), "--checkpoint", str(ckpt)])
            assert code == 3
            assert "truncated" in capsys.readouterr().err

    def test_duplicate_tensor_name_is_io_error(self, pgm_pair, tmp_path, capsys):
        a, b = pgm_pair
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        ckpt = tmp_path / "ckpt.txt"
        MatchModel(TrainConfig(**TOY_FIELDS).model_config(), seed=0).save(ckpt)
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines + lines[1:4]) + "\n")  # the first tensor again
        code = main(["match", a, b, "--out", str(tmp_path / "o"), "--config", str(cfgfile),
                     "--checkpoint", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"tensor {lines[1]!r} appears twice" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["nan", "1e999"])
    def test_non_finite_checkpoint_value_is_io_error(self, pgm_pair, tmp_path, capsys,
                                                     spy_match_pair, token):
        a, b = pgm_pair
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        ckpt = tmp_path / "ckpt.txt"
        MatchModel(TrainConfig(**TOY_FIELDS).model_config(), seed=0).save(ckpt)
        lines = ckpt.read_text().splitlines()
        body = lines[3].split()
        lines[3] = " ".join([token] + body[1:])
        ckpt.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = main(["match", a, b, "--out", str(out), "--config", str(cfgfile),
                     "--checkpoint", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{ckpt}: tensor {lines[1]!r} holds non-finite values" in err
        assert spy_match_pair == [] and not out.exists()

    def test_even_window_is_usage_error_before_the_model_runs(self, pgm_pair, tmp_path,
                                                               monkeypatch, capsys):
        a, b = pgm_pair
        monkeypatch.setattr(M, "match_pair", lambda *args, **kw: pytest.fail("model ran"))
        manifest = tmp_path / "pairs.tsv"
        D.save_manifest(manifest, [(0, np.eye(3))])
        for argv in (["match", a, b, "--out", str(tmp_path / "o")],
                     ["eval", "--manifest", str(manifest), "--out", str(tmp_path / "e")]):
            for window in ("4", "0", "abc"):
                with pytest.raises(SystemExit) as exc:
                    main(argv + ["--window", window])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert "odd window size" in err and "_window" not in err

    def test_bad_ransac_flags_are_usage_errors_before_the_model_runs(self, tmp_path,
                                                                      monkeypatch, capsys):
        monkeypatch.setattr(M, "match_pair", lambda *args, **kw: pytest.fail("model ran"))
        manifest = tmp_path / "pairs.tsv"
        D.save_manifest(manifest, [(0, np.eye(3))])
        argv = ["eval", "--manifest", str(manifest), "--out", str(tmp_path / "e")]
        for flags in (["--ransac-iters", "0"], ["--ransac-iters", "-3"],
                      ["--ransac-iters", "abc"],
                      ["--ransac-thresh", "0"], ["--ransac-thresh", "-1"],
                      ["--ransac-thresh", "nan"], ["--ransac-thresh", "inf"],
                      ["--ransac-thresh", "abc"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + flags)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "expected" in err and "_ransac" not in err

    def test_out_of_range_matching_values_are_usage_errors_before_the_model_runs(
            self, pgm_pair, tmp_path, monkeypatch):
        a, b = pgm_pair
        monkeypatch.setattr(M, "match_pair", lambda *args, **kw: pytest.fail("model ran"))
        monkeypatch.setattr("matchformer.cli.MatchModel",
                            lambda *args, **kw: pytest.fail("model built"))
        cfgfile = tmp_path / "toy.cfg"
        manifest = tmp_path / "pairs.tsv"
        D.save_manifest(manifest, [(0, np.eye(3))])
        for argv in (["match", a, b, "--out", str(tmp_path / "o")],
                     ["eval", "--manifest", str(manifest), "--out", str(tmp_path / "e")]):
            for flags in (["--theta", "1.5"], ["--theta", "-0.1"], ["--tau", "0"],
                          ["--tau", "nan"]):
                assert main(argv + flags) == 2
            for extra in ("theta: 1.5\n", "tau: -1\n", "fine_tau: 0\n",
                          "fine_tau: inf\n"):
                cfgfile.write_text(TOY_CONFIG + extra)
                assert main(argv + ["--config", str(cfgfile)]) == 2
        assert not (tmp_path / "o").exists() and not (tmp_path / "e").exists()

    def test_config_file_values_reach_the_matcher_and_manifest(self, pgm_pair, tmp_path,
                                                               spy_match_pair):
        a, b = pgm_pair
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG + "theta: 0.9\nwindow: 7\nfine_tau: 0.5\nseed: 4\n")
        manifest = tmp_path / "pairs.tsv"
        D.save_manifest(manifest, [(0, np.eye(3))])
        expected = MatchModel(TrainConfig(**TOY_FIELDS).model_config(), seed=4)
        for argv, out in ((["match", a, b], tmp_path / "o"),
                          (["eval", "--manifest", str(manifest)], tmp_path / "e")):
            assert main(argv + ["--out", str(out), "--config", str(cfgfile)]) == 0
            model, kw = spy_match_pair.pop()
            assert kw == {"tau": 0.1, "theta": 0.9, "window": 7, "fine_tau": 0.5}
            for (_, p), (_, q) in zip(model.named_parameters(),
                                      expected.named_parameters()):
                assert np.array_equal(p.data, q.data)
            manifest_text = (out / "manifest.txt").read_text()
            for line in ("theta: 0.9", "window: 7", "fine_tau: 0.5", "seed: 4",
                         "channels: 8 8 8 16", "fine_channels: 8"):
                assert line in manifest_text.splitlines()

    def test_flags_beat_config_file_values(self, pgm_pair, tmp_path, spy_match_pair):
        a, b = pgm_pair
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG + "theta: 0.9\nwindow: 7\ntau: 0.2\nseed: 4\n")
        manifest = tmp_path / "pairs.tsv"
        D.save_manifest(manifest, [(0, np.eye(3))])
        for argv, out in ((["match", a, b], tmp_path / "o"),
                          (["eval", "--manifest", str(manifest)], tmp_path / "e")):
            assert main(argv + ["--out", str(out), "--config", str(cfgfile),
                                "--theta", "0.3", "--window", "3", "--tau", "0.05",
                                "--seed", "5"]) == 0
            _, kw = spy_match_pair.pop()
            assert kw == {"tau": 0.05, "theta": 0.3, "window": 3, "fine_tau": 0.025}
            lines = (out / "manifest.txt").read_text().splitlines()
            assert "seed: 5" in lines and "theta: 0.3" in lines

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["match", str(tmp_path / "nope.pgm"), str(tmp_path / "nope2.pgm"),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "nope.pgm" in capsys.readouterr().err

    def test_empty_match_set_is_success_with_warning(self, tmp_path, capsys):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        D.write_pgm(a, np.full((64, 64), 0.5))
        D.write_pgm(b, np.full((64, 64), 0.5))
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        out = tmp_path / "out"
        code = main(["match", str(a), str(b), "--out", str(out),
                     "--config", str(cfgfile), "--theta", "0.99"])
        assert code == 0
        assert len(M.load_matches(out / "matches.tsv")) == 0
        assert "warning" in capsys.readouterr().out

    def test_empty_image_is_usage_error_naming_the_extents(self, tmp_path, capsys):
        path = tmp_path / "empty.pgm"
        D.write_pgm(path, np.zeros((0, 0)))
        code = main(["match", str(path), str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "input extents (0, 0)" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, pgm_pair, tmp_path, capsys,
                                          spy_match_pair):
        with pytest.raises(SystemExit) as exc:
            main(["match", *pgm_pair, "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert exc.value.code == 2
        assert "expected a seed >= 0, got '-1'" in capsys.readouterr().err
        assert spy_match_pair == [] and not (tmp_path / "o").exists()

    def test_non_finite_coarse_descriptors_exit_numeric(self, pgm_pair, tmp_path,
                                                        monkeypatch, capsys):
        forward = MatchModel.forward_pair

        def poisoned(self, a, b):
            ca, fa, cb, fb = forward(self, a, b)
            ca.data[0, 0, 0, 0] = np.nan
            return ca, fa, cb, fb
        monkeypatch.setattr(MatchModel, "forward_pair", poisoned)
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        code = main(["match", *pgm_pair, "--out", str(tmp_path / "o"),
                     "--config", str(cfgfile)])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err


class TestTrain:
    def test_zero_steps_checkpoint_equals_init(self, tmp_path, capsys):
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        out = tmp_path / "run"
        code = main(["train", "--out", str(out), "--config", str(cfgfile),
                     "--steps", "0", "--seed", "0"])
        assert code == 0
        cfg = TrainConfig(steps=0, seed=0, **TOY_FIELDS)
        fresh = MatchModel(cfg.model_config(), seed=0)
        trained = MatchModel(cfg.model_config(), seed=1)
        trained.load(out / "checkpoint.txt")
        for (_, a), (_, b) in zip(fresh.named_parameters(),
                                  trained.named_parameters()):
            assert np.array_equal(a.data, b.data)
        assert (out / "metrics.csv").exists()
        assert (out / "manifest.txt").exists()

    def test_batch_size_key_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # so are the trainer constants' former keys, an even fine window,
        # out-of-range matching values and an image_size that is not two
        # positive multiples of 32; each error names its key
        monkeypatch.setattr("matchformer.cli.train_toy",
                            lambda *a, **kw: pytest.fail("training ran"))
        cfgfile = tmp_path / "toy.cfg"
        for extra in ("batch_size: 1\n", "lambda_coarse: 1\n", "lambda_fine: 1\n",
                      "beta1: 1\n", "beta2: 1\n", "eps: 1\n", "max_fine_matches: 1\n",
                      "window: 4\n", "theta: 1.5\n",
                      "theta: -0.1\n", "tau: 0\n", "tau: nan\n", "fine_tau: 0\n",
                      "image_size: 48 64\n", "image_size: 64 64 64\n"):
            cfgfile.write_text(TOY_CONFIG + extra)
            assert main(["train", "--out", str(tmp_path / "run"), "--config",
                         str(cfgfile)]) == 2
            assert extra.split(":")[0] in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_seed_or_steps_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # by flag or in the config file (steps 0 is valid, see
        # test_zero_steps_checkpoint_equals_init)
        monkeypatch.setattr("matchformer.cli.train_toy",
                            lambda *a, **kw: pytest.fail("training ran"))
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        argv = ["train", "--out", str(tmp_path / "run"), "--config", str(cfgfile)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "expected a seed >= 0, got '-1'" in capsys.readouterr().err
        assert main(argv + ["--steps", "-3"]) == 2
        assert "steps must be >= 0, got -3" in capsys.readouterr().err
        for text in (TOY_CONFIG + "seed: -1\n", TOY_CONFIG.replace("steps: 2", "steps: -3")):
            cfgfile.write_text(text)
            assert main(argv) == 2
        assert not (tmp_path / "run").exists()

    def test_progress_below_one_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("matchformer.cli.train_toy",
                            lambda *a, **kw: pytest.fail("training ran"))
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(["train", "--out", str(tmp_path / "run"), "--progress", value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--progress" in err and f"got '{value}'" in err
        assert not (tmp_path / "run").exists()

    def test_out_of_domain_value_names_its_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("matchformer.cli.train_toy",
                            lambda *a, **kw: pytest.fail("training ran"))
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG + "max_rot: nan\n")
        assert main(["train", "--out", str(tmp_path / "run"), "--config",
                     str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "max_rot must be in [0, pi], got nan" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_matching_flags_are_usage_errors(self, tmp_path, monkeypatch):
        # train reads tau, theta and window from its config file only; the
        # flags would otherwise be accepted and silently ignored
        monkeypatch.setattr("matchformer.cli.train_toy",
                            lambda *a, **kw: pytest.fail("training ran"))
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        for flag, value in (("--window", "7"), ("--tau", "0.3"), ("--theta", "0.5")):
            with pytest.raises(SystemExit) as exc:
                main(["train", "--out", str(tmp_path / "run"), "--config", str(cfgfile),
                      "--steps", "0", flag, value])
            assert exc.value.code == 2
        assert not (tmp_path / "run").exists()

    def test_trained_checkpoint_serves_match_and_eval_without_config(self, pgm_pair,
                                                                     tmp_path):
        # without --config all three commands build TrainConfig's default model
        a, b = pgm_pair
        run = tmp_path / "run"
        assert main(["train", "--out", str(run), "--steps", "1"]) == 0
        ckpt = str(run / "checkpoint.txt")
        manifest = tmp_path / "pairs.tsv"
        D.save_manifest(manifest, [(0, np.eye(3))])
        assert main(["match", a, b, "--checkpoint", ckpt,
                     "--out", str(tmp_path / "m")]) == 0
        assert main(["eval", "--manifest", str(manifest), "--checkpoint", ckpt,
                     "--out", str(tmp_path / "e"), "--ransac-iters", "50"]) == 0

    def test_manifest_config_keys_feed_back_through_config(self, tmp_path):
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG + "image_size: 96 64\nschedule: SSC SSC SCC SCC\n")
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), "--config", str(cfgfile),
                     "--steps", "0", "--seed", "3"]) == 0
        raw = parse_config_text((out / "manifest.txt").read_text())
        echoed = config_from_dict({k: v for k, v in raw.items()
                                   if k in TrainConfig.__annotations__})
        assert echoed == TrainConfig(steps=0, seed=3, image_size=(96, 64),
                                     schedule="SSC SSC SCC SCC", **TOY_FIELDS)
        assert raw["channels"] == "8 8 8 16" and raw["image_size"] == "96 64"

    def test_short_training_runs(self, tmp_path):
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), "--config", str(cfgfile),
                     "--seed", "0"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,loss_coarse,loss_fine,precision"
        assert len(lines) == 3  # header + 2 steps

    def test_diverging_step_exits_numeric_and_writes_no_run_files(self, tmp_path,
                                                                 capsys):
        # step 0's Adam update at this rate overflows step 1's forward
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG + "lr: 1e300\n")
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), "--config", str(cfgfile)]) == 4
        assert capsys.readouterr().err.startswith("numerical failure: step 1: ")
        assert not out.exists()  # so no metrics.csv or checkpoint.txt either

    @pytest.mark.parametrize("text", ["variant lite\n", "steps: 1\nsteps: 2\n"])
    def test_malformed_config_file_is_io_error_naming_it(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(text)
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), "--config", str(cfgfile)]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read config {cfgfile}: ")
        assert not out.exists()


class TestEval:
    def test_exact_matches_give_unit_accuracy(self, tmp_path, capsys):
        h_gt = D.random_homography(5, size=(64, 64))
        rng = np.random.default_rng(5)
        pts_a = rng.uniform(2, 62, size=(40, 2))
        pts = np.concatenate([pts_a, D.hom_apply(h_gt, pts_a)], axis=1)
        matches = M.MatchSet(points=np.concatenate([pts, np.ones((40, 1))], axis=1))
        mfile = tmp_path / "m.tsv"
        M.save_matches(mfile, matches)
        manifest = tmp_path / "manifest.tsv"
        D.save_manifest(manifest, [(5, h_gt)])
        out = tmp_path / "out"
        code = main(["eval", "--manifest", str(manifest), "--matches", str(mfile),
                     "--out", str(out)])
        assert code == 0
        report = (out / "report.csv").read_text()
        assert "accuracy@1px,1.0" in report
        assert "accuracy@3px,1.0" in report and "accuracy@5px,1.0" in report
        assert "mma@3px,1.0" in report

    def test_matches_file_requires_single_entry_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        D.save_manifest(manifest, [(1, np.eye(3)), (2, np.eye(3))])
        mfile = tmp_path / "m.tsv"
        M.save_matches(mfile, M.MatchSet(points=np.zeros((0, 5))))
        code = main(["eval", "--manifest", str(manifest), "--matches", str(mfile),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_image_size_sets_the_generated_pairs(self, tmp_path, monkeypatch,
                                                 spy_match_pair):
        # from the config file, and from --height/--width over the file
        sizes = []
        real = D.gen_pattern

        def spy(seed, h, w):
            sizes.append((h, w))
            return real(seed, h, w)
        monkeypatch.setattr(D, "gen_pattern", spy)
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG + "image_size: 96 64\n")
        manifest = tmp_path / "pairs.tsv"
        D.save_manifest(manifest, [(0, np.eye(3))])
        argv = ["eval", "--manifest", str(manifest), "--config", str(cfgfile),
                "--ransac-iters", "10"]
        for flags, size in (([], (96, 64)), (["--height", "32"], (32, 64)),
                            (["--height", "32", "--width", "96"], (32, 96))):
            out = tmp_path / f"e{len(flags)}"
            assert main(argv + flags + ["--out", str(out)]) == 0
            assert sizes.pop() == size
            raw = parse_config_text((out / "manifest.txt").read_text())
            assert raw["image_size"] == f"{size[0]} {size[1]}"
            assert "height" not in raw and "width" not in raw
        assert main(argv + ["--height", "48", "--out", str(tmp_path / "bad")]) == 2

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert main(["eval", "--manifest", str(tmp_path / "none.tsv"),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("line", ["x\t1 0 0 0 1 0 0 0 1", "5\t1 0 0 0 1 0 0 0 inf",
                                      "-1\t1 0 0 0 1 0 0 0 1", "5\t0 0 0 0 0 0 0 0 0"])
    def test_bad_manifest_line_is_io_error(self, tmp_path, capsys, line,
                                           spy_match_pair):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(line + "\n")
        assert main(["eval", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
        assert f"{manifest}: line 1: " in capsys.readouterr().err
        assert spy_match_pair == []

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_manifest_without_samples_is_io_error_before_any_output(
            self, tmp_path, capsys, text, spy_match_pair):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(text)
        out = tmp_path / "o"
        assert main(["eval", "--manifest", str(manifest), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{manifest}: no sample lines" in err and "Traceback" not in err
        assert not (out / "report.csv").exists() and spy_match_pair == []

    @pytest.mark.parametrize("row", ["1\t2\t3\t4", "1\t2\t3\t4\t0.5\t6",
                                     "1\t2\t3\t4\tnan"])
    def test_malformed_matches_file_is_io_error(self, tmp_path, capsys, row):
        manifest = tmp_path / "pairs.tsv"
        D.save_manifest(manifest, [(5, np.eye(3))])
        mfile = tmp_path / "m.tsv"
        mfile.write_text(M.MATCH_FILE_MAGIC + "\n" + (row + "\n") * 5)
        code = main(["eval", "--manifest", str(manifest), "--matches", str(mfile),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"{mfile}: line 2: " in capsys.readouterr().err


class TestNonUtf8Input:
    HEADS = {"config": TOY_CONFIG, "manifest": "", "matches": M.MATCH_FILE_MAGIC + "\n",
             "checkpoint": CHECKPOINT_MAGIC + "\n"}

    @pytest.mark.parametrize("kind", HEADS)
    def test_is_io_error_naming_the_file(self, pgm_pair, tmp_path, capsys, kind):
        cfgfile, manifest = tmp_path / "toy.cfg", tmp_path / "pairs.tsv"
        cfgfile.write_text(TOY_CONFIG)
        D.save_manifest(manifest, [(0, np.eye(3))])
        bad = tmp_path / "bad.txt"
        bad.write_bytes(self.HEADS[kind].encode() + b"\xff\n")
        argv = {"config": ["train", "--config", str(bad)],
                "manifest": ["eval", "--manifest", str(bad)],
                "matches": ["eval", "--manifest", str(manifest), "--matches", str(bad)],
                "checkpoint": ["match", *pgm_pair, "--config", str(cfgfile),
                               "--checkpoint", str(bad)]}[kind]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "can't decode byte 0xff" in err
        assert "Traceback" not in err and not out.exists()


class TestBench:
    def test_reports_table_convention_gflops(self, capsys):
        assert main(["bench", "--variant", "lite", "--attention", "sea"]) == 0
        out = capsys.readouterr().out
        assert "table convention" in out and "GFLOPs" in out

    def test_include_matcher_adds_category(self, capsys):
        assert main(["bench", "--variant", "lite", "--attention", "sea",
                     "--include-matcher"]) == 0
        assert "matcher" in capsys.readouterr().out


class TestDeterminism:
    def test_match_reruns_are_byte_identical_except_manifest(self, pgm_pair, tmp_path):
        a, b = pgm_pair
        cfgfile = tmp_path / "toy.cfg"
        cfgfile.write_text(TOY_CONFIG)
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["match", a, b, "--out", str(out), "--config",
                         str(cfgfile), "--seed", "7", "--theta", "0.0"]) == 0
            outputs.append(out)
        assert (outputs[0] / "matches.tsv").read_bytes() \
            == (outputs[1] / "matches.tsv").read_bytes()
        assert (outputs[0] / "overlay.ppm").read_bytes() \
            == (outputs[1] / "overlay.ppm").read_bytes()
        strip = [l for l in (outputs[0] / "manifest.txt").read_text().splitlines()
                 if not l.startswith("timestamp")]
        strip2 = [l for l in (outputs[1] / "manifest.txt").read_text().splitlines()
                  if not l.startswith("timestamp")]
        assert strip == strip2


class TestSelftest:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 8

    @pytest.mark.parametrize("op", sorted(T._OPS))
    def test_injected_fault_exits_nonzero(self, op, capsys):
        # the negative control: a corrupted gradient rule of any op turns a
        # gradient group red
        assert main(["selftest", "--inject-fault", op]) == 4
        assert "[FAIL]" in capsys.readouterr().out

    def test_negative_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("matchformer.selftest.run_all",
                            lambda *a, **kw: pytest.fail("the suite ran"))
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a seed >= 0, got '-1'" in err and "[FAIL]" not in err

    def test_unknown_fault_name_exits_two(self, capsys):
        assert main(["selftest", "--inject-fault", "nosuchop"]) == 2
        assert "valid ops: add, " in capsys.readouterr().err
