"""Regenerate the committed reference outputs that ``test_reference.py`` checks.

The file, ``tests/data/reference_outputs.npz``, holds:

- the ``match_pair`` points and confidences on 20 eval-toy pairs: the stored
  toy weights, pair seeds 5000-5019 from ``data.make_pair`` with the
  ``TrainConfig`` warp bounds, default tau/theta/window and
  ``TrainConfig.fine_tau``;
- the same on 3 lite-SEA 128x128 identity pairs (``build_model("lite", "sea",
  seed=5)``, ``gen_pattern`` 100-102, theta 0);
- ``metrics.csv`` and the sha256 of it and of ``checkpoint.txt``, as written
  by ``matchformer train --seed 0|7 --steps 40``;
- the environment that made them: BLAS name and version, numpy version and
  CPU model.

Run from the repository root after a change that moves these outputs on
purpose, and say in the change which entries moved and why:

    PYTHONPATH=src python3 tests/make_reference.py
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from matchformer import cli, data, matcher, model, trainer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "tests", "data", "reference_outputs.npz")
TOY_WEIGHTS = os.path.join(ROOT, "benchmark", "data", "toy_la_seed0_2000.ckpt.gz")
TOY_PAIR_SEEDS = range(5000, 5020)
LITE_PATTERNS = range(100, 103)
TRAIN_SEEDS = (0, 7)
TRAIN_STEPS = 40


def environment() -> dict:
    """What decides the bits of a run besides the code: BLAS, numpy, CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"env_blas": f"{blas.get('name')} {blas.get('version')}",
            "env_numpy": np.__version__, "env_cpu": cpu}


def _stacked(point_sets: list) -> tuple:
    """All pairs' ``[M, 5]`` points in one array, and each pair's M."""
    return np.concatenate(point_sets), np.array([len(p) for p in point_sets])


def toy_points() -> tuple:
    cfg = trainer.TrainConfig()
    net = model.MatchModel(cfg.model_config(), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.ckpt")
        with gzip.open(TOY_WEIGHTS, "rb") as src, open(path, "wb") as dst:
            shutil.copyfileobj(src, dst)
        net.load(path)
    points = []
    for seed in TOY_PAIR_SEEDS:
        pair = data.make_pair(seed, *cfg.image_size, max_rot=cfg.max_rot,
                              max_persp=cfg.max_persp, max_trans=cfg.max_trans,
                              max_scale=cfg.max_scale)
        points.append(matcher.match_pair(pair.image_a, pair.image_b, net,
                                         fine_tau=cfg.fine_tau).points)
    return _stacked(points)


def lite_points() -> tuple:
    net = model.build_model("lite", "sea", seed=5)
    points = []
    for seed in LITE_PATTERNS:
        img = data.gen_pattern(seed, 128, 128)
        points.append(matcher.match_pair(img, img, net, theta=0.0).points)
    return _stacked(points)


def train_outputs(seed: int) -> dict:
    """``metrics.csv`` and the sha256 of both files of a short CLI train."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--seed", str(seed), "--steps", str(TRAIN_STEPS),
                             "--out", out])
        if code != 0:
            raise RuntimeError(f"train --seed {seed} exited {code}")
        metrics = Path(out, "metrics.csv").read_bytes()
        checkpoint = Path(out, "checkpoint.txt").read_bytes()
    return {f"train{seed}_metrics": metrics.decode(),
            f"train{seed}_metrics_sha256": hashlib.sha256(metrics).hexdigest(),
            f"train{seed}_checkpoint_sha256": hashlib.sha256(checkpoint).hexdigest()}


def compute() -> dict:
    """Every reference entry, keyed as in the committed file."""
    toy, toy_counts = toy_points()
    lite, lite_counts = lite_points()
    out = {"toy_points": toy, "toy_counts": toy_counts,
           "lite_points": lite, "lite_counts": lite_counts}
    for seed in TRAIN_SEEDS:
        out.update(train_outputs(seed))
    return out


def main() -> int:
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    entries = {**compute(), **environment()}
    np.savez_compressed(REFERENCE, **{k: np.asarray(v) for k, v in entries.items()})
    print(f"wrote {REFERENCE}: {len(entries['toy_points'])} toy and "
          f"{len(entries['lite_points'])} lite-SEA points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
