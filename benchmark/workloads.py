"""The three workloads of the benchmark.

A workload has a ``setup`` (everything before the timed loop; run several
times and timed), a ``round`` (one operation of the closed loop: the next
starts only after the previous returns) and a ``finish`` (checks that need
extra model calls, run after the loop).  Every call into the package goes
through a module attribute (``trainer.train_toy``, not a name imported from
it), so the tracer's wrappers see it.
"""

from __future__ import annotations

import gzip
import io
import os
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from matchformer import data, evalkit, matcher, model, tensor, trainer
from matchformer import encoder

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
WEIGHTS_GZ = os.path.join(HERE, "data", "toy_la_seed0_2000.ckpt.gz")
WORK_DIR = os.path.join(os.path.dirname(HERE), ".bench_build", "matchformer-bench")
SETUP_REPEATS = 7


@dataclass
class Round:
    """Outcome of one operation of the timed loop."""

    units: int                  # steps (train-toy) or pairs
    work_s: float               # wall seconds of the whole operation
    call_s: list                # seconds of the central library call, per unit
    matches: int = 0            # matches returned by match_pair
    problems: list = field(default_factory=list)


class Workload:
    """Shared plumbing: the traced mode puts a root span around the timed
    part of each operation, so checks stay outside the per-unit figures."""

    tracer = None

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.unit_roots: list[int] = []
        os.makedirs(work_dir, exist_ok=True)

    @contextmanager
    def timed(self):
        idx = self.tracer.open("unit") if self.tracer is not None else None
        try:
            yield
        finally:
            if idx is not None:
                self.tracer.close(idx)
                self.unit_roots.append(idx)


class SpeedProbe:
    """A fixed piece of work that calls no package code: a pure-Python loop
    and BLAS matrix products, the two kinds of work the workloads spend their
    time in.  On a shared 2-vCPU virtual machine the CPU's speed drifted by
    up to a factor of 1.6 over minutes with other tenants' load, alike for
    every process; the probe runs between operations, and the end-to-end
    times are scaled by REFERENCE_S over its median time in the run, so they
    read as seconds at the speed where the probe takes REFERENCE_S."""

    REFERENCE_S = 0.006

    def __init__(self):
        self.times: list[float] = []
        self._mat = np.random.default_rng(0).standard_normal((192, 192))

    def __call__(self) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(30000):
            x += i * i % 7
        for _ in range(8):
            self._mat @ self._mat
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return self.REFERENCE_S / statistics.median(self.times)


PROBE = SpeedProbe()


class StepClock(io.TextIOBase):
    """Stands in for stdout during train_toy(progress=1).  train_toy prints
    a progress line as each step ends; the clock runs the speed probe there
    and notes when the step ended and when the next one could start, so the
    probe's time is left out of the step times."""

    def __init__(self):
        self.ends: list[float] = []
        self.starts: list[float] = []

    def write(self, text: str) -> int:
        if text.startswith("step"):
            self.ends.append(time.perf_counter())
            PROBE()
            self.starts.append(time.perf_counter())
        return len(text)

    def step_times(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends[1:])]

    def probe_s(self) -> float:
        return sum(start - end for start, end in zip(self.starts, self.ends))


def _seed(*parts: int) -> int:
    """Distinct non-negative input seeds from the run seed and an index."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class TrainToy(Workload):
    """trainer.train_toy on the reference toy config, then MatchModel.save."""

    name = "train-toy"
    # Long enough for the 10-step loss windows and, in most rounds, for the
    # fine warm-up to end (it ended between step 4 and 39 in 30 of 31 rounds).
    steps = 40
    image_hw = (64, 64)

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.ckpt = os.path.join(work_dir, f"train-toy-{os.getpid()}.ckpt")
        self.flops_cfg = trainer.TrainConfig().model_config()

    def config(self, index: int, steps: int):
        return trainer.TrainConfig(steps=steps, seed=_seed(self.seed, index) % 2**31)

    def setup(self) -> None:
        # Build the toy model and run one pair through it, which fills the
        # package's and numpy's lazy caches before the first timed step.
        cfg = self.config(0, self.steps)
        net = model.MatchModel(cfg.model_config(), seed=cfg.seed)
        sample = data.make_pair(cfg.seed, *cfg.image_size)
        with tensor.no_grad():
            net.forward_pair(tensor.Tensor(sample.image_a[None, None]),
                             tensor.Tensor(sample.image_b[None, None]))

    def round(self, index: int) -> Round:
        cfg = self.config(index, self.steps)
        clock = StepClock()
        with self.timed():
            t0 = time.perf_counter()
            with redirect_stdout(clock):
                result = trainer.train_toy(cfg, progress=1)
            t1 = time.perf_counter()
            result.model.save(self.ckpt)
            t2 = time.perf_counter()
        problems = checks.check_training(result.metrics, cfg.fine_warmup_precision)
        problems += self._check_holdout(result.model, cfg, result.holdout_precision)
        state = model.load_checkpoint(self.ckpt)
        problems += checks.check_reload(result.model.named_parameters(), state)
        step_s = clock.step_times() or [(t1 - t0) / self.steps]
        return Round(units=self.steps, work_s=t2 - t0 - clock.probe_s(), call_s=step_s,
                     problems=problems)

    def _check_holdout(self, net, cfg, reported: float) -> list[str]:
        """Recompute train_toy's holdout precision on its 16 held-out pairs
        (generator seeds seed * 1_000_003 + 900_000_000 + k)."""
        maps, h_mats = [], []
        for k in range(16):
            sample = data.make_pair(cfg.seed * 1_000_003 + 900_000_000 + k,
                                    *cfg.image_size, max_rot=cfg.max_rot,
                                    max_persp=cfg.max_persp, max_trans=cfg.max_trans,
                                    max_scale=cfg.max_scale)
            with tensor.no_grad():
                ca, _, cb, _ = net.forward_pair(tensor.Tensor(sample.image_a[None, None]),
                                                tensor.Tensor(sample.image_b[None, None]))
            maps.append((ca.data[0], cb.data[0]))
            h_mats.append(sample.h_mat)
        return checks.check_holdout(reported, maps, h_mats, cfg.image_size,
                                    net.cfg.coarse_stride, cfg.tau, cfg.theta)

    def finish(self) -> list[str]:
        if os.path.exists(self.ckpt):
            os.remove(self.ckpt)
        return []

    def checkpoint_bytes(self) -> int:
        return os.path.getsize(self.ckpt) if os.path.exists(self.ckpt) else 0


class EvalToy(Workload):
    """The ``matchformer eval --checkpoint`` path on seeded warped pairs."""

    name = "eval-toy"
    tau, theta, window = 0.1, 0.2, 5
    ransac_px, ransac_iters = 2.0, 2000
    image_hw = (64, 64)

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.cfg = trainer.TrainConfig()
        self.flops_cfg = self.cfg.model_config()
        self.ckpt = unpack_weights(work_dir)
        self.model = None
        self.mma3: list[float] = []
        self.corner_px: list[float] = []

    def setup(self) -> None:
        self.model = None
        net = model.MatchModel(self.cfg.model_config(), seed=0)
        net.load(self.ckpt)
        self.model = net

    def round(self, index: int) -> Round:
        cfg = self.cfg
        pair_seed = _seed(self.seed, index) % 2**31
        h, w = cfg.image_size
        with self.timed():
            t0 = time.perf_counter()
            sample = data.make_pair(pair_seed, h, w, max_rot=cfg.max_rot,
                                    max_persp=cfg.max_persp, max_trans=cfg.max_trans,
                                    max_scale=cfg.max_scale)
            t1 = time.perf_counter()
            matches = matcher.match_pair(sample.image_a, sample.image_b, self.model,
                                         tau=self.tau, theta=self.theta,
                                         window=self.window, fine_tau=cfg.fine_tau)
            t2 = time.perf_counter()
            h_est, inliers = evalkit.ransac_homography(
                matches.points, self.ransac_px, self.ransac_iters, seed=pair_seed)
            corner = evalkit.corner_error(h_est, sample.h_mat, w, h)
            curve, _ = evalkit.mma(matcher.MatchSet(points=matches.points[inliers]),
                                   sample.h_mat)
            t3 = time.perf_counter()
        self.mma3.append(float(curve[2]))
        self.corner_px.append(corner)
        problems = self._oracle(sample.image_a, sample.image_b, matches.points)
        return Round(units=1, work_s=t3 - t0, call_s=[t2 - t1],
                     matches=len(matches), problems=problems)

    def _oracle(self, img_a, img_b, points) -> list[str]:
        with tensor.no_grad():
            ca, _, cb, _ = self.model.forward_pair(
                tensor.Tensor(img_a[None, None]), tensor.Tensor(img_b[None, None]))
        return checks.check_coarse_oracle(points, ca.data[0], cb.data[0], self.tau,
                                          self.theta, self.model.cfg.coarse_stride)

    def finish(self) -> list[str]:
        return checks.check_geometry(self.mma3, self.corner_px)

    def checkpoint_bytes(self) -> int:
        return os.path.getsize(self.ckpt)


class MatchLiteSea(Workload):
    """matcher.match_pair on the published lite-SEA widths at 128x128."""

    name = "match-lite-sea"
    size = 128
    image_hw = (size, size)
    tau, theta, window = 0.1, 0.0, 5

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.flops_cfg = encoder.make_config("lite", "sea")
        self.model = None
        self.first = None

    def setup(self) -> None:
        self.model = None
        self.model = model.build_model("lite", "sea", seed=self.seed % 2**31)

    def pattern(self, index: int) -> np.ndarray:
        return data.gen_pattern(_seed(self.seed, index) % 2**31, self.size, self.size)

    def round(self, index: int) -> Round:
        img = self.pattern(index)
        with self.timed():
            t0 = time.perf_counter()
            matches = matcher.match_pair(img, img, self.model, tau=self.tau,
                                         theta=self.theta, window=self.window)
            t1 = time.perf_counter()
        if self.first is None:
            self.first = (img, matches.points)
        problems = checks.check_identity(matches.points, self.model.cfg.fine_stride)
        return Round(units=1, work_s=t1 - t0, call_s=[t1 - t0],
                     matches=len(matches), problems=problems)

    def finish(self) -> list[str]:
        if self.first is None:
            return ["no pair was matched"]
        img, points = self.first
        other = self.pattern(10**9)  # an index the loop never reaches
        a = tensor.Tensor(img[None, None])
        b = tensor.Tensor(other[None, None])
        with tensor.no_grad():
            same = self.model.forward_pair(a, a)
            ab = self.model.forward_pair(a, b)
            ba = self.model.forward_pair(b, a)
        problems = checks.check_shapes(ab, encoder.output_plan(self.model.cfg,
                                                              self.size, self.size))
        problems += checks.check_swap(ab, ba)
        problems += checks.check_coarse_oracle(points, same[0].data[0], same[2].data[0],
                                               self.tau, self.theta,
                                               self.model.cfg.coarse_stride)
        return problems

    def checkpoint_bytes(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (TrainToy, EvalToy, MatchLiteSea)}


def timed_loop(wl, seconds: float, setups: list | None = None):
    """Closed loop of rounds until ``seconds`` of wall time have passed.

    Given a list ``setups``, the loop also runs and times the workload's
    set-up, SETUP_REPEATS times spread evenly over the run (the first before
    the first round), and appends each time to it.  The machine's speed
    drifts over tens of seconds, so set-ups bunched at the start of a run
    sample less of it than the rounds do.  Set-up time does not count
    toward ``seconds``.  The speed probe runs before each set-up and each
    operation.

    Returns (rounds, failed operations, check failures)."""
    rounds, failed, problems = [], 0, []
    t0 = time.perf_counter()
    spent = 0.0                 # seconds of set-up inside the loop
    index = 0
    while True:
        elapsed = time.perf_counter() - t0 - spent
        if setups is not None:
            due = (SETUP_REPEATS if elapsed >= seconds
                   else 1 + int((SETUP_REPEATS - 1) * elapsed / seconds))
            while len(setups) < due:
                PROBE()
                t = time.perf_counter()
                wl.setup()
                setups.append(time.perf_counter() - t)
                spent += setups[-1]
        if elapsed >= seconds:
            break
        PROBE()
        try:
            r = wl.round(index)
        except Exception as e:  # an operation that raised counts as failed
            failed += 1
            print(f"{wl.name} round {index}: {type(e).__name__}: {e}", file=sys.stderr)
        else:
            rounds.append(r)
            problems += [f"round {index}: {p}" for p in r.problems]
        index += 1
    return rounds, failed, problems


def unpack_weights(work_dir: str) -> str:
    """Decompress the stored toy weights once; the name carries the size of
    the compressed file, so new weights are unpacked anew."""
    path = os.path.join(work_dir, f"toy_la_seed0_2000-{os.path.getsize(WEIGHTS_GZ)}.ckpt")
    if not os.path.exists(path):
        tmp = path + f".tmp-{os.getpid()}"
        with gzip.open(WEIGHTS_GZ, "rb") as src, open(tmp, "wb") as dst:
            shutil.copyfileobj(src, dst)
        os.replace(tmp, path)
    return path
