"""Show that every correctness check of the benchmark can fail.

    python3 benchmark/check_checks.py

Each check is first given a real result of the program, which must pass,
then corrupted copies of it, each of which must fail.  The tracer's
self-time check gets the same treatment with a span pushed outside its
parent.  Prints one line per case and exits 1 if any case behaves otherwise.
Takes about a minute.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from matchformer import blocks, data, encoder, evalkit, matcher, tensor, trainer  # noqa: E402

import checks  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

FAILURES = []


def expect(label: str, problems: list, should_fail: bool) -> None:
    failed = bool(problems)
    ok = failed == should_fail
    verdict = "fails" if failed else "passes"
    print(f"[{'ok' if ok else 'WRONG'}] {label}: {verdict}"
          + (f" ({problems[0]})" if failed else ""))
    if not ok:
        FAILURES.append(label)


def training_checks() -> None:
    wl = workloads.TrainToy(0, workloads.WORK_DIR)
    cfg = wl.config(0, wl.steps)
    result = trainer.train_toy(cfg)
    rows = np.array(result.metrics)
    bar = cfg.fine_warmup_precision
    expect("training, real run", checks.check_training(rows, bar), False)
    expect("training, loss rising", checks.check_training(rows[::-1], bar), True)
    no_fine = rows.copy()
    no_fine[:, 2] = 0.0
    expect("training, fine never on", checks.check_training(no_fine, bar), True)
    early = rows.copy()
    early[0, 2] = 0.5
    expect("training, fine loss in the first step", checks.check_training(early, bar), True)

    reported = result.holdout_precision
    expect("holdout, real value", wl._check_holdout(result.model, cfg, reported), False)
    expect("holdout, value + 1/32",
           wl._check_holdout(result.model, cfg, reported + 1 / 32), True)

    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    path = os.path.join(workloads.WORK_DIR, f"check-checks-{os.getpid()}.ckpt")
    try:
        result.model.save(path)
        state = blocks.load_checkpoint(path)
    finally:
        os.remove(path)
    params = result.model.named_parameters()
    expect("reload, real checkpoint", checks.check_reload(params, state), False)
    name = params[0][0]
    state[name] = state[name].copy()
    state[name].flat[0] = np.nextafter(state[name].flat[0], np.inf)
    expect("reload, one value off by one ulp", checks.check_reload(params, state), True)


def eval_checks() -> None:
    wl = workloads.EvalToy(0, workloads.WORK_DIR)
    wl.setup()
    cfg = wl.cfg
    sample = data.make_pair(12345, 64, 64, max_rot=cfg.max_rot, max_persp=cfg.max_persp,
                            max_trans=cfg.max_trans, max_scale=cfg.max_scale)
    ms = matcher.match_pair(sample.image_a, sample.image_b, wl.model, tau=wl.tau,
                            theta=wl.theta, window=wl.window, fine_tau=cfg.fine_tau)

    def geometry(points, h_gt):
        h_est, inl = evalkit.ransac_homography(points, 2.0, 2000, seed=0)
        curve, _ = evalkit.mma(matcher.MatchSet(points=points[inl]), h_gt)
        return checks.check_geometry([float(curve[2])],
                                     [evalkit.corner_error(h_est, h_gt, 64, 64)])

    expect("geometry, real pair", geometry(ms.points, sample.h_mat), False)
    shifted = ms.points.copy()
    shifted[:, 2] += 6.0
    expect("geometry, B points shifted 6 px", geometry(shifted, sample.h_mat), True)

    with tensor.no_grad():
        ca, _, cb, _ = wl.model.forward_pair(tensor.Tensor(sample.image_a[None, None]),
                                             tensor.Tensor(sample.image_b[None, None]))

    def oracle(points):
        return checks.check_coarse_oracle(points, ca.data[0], cb.data[0], wl.tau,
                                          wl.theta, wl.model.cfg.coarse_stride)

    expect("oracle, real match set", oracle(ms.points), False)
    expect("oracle, one match dropped", oracle(ms.points[1:]), True)
    conf = ms.points.copy()
    conf[0, 4] *= 0.999
    expect("oracle, one confidence scaled by 0.999", oracle(conf), True)
    moved = ms.points.copy()
    moved[:, 0] = np.where(moved[:, 0] < 30, moved[:, 0] + 4.0, moved[:, 0] - 4.0)
    expect("oracle, A cells moved by one", oracle(moved), True)


def encoder_checks() -> None:
    wl = workloads.MatchLiteSea(0, workloads.WORK_DIR)
    wl.setup()
    img = wl.pattern(0)
    ms = matcher.match_pair(img, img, wl.model, tau=wl.tau, theta=wl.theta,
                            window=wl.window)
    stride = wl.model.cfg.fine_stride
    expect("identity, real match set", checks.check_identity(ms.points, stride), False)
    off = ms.points.copy()
    off[:, 2] += stride
    expect("identity, B points one fine cell off", checks.check_identity(off, stride), True)

    a = tensor.Tensor(img[None, None])
    b = tensor.Tensor(wl.pattern(1)[None, None])
    with tensor.no_grad():
        ab = wl.model.forward_pair(a, b)
        ba = wl.model.forward_pair(b, a)
    plan = encoder.output_plan(wl.model.cfg, 128, 128)
    expect("shapes, real outputs", checks.check_shapes(ab, plan), False)
    expect("shapes, plan for 256x256",
           checks.check_shapes(ab, encoder.output_plan(wl.model.cfg, 256, 256)), True)
    expect("swap, real outputs", checks.check_swap(ab, ba), False)
    expect("swap, unswapped outputs", checks.check_swap(ab, ab), True)


def tracer_checks() -> None:
    """The self-time sum of a unit equals its duration unless a span leaks,
    and a function the tracer cannot find fails the run."""
    wl = workloads.EvalToy(0, workloads.WORK_DIR)
    wl.setup()
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        wl.round(0)
    finally:
        wl.tracer = None
        tracer.uninstall()

    def gap():
        v = traced.selftime_gap(tracer, wl.unit_roots)
        return [f"gap {v:.3g} s"] if v > 1e-6 else []

    expect("wrapped functions, package as it is", traced.unwrapped(tracer), False)
    expect("self times, real trace", gap(), False)
    child = next(i for i, s in enumerate(tracer.spans) if s[3] == wl.unit_roots[0])
    tracer.spans[child][1] -= 0.01      # child now starts before its parent
    expect("self times, child span leaking out of its parent", gap(), True)

    renamed = evalkit.mma
    del evalkit.mma                     # as if a refactor had renamed it
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        evalkit.mma = renamed
    expect("wrapped functions, evalkit.mma renamed", traced.unwrapped(tracer), True)


def main() -> int:
    training_checks()
    eval_checks()
    encoder_checks()
    tracer_checks()
    print(f"{len(FAILURES)} case(s) behaved wrongly" if FAILURES else "all cases behaved as expected")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
