"""Traced mode: per-layer metrics from spans, plus the tracing overhead.

The run is split in two halves over the same inputs.  The first half runs
untraced; the second repeats its first operations with the tracer installed.
The overhead is the traced half's summed operation time over the untraced
one's, on the operations both halves ran.  Per-layer figures come from the
traced half only: span self times summed over the timed part of each
operation and divided by its units of work (train steps or pairs).
"""

from __future__ import annotations

import math
import os
import statistics
import sys

from matchformer import evalkit

from workloads import WORK_DIR, timed_loop
from tracer import OTHER_TENSOR_OPS, TENSOR_OPS, Tracer

SELF_SPANS = (
    ["blocks.PosPatchEmbed", "blocks.Attention", "blocks.MixFFN"]
    + [f"encoder.stage{i}" for i in range(1, 5)]
    + ["decoder.fuse", "model.forward_pair",
       "matcher.coarse_scores", "matcher.dual_softmax", "matcher.select_coarse",
       "matcher.fine_refine", "matcher.fine_offsets",
       "trainer.adam_step", "trainer.coarse_loss", "trainer.fine_loss",
       "trainer.holdout_precision",
       "data.make_pair", "data.gen_pattern", "data.warp", "data.gt_coarse_labels",
       "evalkit.ransac_homography", "evalkit.dlt_homography",
       "evalkit.corner_error", "evalkit.mma"]
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for op in TENSOR_OPS + ("other",):
        out[f"tensor.{op}.fwd_s"] = "s"
        out[f"tensor.{op}.bwd_s"] = "s"
        out[f"tensor.{op}.calls"] = "count"
    out["tensor.backward.self_s"] = "s"
    out["tensor.tape_nodes"] = "count"
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = "s"
    out["blocks.LayerNorm.calls"] = "count"
    out["blocks.save_checkpoint.self_s"] = "s"
    out["blocks.load_checkpoint.self_s"] = "s"
    out["blocks.checkpoint_bytes"] = "B"
    for i in range(1, 5):
        out[f"encoder.stage{i}.gflops_per_s"] = "GFLOP/s"
    out["decoder.fuse.calls"] = "count"
    out["matcher.matches"] = "count"
    out["trainer.fine_active_steps"] = "count"
    out["evalkit.dlt_homography.calls"] = "count"
    out["evalkit.ransac_inlier_ratio"] = "ratio"
    out["evalkit.ransac_trials_needed"] = "count"
    out["trace.overhead_pct"] = "%"
    return out


def run(wl, seconds: float):
    tracer = Tracer()
    tracer.install()
    missing = unwrapped(tracer)
    try:
        idx = tracer.open("setup")
        wl.setup()
        tracer.close(idx)
    finally:
        tracer.uninstall()

    ref, failed_ref, problems = timed_loop(wl, seconds / 2)
    problems = missing + problems
    tracer.install()
    wl.tracer = tracer
    try:
        rounds, failed, more = timed_loop(wl, seconds / 2)
        problems += more
        ckpt_bytes = wl.checkpoint_bytes()
        problems += wl.finish()
    finally:
        wl.tracer = None
        tracer.uninstall()
    tracer.write(os.path.join(WORK_DIR, "traces", f"{wl.name}-seed{wl.seed}.tsv.gz"))

    values = layer_values(tracer, wl, rounds, ref, ckpt_bytes)
    gap = selftime_gap(tracer, wl.unit_roots)
    print(f"trace: self times of each unit add up to its duration within {gap:.3g} s",
          file=sys.stderr)
    if gap > 1e-6:
        problems.append(f"span self times miss their unit's duration by {gap:.3g} s")
    if not rounds:
        problems.append("no traced operation completed")
    units = metric_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    attempted = len(ref) + failed_ref + len(rounds) + failed
    return metrics, attempted, failed_ref + failed, problems


def unwrapped(tracer: Tracer) -> list[str]:
    """A function the tracer could not find (renamed or moved) would read 0,
    which looks like a gain; so each one is a failed check."""
    return [f"tracer could not wrap {path}: not found" for path in tracer.missing]


def layer_values(tracer: Tracer, wl, rounds, ref, ckpt_bytes: int) -> dict:
    units = max(sum(r.units for r in rounds), 1)
    roots = set(wl.unit_roots)
    root_of = tracer.roots()
    selfs = tracer.self_times()
    totals: dict[str, list] = {}         # name -> [self s, calls, inclusive s]
    anywhere: dict[str, list] = {}       # checkpoint spans outside units too
    stage_flops_time: dict[str, list] = {}
    stage_flops = evalkit.flops_count(wl.flops_cfg, *wl.image_hw).by_stage()
    for i, (name, t0, t1, _, no_grad) in enumerate(tracer.spans):
        if name.startswith("blocks.") and name.endswith("_checkpoint"):
            a = anywhere.setdefault(name, [0.0, 0])
            a[0] += selfs[i]
            a[1] += 1
        r = root_of[i]
        if r not in roots:
            continue
        t = totals.setdefault(name, [0.0, 0, 0.0])
        t[0] += selfs[i]
        t[1] += 1
        t[2] += t1 - t0
        if name.startswith("encoder.stage") and no_grad:
            f = stage_flops_time.setdefault(name, [0.0, 0.0])
            f[0] += stage_flops[name.split(".")[1]]
            f[1] += t1 - t0

    def self_s(name):
        return totals.get(name, [0.0])[0] / units

    def calls(name):
        return totals.get(name, [0.0, 0])[1] / units

    v = {}
    for op in TENSOR_OPS:
        v[f"tensor.{op}.fwd_s"] = self_s(f"tensor.{op}")
        v[f"tensor.{op}.bwd_s"] = self_s(f"tensor.{op}.bwd")
        v[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
    v["tensor.other.fwd_s"] = sum(self_s(f"tensor.{op}") for op in OTHER_TENSOR_OPS)
    v["tensor.other.bwd_s"] = sum(self_s(f"tensor.{op}.bwd") for op in OTHER_TENSOR_OPS)
    v["tensor.other.calls"] = sum(calls(f"tensor.{op}") for op in OTHER_TENSOR_OPS)
    v["tensor.backward.self_s"] = self_s("tensor.backward")
    v["tensor.tape_nodes"] = sum(n for idx, n in tracer.tape_nodes
                                 if root_of[idx] in roots) / units
    for name in SELF_SPANS:
        v[f"{name}.self_s"] = self_s(name)
    v["blocks.LayerNorm.calls"] = calls("blocks.LayerNorm")
    for name in ("blocks.save_checkpoint", "blocks.load_checkpoint"):
        s, n = anywhere.get(name, [0.0, 0])
        v[f"{name}.self_s"] = s / n if n else 0.0      # seconds per call
    v["blocks.checkpoint_bytes"] = ckpt_bytes
    for i in range(1, 5):
        flops, secs = stage_flops_time.get(f"encoder.stage{i}", [0.0, 0.0])
        v[f"encoder.stage{i}.gflops_per_s"] = flops / secs / 1e9 if secs else 0.0
    v["decoder.fuse.calls"] = calls("decoder.fuse")
    v["matcher.matches"] = sum(r.matches for r in rounds) / units
    v["trainer.fine_active_steps"] = (totals.get("trainer.fine_loss", [0.0, 0])[1]
                                      / len(rounds) if rounds else 0.0)
    v["evalkit.dlt_homography.calls"] = calls("evalkit.dlt_homography")
    ratios = [inl / n for idx, n, inl in tracer.ransac if root_of[idx] in roots and n]
    v["evalkit.ransac_inlier_ratio"] = statistics.fmean(ratios) if ratios else 0.0
    v["evalkit.ransac_trials_needed"] = (
        statistics.median(trials_needed(r) for r in ratios) if ratios else 0)
    n = min(len(ref), len(rounds))
    base = sum(r.work_s for r in ref[:n])
    v["trace.overhead_pct"] = (100.0 * (sum(r.work_s for r in rounds[:n]) / base - 1.0)
                               if n and base > 0 else 0.0)
    return v


def selftime_gap(tracer: Tracer, unit_roots: list[int]) -> float:
    """Largest gap between a unit's summed span self times and its duration;
    0 up to rounding unless a span leaks out of its parent."""
    roots = set(unit_roots)
    root_of = tracer.roots()
    summed = {r: 0.0 for r in roots}
    for i, s in enumerate(tracer.self_times()):
        if root_of[i] in roots:
            summed[root_of[i]] += s
    return max((abs(summed[r] - (tracer.spans[r][2] - tracer.spans[r][1]))
                for r in roots), default=0.0)


def trials_needed(inlier_ratio: float, confidence: float = 0.99,
                  sample: int = 4) -> int:
    """RANSAC trials a stopping rule needs at this inlier ratio."""
    good = inlier_ratio ** sample
    if good >= 1.0:
        return 1
    if good <= 0.0:
        return 10 ** 9
    return max(1, math.ceil(math.log(1.0 - confidence) / math.log(1.0 - good)))
