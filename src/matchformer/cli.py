"""Command-line entry point.

Subcommands: selftest (invariant suite), shapes (per-stage geometry table),
match (PGM pair to TSV + overlay), train (toy reference loop), eval (manifest
evaluation report), bench (FLOPs + runtime scaling).

Exit codes: 0 success, 2 usage, 3 IO/parse failure, 4 numerical failure.
Every run that writes artifacts also writes a manifest.txt echoing the fully
resolved configuration.  MATCHFORMER_THREADS, when set, caps the BLAS thread
pools (applied before numpy loads).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _apply_thread_cap() -> None:
    cap = os.environ.get("MATCHFORMER_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_apply_thread_cap()

import numpy as np  # noqa: E402  (after the thread cap on purpose)

from dataclasses import asdict  # noqa: E402

from . import data as D  # noqa: E402
from . import evalkit as E  # noqa: E402
from . import matcher as M  # noqa: E402
from . import tensor as T  # noqa: E402
from . import selftest as S  # noqa: E402
from .blocks import ATTENTION_KINDS  # noqa: E402
from .encoder import (VARIANTS, make_config, output_plan,  # noqa: E402
                      parse_config_text, stage_plan)
from .model import MatchModel  # noqa: E402
from .trainer import (TrainConfig, config_from_dict, train_toy,  # noqa: E402
                      write_metrics_csv)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write_manifest(out_dir, args_dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        for key in sorted(args_dict):
            value = args_dict[key]
            if isinstance(value, tuple):  # the config grammar's spelling
                value = " ".join(str(v) for v in value)
            fh.write(f"{key}: {value}\n")


def _run_config(args) -> TrainConfig:
    """The run's one configuration: the ``--config`` file, then every
    TrainConfig field the user set by flag, then ``config_from_dict``.
    ``--height``/``--width`` set the two halves of ``image_size``."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = parse_config_text(fh.read())
        except (OSError, ValueError) as e:  # unreadable, not UTF-8, or malformed
            raise CliError(f"cannot read config {args.config}: {e}", EXIT_IO)
    raw.update({key: value for key, value in vars(args).items()
                if key in TrainConfig.__annotations__ and value is not None})
    height, width = getattr(args, "height", None), getattr(args, "width", None)
    size = raw.get("image_size", "").split() or list(TrainConfig.image_size)
    if (height is not None or width is not None) and len(size) == 2:
        # one TrainConfig, so the warp bounds are checked at the final size
        raw["image_size"] = (f"{size[0] if height is None else height} "
                             f"{size[1] if width is None else width}")
    try:
        return config_from_dict(raw)
    except ValueError as e:
        raise CliError(str(e), EXIT_USAGE)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_selftest(args) -> int:
    if args.inject_fault:
        try:
            T.inject_fault(args.inject_fault)
        except ValueError as e:
            raise CliError(str(e), EXIT_USAGE)
    try:
        results = S.run_all(seed=args.seed)
    finally:
        T.clear_faults()
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if failed:
        print(f"FAILED groups: {', '.join(failed)}")
        return EXIT_NUMERIC
    print(f"all {len(results)} invariant groups passed")
    return EXIT_OK


def _flag_config(args):
    """The model of ``--variant`` and ``--attention``; an unset kernel is
    ``make_config``'s, and is set in ``args`` for the output and manifest."""
    cfg = make_config(args.variant, **({"attention": args.attention} if args.attention else {}))
    args.attention = cfg.stages[0].attention
    return cfg


def cmd_shapes(args) -> int:
    cfg = _flag_config(args)
    plan = stage_plan(cfg, args.height, args.width)
    (cc, hc, wc), (cf, hf, wf) = output_plan(cfg, args.height, args.width)
    print(f"{args.variant}-{args.attention} @ {args.height}x{args.width}")
    print(f"{'stage':<8}{'resolution':<16}{'channels':<10}{'attention'}")
    for i, ((c, h, w), st) in enumerate(zip(plan, cfg.stages)):
        extra = f"A={st.heads}" + (f", R={st.reduction}" if st.attention == "sea" else "")
        print(f"F{i + 1:<7}{f'{h}x{w}':<16}{c:<10}{st.attention.upper()} ({extra})")
    print(f"{'coarse':<8}{f'{hc}x{wc}':<16}{cc}")
    print(f"{'fine':<8}{f'{hf}x{wf}':<16}{cf}")
    return EXIT_OK


def cmd_match(args) -> int:
    cfg = _run_config(args)
    img_a = D.read_pgm(args.image_a)
    img_b = D.read_pgm(args.image_b)
    matches = _match(img_a, img_b, _load_model(cfg, args.checkpoint), cfg)
    os.makedirs(args.out, exist_ok=True)
    M.save_matches(os.path.join(args.out, "matches.tsv"), matches)
    D.write_ppm(os.path.join(args.out, "overlay.ppm"),
                render_overlay(img_a, img_b, matches))
    _write_manifest(args.out, {"command": "match", **asdict(cfg),
                               "image_a": args.image_a, "image_b": args.image_b,
                               "checkpoint": args.checkpoint or "",
                               "matches": len(matches)})
    if len(matches) == 0:
        print("warning: no matches above threshold; wrote empty TSV")
    print(f"{len(matches)} matches -> {args.out}/matches.tsv")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _run_config(args)
    result = train_toy(cfg, progress=args.progress)
    os.makedirs(args.out, exist_ok=True)
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), result.metrics)
    result.model.save(os.path.join(args.out, "checkpoint.txt"))
    _write_manifest(args.out, {"command": "train", **asdict(cfg),
                               "holdout_precision": result.holdout_precision})
    print(f"holdout precision@1cell: {result.holdout_precision:.3f}")
    print(f"checkpoint -> {args.out}/checkpoint.txt")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _run_config(args)
    entries = D.load_manifest(args.manifest)
    fixed_matches = None
    model = None
    if args.matches:
        if len(entries) != 1:
            raise CliError("--matches needs a single-entry manifest", EXIT_USAGE)
        fixed_matches = M.load_matches(args.matches)
    else:
        model = _load_model(cfg, args.checkpoint)
    size = cfg.image_size
    curves, corner_errs, counts, inlier_counts = [], [], [], []
    for seed, h_mat in entries:
        if fixed_matches is not None:
            matches = fixed_matches
        else:
            image_a = D.gen_pattern(seed, *size)
            image_b, _ = D.warp(image_a, h_mat)
            matches = _match(image_a, image_b, model, cfg)
        counts.append(len(matches))
        try:
            h_est, inl = E.ransac_homography(matches.points, args.ransac_thresh,
                                             args.ransac_iters, seed=seed)
            inlier_counts.append(len(inl))
            corner_errs.append(E.corner_error(h_est, h_mat, size[1], size[0]))
            curve, _ = E.mma(M.MatchSet(points=matches.points[inl]), h_mat)
        except (E.RansacError, ValueError):
            inlier_counts.append(0)
            corner_errs.append(float("inf"))
            curve = np.zeros(len(E.MMA_THRESHOLDS))
        curves.append(curve)
    errs = np.array(corner_errs)
    rows = [("pairs", len(entries))]
    rows += [(f"accuracy@{t}px", round(float((errs < t).mean()), 4)) for t in (1, 3, 5)]
    rows += [(f"mma@{t}px", round(float(v), 4))
             for t, v in zip(E.MMA_THRESHOLDS, np.mean(curves, axis=0))]
    rows += [("mean_matches", round(float(np.mean(counts)), 2)),
             ("mean_inliers", round(float(np.mean(inlier_counts)), 2))]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.csv"), "w") as fh:
        fh.write("metric,value\n")
        for key, value in rows:
            fh.write(f"{key},{value}\n")
    for key, value in rows:
        print(f"{key:>16}: {value}")
    _write_manifest(args.out, {"command": "eval", **asdict(cfg),
                               "manifest": args.manifest, "pairs": len(entries),
                               "ransac_thresh": args.ransac_thresh,
                               "ransac_iters": args.ransac_iters,
                               "checkpoint": args.checkpoint or "",
                               "matches_file": args.matches or ""})
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _flag_config(args)
    bd = E.flops_count(cfg, args.height, args.width,
                       include_matcher=args.include_matcher)
    print(f"{args.variant}-{args.attention} @ {args.height}x{args.width} "
          f"(pair, 1 MAC = 2 FLOPs)")
    for stage, flops in bd.by_stage().items():
        print(f"  {stage:<10} {flops / 1e9:10.2f} GFLOPs")
    for kind, flops in bd.by_kind().items():
        print(f"  [{kind:<9}] {flops / 1e9:10.2f} GFLOPs")
    print(f"  module total (conv+linear, table convention): {bd.table_gflops:.1f} GFLOPs")
    print(f"  grand total (attention included): {bd.total_gflops:.1f} GFLOPs")
    if args.runtime:
        exps = E.complexity_exponents(measure_runtime=True)
        print("scaling exponents over N in {256..4096}:")
        for key, value in exps.items():
            print(f"  {key:<16} {value:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _load_model(cfg: TrainConfig, checkpoint) -> MatchModel:
    """The configured model, loaded from ``checkpoint`` when one is given."""
    model = MatchModel(cfg.model_config(), seed=cfg.seed)
    if checkpoint:
        try:
            model.load(checkpoint)
        except (OSError, ValueError) as e:
            raise CliError(f"checkpoint: {e}", EXIT_IO)
    return model


def _match(img_a, img_b, model, cfg: TrainConfig):
    """``match_pair`` with the run's matching values."""
    return M.match_pair(img_a, img_b, model, tau=cfg.tau, theta=cfg.theta,
                        window=cfg.window, fine_tau=cfg.fine_tau)


def render_overlay(img_a: np.ndarray, img_b: np.ndarray, matches) -> np.ndarray:
    """Side-by-side grayscale pair with match lines colored by confidence
    (green high, red low)."""
    h = max(img_a.shape[0], img_b.shape[0])
    w = img_a.shape[1] + img_b.shape[1]
    canvas = np.zeros((h, w, 3))
    canvas[:img_a.shape[0], :img_a.shape[1]] = img_a[..., None]
    canvas[:img_b.shape[0], img_a.shape[1]:] = img_b[..., None]
    if len(matches) == 0:
        return canvas
    confs = matches.confidences
    lo, hi = confs.min(), confs.max()
    span = max(hi - lo, 1e-9)
    for x1, y1, x2, y2, conf in matches.points:
        t = (conf - lo) / span
        color = np.array([1.0 - t, t, 0.0])  # red at low confidence, green at high
        _draw_line(canvas, x1, y1, x2 + img_a.shape[1], y2, color)
    return canvas


def _draw_line(canvas, x1, y1, x2, y2, color) -> None:
    n = int(max(abs(x2 - x1), abs(y2 - y1))) + 1
    xs = np.clip(np.round(np.linspace(x1, x2, n)).astype(int), 0, canvas.shape[1] - 1)
    ys = np.clip(np.round(np.linspace(y1, y2, n)).astype(int), 0, canvas.shape[0] - 1)
    canvas[ys, xs] = color


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _arg_type(kind, valid, expected: str):
    """An argparse type: ``kind(text)`` if ``valid`` accepts it, otherwise a
    usage error that names the ``expected`` value."""
    def parse(text: str):
        try:
            value = kind(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_seed = _arg_type(int, lambda n: n >= 0, "a seed >= 0")
_progress = _arg_type(int, lambda n: n >= 1, "a progress interval in steps >= 1")
_window = _arg_type(int, M.check_window, "an odd window size >= 1")
_ransac_iters = _arg_type(int, lambda n: n >= 1, "a number of RANSAC trials >= 1")
_ransac_thresh = _arg_type(float, lambda t: np.isfinite(t) and t > 0,
                           "a finite inlier threshold in pixels > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matchformer",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matching=True):
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--attention", choices=ATTENTION_KINDS)
        p.add_argument("--config")
        if matching:  # train takes these from its config file only
            p.add_argument("--tau", type=float)
            p.add_argument("--theta", type=float)
            p.add_argument("--window", type=_window)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.add_argument("--inject-fault", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("shapes", help="per-stage shape table")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--attention", choices=ATTENTION_KINDS)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_shapes)

    p = sub.add_parser("match", help="match a PGM image pair")
    p.add_argument("image_a")
    p.add_argument("image_b")
    p.add_argument("--checkpoint")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("train", help="toy training on synthetic pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--progress", type=_progress, default=None)
    common(p, matching=False)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate matching on a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--matches", help="evaluate a saved match file instead of a model")
    p.add_argument("--out", required=True)
    p.add_argument("--height", type=int, help="image_size rows")
    p.add_argument("--width", type=int, help="image_size columns")
    p.add_argument("--ransac-thresh", type=_ransac_thresh, default=2.0)
    p.add_argument("--ransac-iters", type=_ransac_iters, default=2000)
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="FLOPs breakdown and runtime scaling")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    # LA and SEA only: the kernels Table 5 compares
    p.add_argument("--attention", choices=("la", "sea"))
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--include-matcher", action="store_true")
    p.add_argument("--runtime", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        if code == EXIT_OK and getattr(args, "out", None) \
                and args.command in ("selftest", "shapes", "bench"):
            _write_manifest(args.out, {"command": args.command,
                                       **{k: v for k, v in vars(args).items()
                                          if k not in ("fn", "out") and v is not None}})
        return code
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except T.ShapeError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (T.NumericalError, E.RansacError, E.GeometryError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, D.ImageFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
