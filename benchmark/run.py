"""MatchFormer benchmark: one workload per process, end to end or traced.

    python3 benchmark/run.py --workload eval-toy --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 25

Runs from the root of a source checkout and imports the package from
``src/``.  Each workload is a closed loop: the next operation starts only
after the previous one returns.  With ``--trace 0`` the last line of standard
output is the result with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics from a traced run.  The line before it records the
workload, seed and environment.  Exit code 0 on a finished run (``correct``
says whether every check passed), 2 on bad usage or a missing package.
"""

from __future__ import annotations

import os
import sys

# BLAS is pinned to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train-toy", "eval-toy", "match-lite-sea")
IMPORT_REPEATS = 7
# Run in a fresh interpreter: prints the seconds taken to import every
# package module the workloads use, numpy already loaded.  numpy's own
# import is left out: the package cannot change it, and it varies by a
# third from one interpreter to the next.
IMPORT_PROBE = ("import time, numpy; t0 = time.perf_counter(); "
                "from matchformer import data, encoder, evalkit, matcher, model, "
                "tensor, trainer; print(time.perf_counter() - t0)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """Run one workload in a process of its own; returns the finished
    subprocess.CompletedProcess with its stdout and stderr as text."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True)


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = run_workload(name, args.seed, args.seconds, args.trace)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        if proc.returncode or not lines:
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
        if not result["correct"] or result["failed"]:
            code = code or 1
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "matchformer")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads  # noqa: E402  (imports numpy and the package)

    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.WORK_DIR)
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "env": environment()}))
    if args.trace:
        import traced  # noqa: E402
        metrics, attempted, failed, problems = traced.run(wl, args.seconds)
    else:
        metrics, attempted, failed, problems = run_untraced(wl, args.seconds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def import_seconds() -> float:
    """Median time fresh interpreters take to import the package.  Timed
    apart from the workload's set-up, which runs in this process where the
    package is already imported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_untraced(wl, seconds: float):
    import workloads
    import_s = import_seconds()
    setups: list[float] = []
    rounds, failed, problems = workloads.timed_loop(wl, seconds, setups)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += wl.finish()
    if not rounds:
        problems.append("no operation completed")
    calls = [c for r in rounds for c in r.call_s] or [0.0]
    setup_s = import_s + statistics.median(setups)
    scale = workloads.PROBE.scale()
    print(f"timing: {len(calls)} calls, median {statistics.median(calls):.6g} s; "
          f"set-up {setup_s:.6g} s (import {import_s:.6g} s, set-ups "
          f"{' '.join(f'{t:.4g}' for t in setups)} s); speed probe median "
          f"{statistics.median(workloads.PROBE.times):.6g} s over "
          f"{len(workloads.PROBE.times)} runs, scale {scale:.4f}", file=sys.stderr)
    metrics = {
        "setup_s": {"value": setup_s * scale, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "call_s": {"value": statistics.median(calls) * scale, "unit": "s"},
    }
    return metrics, len(rounds) + failed, failed, problems


if __name__ == "__main__":
    sys.exit(main())
