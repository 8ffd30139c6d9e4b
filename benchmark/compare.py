"""Collect sets of benchmark runs and compare two sets.

    python3 benchmark/compare.py collect OUT_DIR --seeds 1-10 [--workloads eval-toy]
    python3 benchmark/compare.py report SET_A [SET_B]

``collect`` runs ``run.py`` untraced for BENCHMARK.json's ``run_seconds``,
once per workload and seed, one after the other, and keeps each run's
standard output as ``<workload>-seed<n>.out`` (standard error as ``.err``).
``report`` prints, per workload and end-to-end metric, the median and
quartiles of each set and the quartile spread as a share of the median,
against the metric's bound in BENCHMARK.json.  Given two sets it also prints
how far SET_B's median moved from SET_A's in the metric's worse direction,
and whether the share of failed operations is the same.  The environment
each run recorded (Python, numpy, BLAS, thread caps, nproc, CPU) is listed
once per distinct value.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args) -> int:
    """Untraced runs of BENCHMARK.json's length, one process per workload and seed."""
    spec = load_spec()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    code = 0
    for seed in parse_seeds(args.seeds):
        for name in names:
            proc = run.run_workload(name, seed, spec["run_seconds"], trace=0)
            base = os.path.join(args.out, f"{name}-seed{seed}")
            with open(base + ".out", "w") as out, open(base + ".err", "w") as err:
                out.write(proc.stdout)
                err.write(proc.stderr)
            print(f"{name} seed {seed}: exit {proc.returncode}", flush=True)
            code = code or proc.returncode
    return code


def read_set(path: str) -> dict:
    """{workload: [(result, run record)]} from a directory of .out files."""
    runs: dict[str, list] = {}
    for fname in sorted(glob.glob(os.path.join(path, "*.out"))):
        with open(fname) as fh:
            lines = fh.read().strip().splitlines()
        record = next((json.loads(ln[4:]) for ln in lines if ln.startswith("run ")), None)
        if record is None or not lines:
            print(f"skipping {fname}: no run record", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        runs.setdefault(record["workload"], []).append((result, record))
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def failed_share(runs) -> float:
    return sum(r["failed"] for r, _ in runs) / max(sum(r["attempted"] for r, _ in runs), 1)


def report(args) -> int:
    spec = load_spec()
    metrics = spec["end_to_end"]
    sets = [read_set(p) for p in args.sets]
    ok = True
    envs = {json.dumps(rec["env"], sort_keys=True)
            for s in sets for runs in s.values() for _, rec in runs}
    for env in sorted(envs):
        print(f"env: {env}")
    for wl in [w["name"] for w in spec["workloads"]]:
        per_set = [s.get(wl, []) for s in sets]
        if not all(per_set):
            print(f"\n{wl}: missing from a set")
            ok = False
            continue
        counts = " / ".join(str(len(r)) for r in per_set)
        correct = all(r["correct"] for runs in per_set for r, _ in runs)
        shares = [failed_share(runs) for runs in per_set]
        print(f"\n{wl}: runs {counts}, all correct: {correct}, "
              f"failed share {' / '.join(f'{s:.6f}' for s in shares)}")
        ok = ok and correct and len(set(shares)) == 1
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = []
            for runs in per_set:
                stats.append(summary([r["metrics"][name]["value"] for r, _ in runs]))
            cells = []
            for med, q1, q3, spread in stats:
                cells.append(f"median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                             f"spread {spread:.3f}")
            line = f"  {name:<12} " + " | ".join(cells) + f"  bound {bound}"
            spread_ok = all(s[3] <= bound for s in stats)
            if len(stats) == 2:
                a, b = stats[0][0], stats[1][0]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                line += f"  B worse by {worse:+.3f}"
                spread_ok = spread_ok and worse <= bound
            print(line + ("  ok" if spread_ok else "  OUT OF BOUND"))
            ok = ok and spread_ok
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    c.add_argument("--workloads", nargs="*")
    r = sub.add_parser("report")
    r.add_argument("sets", nargs="+", help="one or two directories from collect")
    args = p.parse_args(argv)
    if args.cmd == "report" and len(args.sets) > 2:
        p.error("report takes one or two sets")
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
