"""Fresh runs against the committed reference outputs (``make_reference.py``).

Where the environment (BLAS, numpy, CPU) is the one that wrote the file, the
match points and both training files must be byte-identical.  Elsewhere the
comparison allows for another BLAS's rounding:

- each pair keeps at least 98 % of its matches, keyed by the A point (a
  coarse cell centre), and in the common matches the B coordinates agree
  within 1e-6 px and the confidences within 1e-9;
- the metrics rows agree with losses within 1e-6 relative and precisions
  within 0.05; the checkpoint hash is not compared.
"""

import csv
import io

import numpy as np

import make_reference as ref

MATCH_KEEP, PX_TOL, CONF_TOL = 0.98, 1e-6, 1e-9
LOSS_RTOL, PRECISION_TOL = 1e-6, 0.05


def _pairs(entries: dict, name: str) -> list:
    bounds = np.cumsum(entries[f"{name}_counts"])[:-1]
    return np.split(entries[f"{name}_points"], bounds)


def _close_matches(want: np.ndarray, got: np.ndarray) -> str:
    rows_want = {tuple(p[:2]): p for p in want}
    rows_got = {tuple(p[:2]): p for p in got}
    common = rows_want.keys() & rows_got.keys()
    if len(common) < MATCH_KEEP * max(len(want), len(got)):
        return f"{len(common)} common of {len(want)} reference and {len(got)} fresh matches"
    diff = np.array([np.abs(rows_want[k] - rows_got[k]) for k in common]).reshape(-1, 5)
    if diff[:, 2:4].max(initial=0.0) > PX_TOL or diff[:, 4].max(initial=0.0) > CONF_TOL:
        return f"B point or confidence moved by {diff[:, 2:].max():.3g}"
    return ""


def _close_metrics(want: str, got: str) -> str:
    rows_want, rows_got = (list(csv.DictReader(io.StringIO(t))) for t in (want, got))
    if [r["step"] for r in rows_want] != [r["step"] for r in rows_got]:
        return "steps differ"
    for a, b in zip(rows_want, rows_got):
        losses = [(float(a[k]), float(b[k])) for k in a if k.startswith("loss")]
        if any(abs(x - y) > LOSS_RTOL * abs(x) for x, y in losses) \
                or abs(float(a["precision"]) - float(b["precision"])) > PRECISION_TOL:
            return f"step {a['step']} differs"
    return ""


def compare(want: dict, got: dict, exact: bool) -> list[str]:
    """Problems of ``got`` against ``want``; byte for byte when ``exact``."""
    problems = []
    for name in ("toy", "lite"):
        if exact:
            if not (np.array_equal(want[f"{name}_counts"], got[f"{name}_counts"])
                    and want[f"{name}_points"].tobytes() == got[f"{name}_points"].tobytes()):
                problems.append(f"{name} points are not byte-identical")
            continue
        if len(want[f"{name}_counts"]) != len(got[f"{name}_counts"]):
            problems.append(f"{name}: pair count differs")
            continue
        for k, (a, b) in enumerate(zip(_pairs(want, name), _pairs(got, name))):
            if msg := _close_matches(a, b):
                problems.append(f"{name} pair {k}: {msg}")
    for seed in ref.TRAIN_SEEDS:
        key = f"train{seed}_"
        if exact:
            problems += [f"train seed {seed}: {f} sha256 differs" for f in ("metrics", "checkpoint")
                         if str(want[key + f + "_sha256"]) != str(got[key + f + "_sha256"])]
        elif msg := _close_metrics(str(want[key + "metrics"]), str(got[key + "metrics"])):
            problems.append(f"train seed {seed} metrics: {msg}")
    return problems


def _load() -> dict:
    with np.load(ref.REFERENCE) as f:
        return {k: f[k] for k in f.files}


def test_fresh_runs_match_the_committed_reference():
    want = _load()
    env = ref.environment()
    exact = all(str(want[k]) == v for k, v in env.items())
    print("reference comparison:", "byte-identical (same environment)" if exact else
          "within tolerances (reference made on "
          + ", ".join(str(want[k]) for k in env) + ")")
    problems = compare(want, ref.compute(), exact)
    assert not problems, "; ".join(problems)


def test_comparison_catches_one_ulp_and_passes_identical_outputs():
    want = _load()
    assert compare(want, want, exact=True) == []
    assert compare(want, want, exact=False) == []
    moved = want["toy_points"].copy()
    moved[17, 2] = np.nextafter(moved[17, 2], np.inf)
    assert compare(want, {**want, "toy_points": moved}, exact=True) \
        == ["toy points are not byte-identical"]
