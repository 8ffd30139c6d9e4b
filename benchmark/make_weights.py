"""Regenerate the trained toy weights that the eval-toy workload loads.

Trains the reference toy configuration (lite-LA, channels 32/48/64/128,
64x64 synthetic pairs) at seed 0 for 2000 steps, the run of acceptance
criterion 8, and stores the result as a gzip-compressed v1 checkpoint:

    python3 benchmark/make_weights.py

Takes about 8 minutes on one core.  The gzip stream carries no timestamp, so
identical weights give identical bytes.
"""

from __future__ import annotations

import gzip
import os
import sys
import tempfile
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from matchformer.trainer import TrainConfig, train_toy  # noqa: E402

WEIGHTS = os.path.join(HERE, "data", "toy_la_seed0_2000.ckpt.gz")
STEPS = 2000


def main() -> int:
    t0 = time.perf_counter()
    result = train_toy(TrainConfig(steps=STEPS, seed=0))
    print(f"trained {STEPS} steps in {time.perf_counter() - t0:.0f} s, "
          f"holdout precision {result.holdout_precision:.3f}")
    os.makedirs(os.path.dirname(WEIGHTS), exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        plain = os.path.join(tmp, "checkpoint.txt")
        result.model.save(plain)
        with open(plain, "rb") as src, open(WEIGHTS, "wb") as raw, \
                gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as dst:
            dst.write(src.read())
    print(f"wrote {WEIGHTS} ({os.path.getsize(WEIGHTS) / 1e6:.1f} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
