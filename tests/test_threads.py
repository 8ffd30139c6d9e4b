"""The bytes a run writes do not depend on the BLAS thread count.

Each thread count runs in a fresh interpreter, because BLAS reads its
thread variables once, when numpy loads.  The run trains the toy model for
5 steps through ``matchformer train`` (metrics.csv and the checkpoint) and
matches one lite-SEA 128x128 identity pair (the points).  At lite-SEA widths
the linear layers' GEMMs are large enough for OpenBLAS to split them over
both threads.  No more than 2 threads are ever asked for.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RUN = """
import sys
import numpy as np
from matchformer import cli, data, matcher, model
out = sys.argv[1]
code = cli.main(["train", "--seed", "0", "--steps", "5", "--out", out])
assert code == 0, code
net = model.build_model("lite", "sea", seed=5)
img = data.gen_pattern(100, 128, 128)
points = matcher.match_pair(img, img, net, tau=0.1, theta=0.0, window=5).points
assert len(points) > 0
np.save(out + "/points.npy", points)
"""


def run_at(threads: int, out) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, MATCHFORMER_THREADS=str(threads),
               **{var: str(threads) for var in THREAD_VARS})
    subprocess.run([sys.executable, "-c", RUN, str(out)], env=env, check=True,
                   capture_output=True, timeout=600)
    return {name: (out / name).read_bytes()
            for name in ("metrics.csv", "checkpoint.txt", "points.npy")}


def test_one_and_two_threads_write_the_same_bytes(tmp_path):
    one = run_at(1, tmp_path / "one")
    two = run_at(2, tmp_path / "two")
    for name in one:
        assert one[name] == two[name], f"{name} differs between 1 and 2 BLAS threads"
