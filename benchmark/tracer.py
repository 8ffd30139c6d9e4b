"""Span tracer for the benchmark's traced mode.

The tracer records spans from outside the package: it replaces public
functions and methods of ``matchformer`` with thin wrappers that open a span
on entry and close it on exit.  A span is ``[name, start, end, parent, flag]``;
``parent`` is the index of the enclosing span (-1 for a root) and ``flag``
records whether gradient recording was off when the span opened.

Backward time per op comes from the tape: after a wrapped tensor op returns,
every tape node it appended gets its ``backward_fn`` wrapped in a
``tensor.<op>.bwd`` span, so ``tensor.backward`` sees one child span per
replayed node.

Spans stay in memory; ``write`` dumps them once the run is over.
"""

from __future__ import annotations

import functools
import gzip
import os
import time

from matchformer import blocks, data, decoder, encoder, evalkit, matcher
from matchformer import model as model_mod
from matchformer import tensor, trainer

# Tensor ops reported one by one; every other public op is summed as "other".
TENSOR_OPS = ("conv2d", "matmul", "softmax", "layer_norm", "gelu", "sigmoid",
              "add", "mul", "l2_normalize", "reshape", "transpose",
              "window_gather", "bilinear_upsample2x")
OTHER_TENSOR_OPS = ("sub", "div", "exp", "log", "sqrt", "maximum_scalar",
                    "reduce_sum", "reduce_mean", "concat", "slice_",
                    "take_pairs")

# (module, attribute path, span name) of every wrapped function or method.
# A path the package no longer has is skipped, and its metrics read 0.
FUNCTIONS = (
    [(tensor, op, f"tensor.{op}") for op in TENSOR_OPS + OTHER_TENSOR_OPS]
    + [
        (blocks, "PosPatchEmbed.__call__", "blocks.PosPatchEmbed"),
        (blocks, "Attention.__call__", "blocks.Attention"),
        (blocks, "MixFFN.__call__", "blocks.MixFFN"),
        (blocks, "LayerNorm.__call__", "blocks.LayerNorm"),
        (decoder, "FPNDecoder.fuse", "decoder.fuse"),
        (model_mod, "MatchModel.forward_pair", "model.forward_pair"),
        (matcher, "match_pair", "matcher.match_pair"),
        (matcher, "coarse_scores", "matcher.coarse_scores"),
        (matcher, "dual_softmax", "matcher.dual_softmax"),
        (matcher, "select_coarse", "matcher.select_coarse"),
        (matcher, "fine_refine", "matcher.fine_refine"),
        (matcher, "fine_offsets", "matcher.fine_offsets"),
        (trainer, "train_toy", "trainer.train_toy"),
        (trainer, "adam_step", "trainer.adam_step"),
        (trainer, "coarse_loss", "trainer.coarse_loss"),
        (trainer, "fine_loss", "trainer.fine_loss"),
        (trainer, "holdout_precision", "trainer.holdout_precision"),
        (data, "make_pair", "data.make_pair"),
        (data, "gen_pattern", "data.gen_pattern"),
        (data, "warp", "data.warp"),
        (data, "gt_coarse_labels", "data.gt_coarse_labels"),
        (evalkit, "dlt_homography", "evalkit.dlt_homography"),
        (evalkit, "corner_error", "evalkit.corner_error"),
        (evalkit, "mma", "evalkit.mma"),
        # model.py imports the checkpoint functions by name, so both bindings
        # are replaced.
        (blocks, "save_checkpoint", "blocks.save_checkpoint"),
        (model_mod, "save_checkpoint", "blocks.save_checkpoint"),
        (blocks, "load_checkpoint", "blocks.load_checkpoint"),
        (model_mod, "load_checkpoint", "blocks.load_checkpoint"),
    ]
)


def _resolve(module, path: str):
    """(owner, attribute) for ``Class.attr`` or ``func`` paths, or None."""
    owner, _, attr = path.rpartition(".")
    obj = getattr(module, owner, None) if owner else module
    if obj is None or attr not in vars(obj):
        return None
    return obj, attr


class Tracer:
    """In-memory span recorder that patches the package while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.tape_nodes: list[tuple[int, int]] = []   # (backward span, nodes)
        self.ransac: list[tuple[int, int, int]] = []  # (span, matches, inliers)
        self.missing: list[str] = []                  # paths install skipped
        self._stage_names: dict[int, str] = {}

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           not tensor._GRAD_ENABLED])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def _spanned(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        wrapper.__traced__ = True
        return wrapper

    def _tensor_op(self, fn, name: str):
        tracer = self
        bwd_name = name + ".bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nodes = tensor.active_tape().nodes
            n0 = len(nodes)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            for node in nodes[n0:]:
                if not getattr(node.backward_fn, "__traced__", False):
                    node.backward_fn = tracer._spanned(node.backward_fn, bwd_name)
            return out

        wrapper.__traced__ = True
        return wrapper

    def _backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(loss):
            idx = tracer.open("tensor.backward")
            tracer.tape_nodes.append((idx, len(tensor.active_tape())))
            try:
                return fn(loss)
            finally:
                tracer.close(idx)

        return wrapper

    def _ransac(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(matches, *args, **kwargs):
            idx = tracer.open("evalkit.ransac_homography")
            try:
                h_mat, inliers = fn(matches, *args, **kwargs)
            finally:
                tracer.close(idx)
            n = len(matches.points if hasattr(matches, "points") else matches)
            tracer.ransac.append((idx, n, len(inliers)))
            return h_mat, inliers

        return wrapper

    def _stage(self, fn):
        """Stage spans are named after the stage's index in its encoder."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(stage, *args, **kwargs):
            idx = tracer.open(tracer._stage_names.get(id(stage), "encoder.stage?"))
            try:
                return fn(stage, *args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def _encode_pair(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(enc, *args, **kwargs):
            tracer._stage_names = {id(s): f"encoder.stage{i + 1}"
                                   for i, s in enumerate(enc.stages)}
            return fn(enc, *args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        specs = [(module, path, functools.partial(
                      self._tensor_op if module is tensor else self._spanned, name=name))
                 for module, path, name in FUNCTIONS]
        specs += [
            (tensor, "backward", self._backward),
            (evalkit, "ransac_homography", self._ransac),
            (encoder, "Stage.forward_pair", self._stage),
            (encoder, "Encoder.encode_pair", self._encode_pair),
        ]
        self.missing.clear()
        for module, path, factory in specs:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module.__name__}.{path}")
                continue
            owner, attr = found
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the part of it covered by direct child spans."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                p0, p1 = self.spans[parent][1], self.spans[parent][2]
                covered[parent] += max(0.0, min(t1, p1) - max(t0, p0))
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def roots(self) -> list[int]:
        """Root span of every span (a root is its own root)."""
        out = [0] * len(self.spans)
        for i, s in enumerate(self.spans):
            out[i] = i if s[3] < 0 else out[s[3]]
        return out

    def write(self, path: str) -> None:
        """Gzipped TSV, one span per line: name, start, end, parent, no_grad."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\tno_grad\n")
            for name, t0, t1, parent, flag in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{int(flag)}\n")

