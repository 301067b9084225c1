"""Spans around the calls into each qsmkit layer, recorded from outside src/.

Tracing wraps every public function of the layer modules in place, in every
qsmkit module that bound it by name, so the program's own code is unchanged.
Nodes returned by autodiff ops get their ``_backward`` wrapped as well, so
backward time is charged to the op that built the node. ``restore()`` puts
every original back. Spans stay in memory; ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("phantom", "dipole", "classical", "autodiff", "network", "losses",
          "training", "metrics", "volume")
# Private functions worth a span: each MEDI objective evaluation is one
# line-search trial. Skipped quietly if a later version renames it.
PRIVATE = {"classical": ("_medi_objective",)}
# autodiff functions that are not tape ops; they get plain spans.
AUTODIFF_NOT_OPS = {"backward", "zero_grads", "numeric_gradient",
                    "check_gradients"}
AUTODIFF_NAMED = ("conv3d", "instance_norm", "spectral_filter")
FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn")


class Patcher:
    """Replaces module attributes and remembers the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, original, wrapper) -> None:
        """Point every qsmkit module attribute bound to ``original`` at
        ``wrapper``; ``from .x import f`` leaves such bindings in many
        modules."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "qsmkit" or n.startswith("qsmkit.")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)


def _file_bytes(path_arg_index: int):
    def measure(args, kwargs, out):
        path = args[path_arg_index] if len(args) > path_arg_index else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return measure


def _fft_bytes(args, kwargs, out):
    return {"bytes": np.asarray(args[0]).nbytes + out.nbytes}


def _iterations(args, kwargs, out):
    # medi_invert returns (volume, trace rows incl. iteration 0);
    # cg_least_squares returns (volume, residuals incl. the initial one)
    return {"iters": len(out[1]) - 1}


MEASURES = {
    "network.save_checkpoint": _file_bytes(1),
    "volume.write_volume": _file_bytes(1),
    "volume.read_volume": _file_bytes(0),
    "classical.medi_invert": _iterations,
    "classical.cg_least_squares": _iterations,
    "dipole.fft": _fft_bytes,
}


class Tracer:
    """Records (name, start, end, parent, op, attrs) spans.

    ``op`` is the id of the benchmark operation the span belongs to, or None
    during set-up and checks; the workload sets it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.ops = 0
        self.tape_nodes: dict[int | None, int] = defaultdict(int)
        self._stack: list[int] = []
        self._ad_owner: str | None = None
        self._patcher = Patcher()

    def new_op(self) -> int:
        """Id for the next benchmark operation; spans opened after this
        assignment belong to it."""
        self.ops += 1
        return self.ops - 1

    # -- spans --------------------------------------------------------------
    def _open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, f):
        measure = MEASURES.get(name)

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = f(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self.spans[idx][5] = measure(args, kwargs, out)
            return out
        return wrapper

    def _ad_op(self, name: str, f):
        """Forward spans go to the outermost autodiff op, so the primitives a
        composite op (instance_norm) calls are charged to it; so is the
        backward of every node built inside it."""
        category = name if name in AUTODIFF_NAMED else "other_ops"

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            outer = self._ad_owner is None
            owner = category if outer else self._ad_owner
            attrs = _conv_attrs(args, kwargs) if name == "conv3d" else None
            if outer:
                self._ad_owner = owner
                idx = self._open(f"autodiff.{owner}.fwd", attrs)
            try:
                out = f(*args, **kwargs)
            finally:
                if outer:
                    self._close(idx)
                    self._ad_owner = None
            back = getattr(out, "_backward", None)
            if back is not None and not getattr(back, "traced", False):
                self.tape_nodes[self.op] += 1
                out._backward = self._ad_backward(owner, back, attrs)
            return out
        return wrapper

    def _ad_backward(self, owner: str, back, attrs):
        def wrapper(g):
            idx = self._open(f"autodiff.{owner}.bwd", attrs)
            try:
                return back(g)
            finally:
                self._close(idx)
        wrapper.traced = True
        return wrapper

    # -- install / restore --------------------------------------------------
    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"qsmkit.{layer}")
            names = [n for n, v in vars(mod).items()
                     if inspect.isfunction(v) and v.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += [n for n in PRIVATE.get(layer, ()) if hasattr(mod, n)]
            for n in names:
                f = getattr(mod, n)
                if layer == "autodiff" and n not in AUTODIFF_NOT_OPS:
                    wrapper = self._ad_op(n, f)
                else:
                    wrapper = self._timed(f"{layer}.{n}", f)
                self._patcher.replace(f, wrapper)
        for n in FFT_FUNCS:
            f = getattr(np.fft, n)
            wrapper = self._timed("dipole.fft", f)
            self._patcher.set(np.fft, n, wrapper)
            self._patcher.replace(f, wrapper)

    def restore(self) -> None:
        self._patcher.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _conv_attrs(args, kwargs) -> dict:
    """Work of one conv3d, computed from shapes as 2 * multiply-adds."""
    x, w = args[0].data, args[1].data
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    pad = kwargs.get("pad", args[4] if len(args) > 4 else 0)
    c_out, c_in, k1, k2, k3 = w.shape
    out_sp = [(n + 2 * pad - k) // stride + 1 for n, k in zip(x.shape[1:], (k1, k2, k3))]
    flops = 2.0 * c_out * int(np.prod(out_sp)) * c_in * k1 * k2 * k3
    shape = f"{c_in}->{c_out} k{k1} s{stride} {'x'.join(map(str, x.shape[1:]))}"
    return {"flops": flops, "shape": shape}


def _ancestor(spans, idx: int, names) -> int | None:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return None


def layer_metrics(tracer: Tracer, n_ops: int, untraced_op_s: list[float],
                  traced_op_s: list[float]) -> tuple[dict, dict]:
    """Reduce spans to the per-layer metrics and a trace-file summary.

    Suffixes: ``.s`` is mean inclusive seconds per call over the whole run
    (set-up included); ``_s``, ``.calls``, ``.gflop`` and ``.gbytes`` on
    autodiff, fft and the step phases are per benchmark operation, from the
    spans inside operations only. A layer a workload never calls reads 0.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent, op, attrs in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    calls = defaultdict(int)
    total = defaultdict(float)
    op_calls = defaultdict(int)
    op_total = defaultdict(float)
    op_self = defaultdict(float)
    self_total = defaultdict(float)
    flops = 0.0
    fft_bytes = 0.0
    shapes: dict[str, list] = {}
    solver = {"classical.medi_invert": defaultdict(float),
              "classical.cg_least_squares": defaultdict(float)}
    for i, (name, t0, t1, parent, op, attrs) in enumerate(spans):
        dur = t1 - t0
        calls[name] += 1
        total[name] += dur
        self_total[name] += dur - child_s[i]
        if op is not None:
            op_calls[name] += 1
            op_total[name] += dur
            op_self[name] += dur - child_s[i]
            if name.startswith("autodiff.conv3d."):
                is_fwd = name.endswith(".fwd")
                work = attrs["flops"] * (1.0 if is_fwd else 2.0)
                flops += work
                row = shapes.setdefault(attrs["shape"], [0, 0.0, 0.0, 0.0])
                row[0] += is_fwd
                row[1 if is_fwd else 2] += dur
                row[3] += work
            elif name == "dipole.fft" and attrs:
                fft_bytes += attrs["bytes"]
        if name in solver:
            solver[name]["s"] += dur
            solver[name]["iters"] += (attrs or {}).get("iters", 0)
        elif name in ("dipole.apply_spectrum", "classical._medi_objective"):
            anc = _ancestor(spans, i, solver)
            if anc is not None:
                solver[spans[anc][0]][name] += 1

    def per_call(name):
        return total[name] / calls[name] if calls[name] else 0.0

    def per_op(table, name):
        return table[name] / n_ops if n_ops else 0.0

    def mean_bytes(*names):
        vals = [s[5]["bytes"] for s in spans if s[0] in names and s[5]]
        return sum(vals) / len(vals) if vals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    conv_s = op_total["autodiff.conv3d.fwd"] + op_total["autodiff.conv3d.bwd"]
    medi, cgls = solver["classical.medi_invert"], solver["classical.cg_least_squares"]
    trials = medi["classical._medi_objective"] - calls["classical.medi_invert"]
    op_nodes = sum(v for k, v in tracer.tape_nodes.items() if k is not None)
    m = {
        "autodiff.conv3d.fwd_s": (per_op(op_total, "autodiff.conv3d.fwd"), "s"),
        "autodiff.conv3d.bwd_s": (per_op(op_total, "autodiff.conv3d.bwd"), "s"),
        "autodiff.conv3d.calls": (per_op(op_calls, "autodiff.conv3d.fwd"), "count"),
        "autodiff.conv3d.gflop": (flops / 1e9 / n_ops if n_ops else 0.0, "GFLOP"),
        "autodiff.conv3d.gflop_per_s": (ratio(flops / 1e9, conv_s), "GFLOP/s"),
    }
    for cat in ("instance_norm", "spectral_filter", "other_ops"):
        for d in ("fwd", "bwd"):
            m[f"autodiff.{cat}.{d}_s"] = (per_op(op_total, f"autodiff.{cat}.{d}"), "s")
    m.update({
        "autodiff.backward.walk_s": (per_op(op_self, "autodiff.backward"), "s"),
        "autodiff.tape_nodes_per_step": (op_nodes / n_ops if n_ops else 0.0, "count"),
        "network.forward_generator.s": (per_call("network.forward_generator"), "s"),
        "network.forward_discriminator.s": (per_call("network.forward_discriminator"), "s"),
        "network.adam_step.s": (per_call("network.adam_step"), "s"),
        "network.save_checkpoint.s": (per_call("network.save_checkpoint"), "s"),
        "network.save_checkpoint.bytes": (mean_bytes("network.save_checkpoint"), "B"),
        "losses.total_generator_loss.s": (per_call("losses.total_generator_loss"), "s"),
        "training.step.sample_s": (per_op(op_total, "training.sample_patches")
                                   + per_op(op_total, "training.augment"), "s"),
        "training.step.forward_s": (per_op(op_total, "losses.total_generator_loss"), "s"),
        "training.step.backward_s": (per_op(op_total, "autodiff.backward"), "s"),
        "training.step.update_s": (per_op(op_total, "network.adam_step")
                                   + per_op(op_total, "autodiff.zero_grads"), "s"),
        "training.infer_stitched.self_s": (
            ratio(self_total["training.infer_stitched"], calls["training.infer_stitched"]), "s"),
        "dipole.apply_spectrum.s": (per_call("dipole.apply_spectrum"), "s"),
        "dipole.apply_spectrum.calls": (per_op(op_calls, "dipole.apply_spectrum"), "count"),
        "dipole.fft.calls": (per_op(op_calls, "dipole.fft"), "count"),
        "dipole.fft.gbytes": (fft_bytes / 1e9 / n_ops if n_ops else 0.0, "GB"),
        "dipole.build_dipole.s": (per_call("dipole.build_dipole"), "s"),
        "dipole.forward_field.s": (per_call("dipole.forward_field"), "s"),
        "classical.medi.iter_s": (ratio(medi["s"], medi["iters"]), "s"),
        "classical.medi.applies_per_iter": (
            ratio(medi["dipole.apply_spectrum"], medi["iters"]), "count"),
        "classical.medi.linesearch_accept_ratio": (ratio(medi["iters"], trials), "ratio"),
        "classical.cgls.iter_s": (ratio(cgls["s"], cgls["iters"]), "s"),
        "classical.cgls.applies_per_iter": (
            ratio(cgls["dipole.apply_spectrum"], cgls["iters"]), "count"),
        "classical.tkd.s": (per_call("classical.tkd_invert"), "s"),
        "classical.build_medi_weights.s": (per_call("classical.build_medi_weights"), "s"),
        "metrics.rmse.s": (per_call("metrics.rmse"), "s"),
        "metrics.ssim3.s": (per_call("metrics.ssim3"), "s"),
        "phantom.make_random_piecewise.s": (per_call("phantom.make_random_piecewise"), "s"),
        "phantom.simulate_case.s": (per_call("phantom.simulate_case"), "s"),
        "volume.write_volume.s": (per_call("volume.write_volume"), "s"),
        "volume.read_volume.s": (per_call("volume.read_volume"), "s"),
        "volume.bytes": (mean_bytes("volume.write_volume", "volume.read_volume"), "B"),
        "trace.overhead_frac": (ratio(statistics.median(traced_op_s or [0.0]),
                                      statistics.median(untraced_op_s or [0.0])), "ratio"),
    })
    summary = {
        "ops": n_ops,
        "by_span": {n: {"calls": calls[n], "total_s": total[n],
                        "self_s": self_total[n]} for n in sorted(calls)},
        "conv3d_by_shape": {k: {"calls": v[0], "fwd_s": v[1], "bwd_s": v[2],
                                "gflop_computed": v[3] / 1e9}
                            for k, v in sorted(shapes.items())},
    }
    return m, summary
