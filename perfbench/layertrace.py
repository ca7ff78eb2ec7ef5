"""Outside-in layer tracing: spans around calls into tucksketch's public functions.

Each public function of a package module (the names in its ``__all__``) and
each public method of ``RngStream`` is replaced by a timing wrapper in every
namespace that binds it, so a call is traced where it is looked up: the
``truncated_svd`` that ``tucksketch.tucker`` imported is wrapped in
``tucksketch.tucker`` as well as in ``tucksketch.linalg``. Nothing in the
package itself changes; ``uninstall`` puts every original back.

Spans are kept in memory as (name, start_ns, end_ns, parent, trial, work) and
written out when the run ends. ``work`` is a count computed from the call's
arguments and result for the few layers where one is named (draws, bytes,
flops); every per-layer metric is derived from the span list alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("tensor", "rng", "linalg", "tucker", "metrics", "datagen", "imageio", "cli")

_PIPELINES = ("thosvd", "sthosvd", "r_sthosvd", "sketch_sthosvd", "sub_sketch_sthosvd")
_FALLBACK_PARENTS = ("tucker.r_sthosvd", "tucker.sketch_sthosvd", "tucker.sub_sketch_sthosvd")


def _thin_svd_mnk(args, kwargs, result):
    m, n = args[0].shape
    return m * n * min(m, n)


def _unfold_copy_bytes(args, kwargs, result):
    # a result that may share memory with its input is a view, not a copy
    return 0 if np.may_share_memory(result, args[0]) else result.nbytes


def _normal_draws(args, kwargs, result):
    return result.size


def _loaded_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


_WORK = {
    "linalg.thin_svd": _thin_svd_mnk,
    "tensor.unfold": _unfold_copy_bytes,
    "rng.RngStream.normal": _normal_draws,
    "imageio.load_image_tensor": _loaded_bytes,
    "imageio.save_image_tensor": _saved_bytes,
}


class Tracer:
    """Records spans while installed and ``active``; a no-op wrapper otherwise."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.trial = None
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer, work = self, _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.trial, None)
            if work is not None:
                tracer.spans[sid] = (name, start, end, parent, tracer.trial, work(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and RngStream method of the package."""
        import tucksketch.rng

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"tucksketch.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        cls = tucksketch.rng.RngStream
        for attr, fn in list(vars(cls).items()):
            if inspect.isfunction(fn) and not attr.startswith("_"):
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(f"rng.RngStream.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "tucksketch" or modname.startswith("tucksketch.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """One JSON object per line: name, start/end (ns), parent index, trial, work."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, trial, work) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "trial": trial, "work": work}) + "\n")


def layer_metrics(spans, warning_counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics named by the benchmark, as {name: (value, unit)}.

    Generator layers (``datagen``) run only while the input is built; every
    other layer sums the spans recorded inside traced trials.
    """
    total_ns = defaultdict(int)
    child_ns = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    for name, start, end, parent, trial, w in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ns = defaultdict(int)
    fallback = 0
    for i, (name, start, end, parent, trial, w) in enumerate(spans):
        if (trial is None) != name.startswith("datagen."):
            continue
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        if w is not None:
            work[name] += w
        if name == "linalg.truncated_svd" and parent is not None and spans[parent][0] in _FALLBACK_PARENTS:
            fallback += 1

    def ms(ns):
        return ns / 1e6

    out: dict[str, tuple[float, str]] = {}
    for algo in _PIPELINES:
        out[f"tucker.{algo}.ms"] = (ms(total_ns[f"tucker.{algo}"]), "ms")
        out[f"tucker.{algo}.self_ms"] = (ms(self_ns[f"tucker.{algo}"]), "ms")
    for name in ("reconstruct", "save_model", "load_model"):
        out[f"tucker.{name}.ms"] = (ms(total_ns[f"tucker.{name}"]), "ms")
    out["tucker.fallback_modes"] = (fallback, "count")
    out["linalg.thin_svd.calls"] = (calls["linalg.thin_svd"], "count")
    out["linalg.thin_svd.self_ms"] = (ms(self_ns["linalg.thin_svd"]), "ms")
    out["linalg.thin_svd.mnk"] = (work["linalg.thin_svd"], "count")
    for name in ("truncated_svd", "rsvd", "sketch", "sub_sketch"):
        out[f"linalg.{name}.self_ms"] = (ms(self_ns[f"linalg.{name}"]), "ms")
    for name in ("orthonormalize", "thin_qr"):
        out[f"linalg.{name}.calls"] = (calls[f"linalg.{name}"], "count")
        out[f"linalg.{name}.self_ms"] = (ms(self_ns[f"linalg.{name}"]), "ms")
    out["linalg.rank_deficient_solves"] = (warning_counts.get("rank_deficient", 0), "count")
    out["linalg.clamped_sketch_modes"] = (warning_counts.get("clamped", 0), "count")
    out["rng.normal.draws"] = (work["rng.RngStream.normal"], "count")
    out["rng.normal.self_ms"] = (ms(self_ns["rng.RngStream.normal"]), "ms")
    out["rng.uniform.self_ms"] = (ms(self_ns["rng.RngStream.uniform"]), "ms")
    out["rng.gaussian_matrix.calls"] = (calls["rng.gaussian_matrix"], "count")
    out["tensor.unfold.calls"] = (calls["tensor.unfold"], "count")
    out["tensor.unfold.copy_bytes"] = (work["tensor.unfold"], "B")
    for name in ("unfold", "fold", "mode_n_product", "frobenius_norm"):
        out[f"tensor.{name}.self_ms"] = (ms(self_ns[f"tensor.{name}"]), "ms")
    for name in ("relative_error", "psnr"):
        out[f"metrics.{name}.self_ms"] = (ms(self_ns[f"metrics.{name}"]), "ms")
    for name in ("hilbert_tensor", "add_scaled_noise", "gaussian_tensor"):
        out[f"datagen.{name}.ms"] = (ms(total_ns[f"datagen.{name}"]), "ms")
    for name in ("load_image_tensor", "save_image_tensor"):
        out[f"imageio.{name}.ms"] = (ms(total_ns[f"imageio.{name}"]), "ms")
    out["imageio.bytes"] = (work["imageio.load_image_tensor"] + work["imageio.save_image_tensor"], "B")
    out["cli.main.self_ms"] = (ms(self_ns["cli.main"]), "ms")
    return out
