"""Span tracer installed around scangibbs from outside the package.

Every public function of the seven layer modules is replaced, wherever it
is bound (its own module, the package root and modules that imported the
name directly), by a wrapper that records one span per call: layer,
function, start, end, parent span and the operation id the benchmark set.
Spans stay in memory until ``write``. Counts are derived only from
arguments and return values (``StateSpace.size``, ``Kernel.matrix.shape``,
``MixingReport.tv_curve``, ``BipartiteModel.edges``); they are computed,
not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = ("model", "chain", "spectral", "mixing", "lumped", "coupling", "cli")

# Functions whose self time is reported on its own, per the layer table.
DETAILED = {
    "chain": ("enumerate_state_space", "random_update_kernel", "scan_kernels",
              "reversibilization", "adjoint", "is_ergodic", "is_reversible"),
    "spectral": ("deviation_norm", "relaxation_time", "verify_theorem1"),
    "mixing": ("exact_mixing_time", "verify_mixing_bounds"),
}

_EIGENSOLVERS = ("deviation_norm", "general_operator_norm")
_CHARGED = "_perfbench_charged"


def _is_power_of_two(t: int) -> bool:
    return t > 0 and t & (t - 1) == 0


def mixing_products(tv_curve, method: str) -> int:
    """Matrix products behind one MixingReport, from its TV curve alone.

    The doubling search squares once per power-of-two point t >= 2 and
    builds each bisection point mid from popcount(mid) stored squares;
    the iterate path multiplies once per step after t = 1.
    """
    ts = [t for t, _ in tv_curve if t >= 1]
    if method == "iterate":
        return max(len(ts) - 1, 0)
    squarings = sum(1 for t in ts if t >= 2 and _is_power_of_two(t))
    bisections = sum(bin(t).count("1") - 1 for t in ts if not _is_power_of_two(t))
    return squarings + bisections


class Tracer:
    """Collects spans and computed counts while installed."""

    def __init__(self):
        self.spans = []          # (op, layer, name, start, end, self_s, parent, failed, round)
        self.op = None
        # Round 0 builds the inputs; counts cover rounds 0 and 1 only, so
        # they repeat exactly however many rounds fit in the run.
        self.round = 0
        self.counts = defaultdict(int)
        self._stack = []         # [span index, child time]
        self._kernels = weakref.WeakValueDictionary()
        self._restore = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        package = importlib.import_module("scangibbs")
        modules = {layer: importlib.import_module(f"scangibbs.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        for holder in (package, *modules.values()):
            for name, obj in list(vars(holder).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(holder, name, entry[1])
                    self._restore.append((holder, name, obj))

    def uninstall(self) -> None:
        for holder, name, obj in reversed(self._restore):
            setattr(holder, name, obj)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording --------------------------------------------------------
    def _wrap(self, fn, layer, name):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            failed = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # A failure is charged to the span it started in only.
                failed = not getattr(exc, _CHARGED, False)
                if failed:
                    setattr(exc, _CHARGED, True)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (self.op, layer, name, start, end,
                                duration - frame[1], parent, failed, self.round)
            if self.round <= 1:
                self._count(layer, name, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, layer, name, signature, args, kwargs, result) -> None:
        counts = self.counts
        kind = type(result).__name__
        if layer == "model" and kind == "BipartiteModel":
            counts["model.edges"] += len(result.edges)
        elif layer == "chain":
            if kind == "StateSpace":
                counts["chain.states"] += result.size
            kernels = result.values() if isinstance(result, dict) else (result,)
            for kernel in kernels:
                if type(kernel).__name__ == "Kernel" and id(kernel) not in self._kernels:
                    self._kernels[id(kernel)] = kernel
                    rows, cols = kernel.matrix.shape
                    counts["chain.dense_kernel_bytes"] += 8 * rows * cols
        elif layer == "spectral" and name in _EIGENSOLVERS:
            space = signature.bind(*args, **kwargs).arguments["space"]
            counts["spectral.eigensolves"] += 1
            counts["spectral.eig_n3"] += space.size ** 3
        elif layer == "mixing" and name == "exact_mixing_time":
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            size = bound.arguments["kernel"].matrix.shape[0]
            products = mixing_products(result.tv_curve, bound.arguments["method"])
            counts["mixing.tv_evaluations"] += sum(1 for t, _ in result.tv_curve if t >= 1)
            counts["mixing.matrix_products"] += products
            counts["mixing.flops"] += products * 2 * size ** 3

    # -- summaries --------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Self time per layer and detailed function, calls and failures per layer.

        Self times sum over every traced round; calls and failures count
        rounds 0 and 1 only, like the computed counts.
        """
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.failed"] = 0
            for name in DETAILED.get(layer, ()):
                out[f"{layer}.{name}.self_s"] = 0.0
        for (_, layer, name, _, _, self_s, _, failed, rnd) in self.spans:
            out[f"{layer}.self_s"] += self_s
            if rnd <= 1:
                out[f"{layer}.calls"] += 1
                out[f"{layer}.failed"] += int(failed)
            key = f"{layer}.{name}.self_s"
            if key in out:
                out[key] += self_s
        return out

    def layer_self_time(self, layer: str, op: str) -> float:
        return sum((s[5] for s in self.spans if s[1] == layer and s[0] == op), 0.0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (op, layer, name, start, end, self_s, parent, failed, rnd) in enumerate(
                    self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "round": rnd, "layer": layer,
                    "name": name, "start": start, "end": end, "self_s": self_s,
                    "failed": failed,
                }) + "\n")
