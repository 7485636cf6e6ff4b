"""Span tracing of the package's layers, installed from outside the package.

A layer is a module (or, for the counting pipeline, one function of
``pointcount``); its entry points are rebound, in every ``pottsmotive``
module namespace that holds them, to wrappers that record a span per
outermost call.  A call made while the same layer is already on the stack
runs unrecorded, so the ~20k recursive ``tutte_delcon`` calls of a verify
pass cost one flag test each and ``tutte.calls`` counts only outermost calls.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

from pottsmotive.errors import ResourceLimitError

# Layers whose entry points are all public functions defined in the module.
MODULE_LAYERS = ("tutte", "grothendieck", "motivic", "tangentcone")
LAYERS = MODULE_LAYERS + ("pointcount.dense", "pointcount.interp", "kernel", "cli")
# Kernel calls replayed on the other backend, when one is importable.
CROSS_KERNEL_SAMPLES = 16
CROSS_KERNEL_EVERY = 25
CROSS_KERNEL_MAX_POINTS = 10**6


def kernel_modules() -> dict:
    """The importable kernel backends, by `kernel_backend()` name."""
    out = {"pure": importlib.import_module("pottsmotive._countpure")}
    try:
        out["compiled"] = importlib.import_module("pottsmotive._countcore")
    except ImportError:
        pass
    return out


def _terms(result) -> int:
    if isinstance(result, tuple):
        return sum(len(p.terms) for p in result)
    return len(result.terms)


class Tracer:
    """Records spans ``[name, start, end, parent, op]`` in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.kernel_samples: list = []
        self._stack = [-1]
        self._busy: set = set()
        self._op = 0
        self._undo: list = []

    # -- operations ------------------------------------------------------------

    def begin_op(self, name: str) -> None:
        self._op += 1
        self._open(f"op:{name}")

    def end_op(self) -> None:
        self._close(perf_counter())

    def _open(self, name: str) -> None:
        self.spans.append([name, perf_counter(), None, self._stack[-1], self._op])
        self._stack.append(len(self.spans) - 1)

    def _close(self, end: float) -> None:
        self.spans[self._stack.pop()][2] = end

    # -- installation ------------------------------------------------------------

    def _wrap(self, layer: str, fn, measure=None, rewrite=None):
        busy = self._busy

        def traced(*args, **kwargs):
            if layer in busy:
                return fn(*args, **kwargs)
            if rewrite is not None:
                args = rewrite(args)
            busy.add(layer)
            self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError:
                self.counts[f"{layer}.refused"] += 1  # the budget gate said no
                raise
            finally:
                self._close(perf_counter())
                busy.discard(layer)
            if measure is not None:
                measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` wherever a package module binds it, including
        inside module-level dicts such as the CLI's dispatch table."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("pottsmotive"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, value))
                    namespace[key] = wrapper
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, v))
                            value[k] = wrapper

    def install(self) -> None:
        count = self.counts

        def tutte_measure(args, result):
            count["tutte.terms_out"] += _terms(result)

        for layer in MODULE_LAYERS:
            module = importlib.import_module(f"pottsmotive.{layer}")
            measure = tutte_measure if layer == "tutte" else None
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not name.startswith("_"):
                    self._rebind(fn, self._wrap(layer, fn, measure))

        def dense_measure(args, result):
            count["pointcount.dense.coeffs_out"] += sum(len(c) for _, c in result[1])

        def count_samples(args):
            counter = args[0]

            def counted(prime):
                count["pointcount.interp.samples"] += 1
                return counter(prime)

            return (counted,) + tuple(args[1:])

        pointcount = importlib.import_module("pottsmotive.pointcount")
        fn = pointcount._dense_system
        self._rebind(fn, self._wrap("pointcount.dense", fn, measure=dense_measure))
        fn = pointcount.count_report
        self._rebind(fn, self._wrap("pointcount.interp", fn, rewrite=count_samples))

        for backend, module in kernel_modules().items():
            self._install_kernel(backend, module)

        cli = importlib.import_module("pottsmotive.cli")
        for command in cli.cli.commands.values():
            self._undo.append((command, "callback", command.callback))
            command.callback = self._wrap("cli", command.callback)

    def _install_kernel(self, backend: str, module) -> None:
        count = self.counts
        samples = self.kernel_samples
        seen = [0]

        def kernel_measure(args, result):
            polys, nvars, prime = args
            points = prime**nvars
            count["kernel.nominal_points"] += points
            seen[0] += 1
            if (
                seen[0] % CROSS_KERNEL_EVERY == 1
                and points <= CROSS_KERNEL_MAX_POINTS
                and len(samples) < CROSS_KERNEL_SAMPLES
            ):
                samples.append((backend, polys, nvars, prime, result))

        fn = module.count_common_zeros
        self._undo.append((module, "count_common_zeros", fn))
        module.count_common_zeros = self._wrap("kernel", fn, measure=kernel_measure)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def cross_kernel(self) -> dict:
        """Replay the sampled kernel calls on the other backend."""
        backends = kernel_modules()
        if len(backends) < 2:
            return {"status": "unavailable", "checked": 0, "mismatches": 0}
        mismatches = 0
        for backend, polys, nvars, prime, result in self.kernel_samples:
            other = backends["pure" if backend == "compiled" else "compiled"]
            if other.count_common_zeros(polys, nvars, prime) != result:
                mismatches += 1
        return {
            "status": "checked",
            "checked": len(self.kernel_samples),
            "mismatches": mismatches,
        }

    def layer_metrics(self) -> dict:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            if name.startswith("op:"):
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for key in (
            "tutte.terms_out",
            "pointcount.dense.coeffs_out",
            "kernel.nominal_points",
            "pointcount.interp.samples",
            "pointcount.interp.refused",
        ):
            out[key] = self.counts[key]
        kernel_s = self_s["kernel"]
        out["kernel.points_per_s"] = out["kernel.nominal_points"] / kernel_s if kernel_s else 0.0
        return out
