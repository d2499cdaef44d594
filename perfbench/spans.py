"""Per-layer tracing from outside the program.

Wraps public functions and methods of each numsemi layer, on every loaded
module namespace that binds them, and records one span per call: name,
start, end, parent span and operation id, kept in memory in flat integer
arrays and written out when the run ends.  Self time is a span's duration
minus the time its child spans cover.  Span and metric names call the
``numsemi._kernels`` layer ``kernels``: metric names start with a letter.

``numsemi.arith`` is not wrapped: ``checked_int64`` runs once per Apery
element, so a wrapper would cost more than the function; its time stays
in its callers' self time.  ``NumericalSemigroup.contains`` is left
unwrapped for the same reason (the Betti scan calls it once per integer).
The kernel backend module itself is not rebound either, so a kernel that
calls another (``is_representable`` -> ``min_representation``) stays one
span, as it must on the compiled backend.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("kernels", "core", "telescopic", "figurate", "cli")

_KERNELS = ("apery_levels", "factorizations_of", "min_representation", "is_representable")
_CORE_FUNCTIONS = ("frobenius_oracle", "minimal_generators", "representation", "evaluate")
_CORE_METHODS = {
    "NumericalSemigroup": ("__init__", "apery", "frobenius", "betti_elements", "rs_partition"),
    "AperySet": ("__init__",),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.op = -1
        self._stack = [-1]
        # work counters gathered by the wrappers' result hooks
        self.cells = 0
        self.vectors = 0
        self.min_rep_hits = 0
        self.apery_elements = 0
        self.apery_inputs: set[tuple[int, tuple[int, ...]]] = set()
        self.semigroups: set[tuple[int, ...]] = set()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span: str, fn, hook=None):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter_ns
        stack = self._stack
        name, start, end, parent, op_id = self.name, self.start, self.end, self.parent, self.op_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced name on every loaded numsemi namespace."""
        kernels = sys.modules["numsemi._kernels"]
        core = sys.modules["numsemi.core"]
        hooks = {
            "apery_levels": self._on_apery_levels,
            "factorizations_of": self._on_factorizations,
            "min_representation": self._on_min_representation,
        }
        for fname in _KERNELS:
            fn = getattr(kernels, fname)
            self._rebind(fn, self._wrap(f"kernels.{fname}", fn, hooks.get(fname)))
        for fname in _CORE_FUNCTIONS:
            fn = getattr(core, fname)
            self._rebind(fn, self._wrap(f"core.{fname}", fn))
        for layer in ("telescopic", "figurate"):
            module = sys.modules[f"numsemi.{layer}"]
            for fname, fn in list(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                hook = self._on_figurate_apery if fname in ("triangular_apery", "tetrahedral_apery") else None
                self._rebind(fn, self._wrap(f"{layer}.{fname}", fn, hook))
        for cls_name, methods in _CORE_METHODS.items():
            cls = getattr(core, cls_name)
            for meth in methods:
                span = f"core.{cls_name}" if meth == "__init__" else f"core.{meth}"
                hook = self._on_semigroup if (cls_name, meth) == ("NumericalSemigroup", "__init__") else None
                setattr(cls, meth, self._wrap(span, vars(cls)[meth], hook))
        cli = sys.modules["numsemi.cli"]
        self._rebind(cli.main, self._wrap("cli.main", cli.main))

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "numsemi" and not mod_name.startswith("numsemi."):
                continue
            if mod_name.startswith("numsemi._kernels."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _on_apery_levels(self, args, result) -> None:
        m, gens = args
        self.cells += m
        self.apery_inputs.add((m, tuple(gens)))

    def _on_factorizations(self, args, result) -> None:
        self.vectors += len(result)

    def _on_min_representation(self, args, result) -> None:
        if result is not None:
            self.min_rep_hits += 1

    def _on_semigroup(self, args, result) -> None:
        self.semigroups.add(args[0].generators)

    def _on_figurate_apery(self, args, result) -> None:
        self.apery_elements += len(result)

    # -- analysis -----------------------------------------------------------

    def span_stats(self) -> dict[str, tuple[int, int]]:
        """(calls, self time in ns) per span name."""
        count = len(self.start)
        child = [0] * count
        name, start, end, parent = self.name, self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(count):
            nid = name[i]
            calls[nid] += 1
            self_ns[nid] += end[i] - start[i] - child[i]
        return {n: (calls[i], self_ns[i]) for i, n in enumerate(self.names)}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit) pairs."""
        stats = self.span_stats()

        def calls(span: str) -> int:
            return stats.get(span, (0, 0))[0]

        def self_s(span: str) -> float:
            return stats.get(span, (0, 0))[1] / 1e9

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for span in (
            "kernels.apery_levels",
            "kernels.factorizations_of",
            "kernels.min_representation",
            "kernels.is_representable",
            "core.NumericalSemigroup",
            "core.apery",
            "core.AperySet",
            "core.betti_elements",
            "core.rs_partition",
            "telescopic.is_telescopic",
            "telescopic.cstar_constants",
            "telescopic.is_free",
            "telescopic.brauer_shockley_frobenius",
            "figurate.triangular_apery",
            "figurate.tetrahedral_apery",
        ):
            out[f"{span}.calls"] = (calls(span), "count")
            out[f"{span}.self_s"] = (self_s(span), "s")
        out["core.frobenius_oracle.calls"] = (calls("core.frobenius_oracle"), "count")
        out["kernels.apery_levels.cells"] = (self.cells, "count")
        out["kernels.apery_levels.distinct_ratio"] = (
            ratio(len(self.apery_inputs), calls("kernels.apery_levels")),
            "ratio",
        )
        out["kernels.factorizations_of.vectors"] = (self.vectors, "count")
        out["kernels.min_representation.hit_ratio"] = (
            ratio(self.min_rep_hits, calls("kernels.min_representation")),
            "ratio",
        )
        out["core.NumericalSemigroup.distinct_ratio"] = (
            ratio(len(self.semigroups), calls("core.NumericalSemigroup")),
            "ratio",
        )
        out["figurate.apery_elements"] = (self.apery_elements, "count")
        for layer in LAYERS:
            total = sum(ns for span, (_, ns) in stats.items() if span.startswith(layer + "."))
            out[f"{layer}.self_s"] = (total / 1e9, "s")
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON: the name table plus one column per field."""
        payload = {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "columns": [a.tolist() for a in (self.name, self.start, self.end, self.parent, self.op_id)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
