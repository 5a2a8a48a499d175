"""Spans around smoothgen's public functions, installed from outside the program.

``Tracer.install`` wraps every function named in the ``__all__`` of each
smoothgen module and rebinds the wrapper under every name that refers
to the original in any smoothgen module, because ``cli``, ``spectrum``
and ``intrinsic`` import functions by name.  A span is
``[name, start, end, parent, covered]``, where ``covered`` is the time
of the direct children plus the time the tracer spent counting inside
them; a span's self time is its duration minus ``covered``.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import statistics
import sys
import time
import types
from collections import Counter
from typing import Any, Callable

# layer metric -> spans whose self time it sums
SELF_TIME = {
    "distributions.iid_power_s": ("distributions.iid_power",),
    "distributions.expand_s": ("distributions.expand",),
    "smooth_entropy.max_s": ("smooth_entropy.smooth_max_entropy",),
    "smooth_entropy.min_s": ("smooth_entropy.smooth_min_entropy",),
    "spectrum.spectrum_rate_s": ("spectrum.spectrum_rate",),
    "spectrum.equivalence_report_s": ("spectrum.equivalence_report",),
    "resolvability.rate_formula_s": ("resolvability.rate_formula",),
    "intrinsic.ir_rate_formula_s": ("intrinsic.ir_rate_formula",),
    "resolvability.build_s": ("resolvability.build_resolvability_map",),
    "resolvability.converse_s": ("resolvability.converse_check", "resolvability.achieved_divergence"),
    "intrinsic.build_s": ("intrinsic.build_extractor",),
    "intrinsic.converse_s": ("intrinsic.intrinsic_converse_check", "intrinsic.achieved_uniformity"),
    "fdiv.f_divergence_s": ("fdiv.f_divergence",),
    "cli.main_s": ("cli.main",),
}

COUNT_UNITS = {
    "distributions.type_classes": "count",
    "distributions.levels": "count",
    "distributions.exact_bits_max": "bits",
    "distributions.view_int_bytes": "bytes",
    "distributions.expanded_atoms": "count",
    "smooth_entropy.calls_per_view": "ratio",
    "intrinsic.bin_fill_work": "count",
    "fdiv.f_divergence_atoms": "count",
    "cli.artifact_bytes": "bytes",
}


def _view(c: Counter, args, kwargs, view) -> None:
    tcs = view.type_classes
    c["views"] += 1
    c["distributions.type_classes"] += len(tcs)
    if view.exact:
        key = lambda tc: tc.per_sequence_prob  # noqa: E731
        bits = max(tc.per_sequence_prob.numerator.bit_length() for tc in tcs)
        c["distributions.exact_bits_max"] = max(c["distributions.exact_bits_max"], bits)
    else:
        key = lambda tc: tc.log_prob  # noqa: E731
    c["distributions.levels"] += 1 + sum(1 for a, b in zip(tcs, tcs[1:]) if key(a) != key(b))
    held = sum(sys.getsizeof(tc.multiplicity) for tc in tcs)
    c["distributions.view_int_bytes"] = max(c["distributions.view_int_bytes"], held)


def _smoother(c: Counter, args, kwargs, result) -> None:
    c["smoother_calls"] += 1


def _expand(c: Counter, args, kwargs, dist) -> None:
    c["distributions.expanded_atoms"] += dist.size


def _extractor(c: Counter, args, kwargs, map_) -> None:
    positive = sum(1 for m in map_.modified.dist.masses if m > 0)
    c["intrinsic.bin_fill_work"] += map_.M * positive


def _divergence(c: Counter, args, kwargs, result) -> None:
    c["fdiv.f_divergence_atoms"] += len(args[1].labels)


def _cli(c: Counter, args, kwargs, rc) -> None:
    argv = list(args[0] if args else kwargs.get("argv") or ())
    for flag in ("--out", "--emit"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                c["cli.artifact_bytes"] += os.path.getsize(path)


HOOKS: dict[str, Callable[[Counter, tuple, dict, Any], None]] = {
    "distributions.iid_power": _view,
    "distributions.expand": _expand,
    "smooth_entropy.smooth_max_entropy": _smoother,
    "smooth_entropy.smooth_min_entropy": _smoother,
    "intrinsic.build_extractor": _extractor,
    "fdiv.f_divergence": _divergence,
    "cli.main": _cli,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._mark = 0
        self._passes: list[dict[str, float]] = []

    def install(self, package: types.ModuleType) -> None:
        prefix = package.__name__
        modules = [package] + [
            importlib.import_module(f"{prefix}.{info.name}") for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[Callable, Callable] = {}
        for mod in modules:
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    layer = f"{mod.__name__.rpartition('.')[2]}.{fn.__name__}"
                    wrappers[fn] = self._wrap(fn, layer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [layer, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
                raise
            rec[2] = clock()
            stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            if parent >= 0:
                spans[parent][4] += clock() - rec[1]
            return result

        return traced

    def start_pass(self) -> None:
        self._mark = len(self.spans)
        self.counts = Counter()

    def end_pass(self) -> None:
        self_time: Counter = Counter()
        for name, start, end, _, covered in self.spans[self._mark:]:
            self_time[name] += end - start - covered
        out = {metric: sum(self_time[s] for s in names) for metric, names in SELF_TIME.items()}
        for metric in COUNT_UNITS:
            out[metric] = self.counts[metric]
        views = self.counts["views"]
        out["smooth_entropy.calls_per_view"] = self.counts["smoother_calls"] / views if views else 0.0
        self._passes.append(out)

    def metrics(self) -> dict[str, dict]:
        """Median over passes of every per-layer metric."""
        units = {m: "s" for m in SELF_TIME} | COUNT_UNITS
        return {
            m: {"value": statistics.median(p[m] for p in self._passes), "unit": unit}
            for m, unit in units.items()
        }

    def write(self, path: str, meta: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, s - origin, e - origin, parent] for name, s, e, parent, _ in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, fields=["name", "start", "end", "parent"], spans=rows), fh)
