"""Spans around calls into the package's public functions.

The tracer replaces each traced function, in every `homogenize` module that
holds a reference to it, with a wrapper that records a span (name, start,
end, parent) and a few attributes read off the arguments or the result
(dimension, CG iterations, bytes written...).  Nothing under `src/` is
edited: `uninstall` puts the original functions back, so untraced passes
run the program exactly as a user's process does.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


def _table_d(args, kwargs, result):
    return {"d": result.d}


def _build(args, kwargs, result):
    fft_points = len(result.values) * result.N**result.d
    return {"d": result.d, "channels": len(result.values), "fft_points": fft_points}


def _save(args, kwargs, result):
    table, path = args[0], args[1]
    return {"d": table.d, "bytes": os.path.getsize(path)}


def _enumerate(args, kwargs, result):
    table = args[1] if len(args) > 1 else kwargs["table"]
    return {"k": result.k, "d": table.d}


def _network(args, kwargs, result):
    return {"d": result.d, "L": result.L}


def _corrector(args, kwargs, result):
    return {"iterations": result.iterations, "residual": result.residual}


def _estimate(args, kwargs, result):
    return {"samples": result.samples, "skipped": result.skipped}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


#: (module, function, attribute reader) for every traced public function.
TARGETS = (
    ("kernel", "get_kernel_table", _table_d),
    ("kernel", "build_kernel_table", _build),
    ("kernel", "direct_quadrature", lambda a, k, r: {"d": a[0]}),
    ("kernel", "load_table", _table_d),
    ("kernel", "save_table", _save),
    ("kernel", "lattice_power_sum", None),
    ("constants", "dimension_constants", lambda a, k, r: {"d": r[0].d}),
    ("enumerator", "enumerate_order", _enumerate),
    ("lattice", "path_cumulant", None),
    ("expansion", "coefficients", None),
    ("expansion", "sigma_e_series", None),
    ("distributions", "load_distribution", None),
    ("distributions", "moments", None),
    ("distributions", "duality_residual_series", None),
    ("bruggeman", "solve_bruggeman", _iterations),
    ("bruggeman", "bruggeman_series", None),
    ("bruggeman", "compare", None),
    ("resistor", "estimate_sigma_e", _estimate),
    ("resistor", "sample_network", _network),
    ("resistor", "solve_corrector", _corrector),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span recorder; `tag` labels the spans of the current step."""

    def __init__(self):
        self.spans: list[dict] = []
        self.tag = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if n == "homogenize" or n.startswith("homogenize.")]
        for module, name, reader in TARGETS:
            original = getattr(importlib.import_module(f"homogenize.{module}"), name)
            wrapper = self._wrap(f"{module}.{name}", original, reader)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, reader):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None, "tag": self.tag}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if reader is not None:
                span["attrs"] = reader(args, kwargs, result)
            return result

        return wrapper


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def summary(spans: list[dict], tag) -> dict:
    """Calls, total and self seconds per span name, over spans with `tag`."""
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        if span["tag"] != tag:
            continue
        row = out[span["name"]]
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))
