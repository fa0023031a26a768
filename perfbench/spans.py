"""Span recording around the library's layer entry points, from outside.

The library binds its cross-module calls with ``from .x import y``, so a call
site looks the name up in the *caller's* module namespace.  ``Tracer.install``
therefore replaces every binding of an entry point, in every loaded
``circleforge`` module, with one wrapper that records a span.  Spans stay in
memory; ``Tracer.write`` dumps them as JSON lines once the task is done.

A span's self time is its duration minus the durations of its direct child
spans.  Counters derived from argument sizes ("computed" counts) are attached
to the span that did the work.
"""

import functools
import json
import sys
import time

import numpy as np


def _exact_convolve_counts(args, kwargs):
    a, b = args[0], args[1]
    n_out = len(a) + len(b) - 1
    # padded power-of-two length of the linear convolution; operands and the
    # output at that length are the int64 bytes a transform must touch
    transform_len = 1 << (n_out - 1).bit_length() if n_out > 0 else 0
    return {"transform_len": transform_len, "bytes_computed": 3 * 8 * transform_len}


def _cyclic_counts(args, kwargs):
    histograms, q = args[0], args[1]
    mass = 1
    for h in histograms:
        mass *= max(1, int(sum(h)))
    # one packed Kronecker operand: q slots, each wide enough for the mass
    slot_bits = 8 * ((mass.bit_length() + 1 + 7) // 8)
    return {"slot_bits_computed": q * slot_bits}


def _weyl_batch_counts(args, kwargs):
    betas = args[2] if len(args) > 2 else kwargs["betas"]
    return {"betas": int(np.size(betas))}


def _weyl_grid_counts(args, kwargs):
    P, alphas = args[1], args[2]
    return {"evals_computed": int(len(alphas)) * int(P)}


# (layer module, function name, optional counter over the call's (args, kwargs))
ENTRY_POINTS = (
    ("scan", "scan", None),
    ("scan", "predict", None),
    ("repcount", "rep_count_range", None),
    ("repcount", "rep_count_single", None),
    ("repcount", "read_spectrum", None),
    ("repcount", "write_spectrum", None),
    ("exactconv", "exact_convolve", _exact_convolve_counts),
    ("exactconv", "cyclic_histogram_convolution", _cyclic_counts),
    ("sseries", "series_batch", None),
    ("sseries", "truncated_singular_series", None),
    ("powersums", "gauss_sum_table", None),
    ("moments", "sixth_power_eighth_moment", None),
    ("moments", "cube_multiplicity", None),
    ("moments", "count_cube_sixth_correlation", None),
    ("moments", "shifted_cube_correlation", None),
    ("arcs", "weyl_integral_batch", _weyl_batch_counts),
    ("arcs", "exceptional_sum_grid", None),
    ("arcints", "weyl_sum_grid", _weyl_grid_counts),
    ("arcints", "singular_integral", None),
    ("arcints", "major_arc_integral", None),
    ("arcints", "pruned_integral_diagnostic", None),
)


class Tracer:
    """In-memory span recorder; ``active`` is cleared while outputs are checked
    so that the checks' own library calls are not attributed to the task."""

    def __init__(self):
        self.spans = []
        self.active = True
        self.op = None
        self._stack = []  # [span index, child seconds]

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "circleforge" or name.startswith("circleforge."))]
        for layer, fname, counter in ENTRY_POINTS:
            original = getattr(sys.modules[f"circleforge.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            self._stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_s = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[index] = {
                    "id": index, "parent": parent, "op": self.op, "name": name,
                    "start_s": start, "wall_s": end - start,
                    "self_s": end - start - child_s,
                }
            if counter is not None:
                self.spans[index].update(counter(args, kwargs))
            return result

        return wrapper

    def totals(self) -> dict:
        """Per entry point: calls, inclusive seconds, self seconds, counter sums."""
        out = {}
        for span in self.spans:
            agg = out.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += span["wall_s"]
            agg["self_s"] += span["self_s"]
            for key, value in span.items():
                if key.endswith(("_computed", "betas")):
                    agg[key] = agg.get(key, 0) + value
                elif key == "transform_len":
                    agg[key] = max(agg.get(key, 0), value)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
