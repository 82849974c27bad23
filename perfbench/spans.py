"""Spans around the package's public functions, recorded from outside.

`Tracer.install` rebinds each public function in the namespace of the
module that calls it (for example `glottisim.cli.simulate` and
`glottisim.analysis.pulse_peaks`) to a wrapper that records a span: name,
start, end, parent span and op id, plus a work count taken from the result.
Spans stay in memory; `per_op` folds them into layer times and counts, and
`dump` writes them out.
"""
from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np


def _active_samples(w) -> int:
    return int(np.count_nonzero((w.g_lower > 0.0) & (w.g_upper > 0.0)))


# (module, attribute, span name, work count taken from (result, args)).
# One span name may be bound in several calling modules.
WRAP_POINTS = (
    ("cli", "parse_config", "config.parse", None),
    ("cli", "validate_config", "config.validate", None),
    ("cli", "simulate", "network.simulate", lambda r, a: _active_samples(r)),
    ("network", "conductance_traces", "oscillator.traces",
     lambda r, a: len(r[0])),
    ("network", "GlottalWaveform", "network.validate", None),
    ("cli", "analyze", "analysis.analyze", None),
    ("cli", "derivative", "analysis.derivative", None),
    ("analysis", "derivative", "analysis.derivative", None),
    ("analysis", "pulse_peaks", "analysis.pulse_peaks", None),
    ("analysis", "detect_phases", "analysis.detect_phases", None),
    ("cli", "export_csv", "exporters.csv_write",
     lambda r, a: os.path.getsize(a[2])),
    ("cli", "export_wav", "exporters.wav_write", None),
    ("cli", "write_report", "exporters.report_write", None),
    ("cli", "read_waveform_csv", "exporters.csv_read", lambda r, a: len(r[0])),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "count", "error")


class Tracer:
    """Span recorder.  With `alloc`, tracemalloc must be running and each
    network.simulate span also records its allocation peak in bytes."""

    def __init__(self, package, alloc: bool = False):
        self.package = package
        self.alloc = alloc
        self.spans: list[list] = []  # one list per span, fields as SPAN_FIELDS
        self.alloc_peaks: dict[int, int] = {}  # op -> bytes
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def traced(self, fn, name, count=None):
        """`fn` wrapped so that each call records a span called `name`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op, 0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            measure_alloc = self.alloc and name == "network.simulate"
            if measure_alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if measure_alloc:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.alloc_peaks[self.op] = max(
                    peak, self.alloc_peaks.get(self.op, 0))
            if count is not None:
                span[5] = count(result, args)
            return result
        return wrapper

    def install(self) -> None:
        for module, attr, name, count in WRAP_POINTS:
            mod = getattr(self.package, module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.traced(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def per_op(spans: list[list]) -> dict[int, dict[str, float]]:
    """For each op: `<span>_s`, `<span>.calls`, `<span>.count` summed over
    its spans, `<layer>.self_s` (span time not covered by child spans) and
    `network.solver_errors`."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for k, (name, start, end, _, op, count, error) in enumerate(spans):
        m = ops[op]
        dur = end - start
        m[name.partition(".")[0] + ".self_s"] += dur - child[k]
        m[name + "_s"] += dur
        m[name + ".calls"] += 1
        m[name + ".count"] += count
        m["network.solver_errors"] += error == "SolverError"
    return ops
