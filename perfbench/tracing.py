"""Outside-in tracing of the fracsym layers.

``Tracer.install`` rebinds the public functions of each layer, wherever a
fracsym module holds them, to wrappers that record a span (name, start,
end, parent span, op id) and exact counters.  ``Tracer.uninstall`` puts the
originals back.  Nothing in ``src/`` is changed; spans are kept in memory
and written out by the caller when the run ends.

Counters named ``*_bytes``, ``*_flops`` and ``eigvec_mb`` are computed from
array sizes (dense matvec model), not measured memory traffic.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import fracsym
import fracsym.extension


def _cells(args):
    return {"rearrange.cells": args[0].values.size}


def _rho_points(args):
    return {"extension.rho.points": int(np.size(args[1]))}


def _dense_transform(args):
    """One dense matvec with the (n_cells, n_modes) eigenvector matrix:
    reads the matrix and one vector, writes one vector."""
    vecs = getattr(args[0], "eigenvectors", None)
    if vecs is None:
        return {}
    n, m = vecs.shape
    return {
        "spectral.transform_bytes": vecs.itemsize * (n * m + n + m),
        "spectral.transform_flops": 2 * n * m,
    }


def _operator_kind(args):
    return "ball" if args[0].kind == "radial_ball" else "box"


# (module, attribute, counter) for every wrapped function; the span name is
# "<module>.<attribute>".  build_operator spans are split by grid kind.
TARGETS = [
    ("spectral", "build_operator", None),
    ("spectral", "SpectralOperator.coefficients", _dense_transform),
    ("spectral", "SpectralOperator.synthesize", _dense_transform),
    ("spectral", "solve_elliptic", None),
    ("extension", "extend", None),
    ("extension", "rho", _rho_points),
    ("rearrange", "decreasing_rearrangement", _cells),
    ("rearrange", "schwarz_rearrangement", None),
    ("rearrange", "median", _cells),
    ("rearrange", "concentration", None),
    ("rearrange", "add_curves", None),
    ("compare", "elliptic_compare", None),
    ("compare", "symmetrized_data", None),
    ("parabolic", "parabolic_compare", None),
    ("parabolic", "implicit_step", None),
    ("parabolic", "symmetrized_parabolic_problem", None),
    ("sources", "random_band_source", None),
]

# Span names as reported: methods lose their class name.
SPAN_NAMES = [
    name
    for module, attr, _ in TARGETS
    for name in (
        [f"{module}.{attr}.box", f"{module}.{attr}.ball"]
        if attr == "build_operator"
        else [f"{module}.{attr.split('.')[-1]}"]
    )
]
# Spans whose calls can raise on bad data or a failed numerical check.
RAISING_SPANS = [
    "spectral.build_operator.box",
    "spectral.build_operator.ball",
    "spectral.solve_elliptic",
    "extension.rho",
    "rearrange.schwarz_rearrangement",
    "compare.elliptic_compare",
    "parabolic.parabolic_compare",
    "parabolic.implicit_step",
]
LAYERS = ["spectral", "extension", "rearrange", "compare", "parabolic"]
COUNTER_UNITS = {
    "spectral.transform_bytes": "B",
    "spectral.transform_flops": "flop",
    "extension.quad_calls": "count",
    "extension.rho.points": "count",
    "rearrange.cells": "count",
}


def _fracsym_modules():
    return [m for k, m in sys.modules.items() if k == "fracsym" or k.startswith("fracsym.")]


def rho_cache_info():
    """(hits, misses) of the rho lru_cache, or None once there is none."""
    cached = getattr(fracsym.extension, "_rho_scalar", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


class Tracer:
    """Spans and counters of one run.  Records only while ``active``, so
    set-up and ops are traced and the output checks are not."""

    def __init__(self):
        # [span_id, parent_id, op_id, name, start_ns, end_ns, raised]
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self.active = False
        self.rho_cache_hits = 0
        self.rho_cache_lookups = 0
        self._cache_before = None
        self._stack = []
        self._undo = []

    def begin_op(self, op_id: int):
        self.op_id, self.active = op_id, True
        self._cache_before = rho_cache_info()

    def end_op(self):
        self.op_id, self.active = -1, False
        after = rho_cache_info()
        if self._cache_before is not None and after is not None:
            hits = after[0] - self._cache_before[0]
            self.rho_cache_hits += hits
            self.rho_cache_lookups += hits + after[1] - self._cache_before[1]

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            rec = [len(self.spans), self._stack[-1] if self._stack else -1,
                   self.op_id, span_name, time.perf_counter_ns(), 0, False]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[6] = True
                raise
            finally:
                rec[5] = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                self.counts.update(counter(args))
            return result

        return traced

    def _count_quad(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts["extension.quad_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = _fracsym_modules()
        for module_name, attr, counter in TARGETS:
            home = getattr(fracsym, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                name = f"{module_name}.{meth}"
                self._rebind(cls, meth, self._wrap(getattr(cls, meth), name, counter))
                continue
            original = getattr(home, attr)
            if attr == "build_operator":
                name = lambda args: f"spectral.build_operator.{_operator_kind(args)}"
            else:
                name = f"{module_name}.{attr}"
            wrapper = self._wrap(original, name, counter)
            # rebind every module-level name bound to the original, so
            # `from .x import f` copies are traced as well
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        quad = getattr(fracsym.extension, "quad", None)
        if quad is not None:
            self._rebind(fracsym.extension, "quad", self._count_quad(quad))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """Per span name: calls, self seconds, errors; per layer: self
        seconds inside ops (op_id >= 0).  Self time is the span's duration
        minus the durations of its direct children."""
        child_ns = defaultdict(int)
        for rec in self.spans:
            if rec[1] >= 0:
                child_ns[rec[1]] += rec[5] - rec[4]
        calls, errors, self_ns, layer_ns = Counter(), Counter(), Counter(), Counter()
        for rec in self.spans:
            own = rec[5] - rec[4] - child_ns[rec[0]]
            calls[rec[3]] += 1
            errors[rec[3]] += rec[6]
            self_ns[rec[3]] += own
            if rec[2] >= 0:
                layer_ns[rec[3].split(".")[0]] += own
        return calls, errors, self_ns, layer_ns

    def span_dicts(self):
        t0 = self.spans[0][4] if self.spans else 0
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "raised")
        out = []
        for rec in self.spans:
            d = dict(zip(keys, rec))
            d["start_ns"] -= t0
            d["end_ns"] -= t0
            out.append(d)
        return out
