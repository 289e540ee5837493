"""Spans around calls into kvcohom's public functions, installed from outside.

``Tracer.install`` wraps every public function of each layer module, plus
the public methods of ``Mat`` and ``Subspace``.  Modules import each other's
functions by name (``from .linalg import kernel``), so a function is
replaced in its home module and in every ``kvcohom`` namespace that holds
it; wrapping only ``kvcohom.linalg.kernel`` would miss every call made
from ``complexes``, ``deform`` and ``extensions``.  No library file is
edited, and ``uninstall`` puts the originals back.

A call made from inside a span of the same layer runs unwrapped, so its
time stays in the caller's self time, unless the callee is one of the
functions a per-layer metric names (``SPANNED``).  Spans are kept in memory
as lists ``[name, layer, start, end, parent, job, overhead, cells, nnz]``;
``overhead`` is the wrapper's own time around the call, which the parent's
self time excludes.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = (
    "linalg", "core", "complexes", "extensions", "deform",
    "graded", "geom", "serialize", "battery", "cli",
)

# Scalar coercions called once per entry from every layer; a span around
# each would cost more than the work, so their time stays in the caller.
UNWRAPPED = {"linalg.rat", "linalg.vec"}

SPANNED = {
    "complexes.coboundary_matrix", "complexes.nijenhuis_matrices",
    "complexes.cohomology", "complexes.nijenhuis_cohomology",
    "complexes.coboundary", "complexes.coboundary0",
    "core.is_kv", "core.is_module", "core.jacobi_algebra", "core.jacobi_module",
    "core.random_kv", "core.random_module",
    "extensions.e11_cohomology", "extensions.e11_matrix",
    "deform.solve_next_order", "deform.rigidity_report",
    "deform.jet_residuals", "deform.kv_bracket",
    "graded.is_theta_cocycle", "graded.is_kv_chain",
    "geom.integrate_geodesic", "geom.pencil_suite",
    "battery.run_battery", "cli.run", "cli.main",
}

NAME, LAYER, START, END, PARENT, JOB, OVERHEAD, CELLS, NNZ = range(9)


def _matrix_size(m):
    return m.rows * m.cols, sum(map(bool, m.entries))


def _input_matrix(args, kwargs, result):
    return _matrix_size(args[0] if args else kwargs["m"])


def _output_matrices(args, kwargs, result):
    mats = result.values() if isinstance(result, dict) else (result,)
    cells = nnz = 0
    for m in mats:
        c, z = _matrix_size(m)
        cells, nnz = cells + c, nnz + z
    return cells, nnz


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8")), 0


def _battery_count(args, kwargs, result):
    return result.count, 0


# Sizes recorded per span: (cells, nnz) of the matrix handed to an
# elimination, of the differentials assembled, or bytes encoded.
MEASURED = {
    "linalg.kernel": _input_matrix,
    "linalg.image": _input_matrix,
    "linalg.solve": _input_matrix,
    "complexes.coboundary_matrix": _output_matrices,
    "complexes.nijenhuis_matrices": _output_matrices,
    "serialize.canonical_json": _text_bytes,
    "battery.run_battery": _battery_count,
}

_METHODS = {
    "Mat": ("from_rows", "from_cols", "transpose", "mat_vec", "row_lists"),
    "Subspace": ("from_vectors", "reduce", "contains", "coordinates", "add", "intersect"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = None
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        spanned = name in SPANNED
        measure = MEASURED.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][LAYER] == layer and not spanned:
                return fn(*args, **kwargs)
            w0 = clock()
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.job, 0.0, 0, 0]
            spans.append(rec)
            stack.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[START], rec[END] = t0, t1
            if measure is not None:
                rec[CELLS], rec[NNZ] = measure(args, kwargs, result)
            rec[OVERHEAD] = (t0 - w0) + (clock() - t1)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            home = sys.modules[f"kvcohom.{layer}"]
            for attr, fn in vars(home).items():
                name = f"{layer}.{attr}"
                if (
                    not attr.startswith("_")
                    and name not in UNWRAPPED
                    and inspect.isfunction(fn)
                    and fn.__module__ == home.__name__
                ):
                    wrappers[id(fn)] = self._wrap(name, layer, fn)
        for key, ns in list(sys.modules.items()):
            if key == "kvcohom" or key.startswith("kvcohom."):
                for attr, value in list(vars(ns).items()):
                    traced = wrappers.get(id(value))
                    if traced is not None:
                        self._undo.append((ns, attr, value))
                        setattr(ns, attr, traced)
        linalg = sys.modules["kvcohom.linalg"]
        for cls_name, methods in _METHODS.items():
            cls = getattr(linalg, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                static = isinstance(raw, staticmethod)
                traced = self._wrap(f"linalg.{cls_name}.{meth}", "linalg", raw.__func__ if static else raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(traced) if static else traced)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def self_times(self) -> dict[int, float]:
        """Self time of each span: its duration minus its children's, by id."""
        own = {id(s): s[END] - s[START] for s in self.spans}
        for s in self.spans:
            parent = s[PARENT]
            if parent is not None:
                own[id(parent)] -= (s[END] - s[START]) + s[OVERHEAD]
        return own

    def write(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with path.open("w") as out:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                       "parent": None if s[PARENT] is None else index[id(s[PARENT])],
                       "job": s[JOB]}
                if s[CELLS] or s[NNZ]:
                    rec["cells"], rec["nnz"] = s[CELLS], s[NNZ]
                out.write(json.dumps(rec) + "\n")


def _select(*names):
    return lambda n: n in names


def _prefix(p):
    return lambda n: n.startswith(p)


# Per-layer metrics: (metric, unit, kind, span filter).  Kind "self" sums
# self seconds, "calls" counts spans, "cells"/"nnz" sum recorded sizes.
_PARSE = ("serialize.parse_rat", "serialize.read_json")
_ENCODE = ("serialize.format_rat", "serialize.canonical_json", "serialize.write_text")
METRICS = [
    ("linalg.kernel_s", "s", "self", _select("linalg.kernel")),
    ("linalg.image_s", "s", "self", _select("linalg.image")),
    ("linalg.solve_s", "s", "self", _select("linalg.solve")),
    ("linalg.subspace_s", "s", "self", _prefix("linalg.Subspace.")),
    ("linalg.calls", "count", "calls", _prefix("linalg.")),
    ("linalg.elim_cells", "count", "cells", _select("linalg.kernel", "linalg.image", "linalg.solve")),
    ("linalg.elim_nnz", "count", "nnz", _select("linalg.kernel", "linalg.image", "linalg.solve")),
    ("complexes.assemble_s", "s", "self", _select("complexes.coboundary_matrix", "complexes.nijenhuis_matrices")),
    ("complexes.dense_cells", "count", "cells", _select("complexes.coboundary_matrix", "complexes.nijenhuis_matrices")),
    ("complexes.nnz", "count", "nnz", _select("complexes.coboundary_matrix", "complexes.nijenhuis_matrices")),
    ("complexes.cohomology_self_s", "s", "self", _select("complexes.cohomology", "complexes.nijenhuis_cohomology")),
    ("complexes.coboundary_s", "s", "self", _select("complexes.coboundary", "complexes.coboundary0")),
    ("core.verify_s", "s", "self", _select("core.is_kv", "core.is_module")),
    ("core.verify_calls", "count", "calls", _select("core.is_kv", "core.is_module")),
    ("core.jacobi_s", "s", "self", _select("core.jacobi_algebra", "core.jacobi_module")),
    ("core.random_s", "s", "self", _select("core.random_kv", "core.random_module")),
    ("core.random_calls", "count", "calls", _select("core.random_kv", "core.random_module")),
    ("extensions.e11_s", "s", "self", _select("extensions.e11_cohomology")),
    ("extensions.e11_assemble_s", "s", "self", _select("extensions.e11_matrix")),
    ("deform.solve_next_order_s", "s", "self", _select("deform.solve_next_order")),
    ("deform.rigidity_s", "s", "self", _select("deform.rigidity_report")),
    ("deform.residuals_s", "s", "self", _select("deform.jet_residuals")),
    ("deform.bracket_s", "s", "self", _select("deform.kv_bracket")),
    ("graded.theta_cocycle_s", "s", "self", _select("graded.is_theta_cocycle")),
    ("graded.chain_s", "s", "self", _select("graded.is_kv_chain")),
    ("geom.integrate_s", "s", "self", _select("geom.integrate_geodesic")),
    ("geom.pencil_s", "s", "self", _select("geom.pencil_suite")),
    ("serialize.parse_s", "s", "self",
     lambda n: n in _PARSE or n.endswith("_from_obj") or n.startswith("serialize.load_")),
    ("serialize.encode_s", "s", "self", lambda n: n in _ENCODE or n.endswith("_to_obj")),
    ("serialize.encode_bytes", "count", "cells", _select("serialize.canonical_json")),
    ("battery.instance_s", "s", "self", _select("battery.run_battery")),
    ("battery.instances", "count", "cells", _select("battery.run_battery")),
    ("cli.run_s", "s", "self", _select("cli.run")),
    ("cli.main_s", "s", "self", _select("cli.main")),
]
METRICS += [(f"{layer}.self_s", "s", "self", _prefix(f"{layer}.")) for layer in LAYERS]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate the spans recorded inside jobs into the per-layer metrics."""
    own = tracer.self_times()
    jobs = [s for s in tracer.spans if s[JOB] is not None]
    out = {}
    for metric, _unit, kind, wanted in METRICS:
        picked = [s for s in jobs if wanted(s[NAME])]
        if kind == "self":
            out[metric] = sum(own[id(s)] for s in picked)
        elif kind == "calls":
            out[metric] = len(picked)
        elif kind == "cells":
            out[metric] = sum(s[CELLS] for s in picked)
        else:
            out[metric] = sum(s[NNZ] for s in picked)
    out["trace.spans"] = len(jobs)
    out["trace.self_total_s"] = sum(own[id(s)] for s in jobs)
    out["trace.span_overhead_s"] = sum(s[OVERHEAD] for s in jobs)
    return out
