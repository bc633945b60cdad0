"""Spans and counts around holoalg's public functions, installed from outside.

``install`` replaces the public functions and methods of every holoalg
module with recording wrappers, in every module namespace that holds them
(``contour`` calls ``artin_decompose`` through its own imported name, so
that name is replaced too).  Nothing in holoalg changes on disk.

- A span is recorded for each call of a wrapped function: name, start, end,
  parent span and operation id.  Self time is the span's duration minus the
  time of its child spans and of the element arithmetic it ran.
- ``Element`` and ``Algebra`` methods are counted, not spanned: calls and
  time, outermost call only.
- ``CircleSegment.points`` and ``LineSegment.points`` count the points they
  evaluate against the innermost open span.

Spans are kept in memory in flat arrays and written out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import holoalg

MODULES = ("algebra", "catalog", "decomposition", "morphism", "crsystem", "series",
           "contour", "fileio", "cli")
# private functions that do the heavy lifting of a public one
PRIVATE_SPANS = {"contour": ("_cauchy_kernel_integral", "_winding")}
COUNTED_CLASSES = ("Element", "Algebra")
ELEMENT_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                   "__rmul__", "__truediv__", "__rtruediv__", "__pow__")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = defaultdict(int)       # name id -> spans
        self.self_s = defaultdict(float)    # name id -> self seconds
        self.total_s = defaultdict(float)   # name id -> inclusive seconds
        self.leaf_calls = defaultdict(int)  # name id -> counted calls
        self.leaf_s = defaultdict(float)
        self.points = defaultdict(int)      # innermost span name id -> points evaluated
        self.stack: list[list] = []         # [span id, name id, start, child seconds]
        self.next_id = 0
        self.op_id = -1
        self.leaf_depth = 0
        self.artin_seen: dict[int, object] = {}
        self.artin_distinct = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def new_pass(self) -> None:
        self.artin_distinct += len(self.artin_seen)
        self.artin_seen = {}

    def finish(self) -> None:
        self.new_pass()

    # -- wrappers ---------------------------------------------------------------

    def span(self, name: str, fn):
        nid = self.name_id(name)
        rec = self

        def wrapper(*args, **kwargs):
            if rec.leaf_depth:
                return fn(*args, **kwargs)
            sid = rec.next_id
            rec.next_id += 1
            parent = rec.stack[-1][0] if rec.stack else -1
            frame = [sid, nid, perf_counter(), 0.0]
            rec.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.stack.pop()
                duration = end - frame[2]
                if rec.stack:
                    rec.stack[-1][3] += duration
                rec.calls[nid] += 1
                rec.self_s[nid] += duration - frame[3]
                rec.total_s[nid] += duration
                rec.span_id.append(sid)
                rec.parent.append(parent)
                rec.op.append(rec.op_id)
                rec.name.append(nid)
                rec.start.append(frame[2])
                rec.end.append(end)

        return _same_signature(wrapper, fn)

    def counted(self, name: str, fn):
        nid = self.name_id(name)
        rec = self

        def wrapper(*args, **kwargs):
            if rec.leaf_depth:
                return fn(*args, **kwargs)
            rec.leaf_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                rec.leaf_depth -= 1
                rec.leaf_calls[nid] += 1
                rec.leaf_s[nid] += duration
                if rec.stack:
                    rec.stack[-1][3] += duration

        return _same_signature(wrapper, fn)

    def points_counter(self, fn):
        rec = self

        def points(seg, ts):
            if rec.stack:
                rec.points[rec.stack[-1][1]] += len(ts)
            return fn(seg, ts)

        return _same_signature(points, fn)

    def artin_watch(self, fn):
        rec = self

        def artin_decompose(algebra, *args, **kwargs):
            rec.artin_seen.setdefault(id(algebra), algebra)
            return fn(algebra, *args, **kwargs)

        return _same_signature(artin_decompose, fn)

    # -- output -------------------------------------------------------------------

    def summary(self) -> dict:
        out = {}
        for nid, name in enumerate(self.names):
            entry = {}
            if self.calls.get(nid):
                entry.update(calls=self.calls[nid], self_ms=1e3 * self.self_s[nid],
                             total_ms=1e3 * self.total_s[nid])
            if self.leaf_calls.get(nid):
                entry.update(counted=self.leaf_calls[nid], counted_ms=1e3 * self.leaf_s[nid])
            if self.points.get(nid):
                entry["points"] = self.points[nid]
            if entry:
                out[name] = entry
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_us\tend_us\n")
            t0 = self.start[0] if len(self.start) else 0.0
            names = self.names
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{names[self.name[i]]}\t{1e6 * (self.start[i] - t0):.1f}\t"
                         f"{1e6 * (self.end[i] - t0):.1f}\n")


def _same_signature(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every public function and method of holoalg's modules."""
    replace: dict[int, object] = {}
    modules = [importlib.import_module(f"holoalg.{m}") for m in MODULES]
    for short, mod in zip(MODULES, modules):
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (not attr.startswith("_")
                                            or attr in PRIVATE_SPANS.get(short, ())):
                wrapped = rec.span(f"{short}.{attr}", obj)
                if attr == "artin_decompose":
                    wrapped = rec.artin_watch(wrapped)
                replace[id(obj)] = wrapped
            elif inspect.isclass(obj):
                _wrap_class(rec, short, obj)
    for mod in [holoalg, *modules]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replace:
                setattr(mod, attr, replace[id(obj)])


def _wrap_class(rec: Recorder, short: str, cls) -> None:
    counted = cls.__name__ in COUNTED_CLASSES
    for attr, member in list(vars(cls).items()):
        name = f"{short}.{cls.__name__}.{attr}"
        if attr == "points" and cls.__name__ in ("CircleSegment", "LineSegment"):
            setattr(cls, attr, rec.points_counter(member))
        elif isinstance(member, (classmethod, staticmethod)):
            if not attr.startswith("_"):
                setattr(cls, attr, type(member)(rec.span(name, member.__func__)))
        elif inspect.isfunction(member):
            if counted and (attr in ELEMENT_DUNDERS or not attr.startswith("_")):
                setattr(cls, attr, rec.counted(name, member))
            elif not attr.startswith("_"):
                setattr(cls, attr, rec.span(name, member))


# -- per-layer metrics ---------------------------------------------------------------

QUAD = ("contour._cauchy_kernel_integral", "contour.integrate", "contour.integrate_cycle",
        "contour.length", "contour.index_quadrature", "contour.cif_value",
        "contour.cif_derivative", "contour.goursat_residual", "contour.homological_cif_check")
WINDING = ("contour.index_spectral", "contour._winding")
ADMISSIBILITY = ("contour.admissibility",)
TAYLOR = ("contour.taylor_from_contour",)
RADIUS = ("series.PowerSeries.radius", "series.PowerSeries.component_radii",
          "series.PowerSeries.spectral_divergence_radius", "series.ScalarSeries.radius",
          "series.CanonicalForm.scalar_radius")
EVALUATE = ("series.PowerSeries.evaluate", "series.CanonicalForm.evaluate")
BUILD = ("algebra.build_algebra", "algebra.transform_tensor", "algebra.rebase_matrix",
         "algebra.StructureTensor.check_commutative",
         "algebra.StructureTensor.check_associative", "algebra.StructureTensor.basis_matrices")
ARTIN = ("decomposition.artin_decompose", "decomposition.nilradical")
GCRU = ("crsystem.gcru_residual", "crsystem.partial_derivatives", "crsystem.dij_residual",
        "crsystem.numeric_derivative", "crsystem.holomorphy_verdict")


def layer_metrics(rec: Recorder, ops: int, import_ms: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, per operation."""
    ids = {name: i for i, name in enumerate(rec.names)}

    def calls(names):
        return sum(rec.calls.get(ids[n], 0) for n in names if n in ids)

    def self_ms(names):
        return 1e3 * sum(rec.self_s.get(ids[n], 0.0) for n in names if n in ids)

    def total_ms(names):
        return 1e3 * sum(rec.total_s.get(ids[n], 0.0) for n in names if n in ids)

    def points(names):
        return sum(rec.points.get(ids[n], 0) for n in names if n in ids)

    def module_self_ms(prefix, exclude=()):
        return 1e3 * sum(rec.self_s.get(i, 0.0) for i, n in enumerate(rec.names)
                         if n.startswith(prefix) and n not in exclude)

    element = [i for i, n in enumerate(rec.names) if n.startswith(("algebra.Element.",
                                                                   "algebra.Algebra."))]
    handlers = [n for n in rec.names if n.startswith("cli.cmd_")]
    artin_calls = calls(("decomposition.artin_decompose",))
    values = {
        "contour.quad_ms": (self_ms(QUAD), "ms"),
        "contour.quad_points": (points(QUAD), "count"),
        "contour.winding_ms": (self_ms(WINDING), "ms"),
        "contour.winding_points": (points(WINDING), "count"),
        "contour.admissibility_ms": (self_ms(ADMISSIBILITY), "ms"),
        "contour.admissibility_points": (points(ADMISSIBILITY), "count"),
        "contour.taylor_ms": (total_ms(TAYLOR), "ms"),
        "series.evaluate_calls": (calls(EVALUATE), "count"),
        "series.evaluate_ms": (module_self_ms("series.", RADIUS), "ms"),
        "series.radius_ms": (self_ms(RADIUS), "ms"),
        "algebra.element_ops": (sum(rec.leaf_calls.get(i, 0) for i in element), "count"),
        "algebra.element_ms": (1e3 * sum(rec.leaf_s.get(i, 0.0) for i in element), "ms"),
        "algebra.build_ms": (self_ms(BUILD), "ms"),
        "decomposition.artin_calls": (artin_calls, "count"),
        "decomposition.artin_ms": (self_ms(ARTIN), "ms"),
        "morphism.factor_calls": (calls(("morphism.factor",)), "count"),
        "morphism.factor_ms": (self_ms(("morphism.factor",)), "ms"),
        "crsystem.gcru_calls": (calls(("crsystem.gcru_residual",)), "count"),
        "crsystem.gcru_ms": (self_ms(GCRU), "ms"),
        "crsystem.newton_ms": (self_ms(("crsystem.newton_invert_map",)), "ms"),
        "crsystem.recover_ms": (self_ms(("crsystem.recover_structure",)), "ms"),
        "fileio.load_ms": (module_self_ms("fileio."), "ms"),
        "cli.handler_ms": (total_ms(handlers), "ms"),
    }
    out = {name: {"value": value / ops, "unit": unit} for name, (value, unit) in values.items()}
    out["decomposition.artin_distinct_share"] = {
        "value": rec.artin_distinct / artin_calls if artin_calls else 0.0, "unit": "ratio"}
    out["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
    return out
