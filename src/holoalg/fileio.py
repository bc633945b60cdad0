"""JSON file formats for algebras, morphisms, functions, paths, and cycles.

Complex numbers are always serialized as two-element [re, im] arrays of
IEEE-754 doubles.  An element literal is a list of such pairs, one per basis
vector.  Malformed content raises :class:`SchemaError`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path as FsPath
from typing import Any

import numpy as np

from .algebra import Algebra, Element, StructureTensor, build_algebra
from .contour import Cycle, Path
from .errors import SchemaError
from .morphism import Morphism, build_morphism
from .series import PowerSeries, ScalarSeries


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _count(data: Any, where: str, least: int) -> int:
    """A JSON integer (not a bool, float or string) of at least ``least``."""
    if isinstance(data, bool) or not isinstance(data, int) or data < least:
        raise SchemaError(f"{where} must be >= {least} and a JSON integer, got {data!r}")
    return data


def _from_pair(data: Any, where: str) -> complex:
    if (not isinstance(data, (list, tuple)) or len(data) != 2
            or not all(isinstance(x, (int, float)) and abs(x) <= sys.float_info.max
                       for x in data)):
        raise SchemaError(f"{where}: expected a [re, im] pair of finite numbers, got {data!r}")
    return complex(data[0], data[1])


def element_to_json(e: Element) -> list[list[float]]:
    return [_pair(c) for c in e.coords]


def element_from_json(algebra: Algebra, data: Any, where: str = "element") -> Element:
    if isinstance(data, dict) and "coords" in data:
        data = data["coords"]
    if not isinstance(data, list) or len(data) != algebra.dim:
        raise SchemaError(f"{where}: expected {algebra.dim} coordinate pairs")
    return algebra.element([_from_pair(p, where) for p in data])


# -- algebra files -----------------------------------------------------------

def algebra_from_json(data: Any) -> tuple[Algebra, str]:
    """{"name": str, "dim": n, "basis": [str], "alpha": alpha[j][k][i] pairs}."""
    if not isinstance(data, dict):
        raise SchemaError("algebra file must be a JSON object")
    if "dim" not in data or "alpha" not in data:
        raise SchemaError("algebra file missing dim/alpha")
    dim, raw = _count(data["dim"], "algebra dim", 1), data["alpha"]
    # the nest's size is checked before the dim^3 array is allocated
    if not (isinstance(raw, list) and len(raw) == dim and all(
            isinstance(row, list) and len(row) == dim
            and all(isinstance(col, list) and len(col) == dim for col in row) for row in raw)):
        raise SchemaError(f"alpha must be a {dim} x {dim} x {dim} nest of pairs")
    name = str(data.get("name", "algebra"))
    basis = tuple(str(b) for b in data.get("basis", ()))
    alpha = np.empty((dim, dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(dim):
            for i in range(dim):
                alpha[j, k, i] = _from_pair(raw[j][k][i], f"alpha[{j}][{k}][{i}]")
    try:
        tensor = StructureTensor(dim, alpha, basis)
    except ValueError as exc:
        raise SchemaError(f"algebra file: {exc}") from exc
    return build_algebra(tensor), name


def algebra_to_json(algebra: Algebra, name: str = "algebra") -> dict:
    n = algebra.dim
    return {
        "name": name,
        "dim": n,
        "basis": list(algebra.basis_labels),
        "alpha": [[[_pair(algebra.alpha[j, k, i]) for i in range(n)]
                   for k in range(n)] for j in range(n)],
    }


# -- morphism files ----------------------------------------------------------

def morphism_from_json(data: Any, source: Algebra, target: Algebra) -> Morphism:
    """{"source": str, "target": str, "matrix": m rows of n pairs}."""
    if not isinstance(data, dict) or "matrix" not in data:
        raise SchemaError("morphism file must be an object with a matrix")
    raw = data["matrix"]
    mat = np.empty((target.dim, source.dim), dtype=complex)
    try:
        for i in range(target.dim):
            for j in range(source.dim):
                mat[i, j] = _from_pair(raw[i][j], f"matrix[{i}][{j}]")
    except (IndexError, TypeError) as exc:
        raise SchemaError(f"matrix must be {target.dim} x {source.dim} pairs: {exc}") from exc
    return build_morphism(source, target, mat)


def morphism_to_json(phi: Morphism, source_name: str = "source",
                     target_name: str = "target") -> dict:
    return {
        "source": source_name,
        "target": target_name,
        "matrix": [[_pair(phi.matrix[i, j]) for j in range(phi.source.dim)]
                   for i in range(phi.target.dim)],
    }


# -- function / series files ---------------------------------------------------

def function_from_json(data: Any, phi: Morphism) -> PowerSeries:
    """{"type": "poly", "center": element, "coeffs": [element, ...]}."""
    if not isinstance(data, dict) or data.get("type") != "poly":
        raise SchemaError('function file must have "type": "poly"')
    center = element_from_json(phi.source, data.get("center"), "center")
    raw = data.get("coeffs")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("function file needs a nonempty coeffs list")
    coeffs = [element_from_json(phi.target, c, f"coeffs[{k}]") for k, c in enumerate(raw)]
    return PowerSeries.polynomial(phi, center, coeffs)


def function_to_json(series: PowerSeries) -> dict:
    if not series.is_polynomial:
        raise SchemaError("only polynomial series have a file form")
    return {
        "type": "poly",
        "center": element_to_json(series.center),
        "coeffs": [element_to_json(c) for c in series.coeffs],
    }


def scalar_series_from_json(data: Any, target: Algebra) -> tuple[ScalarSeries, int]:
    """{"type": "canonical", "scalar_taylor": [element...], "center": pair, "height": nu}."""
    if not isinstance(data, dict) or data.get("type") != "canonical":
        raise SchemaError('canonical-form file must have "type": "canonical"')
    center = _from_pair(data.get("center"), "center")
    raw = data.get("scalar_taylor")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("canonical-form file needs scalar_taylor coefficients")
    coeffs = [element_from_json(target, c, f"scalar_taylor[{k}]") for k, c in enumerate(raw)]
    height = _count(data.get("height", 0), "height", 0)
    return ScalarSeries(target, center, coeffs=coeffs), height


def scalar_series_to_json(g: ScalarSeries, height: int) -> dict:
    if not g.is_polynomial:
        raise SchemaError("only finite scalar Taylor data has a file form")
    return {
        "type": "canonical",
        "scalar_taylor": [element_to_json(c) for c in g.coeffs],
        "center": _pair(g.center),
        "height": int(height),
    }


# -- path / cycle files ----------------------------------------------------------

def path_from_json(data: Any, algebra: Algebra) -> Path:
    """A circle, polyline or samples path; SchemaError for any malformed field,
    including what the Path constructors reject."""
    if not isinstance(data, dict) or "type" not in data:
        raise SchemaError("path file must be an object with a type")
    kind = data["type"]
    try:
        if kind == "circle":
            center = element_from_json(algebra, data.get("center"), "circle center")
            direction = (element_from_json(algebra, data["direction"], "circle direction")
                         if "direction" in data else None)
            return Path.circle(center, data["radius"], data.get("turns", 1), direction)
        if kind in ("polyline", "samples"):
            raw = data.get("points")
            if not isinstance(raw, list) or len(raw) < 2:
                raise SchemaError(f"{kind} needs at least two points")
            points = [element_from_json(algebra, p, f"points[{i}]") for i, p in enumerate(raw)]
            if kind == "polyline":
                return Path.polyline(points)
            return Path.samples(points, smooth=bool(data.get("smooth", False)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{kind} path: {exc!r}") from exc
    raise SchemaError(f"unknown path type {kind!r}")


def path_to_json(path: Path) -> dict:
    """The file form of a path, read off its segments."""
    if path.kind == "circle":
        (seg,) = path.segments
        return {"type": "circle", "center": [_pair(c) for c in seg.center],
                "radius": seg.radius, "turns": seg.turns,
                "direction": [_pair(c) for c in seg.direction]}
    points = [seg.start for seg in path.segments] + [path.segments[-1].end]
    out = {"type": path.kind, "points": [[_pair(c) for c in p] for p in points]}
    if path.kind == "samples":
        out["smooth"] = path.smooth
    return out


def cycle_from_json(data: Any, algebra: Algebra) -> Cycle:
    """Either a cycle object {"terms": [{"mult": n, "path": {...}}]} or a bare path;
    SchemaError for what :class:`Cycle` rejects (no terms, a non-integer
    multiplicity, an open path)."""
    if isinstance(data, dict) and "terms" in data:
        raw = data["terms"]
        if not isinstance(raw, list) or not all(
                isinstance(t, dict) and {"mult", "path"} <= t.keys() for t in raw):
            raise SchemaError("terms must be a list of objects with mult and path")
        terms = tuple((t["mult"], path_from_json(t["path"], algebra)) for t in raw)
    else:
        terms = ((1, path_from_json(data, algebra)),)
    try:
        return Cycle(terms)
    except ValueError as exc:
        raise SchemaError(f"cycle: {exc}") from exc


def cycle_to_json(cycle: Cycle) -> dict:
    return {"terms": [{"mult": mult, "path": path_to_json(path)}
                      for mult, path in cycle.terms]}


# -- convenience loaders -------------------------------------------------------

def read_json(path: str | FsPath) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def load_algebra(path: str | FsPath) -> tuple[Algebra, str]:
    return algebra_from_json(read_json(path))


def load_element(path: str | FsPath, algebra: Algebra) -> Element:
    return element_from_json(algebra, read_json(path), str(path))
