"""Algebra-valued contour integration, winding data, and Cauchy formulas.

Paths are piecewise-C1 with closed-form kinds (circles and polylines carry
exact derivatives and arc lengths); user-sampled paths are accepted as dense
polylines when flagged smooth.  Every contour integral is one integrand,
f(W) phi(W - Z0)^(-p) dW with power 0 the plain integral, through one
integrator, refined breadth first over every segment of every path of a
cycle: each level samples the integrand once at the new nodes of all
unconverged segments, with one geometry call per segment kind.  A circle
takes the periodic trapezoid rule over one turn, doubling its nodes from 32
until two estimates agree to the absolute per-coordinate tolerance (default
1e-10, or HOLOALG_TOL), within 160,000 nodes.  A line segment takes panels
of the nested Gauss-Kronrod pair G10/K21, each evaluated once and split in
two until QUADPACK's scaled Kronrod-Gauss error estimate is below the
tolerance halved per level, within QUAD_MAX_PANELS panels.  QUAD_MAX_DEPTH
levels bound both.  The generalized index is computed two independent ways:
winding numbers of the spectral projections, exact because each path kind
projects to a segment or a circle in C, and direct quadrature of the
reproducing kernel, inverted at the nodes by the local expansion of 1/s; the
two must agree to 1e-8 on admissible points.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .algebra import Algebra, Element, _batch_mul, _batch_norm, _unit_columns
from .crsystem import FunctionSampler, _gcru_residuals, default_step
from .decomposition import Decomposition, _local_inverse, artin_decompose
from .errors import (
    EstimateViolated,
    IndexNotInvertible,
    NotAdmissible,
    NotAUnit,
    NotSmooth,
    QuadratureNoConvergence,
    SchemaError,
    WindingUnresolved,
)
from .morphism import Morphism, factor
from .series import PowerSeries

ENDPOINT_TOL = 1e-12
ADMISSIBILITY_RESOLUTION = 1e-4   # forbidden band, as a share of the projected length
QUAD_MAX_DEPTH = 20
QUAD_MAX_PANELS = 10_000   # panels of a line segment; a circle may take 160,000 nodes
# entries of the (nodes, m, m) stacks one integrand call may build: larger
# levels are evaluated in blocks, so memory does not grow with the segments
QUAD_BLOCK_ENTRIES = 1 << 14

# The nested Gauss-Kronrod pair G10/K21 on [-1, 1] (QUADPACK's qk21), written
# out so that importing the module does not import numpy.polynomial: the nodes
# up to 0, their K21 weights, and the G10 weights of the odd-numbered nodes.
_GK_NODES = np.array([
    -0.9956571630258081, -0.9739065285171717, -0.9301574913557082, -0.8650633666889845,
    -0.7808177265864169, -0.6794095682990244, -0.5627571346686047, -0.4333953941292472,
    -0.2943928627014602, -0.14887433898163122, 0.0])
_K_WEIGHTS = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_G_WEIGHTS = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                       0.26926671930999635, 0.29552422471475287])
_GK_NODES = np.concatenate([_GK_NODES, -_GK_NODES[-2::-1]])
_K_WEIGHTS = np.concatenate([_K_WEIGHTS, _K_WEIGHTS[-2::-1]])
_G_WEIGHTS = np.concatenate([_G_WEIGHTS, _G_WEIGHTS[::-1]])


def quad_tolerance(tol: float | None = None) -> float:
    """``tol``, else HOLOALG_TOL, else 1e-10; SchemaError unless positive and finite."""
    raw = tol if tol is not None else os.environ.get("HOLOALG_TOL") or 1e-10
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not 0 < value < math.inf:
        raise SchemaError(f"quadrature tolerance {raw!r} (tol or HOLOALG_TOL) "
                          "is not a positive finite number")
    return value


# ---------------------------------------------------------------------------
# paths and cycles
# ---------------------------------------------------------------------------

# eq=False: segments and paths hold arrays, so they compare and hash by identity.
# points and velocities map (T,) parameters to (n, T) arrays.  A stacked
# segment, which the quadrature builds, holds a row (or an entry) per
# parameter in each field: ts[t] is then taken on the segment of row t.
@dataclass(frozen=True, eq=False)
class CircleSegment:
    """t |-> center + radius * exp(2 pi i turns t) * direction, t in [0, 1]."""

    algebra: Algebra
    center: np.ndarray
    radius: float
    turns: int
    direction: np.ndarray

    def points(self, ts: np.ndarray) -> np.ndarray:
        phase = np.exp(2j * np.pi * self.turns * ts)
        return (self.center + (self.radius * phase)[:, None] * self.direction).T

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        phase = np.exp(2j * np.pi * self.turns * ts)
        coef = self.radius * 2j * np.pi * self.turns
        return ((coef * phase)[:, None] * self.direction).T


@dataclass(frozen=True, eq=False)
class LineSegment:
    algebra: Algebra
    start: np.ndarray
    end: np.ndarray

    def points(self, ts: np.ndarray) -> np.ndarray:
        return (self.start + ts[:, None] * (self.end - self.start)).T

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        return (np.ones((len(ts), 1)) * (self.end - self.start)).T


@dataclass(frozen=True, eq=False)
class Path:
    """A piecewise-C1 parametric path; closed-form kinds carry exact derivatives."""

    algebra: Algebra
    segments: tuple
    closed: bool
    kind: str
    smooth: bool = True

    def __post_init__(self):
        segs = self.segments
        for a, b in zip(segs, segs[1:]):
            gap = np.abs(a.points(np.array([1.0]))[:, 0] - b.points(np.array([0.0]))[:, 0]).max()
            if gap > ENDPOINT_TOL:
                raise ValueError(f"consecutive segments do not share endpoints (gap {gap:.2e})")
        if self.closed and segs:
            first = segs[0].points(np.array([0.0]))[:, 0]
            last = segs[-1].points(np.array([1.0]))[:, 0]
            if np.abs(first - last).max() > ENDPOINT_TOL:
                raise ValueError("closed path does not return to its start")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def circle(cls, center: Element, radius: float, turns: int = 1,
               direction: Element | None = None) -> "Path":
        """ValueError unless the radius is finite and turns an integer."""
        algebra = center.algebra
        direction = direction if direction is not None else algebra.unit()
        radius = float(radius)
        if not math.isfinite(radius) or not isinstance(turns, numbers.Integral):
            raise ValueError(f"a circle needs a finite radius and whole turns, "
                             f"got {radius!r} and {turns!r}")
        seg = CircleSegment(algebra, center.coords.copy(), radius, int(turns),
                            direction.coords.copy())
        return cls(algebra, (seg,), closed=True, kind="circle")

    @classmethod
    def polyline(cls, points: Sequence[Element]) -> "Path":
        if len(points) < 2:
            raise ValueError("a polyline needs at least two points")
        algebra = points[0].algebra
        coords = [p.coords for p in points]
        closed = bool(np.abs(coords[0] - coords[-1]).max() <= ENDPOINT_TOL)
        segs = tuple(LineSegment(algebra, a.copy(), b.copy())
                     for a, b in zip(coords, coords[1:]))
        return cls(algebra, segs, closed=closed, kind="polyline")

    @classmethod
    def samples(cls, points: Sequence[Element], smooth: bool) -> "Path":
        path = cls.polyline(points)
        return cls(path.algebra, path.segments, path.closed, "samples", bool(smooth))

    # -- operations -------------------------------------------------------------

    def require_smooth(self) -> None:
        if self.kind == "samples" and not self.smooth:
            raise NotSmooth("sampled path lacks the piecewise-C1 flag")

    def translate(self, w: Element) -> "Path":
        return self.map_linear(lambda c: c + w.coords, self.algebra)

    def pushforward(self, phi: Morphism) -> "Path":
        return self.map_linear(lambda c: phi.matrix @ c, phi.target)

    def map_linear(self, fn: Callable[[np.ndarray], np.ndarray], algebra: Algebra) -> "Path":
        segs = []
        for seg in self.segments:
            if isinstance(seg, CircleSegment):
                zero = np.zeros_like(seg.center)
                segs.append(CircleSegment(algebra, fn(seg.center), seg.radius, seg.turns,
                                          fn(seg.direction) - fn(zero)))
            else:
                segs.append(LineSegment(algebra, fn(seg.start), fn(seg.end)))
        return Path(algebra, tuple(segs), self.closed, self.kind, self.smooth)

    def reversed(self) -> "Path":
        segs = []
        for seg in reversed(self.segments):
            if isinstance(seg, CircleSegment):
                segs.append(CircleSegment(seg.algebra, seg.center, seg.radius,
                                          -seg.turns, seg.direction))
            else:
                segs.append(LineSegment(seg.algebra, seg.end, seg.start))
        return Path(self.algebra, tuple(segs), self.closed, self.kind, self.smooth)


@dataclass(frozen=True)
class Cycle:
    """Formal integer combination of closed paths."""

    terms: tuple[tuple[int, Path], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a cycle needs at least one term")
        for mult, path in self.terms:
            if not isinstance(mult, int):
                raise ValueError("multiplicities must be integers")
            if not path.closed:
                raise ValueError("every path in a cycle must be closed")

    @property
    def algebra(self) -> Algebra:
        return self.terms[0][1].algebra


def as_cycle(obj) -> Cycle:
    if isinstance(obj, Cycle):
        return obj
    if isinstance(obj, Path):
        return Cycle(((1, obj),))
    raise TypeError("expected a Path or a Cycle")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _quadrature(terms, phi: Morphism, integrand, tol: float | None) -> np.ndarray:
    """Integrals over every segment of every (mult, path) term, breadth first.

    A circle, whose integrand is periodic (period 1 / |turns| in t) and
    analytic, takes the periodic trapezoid rule over one turn: T_32, then each
    level adds the N midpoints, T_2N = (T_N + mean of the new samples) / 2,
    until max |T_2N - T_N| < tol, within 160,000 nodes (16 * QUAD_MAX_PANELS).
    It cannot see Fourier modes at multiples of 2N: 1 + Z^64 about 0 stops on
    a wrong value.  A line segment takes G10/K21 panels from [0, 1], each
    evaluated once: a panel at depth d keeps K21 when QUADPACK's scaled
    estimate D min(1, (200 |K21 - G10| / D)^1.5), D the K21 rule applied to
    |f - mean of f|, is below tol / 2**d in every coordinate, and is split in
    two otherwise, within QUAD_MAX_PANELS panels a segment.  Each level
    samples the integrand once at the new nodes of every unconverged segment,
    in blocks of whole panels and runs of 16 circle nodes with at most
    QUAD_BLOCK_ENTRIES matrix entries.

    ``integrand(points, velocities)`` maps the (n, T) source nodes and their
    (m, T) pushed velocities phi(gamma') to ``(values, sizes)``: a (B, m, T)
    stack of integrands and the (B, T) norms of the factors multiplying the
    velocity.  Returns the (B, m) integrals, weighted by multiplicity, each
    checked per path against ||integral|| <= sup ||size|| * arc (Frobenius
    norms, arcs by :func:`_arcs`, the sup over every node evaluated).
    """
    tol = quad_tolerance(tol)
    tgt = phi.target
    for _, path in terms:
        path.require_smooth()
    segs = [seg for _, path in terms for seg in path.segments]
    owner = np.repeat(np.arange(len(terms)), [len(path.segments) for _, path in terms])
    is_circle = np.array([isinstance(seg, CircleSegment) for seg in segs])
    # each kind stacked, a row per segment: one geometry call per kind and block
    stacked = {kind: _stack(segs, kind) for kind in (LineSegment, CircleSegment)}
    row = np.where(is_circle, np.cumsum(is_circle), np.cumsum(~is_circle)) - 1
    span = np.ones(len(segs))   # a circle samples one turn: the integrand has period 1 / |turns|
    if is_circle.any():
        span[is_circle] = 1 / np.maximum(np.abs(stacked[CircleSegment].turns), 1)
    cap = QUAD_BLOCK_ENTRIES // tgt.dim ** 2   # nodes one integrand call may take
    sup = total = None   # (paths, B) largest sizes, (paths, rows) integrals

    def sample(line_nodes, line_ts, circle_nodes, circle_ts):
        """The (rows, T) integrand at ts[t] on segment nodes[t], lines first."""
        nonlocal sup, total
        pts, vel = [], []
        for kind, nodes, ts in ((LineSegment, line_nodes, line_ts),
                                (CircleSegment, circle_nodes, circle_ts)):
            if len(nodes):
                seg = _rows(stacked[kind], row[nodes])
                pts.append(seg.points(ts))
                vel.append(seg.velocities(ts))
        values, sizes = integrand(np.concatenate(pts, axis=1),
                                  phi.matrix @ np.concatenate(vel, axis=1))
        if sup is None:
            sup = np.zeros((len(terms), len(sizes)))
            total = np.zeros((len(terms), len(sizes) * tgt.dim), dtype=complex)
        np.maximum.at(sup, owner[np.concatenate([line_nodes, circle_nodes])], sizes.T)
        return values.reshape(len(sizes) * tgt.dim, -1)

    def level(idx, a, h, circ, n, offset):
        """Per block, unscaled K21, G10 and D on the panels [a, a + 2h] of the
        lines idx, as (3, rows, panels) arrays, and the row sums over each run
        of 16 of the n nodes (j + offset) / n of one turn of each circle in
        circ.  A kind with no segments has empty (segment, t) node arrays."""
        lines = (np.repeat(idx, 21), (a[:, None] + h * (_GK_NODES + 1)).ravel()) \
            if len(idx) else (idx, idx)
        circles = (np.repeat(circ, n), np.outer(span[circ], (np.arange(n) + offset) / n).ravel()) \
            if len(circ) else (circ, circ)
        panels, runs = len(idx), len(circ) * n // 16
        p, c, line_sums, run_sums = 0, 0, [], []
        while p < panels or c < runs:   # blocks of whole panels, then of 16 circle nodes
            dp = min(panels - p, max(cap // 21, 1))
            dc = min(runs - c, max((cap - 21 * dp) // 16, 0 if dp else 1)) \
                if p + dp == panels else 0
            values = sample(*(x[21 * p:21 * (p + dp)] for x in lines),
                            *(x[16 * c:16 * (c + dc)] for x in circles))
            if dp:
                lv = values[:, :21 * dp].reshape(-1, 21)
                k21 = lv @ _K_WEIGHTS
                line_sums.append(np.array([k21, lv[:, 1::2] @ _G_WEIGHTS,
                                           np.abs(lv - 0.5 * k21[:, None]) @ _K_WEIGHTS])
                                 .reshape(3, len(values), dp))
            if dc:
                run_sums.append(values[:, 21 * dp:].reshape(len(values), dc, 16).sum(axis=2))
            p, c = p + dp, c + dc
        return line_sums, run_sums

    def label(seg, lo=None, width=None):
        first = np.flatnonzero(owner == owner[seg])[0]
        return f"path {owner[seg]} segment {seg - first}" + (
            "" if lo is None else f", t in [{lo:.17g}, {lo + width:.17g}]")

    idx, circ = np.flatnonzero(~is_circle), np.flatnonzero(is_circle)
    a = np.zeros(len(idx))   # left ends of the line panels, of width 2**-depth
    used = np.ones(len(segs), dtype=int)   # line panels evaluated, per segment
    exhausted = f"refinement exhausted depth {QUAD_MAX_DEPTH} at"
    for depth in range(QUAD_MAX_DEPTH + 2):
        n, width = 16 << max(depth, 1), 0.5 ** depth   # n: nodes each circle adds now
        if depth and len(circ) and 2 * n > 16 * QUAD_MAX_PANELS:
            raise QuadratureNoConvergence(
                f"node budget {16 * QUAD_MAX_PANELS} of a circle exhausted at depth {depth - 1}, "
                f"unconverged at {label(circ[0])} after {n} nodes")
        line_sums, run_sums = level(idx, a, width / 2, circ, n, 0.5 if depth else 0.0)
        if len(idx):
            k21, g10, dev = width / 2 * np.concatenate(line_sums, axis=2)
            ratio = 200 * np.abs(k21 - g10) / np.where(dev > 0, dev, 1.0)
            err = (dev * np.minimum(1.0, ratio ** 1.5)).max(axis=0)
            done = err < tol * width
            if depth == QUAD_MAX_DEPTH and not done.all():
                w = int(np.argmax(err))
                raise QuadratureNoConvergence(f"{exhausted} {label(idx[w], a[w], width)}")
            np.add.at(total, owner[idx[done]], k21[:, done].T)
            used += 2 * np.bincount(idx[~done], minlength=len(segs))
            if used.max() > QUAD_MAX_PANELS:   # for the halves of the panels that failed
                s = int(np.argmax(used))
                w = int(np.argmax(np.where(idx == s, err, -np.inf)))
                raise QuadratureNoConvergence(
                    f"panel budget {QUAD_MAX_PANELS} of a segment exhausted at depth "
                    f"{depth + 1}, unconverged at {label(s, a[w], width)}")
            idx, a = np.repeat(idx[~done], 2), (a[~done, None] + [0, width / 2]).ravel()
        if len(circ):   # T_32 first (T_16 = T_32 on Z^32), then T_2N against T_N, N = 16 << depth
            new = np.concatenate(run_sums, axis=1).reshape(-1, len(circ), n // 16).sum(axis=2) / n
            if depth:
                doubled = 0.5 * (trap + new)
                done = np.abs(doubled - trap).max(axis=0) < tol
                if depth > QUAD_MAX_DEPTH and not done.all():
                    raise QuadratureNoConvergence(
                        f"{exhausted} {label(circ[~done][0])} after {2 * n} nodes")
                np.add.at(total, owner[circ[done]], doubled[:, done].T)
                circ, new = circ[~done], doubled[:, ~done]
            trap = new
        if not len(idx) and not len(circ):
            break

    arcs = np.bincount(np.concatenate([owner[~is_circle], owner[is_circle]]),
                       weights=_arcs(stacked.values(), phi), minlength=len(terms))
    bounds = sup * arcs[:, None]
    norms = _batch_norm(tgt, total.reshape(-1, tgt.dim).T).reshape(bounds.shape)
    for p, i in np.argwhere(~(norms <= bounds * (1 + 1e-6) + 1e-9)):   # NaN fails
        raise EstimateViolated(
            f"quadrature result {i} on path {p} violates the norm estimate "
            f"({norms[p, i]:.3e} > {bounds[p, i]:.3e}); integrand is likely "
            "discontinuous on the path")
    return (np.array([mult for mult, _ in terms], dtype=float) @ total).reshape(-1, tgt.dim)


def _arcs(stacks, phi: Morphism, norm_kind: str = "frobenius") -> np.ndarray:
    """The lengths of the pushed segments of the stacked segments (None for
    none), in order, in closed form.  Both kinds have constant speed and both
    norms are absolutely homogeneous, so a segment's is ||phi(gamma'(0))||:
    ||phi(end - start)|| on a line, 2 pi |radius turns| ||phi(direction)|| on a circle."""
    vel = [seg.velocities(np.zeros(len(getattr(seg, fields(seg)[1].name))))
           for seg in stacks if seg is not None]
    return _batch_norm(phi.target, phi.matrix @ np.concatenate(vel, axis=1), norm_kind)


def _stack(segs, kind: type):
    """The segments of one kind as one stacked segment, whose fields hold a
    row (or an entry) per segment; None when there are none."""
    segs = [seg for seg in segs if isinstance(seg, kind)]
    return kind(segs[0].algebra, *(np.array([getattr(seg, f.name) for seg in segs])
                                   for f in fields(kind)[1:])) if segs else None


def _rows(seg, rows: np.ndarray):
    """The stacked segment made of the given rows of a stacked segment."""
    return type(seg)(seg.algebra, *(getattr(seg, f.name).take(rows, axis=0)
                                    for f in fields(seg)[1:]))


def _sampled(f, source: Algebra, target: Algebra) -> FunctionSampler:
    return f if isinstance(f, FunctionSampler) else FunctionSampler(f, source, target)


def length(path: Path, phi: Morphism, norm_kind: str = "frobenius") -> float:
    """Arc length of the pushed path, the integral of ||phi(gamma'(t))||, as a
    sum of the segments' closed forms (see :func:`_arcs`)."""
    path.require_smooth()
    return float(_arcs((_stack(path.segments, kind) for kind in (LineSegment, CircleSegment)),
                       phi, norm_kind).sum())


def integrate(f, path: Path, phi: Morphism, tol: float | None = None) -> Element:
    """Contour integral of f(Z) dZ, i.e. integral of f(gamma(t)) phi(gamma'(t)) dt.

    The trapezoid rule on circles and G10/K21 Gauss-Kronrod panels on line
    segments, to the given per-coordinate absolute tolerance, with the
    estimate ||integral|| <= sup ||f|| * L verified (see :func:`_quadrature`).
    """
    return phi.target.element(_cauchy_kernel_integral(((1, path),), None, phi, (0,), f, tol)[0])


def integrate_cycle(f, cycle, phi: Morphism, tol: float | None = None) -> Element:
    terms = as_cycle(cycle).terms
    return phi.target.element(_cauchy_kernel_integral(terms, None, phi, (0,), f, tol)[0])


def _batch_inv(dec: Decomposition, w: np.ndarray) -> np.ndarray:
    """Inverses of an (m, T) coordinate stack of ``dec.algebra`` by the local
    expansion of 1/s (``decomposition._local_inverse``), with no linear solve.

    A column that fails the character rule of ``_unit_columns`` is NotAUnit.
    """
    if not _unit_columns(dec, w).all():
        raise NotAUnit("kernel hit a non-invertible value on the path")
    return _local_inverse(dec, w)


def _cauchy_kernel_integral(terms, Z0: Element | None, phi: Morphism, powers: Sequence[int],
                            f=None, tol: float | None = None) -> np.ndarray:
    """Integrals of f(W) phi(W - Z0)^(-p) dW over the (mult, path) terms, open
    paths too, one row per p in the ascending powers.

    Power 0, the plain integral of f dW, is f itself: it needs no Z0, no
    inverse and no decomposition.  All powers share the nodes, one kernel
    inverse and one sample of f (optional from power 1 on) per refinement
    level; each has its own norm-estimate check.  The kernel's unit test
    uses the target's decomposition.
    """
    tgt = phi.target
    plain = int(powers[0] == 0)   # a leading row that is f itself
    dec = artin_decompose(tgt) if powers[-1] else None
    sampler = None if f is None else _sampled(f, terms[0][1].algebra, tgt)

    def integrand(pts, vel):
        kernels = fv = None if sampler is None else sampler.values(pts)
        if dec is not None:
            inv = _batch_inv(dec, phi.matrix @ (pts - Z0.coords[:, None]))
            stack = [inv]
            for _ in range(powers[-1] - 1):
                stack.append(_batch_mul(tgt, stack[-1], inv))
            # one (m, B T) stack, power by power, so that each product is one call
            kernels = np.concatenate([stack[p - 1] for p in powers[plain:]], axis=1)
            if fv is not None:
                kernels = _batch_mul(tgt, np.tile(fv, len(powers) - plain), kernels)
            if plain:
                kernels = np.concatenate([fv, kernels], axis=1)
        values = _batch_mul(tgt, kernels, np.tile(vel, len(powers)))
        return (values.reshape(tgt.dim, len(powers), -1).transpose(1, 0, 2),
                _batch_norm(tgt, kernels).reshape(len(powers), -1))

    return _quadrature(terms, phi, integrand, tol)


# ---------------------------------------------------------------------------
# admissibility and the index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Clearances of the point's spectral parts from the projected supports,
    and the cycle's winding numbers about them, per active source component."""

    admissible: bool
    active_components: tuple[int, ...]
    clearances: tuple[float, ...]
    thresholds: tuple[float, ...]
    windings: tuple[int, ...]


def admissibility(cycle, Z0: Element, phi: Morphism) -> AdmissibilityReport:
    """Distance of each active spectral projection of Z0 to the projected cycle.

    The active components are the source components tau hits in the
    canonical factorization of phi, read from the algebras' cached
    decompositions (ClusteringAmbiguous when an algebra cannot be decomposed).
    Clearances are exact distances to the projected curves.  The threshold
    of component k is 2 * ADMISSIBILITY_RESOLUTION * L_k, with L_k the
    longest projected length of a path of the cycle; a clearance must exceed
    it, so points on (or numerically indistinguishable from) the projected
    support are forbidden.  The same pass gives the windings: the
    multiplicity-weighted winding number of sigma_k of the cycle about
    sigma_k(Z0), meaningful only where the clearance is positive.
    """
    cyc = as_cycle(cycle)
    dec_source = artin_decompose(phi.source)
    fact = factor(phi, dec_source, artin_decompose(phi.target))
    active = fact.active_source_components
    rows = dec_source.spectral_rows[list(active)]
    w0 = rows @ Z0.coords
    # (paths, K) windings, distances and lengths, one projection per path
    wind, dist, arc = map(np.array, zip(*(_projection(path, rows, w0) for _, path in cyc.terms)))
    clearances = tuple(map(float, dist.min(axis=0)))
    thresholds = tuple(map(float, 2.0 * ADMISSIBILITY_RESOLUTION * arc.max(axis=0)))
    windings = tuple(map(int, np.array([mult for mult, _ in cyc.terms]) @ wind))
    ok = all(c > t for c, t in zip(clearances, thresholds))
    return AdmissibilityReport(ok, active, clearances, thresholds, windings)


@dataclass(frozen=True)
class SpectralIndex:
    """Integer winding data per target component, assembled in the target,
    with the admissibility report of the point it was computed at."""

    values: tuple[int, ...]
    element: Element
    admissibility: AdmissibilityReport


def _projection(path: Path, rows: np.ndarray, w0: np.ndarray):
    """Winding numbers about w0, distances to w0 and lengths of row(path) for
    each of the (K, n) rows and its point in the (K,) w0, as arrays of length K.

    A line segment projects to [a, b] (relative to w0), which subtends the
    principal angle arg(b / a) (Hormann & Agathos, Comput. Geom. 20, 2001); a
    circle segment projects to the circle about c of radius
    R = radius * |row @ direction|, wound ``turns`` times, so it adds
    ``turns`` when |w0 - c| < R (with zero turns it stays at its start).
    """
    lines = [seg for seg in path.segments if isinstance(seg, LineSegment)]
    circles = [seg for seg in path.segments if isinstance(seg, CircleSegment)]
    angle, arc = np.zeros((2, len(rows)))
    dist = np.full(len(rows), math.inf)
    if lines:   # (segments, K) below
        a = np.array([seg.start for seg in lines]) @ rows.T - w0
        b = np.array([seg.end for seg in lines]) @ rows.T - w0
        d = b - a
        sq = np.abs(d) ** 2
        t = np.clip(-(a * d.conj()).real / np.where(sq > 0, sq, 1.0), 0.0, 1.0)
        angle += np.angle(b * a.conj()).sum(axis=0)
        dist = np.abs(a + t * d).min(axis=0)
        arc += np.sqrt(sq).sum(axis=0)
    if circles:
        c = np.array([seg.center for seg in circles]) @ rows.T - w0
        r = np.array([seg.radius * seg.direction for seg in circles]) @ rows.T
        rho, radii = np.abs(c), np.abs(r)
        turns = np.array([seg.turns for seg in circles])[:, None]
        angle += 2 * math.pi * (turns * (rho < radii)).sum(axis=0)
        # a circle of zero turns stays at its start point c + r
        dist = np.minimum(dist, np.where(turns != 0, np.abs(rho - radii), np.abs(c + r)).min(axis=0))
        arc += 2 * math.pi * (np.abs(turns) * radii).sum(axis=0)
    return np.rint(angle / (2 * math.pi)).astype(int), dist, arc


def index_spectral(cycle, Z0: Element, phi: Morphism) -> SpectralIndex:
    """Index as classical winding numbers of the spectral projections.

    Exact integers; the value for target component ell is the winding of
    sigma_{tau(ell)} of the cycle around sigma_{tau(ell)}(Z0), read off one
    :func:`admissibility` pass.  NotAdmissible in the forbidden zone;
    WindingUnresolved when a clearance is at most ENDPOINT_TOL, which a cycle
    of zero projected length can leave admissible.
    """
    report = admissibility(cycle, Z0, phi)
    if not report.admissible:
        raise NotAdmissible(f"point is in the forbidden zone: {report}")
    if min(report.clearances) <= ENDPOINT_TOL:
        raise WindingUnresolved(f"projected point sits on the curve "
                                f"(distance {min(report.clearances):.2e})")
    fact = factor(phi, artin_decompose(phi.source), artin_decompose(phi.target))
    winding = dict(zip(report.active_components, report.windings))
    values = tuple(winding[k] for k in fact.tau)
    idempotents = fact.dec_target.idempotents
    element = phi.target.element(sum(v * e.coords for v, e in zip(values, idempotents)))
    return SpectralIndex(values, element, report)


def index_quadrature(cycle, Z0: Element, phi: Morphism,
                     tol: float | None = None) -> Element:
    """(1 / 2 pi i) times the integral of dZ / phi(Z - Z0) over the cycle.

    The value comes from the quadrature alone.  The target is decomposed only
    to certify that phi(W - Z0) is a unit at every node: NotAUnit when it is
    not, ClusteringAmbiguous when the target cannot be decomposed.
    """
    out = _cauchy_kernel_integral(as_cycle(cycle).terms, Z0, phi, (1,), tol=tol)[0]
    return phi.target.element(out * (1.0 / (2j * math.pi)))


# ---------------------------------------------------------------------------
# Cauchy integral formulas
# ---------------------------------------------------------------------------

def _spot_check_holomorphy(f, cycle: Cycle, phi: Morphism) -> None:
    """The CR residual at three points of the first segment, whose stencils
    are sampled in one call; a warning when one exceeds 1e-2."""
    path = cycle.terms[0][1]
    pts = path.segments[0].points(np.array([0.17, 0.43, 0.81]))
    steps = np.array([default_step(path.algebra.element(z)) for z in pts.T])
    res = _gcru_residuals(_sampled(f, path.algebra, phi.target), phi, pts, steps)
    if (res > 1e-2).any():
        warnings.warn(f"integrand looks non-holomorphic near the path "
                      f"(residual {res[res > 1e-2][0]:.2e}); Cauchy formulas may not apply",
                      stacklevel=3)


def _index_inverse(idx: SpectralIndex, target: Algebra) -> Element:
    """sum_l e_l / v_l over the target's idempotents; IndexNotInvertible when
    a component v_l is zero."""
    if any(v == 0 for v in idx.values):
        raise IndexNotInvertible(f"index {idx.values} has a zero component")
    idempotents = artin_decompose(target).idempotents
    return target.element(sum(e.coords / v for v, e in zip(idx.values, idempotents)))


def cif_value(f, cycle, Z0: Element, phi: Morphism, tol: float | None = None,
              solve: bool = False, spot_check: bool = True) -> Element:
    """(1 / 2 pi i) integral of f(Z) / phi(Z - Z0) dZ over the cycle.

    For holomorphic f this equals f(Z0) * Ind(cycle, Z0); with ``solve`` the
    index is computed spectrally and divided out (IndexNotInvertible when a
    component index is zero), returning f(Z0) itself.  This is
    :func:`cif_derivative` of order 0.
    """
    return cif_derivative(f, cycle, Z0, 0, phi, tol, solve, spot_check)


def _cif_scale(k: int) -> complex:
    """k! / (2 pi i); ValueError unless k >= 0 and k! is a finite double."""
    if k < 0 or math.lgamma(k + 1) > math.log(sys.float_info.max):
        raise ValueError(f"derivative order {k} is negative or its factorial "
                         "overflows a double")
    return math.factorial(k) / (2j * math.pi)


def cif_derivative(f, cycle, Z0: Element, k: int, phi: Morphism,
                   tol: float | None = None, solve: bool = False,
                   spot_check: bool = True) -> Element:
    """(k! / 2 pi i) integral of f(W) / phi(W - Z0)^(k+1) dW; k = 0 is cif_value.

    ValueError before any work unless k >= 0 and k! is a finite double.  The
    integral is asked for to tol * min(1, 2 pi / k!), so that the tolerance
    bounds the error of the value returned; an order whose factorial pushes
    that below rounding ends in QuadratureNoConvergence.  The target is
    decomposed to certify the kernel at every node (ClusteringAmbiguous when
    it cannot be).
    """
    scale = _cif_scale(k)
    tol = quad_tolerance(tol) * min(1.0, 2 * math.pi / math.factorial(k))
    cyc = as_cycle(cycle)
    f = _sampled(f, cyc.algebra, phi.target)   # one sampler, so one stacked-call verdict
    if spot_check:
        _spot_check_holomorphy(f, cyc, phi)

    out = _cauchy_kernel_integral(cyc.terms, Z0, phi, (k + 1,), f, tol)[0]
    out = phi.target.element(out * scale)
    if not solve:
        return out
    return out * _index_inverse(index_spectral(cyc, Z0, phi), phi.target)


def _scalar_circle_at(cycle: Cycle, Z0: Element) -> CircleSegment | None:
    """The unique scalar unit-direction circle centered at Z0, if that is the cycle."""
    if len(cycle.terms) != 1 or cycle.terms[0][0] != 1:
        return None
    path = cycle.terms[0][1]
    seg = path.segments[0]
    if (len(path.segments) != 1 or not isinstance(seg, CircleSegment) or seg.turns != 1
            or np.abs(seg.center - Z0.coords).max() > 1e-12
            or np.abs(seg.direction - path.algebra.unit_coords).max() > 1e-12):
        return None
    return seg


def taylor_from_contour(f, cycle, Z0: Element, K: int, phi: Morphism,
                        tol: float | None = None) -> PowerSeries:
    """Taylor coefficients B_k = f^(k)(Z0)/k! recovered from contour data.

    Requires an invertible index (all spectral windings nonzero).  The K + 1
    kernels phi(W - Z0)^(-k-1) are integrated in one pass that samples f
    once per node; the target is decomposed for the index and the kernel
    (ClusteringAmbiguous when it cannot be).  On scalar circles centered at
    Z0 the kernel is scalar, so ||f^(k)(Z0)|| <= k!/r^k sup ||f|| holds in
    every norm: it is checked in the Frobenius norm, and NaN fails it.
    """
    cyc = as_cycle(cycle)
    tgt = phi.target
    inv_idx = _index_inverse(index_spectral(cyc, Z0, phi), tgt)
    f = _sampled(f, cyc.algebra, tgt)
    _spot_check_holomorphy(f, cyc, phi)

    raw = _cauchy_kernel_integral(cyc.terms, Z0, phi, range(1, K + 2), f, tol)
    coeffs = _batch_mul(tgt, raw.T * (1.0 / (2j * math.pi)),
                        np.broadcast_to(inv_idx.coords[:, None], (tgt.dim, K + 1)))

    circle = _scalar_circle_at(cyc, Z0)
    if circle is not None:
        ts = np.linspace(0.0, 1.0, 257)
        f_circle = f.values(circle.points(ts))
        sup = float(_batch_norm(tgt, f_circle).max())
        fact = np.array([math.factorial(k) for k in range(K + 1)], dtype=float)
        lhs = fact * _batch_norm(tgt, coeffs)
        bound = fact * sup / circle.radius ** np.arange(K + 1)
        for k in np.flatnonzero(~(lhs <= bound * (1 + 1e-6) + 1e-9)):   # NaN fails
            raise EstimateViolated(
                f"derivative bound violated at order {k}: {lhs[k]:.3e} > {bound[k]:.3e}")
    return PowerSeries.polynomial(phi, Z0, [tgt.element(c) for c in coeffs.T])


def goursat_residual(f, triangle: tuple[Element, Element, Element], phi: Morphism,
                     tol: float | None = None) -> float:
    """Norm of the integral of f over a triangle boundary; ~0 for holomorphic f."""
    a, b, c = triangle
    path = Path.polyline([a, b, c, a])
    return integrate(f, path, phi, tol).norm("frobenius")


@dataclass(frozen=True)
class HomologicalReport:
    """Residuals of the cycle-level reproducing formula at a point."""

    index: SpectralIndex
    cif_residual: float
    integral_norm: float


def homological_cif_check(f, cycle, Z0: Element, phi: Morphism,
                          tol: float | None = None) -> HomologicalReport:
    """Check f(Z0) * Ind = (1/2 pi i) int f/phi(W - Z0) dW over a 1-cycle.

    The caller asserts that the spectral projections of the cycle bound in
    the projected domain.  Also reports || int_Gamma f dW ||, which vanishes
    for spectrally null-homologous cycles: it is power 0 of the same pass.
    """
    cyc = as_cycle(cycle)
    tgt = phi.target
    f = _sampled(f, cyc.algebra, tgt)
    idx = index_spectral(cyc, Z0, phi)
    plain, kernel = _cauchy_kernel_integral(cyc.terms, Z0, phi, (0, 1), f, tol)
    residual = (f(Z0) * idx.element - tgt.element(kernel * _cif_scale(0))).norm("frobenius")
    return HomologicalReport(idx, residual, tgt.element(plain).norm("frobenius"))
