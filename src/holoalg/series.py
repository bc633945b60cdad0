"""Analytic power series along a morphism: radii, evaluation, canonical forms.

A :class:`PowerSeries` is a center Z0 in the source algebra together with
target-algebra coefficients B_k, read as  sum_k B_k phi(Z - Z0)^k.
Convergence is governed per local component by the spectral part alone: the
series converges whenever |sigma_k(Z - Z0)| stays below the component radius,
no matter how large the nilpotent part, and is guaranteed divergent outside
the closed spectral polycylinder.  On the (estimated) boundary no verdict is
attempted.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .algebra import Algebra, Element, _batch_mul
from .crsystem import FunctionSampler
from .decomposition import Decomposition, artin_decompose
from .errors import (
    EstimateViolated,
    NoConvergence,
    NotLocalPair,
    NotNilpotent,
    OutsideScalarDomain,
)
from .morphism import Factorization, Morphism, factor

DEFAULT_RULE_BOUND = 200
TRUNCATION_TOL = 1e-12
BOUNDARY_BAND = 0.01   # relative width of the no-verdict band around the radius
RADIUS_SHRINK = 0.9    # tail bounds use the estimated radius shrunk by 10%
MAX_TERMS = 200_000


class _Verdict:
    """Singleton non-values returned by evaluate()."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


Divergent = _Verdict("Divergent")
BoundaryIndeterminate = _Verdict("BoundaryIndeterminate")


def _tail_window_sup(norms: Sequence[float], bound: int) -> float:
    """max of ||B_n||^(1/n) over the tail window n in [bound/2, bound]."""
    lo = max(1, bound // 2)
    sup = 0.0
    for n in range(lo, bound + 1):
        if n < len(norms) and norms[n] > 0:
            sup = max(sup, norms[n] ** (1.0 / n))
    return sup


class PowerSeries:
    """sum_k B_k phi(Z - Z0)^k with finite or rule-generated coefficients."""

    def __init__(self, phi: Morphism, center: Element,
                 coeffs: Sequence[Element] | None = None,
                 rule: Callable[[int], Element] | None = None,
                 rule_bound: int = DEFAULT_RULE_BOUND):
        if (coeffs is None) == (rule is None):
            raise ValueError("provide exactly one of coeffs or rule")
        if not phi.source.compatible(center.algebra):
            raise ValueError("center must live in the source algebra")
        self.phi = phi
        self.center = center
        self.coeffs = tuple(coeffs) if coeffs is not None else None
        self.rule = rule
        self.rule_bound = rule_bound
        self._ctx: dict[int, tuple[Decomposition, Decomposition, Factorization]] = {}
        self._component_radii: np.ndarray | None = None
        self._radius: float | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def polynomial(cls, phi: Morphism, center: Element,
                   coeffs: Sequence[Element]) -> "PowerSeries":
        return cls(phi, center, coeffs=coeffs)

    @classmethod
    def from_rule(cls, phi: Morphism, center: Element, rule: Callable[[int], Element],
                  bound: int = DEFAULT_RULE_BOUND) -> "PowerSeries":
        return cls(phi, center, rule=rule, rule_bound=bound)

    # -- coefficient access -----------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.coeffs is not None

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs is not None else None

    def coefficient(self, k: int) -> Element:
        if self.coeffs is not None:
            if k < len(self.coeffs):
                return self.coeffs[k]
            return self.phi.target.zero()
        return self.rule(k)

    # -- context ----------------------------------------------------------------

    def context(self, seed: int = 0):
        """(source decomposition, target decomposition, factorization), cached per seed."""
        if seed not in self._ctx:
            dec_a = artin_decompose(self.phi.source, seed=seed)
            dec_b = artin_decompose(self.phi.target, seed=seed)
            self._ctx[seed] = (dec_a, dec_b, factor(self.phi, dec_a, dec_b))
        return self._ctx[seed]

    # -- radii -------------------------------------------------------------------

    def _coefficient_norms(self, kind: str) -> list[float]:
        return [self.coefficient(n).norm(kind) for n in range(self.rule_bound + 1)]

    def radius(self) -> float:
        """1 / limsup ||B_n||^(1/n), from the tail window [N/2, N]; cached.

        The estimate is computed with both the Frobenius and the operator
        norm; they must agree within 5% (norm independence of the radius),
        else EstimateViolated flags the coefficient rule as too irregular for
        the window.
        """
        if self._radius is not None:
            return self._radius
        if self.is_polynomial:
            self._radius = math.inf
            return self._radius
        est_f = self._radius_estimate("frobenius")
        est_o = self._radius_estimate("operator")
        if math.isfinite(est_f) or math.isfinite(est_o):
            hi = max(est_f, est_o)
            lo = min(est_f, est_o)
            if not (math.isfinite(hi) and (hi - lo) <= 0.05 * hi):
                raise EstimateViolated(
                    f"radius estimates disagree beyond 5%: {est_f} (frobenius) "
                    f"vs {est_o} (operator)")
        self._radius = est_f
        return est_f

    def _radius_estimate(self, kind: str) -> float:
        sup = _tail_window_sup(self._coefficient_norms(kind), self.rule_bound)
        return math.inf if sup == 0.0 else 1.0 / sup

    def spectral_divergence_radius(self) -> float:
        """Diagnostic 1 / limsup rho(B_n)^(1/n); always >= the radius."""
        if self.is_polynomial:
            return math.inf
        norms = [self.coefficient(n).spectral_radius() for n in range(self.rule_bound + 1)]
        sup = _tail_window_sup(norms, self.rule_bound)
        return math.inf if sup == 0.0 else 1.0 / sup

    def component_radii(self) -> np.ndarray:
        """Per-target-component radius estimates (coordinate norms)."""
        if self._component_radii is None:
            _, dec_b, _ = self.context()
            if self.is_polynomial:
                self._component_radii = np.full(dec_b.count, math.inf)
            else:
                per = []
                norms = np.empty((dec_b.count, self.rule_bound + 1))
                for n in range(self.rule_bound + 1):
                    b = self.coefficient(n)
                    for ell in range(dec_b.count):
                        norms[ell, n] = np.linalg.norm(dec_b.component_coords(b, ell))
                for ell in range(dec_b.count):
                    sup = _tail_window_sup(norms[ell], self.rule_bound)
                    per.append(math.inf if sup == 0.0 else 1.0 / sup)
                self._component_radii = np.array(per)
        return self._component_radii

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, Z: Element, boundary_band: float = BOUNDARY_BAND,
                 tol: float = TRUNCATION_TOL):
        """Sum the series at Z, or report Divergent / BoundaryIndeterminate.

        The verdict per matched component depends only on the spectral part
        |sigma_k(Z - Z0)| against the component radius; the nilpotent part is
        irrelevant.  ``boundary_band`` is the relative width of the
        indeterminate band around the estimated radius.
        """
        if not self.phi.source.compatible(Z.algebra):
            raise ValueError("point must live in the source algebra")
        if self.is_polynomial:
            return self._sum(Z, q=0.0, tol=tol)

        dec_a, dec_b, fact = self.context()
        radii = self.component_radii()
        q = 0.0
        boundary = False
        for ell in range(dec_b.count):
            k = fact.tau[ell]
            rho = abs(dec_a.sigma(Z - self.center, k))
            r = radii[ell]
            if math.isinf(r):
                continue
            if rho > r * (1 + boundary_band):
                return Divergent
            if rho >= r * (1 - boundary_band):
                boundary = True
            else:
                q = max(q, rho / (RADIUS_SHRINK * r))
        if boundary:
            return BoundaryIndeterminate
        return self._sum(Z, q=q, tol=tol)

    def _sum(self, Z: Element, q: float, tol: float) -> Element:
        w = self.phi(Z - self.center)
        acc = self.phi.target.zero()
        power = self.phi.target.unit()
        top = len(self.coeffs) if self.is_polynomial else MAX_TERMS
        # geometric tail majorant; inside the verdict band but beyond the
        # shrunk radius (q >= 1) fall back to the worst admissible ratio
        tail_factor = q / (1 - q) if 0 < q < 1 else (99.0 if q >= 1 else 1.0)
        calm = 0
        for k in range(top):
            term = self.coefficient(k) * power
            acc = acc + term
            power = power * w
            if not self.is_polynomial:
                if term.norm("frobenius") * max(tail_factor, 1.0) < tol:
                    calm += 1
                    if calm >= 4 and k >= 8:
                        return acc
                else:
                    calm = 0
        if self.is_polynomial:
            return acc
        raise NoConvergence(f"series did not meet the tail bound in {MAX_TERMS} terms")

    def evaluate_strict(self, Z: Element) -> Element:
        out = self.evaluate(Z)
        if not isinstance(out, Element):
            raise OutsideScalarDomain(f"series verdict at the point: {out!r}")
        return out

    def __call__(self, Z: Element):
        return self.evaluate_strict(Z) if self.is_polynomial else self.evaluate(Z)

    def sampler(self) -> FunctionSampler:
        """The series as a sampler; polynomials also evaluate coordinate stacks."""
        return FunctionSampler(self.evaluate_strict, self.phi.source, self.phi.target,
                               smooth_region="open spectral polycylinder of convergence",
                               batch=self._horner if self.is_polynomial else None)

    def _horner(self, X: np.ndarray) -> np.ndarray:
        """Horner's rule on the columns of an (n, T) stack of source points."""
        tgt = self.phi.target
        w = self.phi.matrix @ (X - self.center.coords[:, None])
        acc = np.repeat(self.coeffs[-1].coords[:, None], X.shape[1], axis=1)
        for c in reversed(self.coeffs[:-1]):
            acc = _batch_mul(tgt, acc, w) + c.coords[:, None]
        return acc

    # -- calculus ---------------------------------------------------------------

    def derive(self) -> "PowerSeries":
        """Term-wise derivative: coefficients (k+1) B_{k+1}; radius preserved."""
        if self.is_polynomial:
            new = [(k + 1) * self.coeffs[k + 1] for k in range(len(self.coeffs) - 1)]
            if not new:
                new = [self.phi.target.zero()]
            return PowerSeries(self.phi, self.center, coeffs=new)
        rule = self.rule
        return PowerSeries(self.phi, self.center,
                           rule=lambda k: (k + 1) * rule(k + 1),
                           rule_bound=max(self.rule_bound - 1, 1))

    def derivative_at(self, Z: Element, order: int) -> Element:
        s = self
        for _ in range(order):
            s = s.derive()
        return s.evaluate_strict(Z)


# ---------------------------------------------------------------------------
# scalar series and canonical forms
# ---------------------------------------------------------------------------

class ScalarSeries:
    """A C-holomorphic map z |-> sum_j c_j (z - z0)^j with algebra coefficients."""

    def __init__(self, target: Algebra, center: complex,
                 coeffs: Sequence[Element] | None = None,
                 rule: Callable[[int], Element] | None = None,
                 rule_bound: int = DEFAULT_RULE_BOUND):
        if (coeffs is None) == (rule is None):
            raise ValueError("provide exactly one of coeffs or rule")
        self.target = target
        self.center = complex(center)
        self.coeffs = tuple(coeffs) if coeffs is not None else None
        self.rule = rule
        self.rule_bound = rule_bound
        self._radius: float | None = None

    @property
    def is_polynomial(self) -> bool:
        return self.coeffs is not None

    def coefficient(self, j: int) -> Element:
        if self.coeffs is not None:
            return self.coeffs[j] if j < len(self.coeffs) else self.target.zero()
        return self.rule(j)

    def radius(self) -> float:
        if self._radius is None:
            if self.is_polynomial:
                self._radius = math.inf
            else:
                norms = [self.coefficient(j).norm("frobenius")
                         for j in range(self.rule_bound + 1)]
                sup = _tail_window_sup(norms, self.rule_bound)
                self._radius = math.inf if sup == 0.0 else 1.0 / sup
        return self._radius

    def derivative(self, z: complex, order: int = 0,
                   tol: float = TRUNCATION_TOL) -> Element:
        """g^(order)(z) = sum_{j>=order} j!/(j-order)! c_j (z - z0)^(j-order)."""
        zeta = complex(z) - self.center
        acc = self.target.zero()
        pw = 1.0 + 0j
        top = len(self.coeffs) if self.is_polynomial else MAX_TERMS
        falling = math.factorial(order) if order else 1
        calm = 0
        for j in range(order, top):
            if j > order:
                falling = falling * j // (j - order)
            term = (falling * pw) * self.coefficient(j)
            acc = acc + term
            pw *= zeta
            if not self.is_polynomial:
                size = term.norm("frobenius")
                if size > 1e60:
                    raise NoConvergence("scalar series diverges at this point")
                if size < tol:
                    calm += 1
                    if calm >= 4 and j >= order + 8:
                        return acc
                else:
                    calm = 0
        if self.is_polynomial:
            return acc
        raise NoConvergence(f"scalar series did not settle in {MAX_TERMS} terms")

    def component_restriction(self, dec: Decomposition, ell: int) -> "ScalarSeries":
        """Coefficients multiplied by the ell-th idempotent."""
        unit = dec.idempotents[ell]
        if self.is_polynomial:
            return ScalarSeries(self.target, self.center,
                                coeffs=[c * unit for c in self.coeffs])
        rule = self.rule
        return ScalarSeries(self.target, self.center,
                            rule=lambda j: rule(j) * unit, rule_bound=self.rule_bound)


class CanonicalForm:
    """Evaluator f(z (+) X) = sum_{k < nu} g^(k)(z)/k! phi(X)^k.

    Stores the scalar Taylor data g (a C-holomorphic map into the target) per
    matched component together with the height nu of the local morphism pair.
    """

    def __init__(self, phi: Morphism, scalar: ScalarSeries,
                 heights: tuple[int, ...],
                 dec_source: Decomposition, dec_target: Decomposition,
                 fact: Factorization):
        self.phi = phi
        self.scalar = scalar
        self.heights = heights
        self.dec_source = dec_source
        self.dec_target = dec_target
        self.fact = fact
        self._restrictions = [scalar.component_restriction(dec_target, ell)
                              for ell in range(dec_target.count)]

    def scalar_radius(self) -> float:
        return self.scalar.radius()

    def evaluate(self, Z: Element) -> Element:
        if not self.phi.source.compatible(Z.algebra):
            raise ValueError("point must live in the source algebra")
        radius = self.scalar.radius()
        out = self.phi.target.zero()
        for ell in range(self.dec_target.count):
            k = self.fact.tau[ell]
            z = self.dec_source.sigma(Z, k)
            if abs(z - self.scalar.center) >= radius:
                raise OutsideScalarDomain(
                    f"spectral part {z} outside the scalar disc of radius {radius}")
            x = self.dec_source.nilpotent_part(Z, k)
            px = self.phi(x) * self.dec_target.idempotents[ell]
            g = self._restrictions[ell]
            power = self.dec_target.idempotents[ell]
            fact_k = 1.0
            for order in range(self.heights[ell]):
                if order:
                    fact_k *= order
                    power = power * px
                    if power.coord_norm() == 0.0:
                        break
                out = out + (1.0 / fact_k) * (g.derivative(z, order) * power)
        return out

    def sampler(self) -> FunctionSampler:
        return FunctionSampler(self.evaluate, self.phi.source, self.phi.target,
                               smooth_region="scalar disc x nilradical cylinder")


def canonical_form(g: ScalarSeries, phi: Morphism,
                   dec_source: Decomposition | None = None,
                   dec_target: Decomposition | None = None,
                   fact: Factorization | None = None,
                   seed: int = 0) -> CanonicalForm:
    """Lift scalar Taylor data to the holomorphic map on the spectral cylinder.

    Without a factorization both algebras must be local
    (:class:`NotLocalPair` otherwise); with one, the construction runs per
    matched component with height nu = min of the two local heights.
    """
    from .decomposition import profile  # local import to keep module load light

    dec_source = dec_source or artin_decompose(phi.source, seed=seed)
    dec_target = dec_target or artin_decompose(phi.target, seed=seed)
    if fact is None:
        if dec_source.count != 1 or dec_target.count != 1:
            raise NotLocalPair("algebras are not local; factor the morphism first")
        fact = factor(phi, dec_source, dec_target)
    heights_a = profile(phi.source, dec_source).heights
    heights_b = profile(phi.target, dec_target).heights
    heights = tuple(min(heights_a[fact.tau[ell]], heights_b[ell])
                    for ell in range(dec_target.count))
    return CanonicalForm(phi, g, heights, dec_source, dec_target, fact)


def nilpotent_derivative(s: PowerSeries, Z: Element, X: Element) -> Element:
    """Limit of difference quotients along units toward the nilpotent X.

    Equals sum_k f^(k+1)(Z)/(k+1)! phi(X)^k, a terminating sum.  X must lie
    in the nilradical (checked by scale-invariant nilpotency of X^n).
    """
    algebra = X.algebra
    if X.coord_norm() > 0:
        y = X * (1.0 / X.coord_norm())
        power = y
        for _ in range(algebra.dim - 1):
            power = power * y
        if power.coord_norm() > 1e-10:
            raise NotNilpotent("increment is not in the nilradical")

    px = s.phi(X)
    out = s.phi.target.zero()
    power = s.phi.target.unit()
    fact_k = 1.0
    series = s.derive()
    for k in range(s.phi.target.dim + 1):
        fact_k *= (k + 1) if k else 1
        out = out + (1.0 / fact_k) * (series.evaluate_strict(Z) * power)
        power = power * px
        if power.coord_norm() == 0.0:
            break
        series = series.derive()
    return out


def extend_to_cylinder(f, Z: Element) -> Element:
    """Value of the unique holomorphic extension on the spectral cylinder.

    ``f`` may be a :class:`CanonicalForm` (direct evaluation) or a
    :class:`PowerSeries`, whose scalar restriction per matched component is
    re-expanded and summed at the spectral part of Z with the nilpotent part
    entering polynomially.  :class:`OutsideScalarDomain` when the spectral
    part leaves the stored scalar disc.
    """
    if isinstance(f, CanonicalForm):
        return f.evaluate(Z)
    if not isinstance(f, PowerSeries):
        raise TypeError("expected a PowerSeries or CanonicalForm")

    dec_a, dec_b, fact = f.context()
    radii = f.component_radii()
    out = f.phi.target.zero()
    for ell in range(dec_b.count):
        k = fact.tau[ell]
        unit_ell = dec_b.idempotents[ell]
        zeta = dec_a.sigma(Z - f.center, k)
        if abs(zeta) >= radii[ell]:
            raise OutsideScalarDomain(
                f"spectral offset {zeta} outside component radius {radii[ell]}")
        nil = f.phi(dec_a.nilpotent_part(Z - f.center, k)) * unit_ell
        scalar = ScalarSeries(
            f.phi.target, 0.0,
            coeffs=[c * unit_ell for c in f.coeffs] if f.is_polynomial else None,
            rule=(lambda j, _u=unit_ell: f.coefficient(j) * _u)
            if not f.is_polynomial else None,
            rule_bound=f.rule_bound)
        power = unit_ell
        fact_m = 1.0
        for m in range(f.phi.target.dim + 1):
            if m:
                fact_m *= m
                power = power * nil
                if power.coord_norm() == 0.0:
                    break
            out = out + (1.0 / fact_m) * (scalar.derivative(zeta, m) * power)
    return out


def geometric_series(phi: Morphism, bound: int = DEFAULT_RULE_BOUND) -> PowerSeries:
    """sum_k phi(Z)^k, the canonical radius-1 example."""
    one = phi.target.unit()
    return PowerSeries.from_rule(phi, phi.source.zero(), lambda k: one, bound=bound)
