"""Analytic power series along a morphism: radii, evaluation, canonical forms.

A :class:`PowerSeries` is a center Z0 in the source algebra together with
target-algebra coefficients B_k, read as  sum_k B_k phi(Z - Z0)^k.
Convergence is governed per local component by the spectral part alone: the
series converges whenever |sigma_k(Z - Z0)| stays below the component radius,
no matter how large the nilpotent part, and is guaranteed divergent outside
the closed spectral polycylinder.  On the (estimated) boundary no verdict is
attempted.

The coefficients are one (m, K) stack: a rule is read once per index into the
window 0..rule_bound (past it only when a term budget asks), radii apply the
stacked norms to the window, and ``derive()`` scales the parent's stack.  Sums
go through the local structure: with phi(Z - Z0) e_l = s_l e_l + n_l on target
component l (n_l nilpotent),

    sum_k B_k phi(Z - Z0)^k = sum_l sum_{j < nu_l} T_j(s_l) e_l n_l^j,
    T_j(s) = sum_k C(k, j) s^(k-j) B_k = g^(j)(s) / j!,

one stack contraction per order j.  The stack of factors e_l n_l^j is the
local expansion that :mod:`holoalg.decomposition` owns (``_local_parts``).
The same Taylor data serve canonical forms, the cylinder extension and the
nilpotent derivative.  The term count
comes from the verdict's ratio |s_l| / r_l before summing; the last terms are
checked against the tail bound, so a rule that breaks its radius estimate
raises NoConvergence.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .algebra import Algebra, Element, _batch_mul, _batch_norm, _batch_regular
from .crsystem import FunctionSampler
from .decomposition import (Decomposition, _local_parts, _nilpotent_columns, artin_decompose,
                            profile)
from .errors import EstimateViolated, NoConvergence, NotNilpotent, OutsideScalarDomain
from .morphism import Morphism, factor

DEFAULT_RULE_BOUND = 200
TRUNCATION_TOL = 1e-12
BOUNDARY_BAND = 0.01   # relative width of the no-verdict band around the radius
RADIUS_SHRINK = 0.9    # tail bounds use the estimated radius shrunk by 10%


class _Verdict:
    """Singleton non-values returned by evaluate()."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


Divergent = _Verdict("Divergent")
BoundaryIndeterminate = _Verdict("BoundaryIndeterminate")


def _tail_radius(norms: np.ndarray, bound: int):
    """1 / max ||B_n||^(1/n) over the tail window n in [bound/2, bound], per row
    of ``norms``, whose last axis holds the window's norms (of
    :meth:`_Coefficients._tail_window`); infinite when the window vanishes."""
    lo = max(1, bound // 2)
    sup = (norms ** (1.0 / np.arange(lo, bound + 1))).max(axis=-1)
    with np.errstate(divide="ignore"):
        return 1.0 / sup


def _binomials(K: int, nu: int) -> np.ndarray:
    """(K, nu) table of C(k, j)."""
    steps = (np.arange(K)[:, None] + 1.0 - np.arange(nu)) / np.maximum(np.arange(nu), 1)
    steps[:, 0] = 1.0
    return np.cumprod(steps, axis=1)


def _weights(z: np.ndarray, K: int, nu: int) -> np.ndarray:
    """(K, L * nu) weights C(k, j) z_l^(k-j) of B_k in T_j(z_l), columns ordered (l, j)."""
    powers = np.empty((K, len(z)), dtype=complex)
    powers[0], powers[1:] = 1.0, z
    powers = np.cumprod(powers, axis=0)[np.maximum(np.arange(K)[:, None] - np.arange(nu), 0)]
    return (_binomials(K, nu)[:, :, None] * powers).transpose(0, 2, 1).reshape(K, -1)


def _tail_count(q: np.ndarray, r: np.ndarray, pi: np.ndarray, thr: float, known: int) -> int:
    """Terms needed past a window of ``known``: 0, or K such that the tail majorant
    sum_{l,j} C(k, j) q_l^(k-j) r_l^-j pi_lj of the k-th term is below thr from
    K - 4 on.  Past the window the coefficients are bounded by r_l^-k, as the
    radius estimate has them on its tail window; pi_lj bounds the nilpotent
    factors.  As inside the verdict, each ratio q_l = |z_l| / r_l must stay
    below 1 - BOUNDARY_BAND.
    """
    if not np.all(q < 1 - BOUNDARY_BAND):
        raise NoConvergence("a spectral part lies in the boundary band of the radius")
    nu = pi.shape[1]
    scale = (r[:, None] ** -np.arange(nu) * pi)[:, None, :]
    K = known + 1
    while True:
        exps = np.maximum(np.arange(known, K)[:, None] - np.arange(nu), 0)
        bound = (_binomials(K, nu)[known:] * q[:, None, None] ** exps * scale).sum(axis=(0, 2))
        if not np.isfinite(bound).all():
            raise NoConvergence("the series terms overflow")
        if bound[-1] < thr and K - 1 >= nu / (1 - q.max()):
            big = np.flatnonzero(bound >= thr)
            return known + int(big[-1]) + 5 if big.size else 0
        K *= 2


class _Coefficients:
    """Target coefficients B_0, B_1, ... of a series, as columns of one stack."""

    def __init__(self, target: Algebra, coeffs: Sequence[Element] | None,
                 rule: Callable[[int], Element] | None, rule_bound: int):
        self.coeffs = tuple(coeffs) if coeffs is not None else None
        if (coeffs is None) == (rule is None) or self.coeffs == ():
            raise ValueError("provide exactly one of coeffs (at least one) or rule")
        self.target = target
        self.rule = rule
        self.rule_bound = rule_bound
        cols = [c.coords for c in self.coeffs] if self.coeffs is not None else []
        self._stack = np.array(cols, dtype=complex).reshape(len(cols), target.dim).T

    @property
    def is_polynomial(self) -> bool:
        return self.coeffs is not None

    def coefficient(self, k: int) -> Element:
        if self.coeffs is not None:
            return self.coeffs[k] if k < len(self.coeffs) else self.target.zero()
        return self.target.element(self._window(k + 1)[:, k])

    def _read(self, lo: int, hi: int) -> np.ndarray:
        """Columns lo..hi-1 of the coefficient stack, one rule call per index."""
        cols = [self.rule(k).coords for k in range(lo, hi)]
        return np.array(cols, dtype=complex).reshape(hi - lo, self.target.dim).T

    def _window(self, K: int) -> np.ndarray:
        """B_0..B_{K-1} as an (m, K) stack; the stack grows, never rereads."""
        have = self._stack.shape[1]
        if K > have and not self.is_polynomial:
            self._stack = np.hstack([self._stack, self._read(have, K)])
        return self._stack[:, :K]

    def _tail_window(self) -> np.ndarray:
        """B_n for n in [bound/2, bound], the only coefficients the radii read."""
        return self._window(self.rule_bound + 1)[:, max(1, self.rule_bound // 2):]

    def _expand(self, z: np.ndarray, P: np.ndarray, thr: float) -> np.ndarray:
        """sum_{l,j} T_j(z_l) P[:, l, j]: the Taylor data T_j(s) = sum_k C(k, j)
        s^(k-j) B_k against the nilpotent factors P, as coordinates.

        A rule series sums its terms sum_{l,j} C(k, j) z_l^(k-j) B_k P[:, l, j]
        up to the last one of the window whose Frobenius norm is not below
        ``thr``, plus four, or further as far as the tail majorant asks; past
        the window, NoConvergence unless the last four are below ``thr``.
        """
        m, L, nu = P.shape
        flat, tgt = P.reshape(m, L * nu), self.target
        K = len(self.coeffs) if self.is_polynomial else self.rule_bound + 1
        B, W = self._window(K), _weights(z, K, nu)
        if not self.is_polynomial:
            if not thr > 0:
                raise ValueError("the truncation tolerance must be positive")
            sizes = _batch_norm(tgt, _batch_mul(tgt, B, flat @ W.T))   # the window's terms
            big = np.flatnonzero(~(sizes < thr))
            kappa, radii = self._tail()
            radii = np.broadcast_to(radii, (L,))
            K = max(int(big[-1]) + 5 if big.size else 0, 9,
                    _tail_count(np.abs(z) / radii, radii,
                                kappa * _batch_norm(tgt, flat).reshape(L, nu), thr, K))
            if K > B.shape[1]:
                B, W = self._window(K), _weights(z, K, nu)
                last = _batch_norm(tgt, _batch_mul(tgt, B[:, K - 4:], flat @ W[K - 4:].T))
                if not (last < thr).all():
                    raise NoConvergence(f"series terms {K - 4}..{K - 1} miss the tail bound "
                                        f"{thr:.1e}: the coefficients outgrow the radius estimate")
        value = _batch_mul(tgt, B[:, :K] @ W[:K], flat).sum(axis=1)
        if not np.isfinite(value).all():
            raise NoConvergence("the series sum overflows")
        return value


class PowerSeries(_Coefficients):
    """sum_k B_k phi(Z - Z0)^k with finite or rule-generated coefficients."""

    def __init__(self, phi: Morphism, center: Element,
                 coeffs: Sequence[Element] | None = None,
                 rule: Callable[[int], Element] | None = None,
                 rule_bound: int = DEFAULT_RULE_BOUND):
        super().__init__(phi.target, coeffs, rule, rule_bound)
        if not phi.source.compatible(center.algebra):
            raise ValueError("center must live in the source algebra")
        self.phi = phi
        self.center = center
        self._component_radii: np.ndarray | None = None
        self._radius: float | None = None

    @classmethod
    def polynomial(cls, phi: Morphism, center: Element,
                   coeffs: Sequence[Element]) -> "PowerSeries":
        return cls(phi, center, coeffs=coeffs)

    @classmethod
    def from_rule(cls, phi: Morphism, center: Element, rule: Callable[[int], Element],
                  bound: int = DEFAULT_RULE_BOUND) -> "PowerSeries":
        return cls(phi, center, rule=rule, rule_bound=bound)

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs is not None else None

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
            lo, hi = sorted((est_f, est_o))
            if not (math.isfinite(hi) and (hi - lo) <= 0.05 * hi):
                raise EstimateViolated(
                    f"radius estimates disagree beyond 5%: {est_f} (frobenius) "
                    f"vs {est_o} (operator)")
        self._radius = est_f
        return est_f

    def _radius_estimate(self, kind: str) -> float:
        norms = _batch_norm(self.target, self._tail_window(), kind)
        return float(_tail_radius(norms, self.rule_bound))

    def spectral_divergence_radius(self) -> float:
        """Diagnostic 1 / limsup rho(B_n)^(1/n); always >= the radius."""
        if self.is_polynomial:
            return math.inf
        lam = _batch_regular(self.target, self._tail_window())
        return float(_tail_radius(np.abs(np.linalg.eigvals(lam)).max(axis=1), self.rule_bound))

    def component_radii(self) -> np.ndarray:
        """Per-target-component radius estimates (coordinate norms)."""
        if self._component_radii is None:
            dec = artin_decompose(self.target)
            if self.is_polynomial:
                self._component_radii = np.full(dec.count, math.inf)
            else:
                stack = self._tail_window()
                norms = np.array([
                    np.linalg.norm(basis.conj().T @ self.target.regular_matrix(e.coords) @ stack,
                                   axis=0)
                    for basis, e in zip(dec.component_bases, dec.idempotents)])
                self._component_radii = _tail_radius(norms, self.rule_bound)
        return self._component_radii

    def _tail(self):
        """||alpha||_F, which turns coordinate norms into Frobenius bounds, and the
        component radii: the coefficients' tail bound for the term budget."""
        return np.linalg.norm(self.target.alpha), self.component_radii()

    def evaluate(self, Z: Element):
        """Sum the series at Z, or report Divergent / BoundaryIndeterminate.

        The verdict per matched component depends only on the spectral part
        |sigma_k(Z - Z0)| against the component radius; the nilpotent part is
        irrelevant.  BOUNDARY_BAND is the relative width of the indeterminate
        band around the estimated radius, and TRUNCATION_TOL scales the bound
        on the last terms summed.
        """
        if not self.phi.source.compatible(Z.algebra):
            raise ValueError("point must live in the source algebra")
        if self.is_polynomial:
            return Element(self.target, self._horner(Z.coords))
        Z._point("PowerSeries.evaluate of a rule series")
        s, P = self._local(Z)
        thr = self._threshold(s)
        if isinstance(thr, _Verdict):
            return thr
        return self.target.element(self._expand(s, P, thr))

    def _local(self, Z: Element, X: Element | None = None):
        """_local_parts of phi(Z - Z0), to the component dimensions (which bound
        the heights), one order more with an increment X."""
        dec = artin_decompose(self.target)
        x = None if X is None else self.target.regular_matrix(self.phi.matrix @ X.coords)
        return _local_parts(dec, self.phi.matrix @ (Z.coords - self.center.coords),
                            [d + (x is not None) for d in dec.component_dims], x)

    def _threshold(self, s: np.ndarray):
        """Verdict on the spectral parts s_l, or the bound on the last terms' norms:
        TRUNCATION_TOL over the geometric tail factor in
        q = max_l |s_l| / (RADIUS_SHRINK r_l), with the worst admissible ratio
        when q >= 1 inside the verdict band."""
        radii = self.component_radii()
        finite = np.isfinite(radii)
        rho, r = np.abs(s)[finite], radii[finite]
        if np.any(rho > r * (1 + BOUNDARY_BAND)):
            return Divergent
        if np.any(rho >= r * (1 - BOUNDARY_BAND)):
            return BoundaryIndeterminate
        q = float((rho / (RADIUS_SHRINK * r)).max(initial=0.0))
        tail_factor = q / (1 - q) if 0 < q < 1 else (99.0 if q >= 1 else 1.0)
        return TRUNCATION_TOL / max(tail_factor, 1.0)

    def evaluate_strict(self, Z: Element) -> Element:
        out = self.evaluate(Z)
        if not isinstance(out, Element):
            raise OutsideScalarDomain(f"series verdict at the point: {out!r}")
        return out

    def __call__(self, Z: Element):
        return self.evaluate_strict(Z) if self.is_polynomial else self.evaluate(Z)

    def sampler(self) -> FunctionSampler:
        """The series as a sampler, unchecked: a polynomial evaluates stacks in
        one call, a rule series refuses them.  The series keeps no reference
        to it, so no cycle waits for the collector."""
        return FunctionSampler(self.evaluate_strict, self.phi.source, self.phi.target,
                               _stacked=self.is_polynomial)

    def _horner(self, X: np.ndarray) -> np.ndarray:
        """Horner's rule at a point or at the columns of an (n, T) stack of source
        points, with the multiplication by each w_t = phi(X_t - Z0) formed once."""
        X2 = X.reshape(len(X), -1)
        lam = _batch_regular(self.target, self.phi.matrix @ (X2 - self.center.coords[:, None]))
        acc = np.repeat(self.coeffs[-1].coords[None, :], X2.shape[1], axis=0)
        for c in reversed(self.coeffs[:-1]):
            acc = (lam @ acc[:, :, None])[:, :, 0] + c.coords
        return acc.T.reshape((-1,) + X.shape[1:])

    def derive(self) -> "PowerSeries":
        """Term-wise derivative: coefficients (k+1) B_{k+1}; radius preserved."""
        if self.is_polynomial:
            new = [k * c for k, c in enumerate(self.coeffs[1:], 1)] or [self.phi.target.zero()]
            return PowerSeries(self.phi, self.center, coeffs=new)
        d = PowerSeries(self.phi, self.center, rule=lambda k: (k + 1) * self.coefficient(k + 1),
                        rule_bound=max(self.rule_bound - 1, 1))
        d._read = lambda lo, hi: np.arange(lo + 1, hi + 1) * self._window(hi + 1)[:, lo + 1:]
        return d


# ---------------------------------------------------------------------------
# scalar series and canonical forms
# ---------------------------------------------------------------------------

class ScalarSeries(_Coefficients):
    """A C-holomorphic map z |-> sum_j c_j (z - z0)^j with algebra coefficients."""

    def __init__(self, target: Algebra, center: complex,
                 coeffs: Sequence[Element] | None = None,
                 rule: Callable[[int], Element] | None = None,
                 rule_bound: int = DEFAULT_RULE_BOUND):
        super().__init__(target, coeffs, rule, rule_bound)
        self.center = complex(center)
        self._radius: float | None = None

    def radius(self) -> float:
        if self._radius is None:
            self._radius = math.inf if self.is_polynomial else float(_tail_radius(
                _batch_norm(self.target, self._tail_window()), self.rule_bound))
        return self._radius

    def _tail(self):
        return 1.0, np.array([self.radius()])

    def derivative(self, z: complex, order: int = 0) -> Element:
        """g^(order)(z) = sum_{j>=order} j!/(j-order)! c_j (z - z0)^(j-order),
        summed to TRUNCATION_TOL."""
        P = np.zeros((self.target.dim, 1, order + 1), dtype=complex)
        P[:, 0, order] = math.factorial(order) * self.target.unit_coords
        z = np.array([complex(z) - self.center])
        return self.target.element(self._expand(z, P, TRUNCATION_TOL))


class CanonicalForm:
    """Evaluator f(z (+) X) = sum_{k < nu} g^(k)(z)/k! phi(X)^k.

    Stores the scalar Taylor data g (a C-holomorphic map into the target)
    together with the height nu of the local morphism pair of each target
    component and the target's decomposition.
    """

    def __init__(self, phi: Morphism, scalar: ScalarSeries,
                 heights: tuple[int, ...], dec_target: Decomposition):
        self.phi = phi
        self.scalar = scalar
        self.heights = heights
        self.dec_target = dec_target

    def scalar_radius(self) -> float:
        return self.scalar.radius()

    def evaluate(self, Z: Element) -> Element:
        if not self.phi.source.compatible(Z.algebra):
            raise ValueError("point must live in the source algebra")
        Z._point("CanonicalForm.evaluate")
        radius = self.scalar.radius()
        z, P = _local_parts(self.dec_target, self.phi.matrix @ Z.coords, self.heights)
        far = np.abs(z - self.scalar.center) >= radius
        if far.any():
            raise OutsideScalarDomain(
                f"spectral part {z[far][0]} outside the scalar disc of radius {radius}")
        return self.phi.target.element(
            self.scalar._expand(z - self.scalar.center, P, TRUNCATION_TOL))

    def sampler(self) -> FunctionSampler:
        """The form as a sampler, which loops over the columns of a stack
        (see PowerSeries.sampler)."""
        return FunctionSampler(self.evaluate, self.phi.source, self.phi.target, _stacked=False)


def canonical_form(g: ScalarSeries, phi: Morphism) -> CanonicalForm:
    """Lift scalar Taylor data to the holomorphic map on the spectral cylinder.

    Any morphism is accepted: phi is factored through the algebras' cached
    decompositions, and the construction runs per target component ell
    with height nu = min of the local heights of tau(ell) and ell.
    """
    dec_source = artin_decompose(phi.source)
    dec_target = artin_decompose(phi.target)
    fact = factor(phi, dec_source, dec_target)
    heights_a = profile(phi.source, dec_source).heights
    heights_b = profile(phi.target, dec_target).heights
    heights = tuple(min(heights_a[fact.tau[ell]], heights_b[ell])
                    for ell in range(dec_target.count))
    return CanonicalForm(phi, g, heights, dec_target)


def nilpotent_derivative(s: PowerSeries, Z: Element, X: Element) -> Element:
    """Limit of difference quotients along units toward the nilpotent X.

    Equals sum_k f^(k+1)(Z)/(k+1)! phi(X)^k, a terminating sum.  X must lie
    in the nilradical (checked by scale-invariant nilpotency of X^n).  On
    target component l, with phi(Z - Z0) e_l = s_l e_l + n_l and x = phi(X),
    it is sum_p T_p(s_l) h_p, where x h_p = e_l ((n_l + x)^p - n_l^p).
    """
    if not _nilpotent_columns(X.algebra, X.coords[:, None])[0]:
        raise NotNilpotent("increment is not in the nilradical")
    sv, P = s._local(Z, X)
    thr = s._threshold(sv)
    if isinstance(thr, _Verdict):
        raise OutsideScalarDomain(f"series verdict at the point: {thr!r}")
    return s.target.element(s._expand(sv, P, thr))


def extend_to_cylinder(f, Z: Element) -> Element:
    """Value of the unique holomorphic extension on the spectral cylinder.

    ``f`` may be a :class:`CanonicalForm` (direct evaluation) or a
    :class:`PowerSeries`, whose Taylor data per target component are summed
    at the spectral part of Z with the nilpotent part entering polynomially.
    :class:`OutsideScalarDomain` when a spectral part leaves its component
    radius.
    """
    if isinstance(f, CanonicalForm):
        return f.evaluate(Z)
    if not isinstance(f, PowerSeries):
        raise TypeError("expected a PowerSeries or CanonicalForm")

    zeta, P = f._local(Z)
    radii = f.component_radii()
    far = np.abs(zeta) >= radii
    if far.any():
        raise OutsideScalarDomain(
            f"spectral offset {zeta[far][0]} outside component radius {radii[far][0]}")
    return f.target.element(f._expand(zeta, P, TRUNCATION_TOL))


def geometric_series(phi: Morphism, bound: int = DEFAULT_RULE_BOUND) -> PowerSeries:
    """sum_k phi(Z)^k, the canonical radius-1 example."""
    one = phi.target.unit()
    return PowerSeries.from_rule(phi, phi.source.zero(), lambda k: one, bound=bound)
