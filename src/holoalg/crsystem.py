"""Generalized Cauchy-Riemann systems and numerical holomorphy tests.

Every morphism phi : A -> B induces a first-order PDE system characterizing
the phi-differentiable maps.  With the source basis arranged so that the
first vector is the unit, the minimal form reads

    df^i/dz^j = sum_s gamma^i_{js} df^s/dz^1        (2 <= j <= n, 1 <= i <= m)

with (n-1)m equations; the redundant symmetric (Scheffers) form is emitted
on request.  The numerical residuals below evaluate these systems with
central differences.  Because the characterizations presuppose total complex
differentiability, each residual also contains the mismatch between real-step
and imaginary-step derivative estimates; for coordinatewise conjugation that
mismatch is ~2, which is what flags it as non-holomorphic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import Algebra, Element, StructureTensor, _batch_norm, rebase_matrix
from .decomposition import artin_decompose
from .errors import (
    HoloalgError,
    InvalidRecovered,
    NoConvergence,
    NonSquare,
    RankDeficient,
    SamplerFailure,
    SingularDerivative,
)
from .morphism import Morphism

# Residual-based holomorphy verdict thresholds.
VERDICT_HOLOMORPHIC = 100.0   # residual < VERDICT_HOLOMORPHIC * h^2
VERDICT_NONHOLOMORPHIC = 1e-2


def default_step(Z: Element) -> float:
    """Central-difference step balancing truncation against roundoff."""
    return 1e-5 * (1.0 + Z.coord_norm())


@dataclass(frozen=True)
class FunctionSampler:
    """Deterministic evaluation callback Z |-> f(Z) from source to target.

    Where f is holomorphic is the caller's claim; the holomorphy tests of this
    module and the Cauchy formulas' spot check probe it.

    :meth:`values` evaluates f at the columns of an (n, T) coordinate stack
    by one call of ``fn`` on the stacked :class:`Element`, whose coords are
    the whole array.  On the first call with T > 1 the result is checked: it
    must be an Element of the target with (m, T) coords whose first and last
    columns equal ``fn`` on those two points alone to 1e-12 relative.  If the
    check fails or the stacked call raises, ``fn`` is called once per column,
    on this and every later call; the verdict is kept on the sampler.  Ring
    arithmetic (``+``, ``-``, ``*``, scalars, positive powers) acts
    columnwise on stacks and the single-point Element methods refuse them,
    so callables built from those pass.  A callable that reduces over the
    coordinates (``Z.coords.sum()``) mixes the columns of a stack, and the
    check sees that only in the first or last column: such a callable
    should refuse stacks itself.
    """

    fn: Callable[[Element], Element]
    source: Algebra
    target: Algebra
    # whether fn acts columnwise on stacks: given by a series, else None until a stack comes
    _stacked: bool | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __call__(self, Z: Element) -> Element:
        try:
            out = self.fn(Z)
        except HoloalgError:
            raise
        except Exception as exc:  # propagate as a library error
            raise SamplerFailure(f"sampler raised {exc!r}") from exc
        if not isinstance(out, Element) or not self.target.compatible(out.algebra):
            raise SamplerFailure("sampler returned a value outside the target algebra")
        return out

    def values(self, coords: np.ndarray) -> np.ndarray:
        """Values at the columns of an (n, T) coordinate stack, as an (m, T) stack."""
        coords = np.asarray(coords, dtype=complex)
        shape = (self.target.dim, coords.shape[1])
        if shape[1] > 1 and self._stacked is not False:
            try:
                out = self.fn(Element(self.source, coords))
                ok = (isinstance(out, Element) and self.target.compatible(out.algebra)
                      and out.coords.shape == shape)
            except Exception:
                ok = False
            if self._stacked is None:
                object.__setattr__(self, "_stacked", ok and self._agrees(out.coords, coords))
            if ok and self._stacked:
                return out.coords.copy()   # writable, as the loop's result is
        out = np.empty(shape, dtype=complex)
        for t in range(shape[1]):
            out[:, t] = self(Element(self.source, coords[:, t])).coords
        return out

    def _agrees(self, out: np.ndarray, coords: np.ndarray) -> bool:
        """Whether the first and last stacked columns match fn on those points alone."""
        ref = np.column_stack([self(Element(self.source, coords[:, t])).coords for t in (0, -1)])
        with np.errstate(invalid="ignore"):   # inf - inf: NaN, which disagrees
            return bool(np.abs(out[:, [0, -1]] - ref).max() <= 1e-12 * np.abs(ref).max())


def conjugation_sampler(algebra: Algebra) -> FunctionSampler:
    """Coordinatewise complex conjugation; the canonical non-holomorphic map."""
    return FunctionSampler(lambda Z: Element(algebra, np.conj(Z.coords)), algebra, algebra)


@dataclass(frozen=True)
class PDESystem:
    """The minimal generalized Cauchy-Riemann system for a morphism.

    ``gammas[j]`` is the m x m coefficient matrix of the j-th source
    coordinate; equations exist for j >= 2 once the basis has the unit first.
    ``change_of_basis`` is the matrix U (old coords = U @ new coords) when an
    automatic re-basing was needed, else None.
    """

    source_labels: tuple[str, ...]
    target_labels: tuple[str, ...]
    gammas: np.ndarray = field(repr=False)  # (n, m, m)
    change_of_basis: np.ndarray | None = None

    @property
    def equation_count(self) -> int:
        n = self.gammas.shape[0]
        m = self.gammas.shape[1]
        return (n - 1) * m

    def coefficient_matrix(self, j: int) -> np.ndarray:
        """Gamma_j for the j-th (0-based) source coordinate."""
        return self.gammas[j]

    def equations(self) -> list[dict]:
        """Machine-readable equations: df^i/dz^j = sum_s coeffs[s] df^s/dz^1."""
        n, m, _ = self.gammas.shape
        eqs = []
        for j in range(1, n):
            for i in range(m):
                coeffs = self.gammas[j][i]
                eqs.append({
                    "i": i + 1,
                    "j": j + 1,
                    "coeffs": [[float(c.real), float(c.imag)] for c in coeffs],
                })
        return eqs

    def latex(self) -> str:
        n, m, _ = self.gammas.shape
        lines = []
        for j in range(1, n):
            for i in range(m):
                lhs = _d_latex(i + 1, j + 1)
                terms = []
                for s in range(m):
                    c = self.gammas[j][i, s]
                    if abs(c) < 1e-14:
                        continue
                    terms.append(_coeff_latex(c) + _d_latex(s + 1, 1))
                rhs = " + ".join(terms) if terms else "0"
                lines.append(f"{lhs} = {rhs}")
        return "\n".join(lines)


def _d_latex(i: int, j: int) -> str:
    return rf"\frac{{\partial f^{{{i}}}}}{{\partial z^{{{j}}}}}"


def _coeff_latex(c: complex) -> str:
    if abs(c - 1) < 1e-14:
        return ""
    if abs(c + 1) < 1e-14:
        return "-"
    if abs(c.imag) < 1e-14:
        return f"{c.real:.12g} \\, "
    return f"({c:.12g}) \\, ".replace("j", "i")


@dataclass(frozen=True)
class ScheffersSystem:
    """The redundant symmetric form, n^2 m equations.

    Equation (i, j, k):  sum_r alpha^r_{jk} df^i/dz^r = sum_s gamma^i_{js} df^s/dz^k.
    """

    alpha: np.ndarray = field(repr=False)   # (n, n, n) source tensor
    gammas: np.ndarray = field(repr=False)  # (n, m, m)

    def equations(self) -> list[dict]:
        n = self.alpha.shape[0]
        m = self.gammas.shape[1]
        eqs = []
        for i in range(m):
            for j in range(n):
                for k in range(n):
                    eqs.append({
                        "i": i + 1, "j": j + 1, "k": k + 1,
                        "lhs_coeffs": [[float(c.real), float(c.imag)]
                                       for c in self.alpha[j, k]],
                        "rhs_coeffs": [[float(c.real), float(c.imag)]
                                       for c in self.gammas[j][i]],
                    })
        return eqs


def gcru_system(phi: Morphism) -> PDESystem:
    """Minimal CR system; re-bases automatically to put the unit first.

    When the source basis does not start with the unit, the returned system
    is expressed in the basis of :func:`rebase_matrix` and carries that
    change-of-basis matrix, so emitted PDEs can be pulled back to user
    coordinates.
    """
    src = phi.source
    eps = src.unit_coords
    e1 = np.zeros(src.dim, dtype=complex)
    e1[0] = 1.0
    if np.abs(eps - e1).max() <= 1e-12:
        return PDESystem(src.basis_labels, phi.target.basis_labels, phi.gamma)
    U = rebase_matrix(src)
    new_gammas = np.einsum("rj,rik->jik", U, phi.gamma)
    labels = ("1",) + tuple(f"b{i + 1}" for i in range(1, src.dim))
    return PDESystem(labels, phi.target.basis_labels, new_gammas, change_of_basis=U)


def scheffers_system(phi: Morphism) -> ScheffersSystem:
    return ScheffersSystem(phi.source.alpha, phi.gamma)


# ---------------------------------------------------------------------------
# finite-difference engine
# ---------------------------------------------------------------------------

def _stencil_points(Z: np.ndarray, h) -> np.ndarray:
    """The 4n-point stencils of real and imaginary steps h (or h[p] at point p)
    along every source coordinate about the P columns of Z, as one (n, 4nP) stack."""
    n = len(Z)
    steps = np.concatenate([np.eye(n), 1j * np.eye(n)], axis=1)
    return (Z[:, None, :] + np.concatenate([steps, -steps], axis=1)[:, :, None] * h).reshape(n, -1)


def _stencil_derivatives(vals: np.ndarray, h, n: int):
    """Real-step and imaginary-step central differences from the (m, 4nP)
    values of f on :func:`_stencil_points`: two (m, n, P) stacks."""
    half = vals.shape[1] // 2   # the + steps, then the - steps
    diff = (vals[:, :half] - vals[:, half:]).reshape(len(vals), 2 * n, -1)
    return diff[:, :n] / (2 * h), diff[:, n:] / (2j * h)


def partial_derivatives(f: FunctionSampler, Z: Element, h: float):
    """Central-difference partials along every source coordinate.

    Returns (D, mismatch): D[i, j] is the averaged real-/imaginary-step
    estimate of df^i/dz^j and ``mismatch`` the largest absolute disagreement
    between the two estimates (zero to O(h^2) iff f is complex-differentiable
    in each coordinate).
    """
    vals = f.values(_stencil_points(Z.coords[:, None], h))
    d_re, d_im = (d[:, :, 0] for d in _stencil_derivatives(vals, h, len(Z.coords)))
    mismatch = float(np.abs(d_re - d_im).max())
    return (d_re + d_im) / 2, mismatch


def gcru_residual(f: FunctionSampler, phi: Morphism, Z: Element,
                  h: float | None = None) -> float:
    """max_(i,j) |df^i/dz^j - sum_s gamma^i_{js} f'^s| with central differences.

    O(h^2) for phi-holomorphic f (checked by halving h); the complex-step
    mismatch is folded in, so conjugation-type maps score ~2.
    """
    h = default_step(Z) if h is None else h
    return float(_gcru_residuals(phi, f.values(_stencil_points(Z.coords[:, None], h)), h)[0])


def _gcru_residuals(phi: Morphism, vals: np.ndarray, h) -> np.ndarray:
    """gcru_residual at the P points whose stencils, with step h (or h[p] at
    point p), f took the (m, 4nP) values ``vals`` on (see :func:`_stencil_points`)."""
    d_re, d_im = _stencil_derivatives(vals, h, phi.source.dim)
    D = (d_re + d_im) / 2
    B = np.einsum("ijp,j->ip", D, phi.source.unit_coords)   # f'(Z_p) via the unit expansion
    residual = np.abs(D - np.einsum("jrs,sp->rjp", phi.gamma, B)).max(axis=(0, 1))
    return np.maximum(residual, np.abs(d_re - d_im).max(axis=(0, 1)))


def numeric_derivative(f: FunctionSampler, phi: Morphism, Z: Element,
                       h: float | None = None) -> Element:
    """Central difference along the unit direction, i.e. df/dz^1 after re-basing."""
    h = default_step(Z) if h is None else h
    step = h * phi.source.unit_coords
    vals = f.values(np.column_stack([Z.coords + step, Z.coords - step]))
    return phi.target.element((vals[:, 0] - vals[:, 1]) / (2 * h))


def jacobian_consistency(f: FunctionSampler, Z: Element,
                         h: float | None = None) -> float:
    """|| lambda(f'(Z)) - J(Z) ||_F for an endomorphism-valued sampler.

    O(h^2) for holomorphic f; the complex-linearity defect of the Jacobian
    (real-step vs imaginary-step) is included, so conjugation scores >= 1.
    """
    if f.source.dim != f.target.dim or not f.source.compatible(f.target):
        raise NonSquare("Jacobian comparison needs an endomorphism sampler")
    h = default_step(Z) if h is None else h
    src = f.source
    vals = f.values(_stencil_points(Z.coords[:, None], h))
    d_re, d_im = (d[:, :, 0] for d in _stencil_derivatives(vals, h, src.dim))
    jac = (d_re + d_im) / 2
    defect = float(np.linalg.norm(d_re - d_im, "fro")) / 2
    b = src.element(jac @ src.unit_coords)  # f'(Z)
    return max(float(np.linalg.norm(b.regular_matrix() - jac, "fro")), defect)


def dij_residual(f: FunctionSampler, phi: Morphism, Z: Element,
                 h: float | None = None) -> float:
    """max over i<j of || phi(a_i) df/dz^j - phi(a_j) df/dz^i ||_F.

    Vanishes to O(h^2) iff f is phi-holomorphic (unital case); these are the
    coordinates of the exterior derivative of f(Z) dZ.
    """
    h = default_step(Z) if h is None else h
    D, mismatch = partial_derivatives(f, Z, h)
    prods = np.einsum("irs,sj->rij", phi.gamma, D)   # [:, i, j] = phi(a_i) df/dz^j
    dij = (prods - prods.transpose(0, 2, 1)).reshape(phi.target.dim, -1)
    return max(float(_batch_norm(phi.target, dij).max()), mismatch)


def holomorphy_verdict(residual: float, h: float) -> str:
    """'holomorphic' / 'non-holomorphic' / 'inconclusive' from a residual."""
    if residual < VERDICT_HOLOMORPHIC * h * h:
        return "holomorphic"
    if residual > VERDICT_NONHOLOMORPHIC:
        return "non-holomorphic"
    return "inconclusive"


# ---------------------------------------------------------------------------
# structure recovery and regular-map inversion
# ---------------------------------------------------------------------------

def recover_structure(f: FunctionSampler, points: Sequence[Element],
                      derivatives: Sequence[Element], h: float | None = None,
                      jacobians: Sequence[np.ndarray] | None = None,
                      basis_labels: Sequence[str] = ()) -> StructureTensor:
    """Recover the structure constants from derivative data of one map.

    ``derivatives[t]`` must be f'(Z_t); the n vectors have to be linearly
    independent (else :class:`RankDeficient`).  Jacobians are taken by
    central differences from ``f`` unless supplied, all stencils in one
    :meth:`FunctionSampler.values` call.  Each row of constants
    solves  df^i/dz^j(Z_t) = sum_s alpha^i_{js} f'^s(Z_t),  the ratio of
    determinants in closed form; the recovered tensor is revalidated and
    :class:`InvalidRecovered` is raised when the identities fail post-hoc.
    """
    n = f.source.dim
    if f.target.dim != n:
        raise NonSquare("structure recovery needs an endomorphism sampler")
    if len(points) != n or len(derivatives) != n:
        raise ValueError(f"need exactly {n} points and derivative values")

    G = np.column_stack([d.coords for d in derivatives])  # G[s, t] = f'^s(Z_t)
    svals = np.linalg.svd(G, compute_uv=False)
    if svals[0] == 0 or svals[-1] / svals[0] < 1e-10:
        raise RankDeficient("derivative samples do not span the coordinate space")

    if jacobians is None:
        steps = np.array([default_step(Z) if h is None else h for Z in points])
        vals = f.values(_stencil_points(np.column_stack([Z.coords for Z in points]), steps))
        d_re, d_im = _stencil_derivatives(vals, steps, n)
        jacobians = ((d_re + d_im) / 2).transpose(2, 0, 1)

    # row t of the right-hand sides: df^i/dz^j(Z_t) for every (i, j); solution [s, i, j]
    sol = np.linalg.solve(G.T, np.reshape(jacobians, (n, n * n)))
    alpha = sol.reshape(n, n, n).transpose(2, 0, 1)

    tensor = StructureTensor(n, alpha, tuple(basis_labels))
    try:
        # Tolerance at the finite-difference noise scale, not the exact-input one.
        tensor.check_commutative(1e-8)
        tensor.check_associative(1e-8)
    except HoloalgError as exc:
        raise InvalidRecovered(f"recovered constants fail validation: {exc}") from exc
    return tensor


def newton_invert_map(P, W: Element, guess: Element, max_steps: int = 100,
                      tol: float = 1e-10) -> Element:
    """Pointwise inverse of a regular polynomial map by Newton iteration.

    ``P`` must evaluate elements and expose ``derive()`` (a polynomial power
    series over the identity morphism).  The iteration is
    Z <- Z - P'(Z)^{-1} (P(Z) - W).  By the Jacobian lemma,
    det lambda(P'(Z)) = prod_l sigma_l(P'(Z))^(d_l), so the complex Jacobian
    determinant is constant exactly when sigma_l(B_k) = 0 for every component
    l and every k >= 2.  When some |sigma_l(B_k)| exceeds 1e-8 ||B|| the call
    only warns: regularity is the caller's claim.
    """
    Pprime = P.derive()
    B = P._window(P.degree + 1 if P.is_polynomial else P.rule_bound + 1)
    spectral = artin_decompose(P.target).spectral_rows @ B[:, 2:]
    if not np.abs(spectral).max(initial=0.0) <= 1e-8 * np.linalg.norm(B):
        warnings.warn("Jacobian determinant of the map is not constant; "
                      "the map may not be globally invertible", stacklevel=2)

    Z = guess
    for _ in range(max_steps):
        residual = P(Z) - W
        if residual.norm("frobenius") < tol:
            return Z
        try:
            step = Pprime(Z).invert() * residual
        except HoloalgError as exc:
            raise SingularDerivative(f"derivative not invertible on the trajectory: {exc}") from exc
        Z = Z - step
    if (P(Z) - W).norm("frobenius") < tol:
        return Z
    raise NoConvergence(f"Newton iteration did not reach {tol} in {max_steps} steps")
