"""Nilradical, orthogonal idempotents, local factors, spectra, and profiles.

The decomposition pipeline:

1. nilradical = kernel of the trace Gram form G_{jk} = tr(lambda(a_j a_k));
2. in the semisimple quotient, diagonalize a generic element to obtain the
   complete system of orthogonal idempotents;
3. lift each idempotent along the nilradical with the refinement
   e <- 3e^2 - 2e^3 (quadratic convergence, pure algebra operations);
4. read the local structure off the regular trace tau_k = tr lambda(b_k): a
   nilpotent element has trace 0, so tr lambda(e_l x) = d_l sigma_l(x).  This
   gives each component's dimension d_l = tr lambda(e_l) as an integer, its
   spectral functional sigma_l = tau lambda(e_l) / d_l, and the ranks d_l and
   d_l - 1 of the component A_l and of its maximal ideal m_l.

The module also owns the local expansion.  Each element splits over the
local factors as z = sum_l (s_l e_l + n_l) with s_l = sigma_l(z) and n_l
nilpotent, so a holomorphic g acts as

    g(z) = sum_l sum_{j < nu_l} g^(j)(s_l) / j! e_l n_l^j.

``_local_parts`` builds the stack of factors e_l n_l^j once; its users weight
it with their Taylor data T_j(s) = g^(j)(s) / j!: the series sums of
:mod:`holoalg.series` and the unit-group logarithm and exponential
(:func:`unit_group_coords`, :func:`unit_group_exp`).  For g = 1/s,
``_local_inverse`` sums the expansion in stacked form on a whole (n, T)
stack of units, with no linear solve: it serves :func:`invert_via_series`
and the Cauchy kernel of :mod:`holoalg.contour` at every quadrature node.

All randomness is behind an explicit seed so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Element, _batch_apply, _batch_mul, _batch_regular
from .errors import AlgebraMismatch, ClusteringAmbiguous, NotAUnit, NotNilpotent

NIL_RANK_TOL = 1e-10
CLUSTER_TOL = 1e-8
IDEMPOTENT_TOL = 1e-12
MAX_RETRIES = 3


def _null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of ``mat``."""
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > NIL_RANK_TOL * s[0]))
    return vh[rank:].conj().T


def _column_space(mat: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical column space of ``mat``;
    singular values up to NIL_RANK_TOL times ``scale`` count as zero."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :int(np.sum(s > NIL_RANK_TOL * scale))]


def nilradical(algebra: Algebra) -> np.ndarray:
    """Coordinate basis (columns) of the ideal of nilpotent elements.

    Kernel of the trace Gram form of the regular representation; every
    returned vector is verified nilpotent (x^n ~ 0).
    """
    lams = algebra.tensor.basis_matrices()
    gram = np.einsum("jab,kba->jk", lams, lams)
    basis = _null_space(gram)
    if not _nilpotent_columns(algebra, basis).all():
        raise NotNilpotent("trace-form kernel vector failed the nilpotency check")
    return basis


def _nilpotent_columns(algebra: Algebra, x: np.ndarray) -> np.ndarray:
    """Which columns of an (n, T) stack are nilpotent, by the scale-invariant
    rule ||(x / ||x||)^n|| <= 1e-10; zero columns pass."""
    size = np.linalg.norm(x, axis=0)
    y = x / np.where(size > 0, size, 1.0)
    power = np.linalg.matrix_power(_batch_regular(algebra, y), algebra.dim - 1)
    return np.linalg.norm(power @ y.T[:, :, None], axis=(1, 2)) <= 1e-10


@dataclass(frozen=True)
class Decomposition:
    """Complete system of orthogonal idempotents and its derived data.

    ``spectral_rows[k]`` is the row of the algebra map sigma_k : C^n -> C,
    so ``sigma_k(z) = spectral_rows[k] @ z.coords``.
    """

    algebra: Algebra
    idempotents: tuple[Element, ...]
    component_bases: tuple[np.ndarray, ...]
    maximal_ideal_bases: tuple[np.ndarray, ...]
    spectral_rows: np.ndarray
    nilradical_basis: np.ndarray
    # the profile of these components, computed by the first profile() call
    _profile: Profile | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a decomposition is cached on its algebra and shared: freeze its arrays
        for name in ("component_bases", "maximal_ideal_bases"):
            object.__setattr__(self, name, tuple(map(_frozen, getattr(self, name))))
        for name in ("spectral_rows", "nilradical_basis"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def count(self) -> int:
        return len(self.idempotents)

    @property
    def component_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[1] for b in self.component_bases)

    def sigma(self, z: Element, k: int) -> complex:
        return complex(self.spectral_rows[k] @ z.coords)

    def spectrum(self, z: Element) -> np.ndarray:
        """(sigma_1(z), ..., sigma_M(z)); as a multiset these are the eigenvalues
        of lambda(z) with the component dimensions as multiplicities."""
        return self.spectral_rows @ z.coords

    def project(self, z: Element, k: int) -> Element:
        """pr_k(z) = z * I_k, kept inside the ambient coordinates."""
        return z * self.idempotents[k]

    def nilpotent_part(self, z: Element, k: int) -> Element:
        """pr_k(z) minus its scalar part; lives in the k-th maximal ideal."""
        return self.project(z, k) - self.sigma(z, k) * self.idempotents[k]

    def component_coords(self, z: Element, k: int) -> np.ndarray:
        """Coordinates of pr_k(z) in the k-th component basis."""
        basis = self.component_bases[k]
        return basis.conj().T @ self.project(z, k).coords

    def direct_sum_norm(self, z: Element) -> float:
        """max_k of the operator norm of the multiplication action on A_k."""
        lam = z.regular_matrix()
        best = 0.0
        for basis in self.component_bases:
            action = basis.conj().T @ lam @ basis
            best = max(best, float(np.linalg.norm(action, 2)))
        return best


def _frozen(arr) -> np.ndarray:
    arr = np.array(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


def artin_decompose(algebra: Algebra, seed: int = 0) -> Decomposition:
    """Split the algebra into its local factors.

    The component count M is the number of distinct eigenvalues of the
    generic element's multiplication matrix on the semisimple quotient;
    a clustering closer than 1e-8 triggers up to three seeded retries
    before :class:`ClusteringAmbiguous` is raised.  It is raised too when
    the idempotents' traces tr lambda(e_l), the component dimensions, are
    not within 1e-8 of positive integers summing to the algebra's dimension.
    Results are cached on the algebra per (algebra, seed), so repeated calls
    return the same read-only object, its :func:`profile` computed with it; a
    call that raises caches nothing.
    """
    cache = algebra._decompositions
    if seed not in cache:
        dec = _decompose(algebra, seed)
        profile(algebra, dec)
        cache[seed] = dec
    return cache[seed]


def _decompose(algebra: Algebra, seed: int) -> Decomposition:
    nil_basis = nilradical(algebra)
    # orthonormal to the nilradical, so its adjoint projects along it onto the quotient
    complement = _null_space(nil_basis.conj().T)
    m = complement.shape[1]

    if m == 1:
        # Local algebra: the only idempotent is 1.
        return _finish(algebra, nil_basis, (algebra.unit(),))

    rng = np.random.default_rng(seed)
    last_gap = math.inf
    for _ in range(MAX_RETRIES):
        g = algebra.random_element(rng)
        # Multiplication by g on the quotient.
        action = complement.conj().T @ algebra.regular_matrix(g.coords) @ complement
        evals, evecs = np.linalg.eig(action)
        gaps = np.abs(evals[:, None] - evals[None, :])
        gap = gaps[~np.eye(m, dtype=bool)].min() if m > 1 else math.inf
        last_gap = min(last_gap, gap)
        if gap <= CLUSTER_TOL:
            continue
        # Each eigenspace is a line through a quotient idempotent: v^2 = c v.
        lifted = complement @ evecs
        squares = complement.conj().T @ _batch_mul(algebra, lifted, lifted)
        c = (evecs.conj() * squares).sum(axis=0) / (evecs.conj() * evecs).sum(axis=0)
        idempotents = _lift_idempotent(algebra, lifted / c)
        return _finish(algebra, nil_basis, tuple(map(algebra.element, idempotents.T)))
    raise ClusteringAmbiguous(
        f"generic-element eigenvalues stayed within {last_gap:.3e} after {MAX_RETRIES} retries")


def _lift_idempotent(algebra: Algebra, e: np.ndarray, max_iters: int = 80) -> np.ndarray:
    """Refine each column of an (n, M) stack by e <- 3e^2 - 2e^3 until
    ||e^2 - e|| < 1e-12; a column that has converged is left as it is.

    Terminates because the defect e^2 - e lies in the nilpotent ideal.
    """
    for _ in range(max_iters):
        e2 = _batch_mul(algebra, e, e)
        live = np.linalg.norm(e2 - e, axis=0) >= IDEMPOTENT_TOL
        if not live.any():
            return e
        e = np.where(live, 3 * e2 - 2 * _batch_mul(algebra, e2, e), e)
    raise ClusteringAmbiguous("idempotent refinement failed to converge")


def _finish(algebra: Algebra, nil_basis: np.ndarray,
            idempotents: tuple[Element, ...]) -> Decomposition:
    """The components of a complete system of orthogonal idempotents.

    With E the (n, M) stack of the e_l: d_l = tr lambda(e_l), rounded, and
    sigma_l = tau lambda(e_l) / d_l.  A_l and m_l are spanned by the leading
    d_l and d_l - 1 left singular vectors of lambda(e_l) and of the map
    x -> e_l x - sigma_l(x) e_l, whose range is m_l: one batched SVD, with
    the ranks from the trace, not from a cutoff.
    """
    E = np.column_stack([e.coords for e in idempotents])
    lam_e = _batch_regular(algebra, E)
    traces = np.trace(lam_e, axis1=1, axis2=2)
    dims = np.rint(traces.real).astype(int)
    if np.abs(traces - dims).max() > CLUSTER_TOL or dims.min() < 1 or dims.sum() != algebra.dim:
        raise ClusteringAmbiguous(
            f"idempotent traces {', '.join(f'{t:.6g}' for t in traces.real)} are not positive "
            f"integers summing to the dimension {algebra.dim}")
    tau = np.einsum("kii->k", algebra.alpha)   # tau_k = tr lambda(b_k)
    rows = tau @ lam_e / dims[:, None]
    ideal_maps = lam_e - E.T[:, :, None] * rows[:, None, :]
    u = np.linalg.svd(np.concatenate([lam_e, ideal_maps]))[0]
    order, count = _component_order(rows, dims), len(idempotents)
    return Decomposition(algebra, tuple(idempotents[k] for k in order),
                         tuple(u[k, :, :dims[k]] for k in order),
                         tuple(u[count + k, :, :dims[k] - 1] for k in order),
                         rows[order], nil_basis)


def _component_order(rows, dims) -> list[int]:
    """Deterministic, seed-independent component ordering."""
    def key(k):
        row = np.round(rows[k], 8)
        return (-dims[k], tuple(zip(row.real.tolist(), row.imag.tolist())))
    return sorted(range(len(rows)), key=key)


@dataclass(frozen=True)
class ComponentProfile:
    height: int
    widths: tuple[int, ...]
    filtering_basis: np.ndarray  # columns, deepest ideal power first, unit last


@dataclass(frozen=True)
class Profile:
    components: tuple[ComponentProfile, ...]

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(c.height for c in self.components)


def profile(algebra: Algebra, dec: Decomposition) -> Profile:
    """Heights, widths, and a filtering basis for every local factor.

    The height nu is the smallest power annihilating the maximal ideal;
    widths are d_i = dim m^i - dim m^(i+1).  The filtering basis columns are
    ordered by decreasing ideal power (vectors of m^(nu-1) first, the
    component unit last).  Ranks are cut off against the size of the structure
    constants, which bounds every product of unit vectors, so a power of the
    ideal made only of rounding error has rank 0.  The profile is computed once
    per decomposition and kept on it, like the decomposition on its algebra.
    """
    if algebra is not dec.algebra and not algebra.compatible(dec.algebra):
        raise AlgebraMismatch("the decomposition belongs to another algebra")
    if dec._profile is None:
        object.__setattr__(dec, "_profile", _profile(algebra, dec))
    return dec._profile


def _profile(algebra: Algebra, dec: Decomposition) -> Profile:
    scale = float(np.linalg.norm(algebra.alpha))
    comps = []
    for k in range(dec.count):
        ideal = dec.maximal_ideal_bases[k]
        layers = [ideal]
        while layers[-1].shape[1]:
            if len(layers) > algebra.dim:
                raise NotNilpotent(f"maximal ideal {k} has no vanishing power "
                                   f"within {algebra.dim + 1} layers")
            prev = layers[-1]
            products = (_batch_regular(algebra, ideal) @ prev).transpose(1, 0, 2)   # [:, a, b]
            layers.append(_column_space(products.reshape(algebra.dim, -1), scale))
        height = len(layers)  # m^height = 0, m^(height-1) != 0
        dims = [layer.shape[1] for layer in layers]
        widths = tuple(dims[i] - dims[i + 1] for i in range(height - 1))

        # The complement of m^(i+1) in m^i, deepest first (unit last): layer i
        # projected off layer i + 1, and as many left singular vectors as its width.
        blocks = [np.linalg.svd(lo - hi @ (hi.conj().T @ lo), full_matrices=False)[0][:, :w]
                  for lo, hi, w in zip(layers, layers[1:], widths)]
        basis = np.column_stack(blocks[::-1] + [dec.idempotents[k].coords])
        comps.append(ComponentProfile(height, widths, _frozen(basis)))
    return Profile(tuple(comps))


def _local_parts(dec: Decomposition, w: np.ndarray, orders, x: np.ndarray | None = None):
    """Spectral parts s_l of w and the (m, L, max(orders)) stack of nilpotent
    factors P[:, l, j] = e_l n_l^j, n_l = (w - s_l) e_l, zero for j >= orders[l];
    given the multiplication x by an increment, the h_j with x h_j =
    e_l ((n_l + x)^j - n_l^j)."""
    s = dec.spectral_rows @ w
    lam = dec.algebra.regular_matrix(w)
    a = np.column_stack([e.coords for e in dec.idempotents])   # e_l (n_l + x)^j, per column
    h = np.zeros_like(a)
    P = np.empty((len(w), dec.count, max(orders)), dtype=complex)
    for j in range(max(orders)):
        P[:, :, j] = a if x is None else h
        h, a = lam @ h - h * s + a, lam @ a - a * s + (0 if x is None else x @ a)
    return s, P * (np.arange(max(orders)) < np.array(orders)[:, None])


def _local_inverse(dec: Decomposition, w: np.ndarray) -> np.ndarray:
    """Inverses of the units of an (n, T) coordinate stack, by the local
    expansion of 1/s in stacked form: u = sum_l e_l / s_l inverts the
    spectral parts, X = w u - 1 is nilpotent with X^nu = 0 for nu the largest
    height of the (cached) profile, and w^-1 = u sum_{j<nu} (-X)^j, summed by
    Horner in nu - 1 products.  The callers check that no s_l vanishes."""
    algebra = dec.algebra
    nu = max(profile(algebra, dec).heights)
    idempotents = np.column_stack([e.coords for e in dec.idempotents])
    inv = u = idempotents @ (1 / (dec.spectral_rows @ w))
    if nu > 1:   # else the algebra is reduced, X = 0 and u is the inverse
        lam_x = _batch_regular(algebra, _batch_mul(algebra, w, u) - algebra.unit_coords[:, None])
        for _ in range(nu - 1):
            inv = u - _batch_apply(lam_x, inv)
    return inv


def _unit_spectrum(dec: Decomposition, z: Element) -> np.ndarray:
    """The spectral parts of z; NotAUnit when one vanishes."""
    s = dec.spectrum(z)
    zero = np.flatnonzero(np.abs(s) < 1e-14)
    if zero.size:
        raise NotAUnit(f"component {zero[0]} has zero spectral part")
    return s


def invert_via_series(z: Element, dec: Decomposition) -> Element:
    """Inverse through the terminating geometric series on each local factor.

    Per component, z = s (1 + X/s) with s = sigma_k(z) and nilpotent X, so
    z^{-1} = s^{-1} sum_{j<nu} (-X/s)^j: the local expansion of 1/s, with
    T_j(s) = (-1)^j s^(-j-1), summed by :func:`_local_inverse`.  Must agree
    with the linear-solve inverse to 1e-10 (tested invariant).
    """
    _unit_spectrum(dec, z)
    return dec.algebra.element(_local_inverse(dec, z.coords[:, None])[:, 0])


def unit_group_coords(u: Element, dec: Decomposition) -> list[tuple[complex, Element]]:
    """Split a unit into (scalar, nilpotent-logarithm) pairs per local factor.

    Per component, u = s (1 + x/s) with s = sigma_k(u); the second entry is
    log(1 + x/s) computed by the terminating alternating series, the local
    expansion with T_j(s) = (-1)^(j+1) / (j s^j) for j >= 1.  The inverse
    map is :func:`unit_group_exp`.
    """
    s = _unit_spectrum(dec, u)
    P = _local_parts(dec, u.coords, dec.component_dims)[1]
    j = np.arange(1, P.shape[2])
    logs = np.einsum("nlj,lj->nl", P[:, :, 1:], (-1.0) ** (j + 1) / (j * s[:, None] ** j))
    return [(complex(s_l), dec.algebra.element(log)) for s_l, log in zip(s, logs.T)]


def unit_group_exp(parts: list[tuple[complex, Element]], dec: Decomposition) -> Element:
    """Reconstruct the unit from its (scalar, logarithm) pairs.

    The k-th logarithm acts through its projection e_k log_k = t_k e_k + n_k:
    the local expansion of the stacked projections with T_j(t) = e^t / j!,
    scaled per component by the k-th scalar.
    """
    algebra = dec.algebra
    scalars = np.array([s for s, _ in parts], dtype=complex)
    logs = np.column_stack([log.coords for _, log in parts])
    idempotents = np.column_stack([e.coords for e in dec.idempotents])
    t, P = _local_parts(dec, _batch_mul(algebra, idempotents, logs).sum(axis=1),
                        dec.component_dims)
    weights = (scalars * np.exp(t))[:, None] / np.cumprod(np.maximum(np.arange(P.shape[2]), 1))
    return algebra.element(np.einsum("nlj,lj->n", P, weights))
