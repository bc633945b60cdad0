"""Algebra morphisms as matrices, their derived constants, and factorization.

A morphism phi : A -> B is an (m x n) complex matrix whose columns are the
images of the source basis vectors.  Its derived constants

    gamma[j]  (an m x m matrix per source index j, rows i, columns k)

satisfy a_j * b_k = sum_r gamma[j][r, k] b_r, i.e. gamma[j] is the regular
representation of phi(a_j) in the target.  The canonical factorization
phi = (direct sum of local parts) o Pi_tau matches each target component to
the unique source component whose idempotent maps to the target unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Element, _batch_regular
from .decomposition import Decomposition
from .errors import AlgebraMismatch, NotDetermined, NotMultiplicative, NotUnital

MORPHISM_TOL = 1e-12
DICHOTOMY_TOL = 1e-8


@dataclass(frozen=True)
class Morphism:
    source: Algebra
    target: Algebra
    matrix: np.ndarray = field(repr=False)  # (m x n), columns = images of source basis
    gamma: np.ndarray = field(repr=False)   # (n, m, m); gamma[j] = lambda_B(phi(a_j))
    # factor's results, by the ids of the two decompositions they hold (see factor)
    _factorizations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        g = np.asarray(self.gamma, dtype=complex)
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    def __repr__(self):
        return f"Morphism({self.source.dim} -> {self.target.dim})"

    def apply(self, a: Element) -> Element:
        if not self.source.compatible(a.algebra):
            raise AlgebraMismatch("element is not in the source algebra")
        return self.target.element(self.matrix @ a.coords)

    __call__ = apply


def build_morphism(source: Algebra, target: Algebra, matrix) -> Morphism:
    """Validate a candidate matrix and derive its structure constants.

    Checks unitality phi(1_A) = 1_B and multiplicativity on every basis pair
    to 1e-12; on failure the worst pair is reported.  For phi = id the
    derived gamma coincides with the source structure constants.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (target.dim, source.dim):
        raise ValueError(f"matrix must be {(target.dim, source.dim)}, got {mat.shape}")

    unit_gap = np.abs(mat @ source.unit_coords - target.unit_coords).max()
    if unit_gap > MORPHISM_TOL:
        raise NotUnital(f"phi(1) differs from 1 by {unit_gap:.3e}")

    # phi(a_j a_k) against phi(a_j) phi(a_k) for every pair, columns = images of a_j
    gamma = _batch_regular(target, mat)                     # gamma[j] = lambda_B(phi(a_j))
    lhs = source.alpha @ mat.T                              # [j, k] -> phi(a_j a_k)
    rhs = (gamma @ mat).transpose(0, 2, 1)                  # [j, k] -> phi(a_j) phi(a_k)
    gaps = np.abs(lhs - rhs).max(axis=2)
    j, k = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    if gaps[j, k] > MORPHISM_TOL:
        raise NotMultiplicative(
            f"phi(a_{j + 1} a_{k + 1}) != phi(a_{j + 1}) phi(a_{k + 1}) "
            f"(difference {gaps[j, k]:.3e})")
    return Morphism(source, target, mat, gamma)


def identity_morphism(algebra: Algebra) -> Morphism:
    return build_morphism(algebra, algebra, np.eye(algebra.dim))


def compose(phi: Morphism, psi: Morphism) -> Morphism:
    """psi o phi, revalidated."""
    if not phi.target.compatible(psi.source):
        raise AlgebraMismatch("target of the first morphism is not the source of the second")
    return build_morphism(phi.source, psi.target, psi.matrix @ phi.matrix)


@dataclass(frozen=True)
class Factorization:
    """tau plus the local parts of the canonical factorization of phi."""

    phi: Morphism
    dec_source: Decomposition
    dec_target: Decomposition
    tau: tuple[int, ...]
    local_matrices: tuple[np.ndarray, ...]  # phi-bar_l in the component bases

    @property
    def active_source_components(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.tau)))

    def local_apply(self, z: Element, ell: int) -> Element:
        """phi-bar_ell applied to pr_{tau(ell)}(z), as an element of the target."""
        k = self.tau[ell]
        comp = self.dec_source.component_coords(z, k)
        out = self.local_matrices[ell] @ comp
        return self.phi.target.element(self.dec_target.component_bases[ell] @ out)

    def reconstruct(self, z: Element) -> Element:
        """(direct sum of local parts) o Pi_tau; equals phi(z) up to 1e-10."""
        out = self.phi.target.zero()
        for ell in range(len(self.tau)):
            out = out + self.local_apply(z, ell)
        return out


def factor(phi: Morphism, dec_source: Decomposition, dec_target: Decomposition) -> Factorization:
    """Canonical factorization through the local components.

    For each target component ell, tau(ell) is the unique source component
    whose idempotent maps onto the target component's unit; an idempotent
    image that is neither ~0 nor ~1 on a component raises
    :class:`NotDetermined`.  Results are cached on the morphism per pair of
    decompositions, so repeated calls return the same object; a call that
    raises caches nothing.
    """
    cache = phi._factorizations
    key = (id(dec_source), id(dec_target))   # the cached value keeps both alive
    if key not in cache:
        cache[key] = _factor(phi, dec_source, dec_target)
    return cache[key]


def _factor(phi: Morphism, dec_source: Decomposition, dec_target: Decomposition) -> Factorization:
    images = phi.matrix @ np.column_stack([e.coords for e in dec_source.idempotents])
    tau, locals_ = [], []
    for ell, unit_ell in enumerate(dec_target.idempotents):
        times_unit = phi.target.regular_matrix(unit_ell.coords)
        projected = times_unit @ images          # column k: phi(I_k) * unit_ell
        one = np.linalg.norm(projected - unit_ell.coords[:, None], axis=0) < DICHOTOMY_TOL
        zero = np.linalg.norm(projected, axis=0) < DICHOTOMY_TOL
        neither = np.flatnonzero(~(one | zero))
        if neither.size:
            raise NotDetermined(f"phi(I_{neither[0] + 1}) projected to component {ell + 1} "
                                "is neither ~0 nor ~1")
        if one.sum() != 1:
            raise NotDetermined(
                f"component {ell + 1} matched {one.sum()} source idempotents")
        tau.append(int(np.flatnonzero(one)[0]))
        locals_.append(dec_target.component_bases[ell].conj().T @ times_unit @ phi.matrix
                       @ dec_source.component_bases[tau[-1]])
    return Factorization(phi, dec_source, dec_target, tuple(tau), tuple(locals_))
