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

from .algebra import Algebra, Element
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

    images = mat  # column j = phi(a_j)
    worst = (0.0, (0, 0))
    for j in range(source.dim):
        for k in range(source.dim):
            lhs = mat @ source.mul_coords(_e(source.dim, j), _e(source.dim, k))
            rhs = target.mul_coords(images[:, j], images[:, k])
            gap = np.abs(lhs - rhs).max()
            if gap > worst[0]:
                worst = (gap, (j, k))
    if worst[0] > MORPHISM_TOL:
        j, k = worst[1]
        raise NotMultiplicative(
            f"phi(a_{j + 1} a_{k + 1}) != phi(a_{j + 1}) phi(a_{k + 1}) "
            f"(difference {worst[0]:.3e})")

    gamma = np.stack([target.regular_matrix(images[:, j]) for j in range(source.dim)])
    return Morphism(source, target, mat, gamma)


def _e(n: int, j: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[j] = 1.0
    return v


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
    :class:`NotDetermined`.
    """
    tau = []
    for ell in range(dec_target.count):
        unit_ell = dec_target.idempotents[ell]
        hits = []
        for k in range(dec_source.count):
            image = phi(dec_source.idempotents[k]) * unit_ell
            if (image - unit_ell).coord_norm() < DICHOTOMY_TOL:
                hits.append(k)
            elif image.coord_norm() >= DICHOTOMY_TOL:
                raise NotDetermined(
                    f"phi(I_{k + 1}) projected to component {ell + 1} is neither ~0 nor ~1")
        if len(hits) != 1:
            raise NotDetermined(
                f"component {ell + 1} matched {len(hits)} source idempotents")
        tau.append(hits[0])

    locals_ = []
    for ell, k in enumerate(tau):
        src_basis = dec_source.component_bases[k]
        tgt_basis = dec_target.component_bases[ell]
        unit_ell = dec_target.idempotents[ell]
        cols = []
        for j in range(src_basis.shape[1]):
            image = phi.target.element(phi.matrix @ src_basis[:, j]) * unit_ell
            cols.append(tgt_basis.conj().T @ image.coords)
        locals_.append(np.column_stack(cols))
    return Factorization(phi, dec_source, dec_target, tuple(tau), tuple(locals_))
