"""Finite-dimensional commutative associative unital C-algebras.

An algebra is defined on C^n by its structure constants alpha^i_{jk},
stored as ``alpha[j, k, i]`` so that the product of basis vectors is

    a_j * a_k = sum_i alpha[j, k, i] * a_i.

:func:`build_algebra` validates commutativity and associativity of the
tensor and solves the unit-law linear system for the coordinates of 1.
Elements are immutable coordinate vectors supporting ring arithmetic, the
regular representation, inversion, norms and the spectral radius.  An element
may also hold a stack of points, an (n, T) coordinate array with one point per
column: ring arithmetic acts columnwise on it, a single element meeting a
stack as its (n, 1) column, and the methods that need one point refuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlgebraMismatch,
    DecompositionRequired,
    NoUnit,
    NotAssociative,
    NotAUnit,
    NotCommutative,
)

# Absolute tolerance for the defining identities on user-provided tensors.
IDENTITY_TOL = 1e-12
# Residual bound for the least-squares unit solve.
UNIT_RESIDUAL_TOL = 1e-10
# Ratio min |sigma_ell(z)| / ||lambda(z)||_F below which z is not a unit.
SINGULAR_RATIO = 1e-12


def _as_complex_vector(coords: Iterable, dim: int | None = None) -> np.ndarray:
    v = np.asarray(coords, dtype=complex).reshape(-1)
    if dim is not None and v.shape != (dim,):
        raise ValueError(f"expected a coordinate vector of length {dim}, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class StructureTensor:
    """The cube of structure constants defining an algebra on C^n.

    ``alpha[j, k, i]`` is the coefficient of the i-th basis vector in the
    product a_j * a_k.
    """

    dim: int
    alpha: np.ndarray
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        alpha = np.asarray(self.alpha, dtype=complex)
        if alpha.shape != (self.dim,) * 3:
            raise ValueError(f"alpha must have shape {(self.dim,) * 3}, got {alpha.shape}")
        if not np.isfinite(alpha).all():
            raise ValueError("alpha must have finite entries")
        alpha = alpha.copy()
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        labels = tuple(self.basis_labels) or tuple(f"a{i + 1}" for i in range(self.dim))
        if len(labels) != self.dim:
            raise ValueError("need one basis label per dimension")
        object.__setattr__(self, "basis_labels", labels)

    def check_commutative(self, tol: float = IDENTITY_TOL) -> None:
        gap = np.abs(self.alpha - self.alpha.transpose(1, 0, 2))
        if gap.max() > tol:
            j, k, i = np.unravel_index(int(np.argmax(gap)), gap.shape)
            raise NotCommutative(
                f"alpha^{i + 1}_{{{j + 1},{k + 1}}} != alpha^{i + 1}_{{{k + 1},{j + 1}}} "
                f"(difference {gap[j, k, i]:.3e})"
            )

    def check_associative(self, tol: float = IDENTITY_TOL) -> None:
        # sum_r alpha^r_{jk} alpha^i_{rl}  vs  sum_r alpha^r_{kl} alpha^i_{jr}
        lhs = np.einsum("jkr,rli->jkli", self.alpha, self.alpha)
        rhs = np.einsum("klr,jri->jkli", self.alpha, self.alpha)
        gap = np.abs(lhs - rhs)
        if gap.max() > tol:
            j, k, l, i = np.unravel_index(int(np.argmax(gap)), gap.shape)
            raise NotAssociative(
                f"associativity fails at (i,j,k,l)=({i + 1},{j + 1},{k + 1},{l + 1}) "
                f"(difference {gap[j, k, l, i]:.3e})"
            )

    def basis_matrices(self) -> np.ndarray:
        """Regular representations lambda(a_j), stacked as shape (n, n, n)."""
        # lambda(a_j)[i, k] = alpha^i_{jk}
        return self.alpha.transpose(0, 2, 1)


class Algebra:
    """A validated algebra: tensor + unit coordinates."""

    def __init__(self, tensor: StructureTensor, unit_coords: np.ndarray):
        self.tensor = tensor
        self.unit_coords = _as_complex_vector(unit_coords, tensor.dim)
        self.unit_coords.flags.writeable = False
        # artin_decompose's results, by seed (see decomposition.artin_decompose)
        self._decompositions: dict = {}

    # -- basic data ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.tensor.dim

    @property
    def alpha(self) -> np.ndarray:
        return self.tensor.alpha

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return self.tensor.basis_labels

    def __repr__(self):
        return f"Algebra(dim={self.dim}, basis={list(self.basis_labels)})"

    def compatible(self, other: "Algebra") -> bool:
        if self is other:
            return True
        return self.dim == other.dim and np.array_equal(self.alpha, other.alpha)

    # -- element constructors -------------------------------------------------

    def element(self, coords: Iterable) -> "Element":
        return Element(self, _as_complex_vector(coords, self.dim))

    def zero(self) -> "Element":
        return self.element(np.zeros(self.dim))

    def unit(self) -> "Element":
        return Element(self, self.unit_coords.copy())

    def scalar(self, z: complex) -> "Element":
        return Element(self, complex(z) * self.unit_coords)

    def basis_element(self, i: int) -> "Element":
        coords = np.zeros(self.dim, dtype=complex)
        coords[i] = 1.0
        return Element(self, coords)

    def basis(self) -> list["Element"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> "Element":
        coords = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return self.element(scale * coords)

    # -- raw coordinate operations (used by Element and the other modules) ----

    def mul_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product of two coordinate vectors, or columnwise of (n, T) stacks;
        a vector meets a stack through its regular matrix."""
        if a.ndim == b.ndim == 1:
            return np.einsum("jki,j,k->i", self.alpha, a, b)
        if a.ndim == 2:
            a, b = b, a   # the algebra is commutative
        if a.ndim == 1:
            return self.regular_matrix(a) @ b
        return _batch_mul(self, *np.broadcast_arrays(a, b))

    def regular_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Matrix of multiplication by the element: lambda(a)[i,k] = sum_j a^j alpha^i_{jk}."""
        return np.einsum("j,jki->ik", coords, self.alpha)


def build_algebra(tensor: StructureTensor) -> Algebra:
    """Validate a structure tensor and solve for the unit coordinates.

    Raises :class:`NotCommutative` / :class:`NotAssociative` naming the first
    violated identity, or :class:`NoUnit` when the stacked unit-law system
    ``sum_r eps^r alpha^i_{rk} = sum_r eps^r alpha^i_{kr} = delta^i_k`` has
    least-squares residual above ``1e-10``.
    """
    tensor.check_commutative()
    tensor.check_associative()

    n = tensor.dim
    # Rows indexed by (i, k) for each of the two sides of the unit law.
    left = tensor.alpha.transpose(2, 1, 0).reshape(n * n, n)    # [ (i,k), r ] = alpha^i_{rk}
    right = tensor.alpha.transpose(2, 0, 1).reshape(n * n, n)   # [ (i,k), r ] = alpha^i_{kr}
    system = np.vstack([left, right])
    target = np.concatenate([np.eye(n, dtype=complex).reshape(-1)] * 2)
    eps, *_ = np.linalg.lstsq(system, target, rcond=None)
    residual = np.abs(system @ eps - target).max()
    if residual > UNIT_RESIDUAL_TOL:
        raise NoUnit(f"unit-law system inconsistent (residual {residual:.3e})")
    return Algebra(tensor, eps)


@dataclass(frozen=True)
class Element:
    """A coordinate vector relative to an algebra's basis, or an (n, T) stack of
    them, one point per column (see the module docstring)."""

    algebra: Algebra
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        # a 2-D array is a stack of points, one per column
        coords = coords.view() if coords.ndim == 2 else coords.reshape(-1)
        if len(coords) != self.algebra.dim:
            raise ValueError(f"expected {self.algebra.dim} coordinates per point, "
                             f"got shape {coords.shape}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __repr__(self):
        if self.coords.ndim == 2:
            return f"<stack of {self.coords.shape[1]} elements of {self.algebra!r}>"
        terms = []
        for c, lab in zip(self.coords, self.algebra.basis_labels):
            if c != 0:
                terms.append(f"({c:.6g})*{lab}")
        return " + ".join(terms) if terms else "0"

    # -- ring arithmetic -------------------------------------------------------

    def _check(self, other: "Element") -> None:
        if not self.algebra.compatible(other.algebra):
            raise AlgebraMismatch("elements live in different algebras")

    def _pair(self, other: "Element"):
        """Both coordinate arrays, a single element lifted to (n, 1) against a stack."""
        self._check(other)
        a, b = self.coords, other.coords
        if a.ndim != b.ndim:
            a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
        return a, b

    def _unit(self) -> np.ndarray:
        """The unit's coordinates, shaped to meet this element's."""
        return self.algebra.unit_coords.reshape((-1,) + (1,) * (self.coords.ndim - 1))

    def _point(self, method: str) -> np.ndarray:
        """The coordinates of a single element; ValueError naming ``method`` on a stack."""
        if self.coords.ndim == 2:
            raise ValueError(f"{method} acts on one element, not on a stack of "
                             f"{self.coords.shape[1]}")
        return self.coords

    def __add__(self, other):
        if isinstance(other, Element):
            a, b = self._pair(other)
            return Element(self.algebra, a + b)
        if isinstance(other, (int, float, complex)):
            return Element(self.algebra, self.coords + other * self._unit())
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Element(self.algebra, -self.coords)

    def __sub__(self, other):
        if isinstance(other, Element):
            a, b = self._pair(other)
            return Element(self.algebra, a - b)
        if isinstance(other, (int, float, complex)):
            return Element(self.algebra, self.coords - other * self._unit())
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        if isinstance(other, (int, float, complex)):
            return Element(self.algebra, complex(other) * self.coords)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Element(self.algebra, complex(other) * self.coords)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Element):
            other._point("Element.__truediv__")
            return self * other.invert()
        if isinstance(other, (int, float, complex)):
            return Element(self.algebra, self.coords / complex(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float, complex)):
            self._point("Element.__rtruediv__")
            return self.invert() * complex(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            self._point("Element.__pow__ with a negative exponent")
            return self.invert() ** (-k)
        out = Element(self.algebra, np.broadcast_to(self._unit(), self.coords.shape))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, Element) and self.algebra.compatible(other.algebra)
                and np.array_equal(self.coords, other.coords))

    def __hash__(self):
        # only what __eq__ compares; adding 0.0 maps -0.0 to 0.0, which compare equal
        return hash((self.algebra.dim, (self._point("Element.__hash__") + 0.0).tobytes()))

    # -- linear-algebraic views ------------------------------------------------

    def regular_matrix(self) -> np.ndarray:
        """The regular representation lambda(a); multiplicative and unital."""
        return self.algebra.regular_matrix(self._point("Element.regular_matrix"))

    def invert(self) -> "Element":
        """Solve lambda(z) w = 1 for the multiplicative inverse.

        Invertibility is decided by the characters, as in the contour kernel
        (see :func:`_unit_columns`), on the algebra's cached decomposition
        with seed 0, which may raise :class:`ClusteringAmbiguous`; the value
        comes from the linear solve alone.
        """
        self._point("Element.invert")
        if not self.is_unit():
            raise NotAUnit("an element with a vanishing character is not a unit")
        w = np.linalg.solve(self.regular_matrix(), self.algebra.unit_coords)
        return Element(self.algebra, w)

    def is_unit(self) -> bool:
        """Whether no character of z vanishes (the rule of :func:`_unit_columns`)."""
        from .decomposition import artin_decompose   # decomposition imports this module
        x = self._point("Element.is_unit")[:, None]
        return bool(_unit_columns(artin_decompose(self.algebra), x)[0])

    def spectral_radius(self) -> float:
        """Largest eigenvalue modulus of the regular representation."""
        self._point("Element.spectral_radius")
        return float(np.abs(np.linalg.eigvals(self.regular_matrix())).max())

    def norm(self, kind: str = "frobenius", decomposition=None) -> float:
        """Submultiplicative norm of the element; ``kind`` is one of

        ``frobenius``  : Frobenius norm of lambda(z), the default;
        ``operator``   : spectral (operator 2-)norm of lambda(z), unital;
        ``direct-sum`` : max over local components of the operator norm of the
                         component action; needs ``decomposition``.
        """
        self._point("Element.norm")
        if kind == "frobenius":
            return float(np.linalg.norm(self.regular_matrix(), "fro"))
        if kind == "operator":
            return float(np.linalg.norm(self.regular_matrix(), 2))
        if kind == "direct-sum":
            if decomposition is None:
                raise DecompositionRequired("direct-sum norm needs a decomposition")
            return decomposition.direct_sum_norm(self)
        raise ValueError(f"unknown norm kind {kind!r}")

    def coord_norm(self) -> float:
        """Euclidean norm of the raw coordinates (a vector norm, not an algebra norm)."""
        return float(np.linalg.norm(self._point("Element.coord_norm")))


# -- coordinate stacks: many elements at once, one column each ---------------

def _batch_mul(algebra: Algebra, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise algebra product of two (n, T) coordinate stacks: lambda(a_t) b_t."""
    return _batch_apply(_batch_regular(algebra, a), b)


def _batch_apply(lams: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Columnwise matrix action lams[t] x_t of a (T, m, n) stack on an (n, T) stack."""
    return (lams @ x.T[:, :, None])[:, :, 0].T


def _batch_regular(algebra: Algebra, x: np.ndarray) -> np.ndarray:
    """(n, T) coordinates -> (T, n, n) regular representations, one matrix product."""
    n = algebra.dim
    flat = algebra.alpha.transpose(0, 2, 1).reshape(n, n * n)   # row j: lambda(a_j)
    return (x.T @ flat).reshape(-1, n, n)


def _unit_columns(dec, x: np.ndarray) -> np.ndarray:
    """Which columns of an (n, T) stack of ``dec.algebra`` are units.

    A column is a unit exactly when none of its characters sigma_ell(x) is
    zero; it counts as one when min_ell |sigma_ell(x)| > SINGULAR_RATIO *
    ||lambda(x)||_F, a scale-invariant rule that zero and nilpotent columns fail.
    """
    chars = np.abs(dec.spectral_rows @ x).min(axis=0)
    return chars > SINGULAR_RATIO * _batch_norm(dec.algebra, x)


def _batch_norm(algebra: Algebra, x: np.ndarray, kind: str = "frobenius") -> np.ndarray:
    """Element.norm of every column of an (n, T) stack, for the two matrix norms.

    The Frobenius norm is the Gram form ||lambda(x)||^2 = sum conj(x) (conj(G) x)
    with G = flat flat^H and flat the (n, n^2) stack of lambda(a_j): G is
    Hermitian, and conj(G), not G, is right on complex structure constants.
    """
    if kind == "frobenius":
        n = algebra.dim
        flat = algebra.alpha.reshape(n, n * n)
        gram = flat.conj() @ flat.T     # conj(flat flat^H)
        sq = (x.conj() * (gram @ x)).sum(axis=0).real
        return np.sqrt(np.maximum(sq, 0.0))
    if kind == "operator":
        return np.linalg.norm(_batch_regular(algebra, x), 2, axis=(1, 2))
    if kind == "direct-sum":
        raise DecompositionRequired("direct-sum norm needs a decomposition")
    raise ValueError(f"unknown norm kind {kind!r}")


def invert(z: Element) -> Element:
    """z.invert(), the one module-level wrapper of an Element method."""
    return z.invert()


def rebase_matrix(algebra: Algebra, first: np.ndarray | None = None) -> np.ndarray:
    """A change-of-basis matrix whose first column is the unit.

    Returns U (n x n, columns = new basis vectors in old coordinates) with
    U[:, 0] = unit coordinates, completed greedily with standard basis
    vectors.  Coordinates transform by z_old = U @ z_new.
    """
    n = algebra.dim
    first = algebra.unit_coords if first is None else _as_complex_vector(first, n)
    cols = [first]
    for i in range(n):
        if len(cols) == n:
            break
        candidate = np.zeros(n, dtype=complex)
        candidate[i] = 1.0
        trial = np.column_stack(cols + [candidate])
        if np.linalg.matrix_rank(trial, tol=1e-10) == len(cols) + 1:
            cols.append(candidate)
    U = np.column_stack(cols)
    if U.shape[1] != n:
        raise ValueError("could not complete the unit to a basis")
    return U


def transform_tensor(tensor: StructureTensor, U: np.ndarray,
                     labels: Sequence[str] | None = None) -> StructureTensor:
    """Structure constants in the new basis a'_j = sum_r U[r, j] a_r."""
    n = tensor.dim
    U = np.asarray(U, dtype=complex)
    V = np.linalg.inv(U)
    # a'_j a'_k = sum_{r,s} U_{rj} U_{sk} a_r a_s = sum_i (...) a_i, then a_i = sum_m V_{mi} a'_m.
    new_alpha = np.einsum("rj,sk,rsi,mi->jkm", U, U, tensor.alpha, V)
    return StructureTensor(n, new_alpha, tuple(labels) if labels else ())
