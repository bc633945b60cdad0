"""Reference computations for the benchmark, in plain numpy.

Nothing here imports holoalg.  Algebras are direct sums of catalog factors
whose multiplication tables, characters, idempotents and nilradicals are
written out below, moved to another basis by a change of coordinates.  The
benchmark feeds the resulting structure constants to holoalg and checks
holoalg's answers against the closed forms computed here:

- winding numbers from the projected geometry (inside test for circles,
  exact angle sums for polylines and sampled paths);
- values, derivatives and Taylor coefficients of polynomials from their
  coefficients and powers of the regular representation;
- component counts, dimensions, idempotents and inverses from the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Factor:
    """A catalog factor in its own basis (unit first)."""

    name: str
    alpha: np.ndarray          # alpha[j, k, i]: coefficient of a_i in a_j a_k
    rows: tuple                # one character row per local component
    idempotents: tuple         # one idempotent per local component
    heights: tuple             # nilpotency height per local component
    nil_basis: np.ndarray      # columns span the nilradical

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]

    @property
    def component_dims(self) -> tuple:
        if len(self.rows) == 1:
            return (self.dim,)
        return (1,) * len(self.rows)


def _table(n: int, products: dict) -> np.ndarray:
    """Commutative multiplication table from {(j, k): {i: coefficient}}."""
    alpha = np.zeros((n, n, n), dtype=complex)
    for (j, k), image in products.items():
        for i, c in image.items():
            alpha[j, k, i] = c
            alpha[k, j, i] = c
    return alpha


def _e(n: int, *entries) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    for i, c in entries:
        v[i] = c
    return v


FACTORS = {
    # C
    "C": Factor("C", _table(1, {(0, 0): {0: 1}}),
                (_e(1, (0, 1)),), (_e(1, (0, 1)),), (1,), np.zeros((1, 0), dtype=complex)),
    # C[eps], eps^2 = 0
    "dual": Factor("dual", _table(2, {(0, 0): {0: 1}, (0, 1): {1: 1}}),
                   (_e(2, (0, 1)),), (_e(2, (0, 1)),), (2,), _e(2, (1, 1))[:, None]),
    # C[j], j^2 = 1: characters z0 +- z1, idempotents (1 +- j)/2
    "split": Factor("split", _table(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 1}}),
                    (_e(2, (0, 1), (1, 1)), _e(2, (0, 1), (1, -1))),
                    (_e(2, (0, 0.5), (1, 0.5)), _e(2, (0, 0.5), (1, -0.5))),
                    (1, 1), np.zeros((2, 0), dtype=complex)),
    # C[t]/t^3
    "t3": Factor("t3", _table(3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                                  (1, 1): {2: 1}}),
                 (_e(3, (0, 1)),), (_e(3, (0, 1)),), (3,),
                 np.column_stack([_e(3, (1, 1)), _e(3, (2, 1))])),
    # C[x, y]/(x^2, y^2), basis (1, x, y, xy)
    "bidual": Factor("bidual", _table(4, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                                          (0, 3): {3: 1}, (1, 2): {3: 1}}),
                     (_e(4, (0, 1)),), (_e(4, (0, 1)),), (3,),
                     np.column_stack([_e(4, (1, 1)), _e(4, (2, 1)), _e(4, (3, 1))])),
}


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary matrix (QR of a complex Gaussian, phases fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


class OracleAlgebra:
    """Direct sum of catalog factors, read in the basis a'_j = sum_r U[r, j] a_r.

    Coordinates transform by z_old = U @ z_new.
    """

    def __init__(self, names, U: np.ndarray | None = None):
        self.factors = tuple(FACTORS[n] for n in names)
        dim = sum(f.dim for f in self.factors)
        self.U = np.eye(dim, dtype=complex) if U is None else np.asarray(U, dtype=complex)
        self.V = np.linalg.inv(self.U)
        old = np.zeros((dim, dim, dim), dtype=complex)
        unit = np.zeros(dim, dtype=complex)
        rows, idems, dims, heights, nils = [], [], [], [], []
        off = 0
        for f in self.factors:
            n = f.dim
            sl = slice(off, off + n)
            old[sl, sl, sl] = f.alpha
            unit[off] = 1.0
            for row, idem, h in zip(f.rows, f.idempotents, f.heights):
                full_row = np.zeros(dim, dtype=complex)
                full_row[sl] = row
                full_idem = np.zeros(dim, dtype=complex)
                full_idem[sl] = idem
                rows.append(full_row @ self.U)
                idems.append(self.V @ full_idem)
                heights.append(h)
            dims.extend(f.component_dims)
            nil = np.zeros((dim, f.nil_basis.shape[1]), dtype=complex)
            nil[sl] = f.nil_basis
            nils.append(self.V @ nil)
            off += n
        self.dim = dim
        self.alpha = np.einsum("rj,sk,rsi,mi->jkm", self.U, self.U, old, self.V)
        self.unit = self.V @ unit
        self.rows = np.array(rows)
        self.idempotents = np.array(idems)
        self.component_dims = tuple(dims)
        self.heights = tuple(heights)
        self.nil_basis = np.column_stack(nils) if nils else np.zeros((dim, 0), dtype=complex)

    # -- arithmetic -----------------------------------------------------------

    def regular(self, x: np.ndarray) -> np.ndarray:
        """Matrix of multiplication by x: L(x)[i, k] = sum_j x_j alpha[j, k, i]."""
        return np.einsum("j,jki->ik", x, self.alpha)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.regular(a) @ b

    def inv(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.regular(x), self.unit)

    def element(self, scalars, nilpotent=None) -> np.ndarray:
        """sum_k scalars[k] e_k + nilpotent @ nil_basis, in the new coordinates."""
        z = np.asarray(scalars, dtype=complex) @ self.idempotents
        if nilpotent is not None and self.nil_basis.shape[1]:
            z = z + self.nil_basis @ np.asarray(nilpotent, dtype=complex)
        return z

    def characters(self, z: np.ndarray) -> np.ndarray:
        return self.rows @ z

    def exp(self, z: np.ndarray) -> np.ndarray:
        """exp(Z) = sum_k e^(s_k) e_k sum_(j < dim) X^j / j! with X nilpotent."""
        out = np.zeros(self.dim, dtype=complex)
        for s, e in zip(self.characters(z), self.idempotents):
            x = self.mul(z, e) - s * e
            term, acc = e.copy(), np.zeros(self.dim, dtype=complex)
            for j in range(self.dim):
                acc = acc + term
                term = self.mul(term, x) / (j + 1)
            out = out + np.exp(s) * acc
        return out


def poly_derivative(target: OracleAlgebra, coeffs, w: np.ndarray, order: int) -> np.ndarray:
    """f^(order) of f(W) = sum_k B_k w^k at w, by powers of the regular matrix."""
    lam = target.regular(w)
    out = np.zeros(target.dim, dtype=complex)
    power = np.eye(target.dim, dtype=complex)
    for k in range(order, len(coeffs)):
        falling = math.factorial(k) // math.factorial(k - order)
        out = out + falling * (power @ np.asarray(coeffs[k], dtype=complex))
        power = power @ lam
    return out


# -- projected geometry -------------------------------------------------------

@dataclass(frozen=True)
class Circle:
    center: np.ndarray      # coordinates in the algebra
    radius: float
    direction: np.ndarray   # coordinates; the unit for the benchmark's circles
    turns: int = 1


@dataclass(frozen=True)
class Polyline:
    points: tuple           # closed: first == last


def _segment_distance(w0: complex, a: complex, b: complex) -> float:
    d = b - a
    t = 0.0 if d == 0 else min(1.0, max(0.0, ((w0 - a) * d.conjugate()).real / abs(d) ** 2))
    return abs(w0 - (a + t * d))


def winding_and_distance(curve, row: np.ndarray, w0: complex) -> tuple[int, float]:
    """Winding number of row(curve) around w0 and the distance of w0 to it."""
    if isinstance(curve, Circle):
        c = complex(row @ curve.center)
        r = curve.radius * abs(complex(row @ curve.direction))
        dist = abs(abs(w0 - c) - r)
        return (curve.turns if abs(w0 - c) < r else 0), dist
    q = [complex(row @ p) - w0 for p in curve.points]
    total = sum(np.angle(b / a) for a, b in zip(q, q[1:]))
    dist = min(_segment_distance(0j, a, b) for a, b in zip(q, q[1:]))
    return int(round(total / (2 * math.pi))), dist


def cycle_windings(terms, rows: np.ndarray, point: np.ndarray):
    """Per character row: (winding of the cycle, least distance to any curve)."""
    out = []
    for row in rows:
        w0 = complex(row @ point)
        wind, dist = 0, math.inf
        for mult, curve in terms:
            w, d = winding_and_distance(curve, row, w0)
            wind += mult * w
            dist = min(dist, d)
        out.append((wind, dist))
    return out


def index_element(alg: OracleAlgebra, windings) -> np.ndarray:
    return sum(w * e for w, e in zip(windings, alg.idempotents))
