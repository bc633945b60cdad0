"""An exact oracle for the catalog: the structure constants of every catalog
algebra and of every direct sum of two, as exact sympy numbers, checked for the
algebra laws, the nilradical's dimension and the component dimensions."""

import itertools

import numpy as np
import pytest
import sympy as sp

import holoalg as ha

CATALOG = {
    "C": ha.complex_line,
    "dual": ha.dual_numbers,
    "split": ha.split_complex,
    "plane": ha.complex_as_plane,
    "t3": lambda: ha.truncated_polynomials(3),
    "bidual": ha.bidual,
}
CASES = [(name,) for name in CATALOG] + list(itertools.combinations_with_replacement(CATALOG, 2))


def exact(z):
    """A complex float as the Gaussian rational it is exactly."""
    return sp.Rational(z.real) + sp.I * sp.Rational(z.imag)


def simplest(z):
    """The nearest Gaussian rational with denominator at most 64."""
    return (sp.Rational(z.real).limit_denominator(64)
            + sp.I * sp.Rational(z.imag).limit_denominator(64))


def same(a, b):
    """Exact equality of two matrices of Gaussian rationals (sympy keeps a
    product of two complex entries unexpanded, so compare the expanded gap)."""
    return (a - b).expand() == sp.zeros(*a.shape)


@pytest.mark.parametrize("names", CASES, ids="+".join)
def test_catalog_structure_holds_exactly(names):
    algebra = CATALOG[names[0]]()
    for name in names[1:]:
        algebra = ha.direct_sum(algebra, CATALOG[name]())
    n, alpha = algebra.dim, algebra.alpha
    # lam[j][i, k] = alpha^i_{jk}: multiplication by the j-th basis vector
    lam = [sp.Matrix(n, n, lambda i, k: exact(alpha[j, k, i])) for j in range(n)]

    def regular(x):
        return sum((x[j] * lam[j] for j in range(n)), sp.zeros(n, n))

    for j, k in itertools.product(range(n), repeat=2):
        assert same(lam[j][:, k], lam[k][:, j])                # b_j b_k = b_k b_j
        assert same(lam[j] * lam[k], regular(lam[j][:, k]))    # lambda(b_j b_k)

    # the unit: the one u with lambda(u) = 1, solved exactly
    system = sp.Matrix.hstack(*(m.reshape(n * n, 1) for m in lam))
    unit, free = system.gauss_jordan_solve(sp.eye(n).reshape(n * n, 1))
    assert free.shape[0] == 0
    assert np.abs(np.array(unit, dtype=complex)[:, 0] - algebra.unit_coords).max() < 1e-12

    gram = sp.Matrix(n, n, lambda j, k: sp.expand((lam[j] * lam[k]).trace()))
    rank = gram.rank()
    assert n - rank == ha.nilradical(algebra).shape[1]

    # the idempotents, made exact and checked to be a complete orthogonal system
    # of rank(gram) = dim(A / nilradical) members, so each one is primitive
    dec = ha.artin_decompose(algebra)
    idempotents = [sp.Matrix([simplest(c) for c in e.coords]) for e in dec.idempotents]
    assert len(idempotents) == rank
    assert same(sum(idempotents, sp.zeros(n, 1)), unit)
    for a, b in itertools.product(range(rank), repeat=2):
        assert same(regular(idempotents[a]) * idempotents[b],
                    idempotents[a] if a == b else sp.zeros(n, 1))
    traces = [sp.expand(regular(e).trace()) for e in idempotents]
    assert sorted(traces) == sorted(dec.component_dims)
