"""The per-node kernels of the contour layer against the Element path, the
spectral unit rule of the kernel inverse, and the work the index does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoalg as ha
from holoalg import contour
from holoalg.algebra import _batch_mul, _batch_norm, _batch_regular
from holoalg.errors import NotAUnit

from test_batched import random_basis_sum
from test_contour import sampled_ellipse, square_loop, unit_circle
from test_decomposition import counting_worker

try:
    import numpy.linalg._linalg as linalg_impl
except ImportError:   # numpy < 2
    import numpy.linalg.linalg as linalg_impl

FACTORS = {
    "C": ha.complex_line(),
    "dual": ha.dual_numbers(),
    "split": ha.split_complex(),
    "plane": ha.complex_as_plane(),
    "t3": ha.truncated_polynomials(3),
    "bidual": ha.bidual(),
}
REL = 1e-12

checked = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def stacks(draw):
    """A direct sum of catalog factors (dim 1-10) in a random complex unitary
    basis, and two (n, T) coordinate stacks of mixed scales."""
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=4)
                 .filter(lambda ns: sum(FACTORS[n].dim for n in ns) <= 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    algebra = random_basis_sum(rng, *(FACTORS[n] for n in names))
    T = draw(st.integers(1, 6))
    scales = 10.0 ** rng.uniform(-3, 3, size=T)

    def stack():
        return scales * (rng.standard_normal((algebra.dim, T))
                         + 1j * rng.standard_normal((algebra.dim, T)))

    return algebra, stack(), stack()


def relative(got, expected, scale):
    return float(np.linalg.norm(got - expected) / scale)


@checked
@given(stacks())
def test_batch_regular_matches_regular_matrix(case):
    algebra, x, _ = case
    lams = _batch_regular(algebra, x)
    for t in range(x.shape[1]):
        expected = algebra.element(x[:, t]).regular_matrix()
        assert relative(lams[t], expected, np.linalg.norm(expected)) < REL


@checked
@given(stacks())
def test_batch_mul_matches_the_element_product(case):
    algebra, x, y = case
    prod = _batch_mul(algebra, x, y)
    for t in range(x.shape[1]):
        a, b = algebra.element(x[:, t]), algebra.element(y[:, t])
        # ||lambda(a)|| ||b|| bounds ||a b||, which may cancel to 0 (nilpotents)
        scale = np.linalg.norm(a.regular_matrix()) * np.linalg.norm(b.coords)
        assert relative(prod[:, t], (a * b).coords, scale) < REL


@checked
@given(stacks())
def test_batch_norm_matches_element_norm(case):
    # complex structure constants: the Gram form must use conj(G), not G
    algebra, x, _ = case
    for kind in ("frobenius", "operator"):
        norms = _batch_norm(algebra, x, kind)
        for t in range(x.shape[1]):
            expected = algebra.element(x[:, t]).norm(kind)
            assert abs(norms[t] - expected) < REL * expected, kind


# -- the spectral unit rule -----------------------------------------------------------

def test_batch_inv_matches_element_invert():
    rng = np.random.default_rng(5)
    for factors in ((FACTORS["dual"],), (FACTORS["split"], FACTORS["t3"]),
                    (FACTORS["bidual"], FACTORS["C"], FACTORS["dual"])):
        algebra = random_basis_sum(rng, *factors)
        dec = ha.artin_decompose(algebra)
        units = [algebra.random_element(rng) for _ in range(8)]
        w = np.column_stack([u.coords for u in units])
        inv = contour._batch_inv(dec, w)
        for t, u in enumerate(units):
            expected = u.invert().coords
            assert relative(inv[:, t], expected, np.linalg.norm(expected)) < 1e-10
        # the rule is scale invariant: a tiny unit is still a unit
        assert relative(contour._batch_inv(dec, 1e-30 * w), 1e30 * inv,
                        1e30 * np.linalg.norm(inv)) < 1e-10


@pytest.mark.parametrize("factors", [("dual",), ("split", "t3"), ("bidual", "C")])
def test_batch_inv_rejects_zero_and_nilpotent_columns(factors):
    algebra = random_basis_sum(np.random.default_rng(8), *(FACTORS[f] for f in factors))
    dec = ha.artin_decompose(algebra)
    unit = algebra.random_element(np.random.default_rng(9)).coords
    for bad in (np.zeros(algebra.dim), dec.nilradical_basis[:, 0]):
        with pytest.raises(NotAUnit):
            contour._batch_inv(dec, np.column_stack([unit, bad, unit]))


def test_index_quadrature_on_a_nilpotent_loop_is_not_a_unit(dual, id_dual):
    # every node W has W - Z0 in the nilradical
    Z0 = dual.element([0.3, 0.2])
    eps = dual.element([0, 1])
    loop = ha.Path.polyline([Z0 + eps, Z0 + 2 * eps, Z0 + eps])
    with pytest.raises(NotAUnit):
        ha.index_quadrature(loop, Z0, id_dual)


# -- work counts ----------------------------------------------------------------------

def test_index_quadrature_runs_no_svd(monkeypatch):
    algebra = random_basis_sum(np.random.default_rng(7), FACTORS["t3"], FACTORS["split"],
                               FACTORS["dual"])
    assert algebra.dim == 7
    phi = ha.identity_morphism(algebra)
    Z0 = algebra.random_element(np.random.default_rng(3), 0.3)
    ha.artin_decompose(algebra)   # the one decomposition, computed before counting
    calls = []
    svd = linalg_impl.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(linalg_impl, "svd", counted)   # what np.linalg.norm(, 2) calls
    monkeypatch.setattr(np.linalg, "svd", counted)
    value = ha.index_quadrature(sampled_ellipse(algebra), Z0, phi)
    assert calls == []
    monkeypatch.undo()
    spectral = ha.index_spectral(sampled_ellipse(algebra), Z0, phi)
    assert (value - spectral.element).coord_norm() < 1e-8


def test_one_decomposition_per_algebra_and_seed(monkeypatch):
    # a C06-style loop: admissibility, both indices and a Cauchy value per point
    seen = counting_worker(monkeypatch)
    algebras = [ha.dual_numbers(), ha.split_complex()]
    rng = np.random.default_rng(606)
    points = 0
    for algebra in algebras:
        phi = ha.identity_morphism(algebra)
        f = ha.PowerSeries.polynomial(phi, algebra.zero(), [algebra.unit()] * 3)
        for path in (unit_circle(algebra), sampled_ellipse(algebra, n=16),
                     square_loop(algebra)):
            for _ in range(4):
                Z0 = algebra.random_element(rng, 0.4)
                if not ha.admissibility(path, Z0, phi).admissible:
                    continue
                spectral = ha.index_spectral(path, Z0, phi)
                quad = ha.index_quadrature(path, Z0, phi)
                assert (quad - spectral.element).coord_norm() < 1e-8
                ha.cif_value(f.sampler(), path, Z0, phi, spot_check=False)
                points += 1
        ha.index_spectral(unit_circle(algebra), algebra.zero(), phi, seed=1)
    assert points >= 12
    assert sorted(seen) == sorted((id(a), s) for a in algebras for s in (0, 1))


def test_seed_reaches_the_cauchy_layer(cubic):
    # each call decomposes its freshly built algebra with the caller's seed only
    f = cubic.sampler()
    for call in (lambda A, phi: ha.index_quadrature(unit_circle(A), A.zero(), phi, seed=3),
                 lambda A, phi: ha.cif_derivative(f, unit_circle(A), A.zero(), 1, phi, seed=3),
                 lambda A, phi: ha.homological_cif_check(f, unit_circle(A), A.zero(), phi,
                                                         seed=3)):
        algebra = ha.dual_numbers()
        call(algebra, ha.identity_morphism(algebra))
        assert list(algebra._decompositions) == [3]
