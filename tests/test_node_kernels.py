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

from test_batched import EXPECTED_NODES, random_basis_sum, random_polynomial
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


@st.composite
def node_stacks(draw):
    """A direct sum of catalog factors (dim 2-10) in a random unitary basis, its
    decomposition, and an (n, T) stack of units sum_l s_l e_l + x: x a random
    point of the nilradical and |s_l| between 0.03 ||x|| and ||x|| (1 when x
    is 0), each column scaled by 10^[-6, 6]."""
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=4)
                 .filter(lambda ns: 2 <= sum(FACTORS[n].dim for n in ns) <= 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    algebra = random_basis_sum(rng, *(FACTORS[n] for n in names))
    dec = ha.artin_decompose(algebra)
    T = draw(st.integers(1, 8))
    nil = dec.nilradical_basis
    x = nil @ (rng.standard_normal((nil.shape[1], T)) + 1j * rng.standard_normal((nil.shape[1], T)))
    size = np.linalg.norm(x, axis=0)
    moduli = np.where(size > 0, size, 1.0) * 10.0 ** rng.uniform(-1.5, 0, (dec.count, T))
    chars = moduli * np.exp(2j * np.pi * rng.uniform(size=(dec.count, T)))
    idempotents = np.column_stack([e.coords for e in dec.idempotents])
    return algebra, dec, 10.0 ** rng.uniform(-6, 6, T) * (idempotents @ chars + x)


# The inverse of sum_l s_l e_l + x is conditioned like (||x|| / |s_l|)^nu, and
# any double-precision method loses that much: at |s_l| = 1e-6 ||x|| on a
# height-3 factor the solve itself raises LinAlgError.  The stack stops at 0.03.
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(node_stacks())
def test_batch_inv_matches_the_linear_solve(case):
    algebra, dec, w = case
    expected = np.linalg.solve(_batch_regular(algebra, w),
                               np.broadcast_to(algebra.unit_coords[:, None],
                                               (w.shape[1], algebra.dim, 1)))[:, :, 0].T
    got = contour._batch_inv(dec, w)
    for t in range(w.shape[1]):
        assert relative(got[:, t], expected[:, t], np.linalg.norm(expected[:, t])) < 1e-10


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


def test_index_quadrature_converges_near_the_circle_in_a_generic_basis():
    # at 1% of the radius from the circle, the kernel's rounding noise must
    # stay below the 1e-10 stopping test: the batched solve it replaced kept
    # the estimates apart until the node budget ran out in most of these cases
    for seed in range(4):
        rng = np.random.default_rng(seed)
        algebra = random_basis_sum(rng, FACTORS["t3"], FACTORS["dual"])
        phi, dec = ha.identity_morphism(algebra), ha.artin_decompose(algebra)
        idempotents = np.column_stack([e.coords for e in dec.idempotents])
        nil = dec.nilradical_basis
        chars = 0.99 * np.exp(2j * np.pi * rng.random(dec.count))
        shift = 0.5 * (rng.standard_normal(nil.shape[1]) + 1j * rng.standard_normal(nil.shape[1]))
        Z0 = algebra.element(idempotents @ chars + nil @ shift)
        circle = unit_circle(algebra)
        value = ha.index_quadrature(circle, Z0, phi)
        assert (value - ha.index_spectral(circle, Z0, phi).element).coord_norm() < 1e-8


def test_the_cauchy_layer_runs_no_linear_solve(monkeypatch):
    rng = np.random.default_rng(12)
    algebra = random_basis_sum(rng, FACTORS["t3"], FACTORS["split"], FACTORS["dual"])
    phi = ha.identity_morphism(algebra)
    f = random_polynomial(rng, phi, 3).sampler()
    Z0 = algebra.scalar(0.2) + algebra.random_element(rng, 0.1)
    circle = unit_circle(algebra)
    ha.artin_decompose(algebra)   # the one decomposition, computed before the solve is refused

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refused)
    index = ha.index_quadrature(circle, Z0, phi)
    second = ha.cif_derivative(f, circle, Z0, 2, phi)
    taylor = ha.taylor_from_contour(f, circle, Z0, 3, phi)
    monkeypatch.undo()
    assert (index - algebra.unit()).coord_norm() < 1e-8
    assert (taylor.coefficient(2) * 2.0 - second).coord_norm() < 1e-8


def test_one_geometry_call_per_segment_kind_per_level(dual, id_dual, monkeypatch):
    # the segments' geometry is evaluated once per kind for all the nodes that
    # one integrand call takes; these levels fit in one integrand call each
    Z0 = dual.element([0.3, 0.2])
    ellipse = sampled_ellipse(dual)
    cycle = ha.Cycle(((1, unit_circle(dual)), (1, square_loop(dual))))
    events = []
    for cls in (contour.LineSegment, contour.CircleSegment):
        monkeypatch.setattr(cls, "points", lambda seg, ts, cls=cls, points=cls.points:
                            events.append((cls, len(ts))) or points(seg, ts))
    batch_inv = contour._batch_inv
    monkeypatch.setattr(contour, "_batch_inv",
                        lambda A, w: events.append(("kernel", w.shape[1])) or batch_inv(A, w))
    nodes = EXPECTED_NODES
    for path, total in ((ellipse, nodes["ellipse"]["index"]),
                        (cycle, nodes["circle"]["index"] + nodes["square"]["index"])):
        events.clear()
        ha.index_quadrature(path, Z0, id_dual)
        kernels = [i for i, (kind, _) in enumerate(events) if kind == "kernel"]
        assert kernels[-1] == len(events) - 1
        for lo, hi in zip([-1, *kernels], kernels):
            calls = events[lo + 1:hi]
            assert len({kind for kind, _ in calls}) == len(calls) <= 2
            assert sum(n for _, n in calls) == events[hi][1]
        assert sum(events[i][1] for i in kernels) == total


def test_one_decomposition_per_algebra(monkeypatch):
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
    assert points >= 12
    assert sorted(seen) == sorted(map(id, algebras))


def test_the_cauchy_layer_decomposes_each_algebra_once(cubic, monkeypatch):
    # each call decomposes its freshly built algebra, once, and keeps the result
    seen = counting_worker(monkeypatch)
    f = cubic.sampler()
    for call in (lambda A, phi: ha.index_quadrature(unit_circle(A), A.zero(), phi),
                 lambda A, phi: ha.cif_derivative(f, unit_circle(A), A.zero(), 1, phi),
                 lambda A, phi: ha.homological_cif_check(f, unit_circle(A), A.zero(), phi)):
        algebra = ha.dual_numbers()
        seen.clear()
        call(algebra, ha.identity_morphism(algebra))
        assert seen == [id(algebra)]
        assert algebra._decomposition is ha.artin_decompose(algebra)
