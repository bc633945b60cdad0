"""The batched evaluation path: FunctionSampler.values on stacked Elements,
the breadth-first integrator and the one-pass Taylor recovery, against scalar
references."""

import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoalg as ha
from holoalg import contour
from holoalg.algebra import transform_tensor
from holoalg.errors import QuadratureNoConvergence, SamplerFailure

from test_contour import sampled_ellipse, square_loop, unit_circle


def random_basis_sum(rng, *factors):
    """A direct sum of catalog factors moved by a random change of basis."""
    algebra = factors[0]
    for other in factors[1:]:
        algebra = ha.direct_sum(algebra, other)
    n = algebra.dim
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return ha.build_algebra(transform_tensor(algebra.tensor, U))


def random_polynomial(rng, phi, degree):
    coeffs = [phi.target.random_element(rng, 0.5) for _ in range(degree + 1)]
    return ha.PowerSeries.polynomial(phi, phi.source.random_element(rng, 0.3), coeffs)


@dataclasses.dataclass(frozen=True)
class Counting(ha.FunctionSampler):
    """A sampler that records the number of points of each values call."""

    seen: list = dataclasses.field(default_factory=list)

    def values(self, coords):
        self.seen.append(coords.shape[1])
        return super().values(coords)


def counting(sampler, seen):
    """The same map as a new sampler, recording the points of each values call."""
    return Counting(sampler.fn, sampler.source, sampler.target, seen)


def looped(f, X):
    """The column loop: f called on one point per column of X."""
    return np.column_stack([f(ha.Element(f.source, x)).coords for x in X.T])


# -- FunctionSampler.values ---------------------------------------------------------

def test_polynomial_batch_matches_evaluate_strict(dual, split, t3, cline, sigma_dual):
    rng = np.random.default_rng(5)
    cases = [ha.identity_morphism(random_basis_sum(rng, *f))
             for f in ((dual, split), (t3, cline), (dual, dual, split))]
    cases.append(sigma_dual)
    for phi in cases:
        series = random_polynomial(rng, phi, degree=5)
        sampler = series.sampler()
        X = np.column_stack([phi.source.random_element(rng).coords for _ in range(9)])
        got = sampler.values(X)
        assert sampler._stacked   # Horner's rule took the stack in one call
        want = np.column_stack([series.evaluate_strict(phi.source.element(x)).coords
                                for x in X.T])
        assert got.shape == (phi.target.dim, 9)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_rule_series_and_plain_samplers_loop(dual, id_dual):
    X = np.array([[0.5, 0.3j, 0.1], [0.25, 2.0, -0.3j]])
    # a rule series refuses stacks, so its sampler loops over the columns
    geometric = ha.geometric_series(id_dual).sampler()
    assert np.array_equal(geometric.values(X), looped(geometric, X))
    assert geometric._stacked is False
    # a stacked result of the wrong shape falls back to the loop
    first_only = ha.FunctionSampler(
        lambda Z: Z * Z if Z.coords.ndim == 1 else ha.Element(dual, (Z * Z).coords[:, :1]),
        dual, dual)
    want = np.column_stack([(dual.element(x) * dual.element(x)).coords for x in X.T])
    assert np.array_equal(first_only.values(X), want)
    assert first_only._stacked is False
    # plain arithmetic takes the stack
    square = ha.FunctionSampler(lambda Z: Z * Z, dual, dual)
    assert np.abs(square.values(X) - want).max() <= 1e-15 and square._stacked


def test_a_series_sampler_is_never_checked(dual, id_dual, monkeypatch):
    # the first stacked call of a sampler is checked, a polynomial's against
    # two scalar calls; a series or a canonical form knows the verdict, so
    # none of its samplers pays the check, and the form's never tries a stack
    X = np.array([[0.5, 0.3j, 0.1], [0.25, 2.0, -0.3j]])
    checks, stacked_calls = [], []
    agrees, evaluate = ha.FunctionSampler._agrees, ha.CanonicalForm.evaluate
    monkeypatch.setattr(ha.FunctionSampler, "_agrees",
                        lambda self, out, coords: checks.append(self) or agrees(self, out, coords))
    monkeypatch.setattr(ha.CanonicalForm, "evaluate",
                        lambda self, Z: stacked_calls.append(Z.coords.ndim == 2) or evaluate(self, Z))
    P = ha.PowerSeries.polynomial(id_dual, dual.zero(), [dual.unit(), dual.element([0, 1])])
    form = ha.canonical_form(ha.ScalarSeries(dual, 0.0, coeffs=[dual.zero(), dual.unit()]),
                             id_dual)
    for f in (P, form):
        for _ in range(3):
            assert np.abs(f.sampler().values(X) - looped(f.sampler(), X)).max() <= 1e-15
    assert checks == [] and P.sampler()._stacked
    assert sum(stacked_calls) == 0 and form.sampler()._stacked is False


@pytest.mark.parametrize("make", ["polynomial", "rule series", "canonical form"])
def test_a_series_is_freed_without_the_cyclic_collector(dual, id_dual, make):
    # the sampler holds the series, not the other way round: no reference cycle
    f = {"polynomial": lambda: ha.PowerSeries.polynomial(id_dual, dual.zero(), [dual.unit()]),
         "rule series": lambda: ha.geometric_series(id_dual),
         "canonical form": lambda: ha.canonical_form(
             ha.ScalarSeries(dual, 0.0, coeffs=[dual.zero(), dual.unit()]), id_dual)}[make]()
    sampler = f.sampler()
    sampler.values(np.array([[0.1, 0.2j], [0.3, 0.0]]))
    ref = weakref.ref(f)
    gc.disable()
    try:
        del f
        assert ref() is not None   # the sampler keeps it alive
        del sampler
        assert ref() is None
    finally:
        gc.enable()


def test_batch_failures_become_sampler_failures(dual):
    # a callable that fails at one point fails the stacked attempt and the loop
    def broken(Z):
        if np.any(Z.coords[0] == 0.5):
            raise ValueError("boom")
        return Z
    X = np.array([[0.0, 0.5, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(SamplerFailure, match="boom"):
        ha.FunctionSampler(broken, dual, dual).values(X)
    outside = ha.FunctionSampler(lambda Z: 1.0, dual, dual)
    for T in (1, 3):
        with pytest.raises(SamplerFailure, match="outside the target"):
            outside.values(np.zeros((2, T)))


FACTORS = {"C": ha.complex_line(), "dual": ha.dual_numbers(), "split": ha.split_complex(),
           "t3": ha.truncated_polynomials(3), "bidual": ha.bidual()}
OPS = ("+Z", "-Z", "*Z", "+c", "c-", "*c", "+C", "*C", "**")


@st.composite
def arithmetic(draw):
    """A direct sum (dim 1-10) in a random unitary basis, five points, and a
    callable made of a few steps of ring arithmetic with scalars, constant
    elements and positive powers."""
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=4)
                 .filter(lambda ns: sum(FACTORS[n].dim for n in ns) <= 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    algebra = random_basis_sum(rng, *(FACTORS[n] for n in names))
    steps = draw(st.lists(st.tuples(st.sampled_from(OPS), st.integers(1, 3)),
                          min_size=1, max_size=5))
    c = complex(*rng.standard_normal(2))
    C = algebra.random_element(rng, 0.5)

    def fn(Z):
        acc = Z
        for op, p in steps:
            acc = {"+Z": lambda: acc + Z, "-Z": lambda: Z - acc, "*Z": lambda: acc * Z,
                   "+c": lambda: acc + c, "c-": lambda: c - acc, "*c": lambda: c * acc,
                   "+C": lambda: C + acc, "*C": lambda: C * acc, "**": lambda: acc ** p}[op]()
        return acc

    X = rng.standard_normal((algebra.dim, 5)) + 1j * rng.standard_normal((algebra.dim, 5))
    return ha.FunctionSampler(fn, algebra, algebra), 0.5 * X


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(arithmetic())
def test_stacked_arithmetic_matches_the_column_loop(case):
    f, X = case
    got, want = f.values(X), looped(f, X)
    assert f._stacked
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_a_reducing_callable_gets_the_loops_answer(dual):
    f = ha.FunctionSampler(lambda Z: Z * complex(Z.coords.sum()), dual, dual)
    X = np.array([[0.5, 1j, 2.0], [0.25, 2.0, -1.0]])
    assert np.array_equal(f.values(X), looped(f, X))
    assert f._stacked is False


def test_a_refused_stack_is_attempted_once(dual):
    shapes = []

    def points_only(Z):
        shapes.append(Z.coords.shape)
        if Z.coords.ndim == 2:
            raise TypeError("one point at a time")
        return Z * Z
    f = ha.FunctionSampler(points_only, dual, dual)
    X = np.array([[0.5, 1j, 2.0], [0.25, 2.0, -1.0]])
    first, second = f.values(X), f.values(X)
    assert np.array_equal(first, second)
    assert shapes.count((2, 3)) == 1 and shapes.count((2,)) == 6


def test_recover_structure_samples_every_stencil_in_one_call():
    rng = np.random.default_rng(14)
    algebra = random_basis_sum(rng, *(FACTORS[n] for n in ("bidual", "t3", "dual", "C")))
    assert algebra.dim == 10
    shapes = []
    f = ha.FunctionSampler(lambda Z: shapes.append(Z.coords.shape) or 0.5 * (Z * Z),
                           algebra, algebra)
    points = [algebra.random_element(rng) for _ in range(10)]
    tensor = ha.recover_structure(f, points, points)   # f'(Z) = Z
    # 4n stencil points at each of the n points, then the two check columns
    assert shapes == [(10, 400), (10,), (10,)]
    assert np.abs(tensor.alpha - algebra.alpha).max() < 1e-8


# -- finite differences ---------------------------------------------------------------

def loop_partials(f, Z, h):
    """The scalar-loop stencil: one sampler call per stencil point."""
    n, src = f.source.dim, f.source
    d_re = np.empty((f.target.dim, n), dtype=complex)
    d_im = np.empty((f.target.dim, n), dtype=complex)
    for j in range(n):
        step = np.zeros(n, dtype=complex)
        step[j] = h
        d_re[:, j] = (f(src.element(Z.coords + step)).coords
                      - f(src.element(Z.coords - step)).coords) / (2 * h)
        step[j] = 1j * h
        d_im[:, j] = (f(src.element(Z.coords + step)).coords
                      - f(src.element(Z.coords - step)).coords) / (2j * h)
    return (d_re + d_im) / 2, float(np.abs(d_re - d_im).max())


def test_batched_partials_match_the_scalar_loop(dual, cubic):
    Z = dual.element([0.3 - 0.2j, 0.4])
    h = 1e-4
    conj = ha.conjugation_sampler(dual)
    D, mismatch = ha.partial_derivatives(conj, Z, h)
    D_ref, mismatch_ref = loop_partials(conj, Z, h)
    assert np.array_equal(D, D_ref) and mismatch == mismatch_ref
    assert abs(mismatch - 2.0) < 1e-9

    D, mismatch = ha.partial_derivatives(cubic.sampler(), Z, h)
    D_ref, mismatch_ref = loop_partials(cubic.sampler(), Z, h)
    # Horner and the power sum round differently; the stencil divides by 2h
    assert np.abs(D - D_ref).max() < 1e-9 and abs(mismatch - mismatch_ref) < 1e-9

    seen = []
    ha.partial_derivatives(counting(cubic.sampler(), seen), Z, h)
    assert seen == [4 * dual.dim]


def test_jacobian_consistency_of_conjugation(dual):
    # real steps give I and imaginary steps -I, so the defect is ||2 I||_F / 2
    conj = ha.conjugation_sampler(dual)
    assert abs(ha.jacobian_consistency(conj, dual.element([0.3, 0.4]), h=1e-4)
               - math.sqrt(2)) < 1e-9


# -- integrator -------------------------------------------------------------------------

def test_plain_callable_matches_the_batched_sampler(dual, id_dual, cubic):
    Z0 = dual.element([0.3, 0.2])
    for path in (unit_circle(dual), square_loop(dual)):
        for fn in (lambda f: ha.cif_value(f, path, Z0, id_dual),
                   lambda f: ha.cif_derivative(f, path, Z0, 2, id_dual),
                   lambda f: ha.integrate(f, path, id_dual)):
            batched = fn(cubic.sampler())
            looped = fn(cubic.evaluate_strict)
            assert np.abs(batched.coords - looped.coords).max() < 1e-12


# Nodes at which the integrand is evaluated, per integral, for
# Z0 = 0.3 + 0.2 eps.  A line panel takes the 21 nodes of G10/K21: on the
# square the cubic passes on one panel a side, the Cauchy integrands on three
# (seven on one side for the second derivative), and on the 128-gon every
# integrand passes on one panel a segment.  The circle row counts the
# trapezoid levels 32 + 32, the least a circle takes.
EXPECTED_NODES = {
    "circle": {"index": 64, "cif": 64, "derivative": 64, "integrate": 64},
    "square": {"index": 252, "cif": 252, "derivative": 336, "integrate": 84},
    "ellipse": {"index": 2688, "cif": 2688, "derivative": 2688, "integrate": 2688},
}


def monomial_errors(nodes, weights, degrees):
    """|rule - exact| for x^k on [-1, 1], k in degrees."""
    return np.array([abs(weights @ nodes ** k - (2 / (k + 1) if k % 2 == 0 else 0))
                     for k in degrees])


def test_kronrod_constants_are_exact_to_their_degrees():
    # written out to keep numpy.polynomial out of the import; K21 integrates
    # polynomials of degree 3 * 10 + 1 exactly, its embedded G10 degree 2 * 10 - 1
    nodes, k21, g10 = contour._GK_NODES, contour._K_WEIGHTS, contour._G_WEIGHTS
    assert np.array_equal(nodes, -nodes[::-1]) and np.all(np.diff(nodes) > 0)
    assert monomial_errors(nodes, k21, range(32)).max() < 1e-15
    assert monomial_errors(nodes[1::2], g10, range(20)).max() < 1e-15
    # one degree past each, the rules are no longer exact
    assert monomial_errors(nodes, k21, [32])[0] > 1e-12
    assert monomial_errors(nodes[1::2], g10, [20])[0] > 1e-12
    gauss, weights = np.polynomial.legendre.leggauss(10)
    assert np.abs(nodes[1::2] - gauss).max() <= 1e-15
    assert np.abs(g10 - weights).max() <= 1e-15


def test_node_counts_unchanged(dual, id_dual, cubic, monkeypatch):
    Z0 = dual.element([0.3, 0.2])
    kernel_nodes = []
    batch_inv = contour._batch_inv
    monkeypatch.setattr(contour, "_batch_inv",
                        lambda A, w: kernel_nodes.append(w.shape[1]) or batch_inv(A, w))
    paths = {"circle": unit_circle(dual), "square": square_loop(dual),
             "ellipse": sampled_ellipse(dual)}
    for name, path in paths.items():
        counts = {}
        for kind, fn in (("index", lambda f: ha.index_quadrature(path, Z0, id_dual)),
                         ("cif", lambda f: ha.cif_value(f, path, Z0, id_dual,
                                                        spot_check=False)),
                         ("derivative", lambda f: ha.cif_derivative(f, path, Z0, 2, id_dual,
                                                                    spot_check=False)),
                         ("integrate", lambda f: ha.integrate(f, path, id_dual))):
            seen = []
            kernel_nodes.clear()
            fn(counting(cubic.sampler(), seen))
            counts[kind] = sum(seen) if kind != "index" else sum(kernel_nodes)
        assert counts == EXPECTED_NODES[name], name


def test_node_counts_near_the_curve_unchanged(dual, id_dual, monkeypatch):
    # equispaced nodes cannot refine locally: a kernel peaked near the circle
    # doubles the whole circle's nodes until the peak is resolved
    kernel_nodes = []
    batch_inv = contour._batch_inv
    monkeypatch.setattr(contour, "_batch_inv",
                        lambda A, w: kernel_nodes.append(w.shape[1]) or batch_inv(A, w))
    for tol, expected in ((1e-10, 2048), (1e-6, 2048)):
        kernel_nodes.clear()
        ha.index_quadrature(unit_circle(dual), dual.element([0.97, 0.1]), id_dual, tol=tol)
        assert sum(kernel_nodes) == expected


def test_cycle_integral_is_one_pass(dual, id_dual, cubic):
    seen = []
    f = counting(cubic.sampler(), seen)
    cycle = ha.Cycle(((1, unit_circle(dual)), (-1, square_loop(dual))))
    whole = ha.integrate_cycle(f, cycle, id_dual)
    cycle_calls = len(seen)
    parts = ha.integrate(f, unit_circle(dual), id_dual) - ha.integrate(
        f, square_loop(dual), id_dual)
    assert np.abs((whole - parts).coords).max() < 1e-12
    # one sampler call per refinement level, for both paths together
    assert cycle_calls < len(seen) - cycle_calls


def test_homological_check_is_one_quadrature(dual, id_dual, cubic, monkeypatch):
    # the CIF and the plain integral are kernel powers 1 and 0 of one pass
    calls = []
    quadrature = contour._quadrature
    monkeypatch.setattr(contour, "_quadrature", lambda *a: calls.append(a) or quadrature(*a))
    cycle = ha.Cycle(((1, unit_circle(dual)), (-1, ha.Path.circle(dual.element([0, 1.0]), 1.0))))
    ha.homological_cif_check(cubic.sampler(), cycle, dual.element([0, 5.0]), id_dual)
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["dual", "t3", "random-basis-dual+split"])
def test_one_pass_homological_check_matches_two_passes(dual, split, t3, case):
    rng = np.random.default_rng(11)
    A = {"dual": dual, "t3": t3,
         "random-basis-dual+split": random_basis_sum(rng, dual, split)}[case]
    phi = ha.identity_morphism(A)
    cycle = ha.Cycle(((1, unit_circle(A)), (2, square_loop(A))))
    Z0 = A.scalar(0.2 + 0.1j) + A.random_element(rng, 0.05)
    # a holomorphic f, and conjugation, whose residual and plain integral are O(1)
    for f in (random_polynomial(rng, phi, degree=4).sampler(), ha.conjugation_sampler(A)):
        report = ha.homological_cif_check(f, cycle, Z0, phi)
        cif = ha.cif_value(f, cycle, Z0, phi, spot_check=False)
        residual = (f(Z0) * report.index.element - cif).norm("frobenius")
        assert abs(report.cif_residual - residual) <= 1e-10
        plain = ha.integrate_cycle(f, cycle, phi).norm("frobenius")
        assert abs(report.integral_norm - plain) <= 1e-10
    assert report.cif_residual > 0.1 and report.integral_norm > 1   # conjugation's


def test_plain_integrals_need_no_decomposition(dual, id_dual, cubic, monkeypatch):
    # kernel power 0 is f itself: no inverse, so no unit test and no decomposition
    monkeypatch.setattr(contour, "artin_decompose",
                        lambda *a: pytest.fail("decomposed for a plain integral"))
    f = cubic.sampler()
    ha.integrate(f, ha.Path.polyline([dual.zero(), dual.unit()]), id_dual)
    ha.integrate_cycle(f, ha.Cycle(((1, unit_circle(dual)), (-1, square_loop(dual)))), id_dual)
    assert ha.goursat_residual(f, (dual.zero(), dual.unit(), dual.scalar(1j)), id_dual) < 1e-9


def test_panel_budget_names_the_segment(dual, id_dual, monkeypatch):
    # the jump at t = 0.3 keeps one panel unconverged per level: segment 1
    # takes 1 panel at depth 0 and 2 at each depth after, 11 by depth 5
    monkeypatch.setattr(contour, "QUAD_MAX_PANELS", 10)
    f = ha.FunctionSampler(lambda Z: dual.unit() if Z.coords[0].real > 0.30000001
                           else dual.zero(), dual, dual)
    path = ha.Path.polyline([dual.scalar(-1.0), dual.zero(), dual.unit()])
    with pytest.raises(QuadratureNoConvergence,
                       match=r"panel budget 10 of a segment exhausted at depth 5, "
                             r"unconverged at path 0 segment 1, t in \[0\.25, 0\.3125\]"):
        ha.integrate(f, path, id_dual, tol=1e-13)


def test_depth_exhaustion_names_the_worst_panel(dual, id_dual, monkeypatch):
    # jumps at t = 0.4 of segment 0 (height 0.01) and t = 0.3 of segment 1
    # (height 1): the larger one is named, with its panel at depth 3
    monkeypatch.setattr(contour, "QUAD_MAX_DEPTH", 3)
    f = ha.FunctionSampler(lambda Z: dual.unit() * ((Z.coords[0].real > 0.30000001)
                                                    + 0.01 * (Z.coords[0].real > -0.6)),
                           dual, dual)
    path = ha.Path.polyline([dual.scalar(-1.0), dual.zero(), dual.unit()])
    with pytest.raises(QuadratureNoConvergence,
                       match=r"refinement exhausted depth 3 at "
                             r"path 0 segment 1, t in \[0\.25, 0\.375\]$"):
        ha.integrate(f, path, id_dual, tol=1e-13)


def test_panel_budget_is_per_segment(dual, id_dual, cubic, monkeypatch):
    # 128 segments of three panels each fit a budget of three panels a segment
    monkeypatch.setattr(contour, "QUAD_MAX_PANELS", 3)
    value = ha.integrate(cubic.sampler(), sampled_ellipse(dual), id_dual)
    assert value.coord_norm() < 1e-10


def test_large_levels_are_evaluated_in_blocks(dual, id_dual, cubic, monkeypatch):
    seen = []
    f = counting(cubic.sampler(), seen)
    whole = ha.integrate(f, sampled_ellipse(dual), id_dual)
    calls = len(seen)
    monkeypatch.setattr(contour, "QUAD_BLOCK_ENTRIES", 16 * 4 * 8)   # 128 nodes per call
    seen.clear()
    blocked = ha.integrate(f, sampled_ellipse(dual), id_dual)
    assert np.abs((whole - blocked).coords).max() < 1e-13
    # blocks hold whole panels: 6 of 21 nodes
    assert max(seen) == 6 * 21 and len(seen) > calls


def test_a_block_takes_the_last_panels_and_the_first_circle_runs(dual, id_dual, cubic,
                                                                  monkeypatch):
    # 100 nodes a call: the square's 4 panels (84 nodes) and one run of 16 of
    # the circle's 64 share the first call, and the other three runs the next
    cycle = ha.Cycle(((1, unit_circle(dual)), (-1, square_loop(dual))))
    seen = []
    f = counting(cubic.sampler(), seen)
    whole = ha.integrate_cycle(f, cycle, id_dual)
    monkeypatch.setattr(contour, "QUAD_BLOCK_ENTRIES", 4 * 100)
    seen.clear()
    blocked = ha.integrate_cycle(f, cycle, id_dual)
    assert np.abs((whole - blocked).coords).max() < 1e-13
    assert seen[:2] == [100, 48] and max(seen) <= 100


# -- the periodic trapezoid rule on circles -------------------------------------------------

POLY = np.polynomial.Polynomial([1.0, -2.0, 0.5j, 1.0])


def poly_derivative(j, s):
    return POLY.deriv(j)(s)


def geometric_derivative(j, s):
    return math.factorial(j) / (1 - s) ** (j + 1)


def dual_derivative(derivative, Z, k):
    """f^(k)(s + b eps) = f^(k)(s) + b f^(k+1)(s) eps for f with scalar coefficients."""
    s, b = Z.coords
    return np.array([derivative(k, s), b * derivative(k + 1, s)])


def circle_cases(dual):
    """(path, turns, direction) about the center 0.1 + 0.05 eps with radius 0.5."""
    center, skew = dual.element([0.1, 0.05]), dual.element([0.8 - 0.3j, 0.4])
    return [(ha.Path.circle(center, 0.5), 1, dual.unit()),
            (ha.Path.circle(center, 0.5, turns=2), 2, dual.unit()),
            (ha.Path.circle(center, 0.5).reversed(), -1, dual.unit()),
            (ha.Path.circle(center, 0.5, direction=skew), 1, skew)]


def points_around(dual, direction, ratios=(0, 0.4, 0.9, 0.97)):
    """(Z0, inside, orders): |s0 - 0.1| / R = q inside and 2 - q outside, so the
    clearance is (1 - q) R.  Order 3 is left out near the curve, where rounding
    in its kernel, of size clearance^-5 on dual numbers, passes 1e-10."""
    R = 0.5 * abs(direction.coords[0])
    for q in ratios:
        for inside in (True, False):
            rho = q if inside else 2 - q
            Z0 = dual.element([0.1 + rho * R * np.exp(0.7j), 0.3 - 0.1j])
            yield Z0, inside, (0, 1, 3) if q <= 0.4 else (0, 1)


def assert_close(got, exact, tol=1e-10):
    gap = np.abs(got.coords - exact).max()
    assert gap < tol * max(1.0, np.abs(exact).max()), gap


def test_circle_rule_matches_closed_forms(dual, id_dual):
    poly = ha.PowerSeries.polynomial(id_dual, dual.zero(),
                                     [dual.scalar(c) for c in POLY.coef]).sampler()
    for path, turns, direction in circle_cases(dual):
        for Z0, inside, orders in points_around(dual, direction):
            wind = turns if inside else 0
            assert_close(ha.index_quadrature(path, Z0, id_dual), [wind, 0])
            for k in orders:
                assert_close(ha.cif_derivative(poly, path, Z0, k, id_dual, spot_check=False),
                             wind * dual_derivative(poly_derivative, Z0, k))
    # a rule series loops over the nodes: fewer of them, inside its radius 1
    geometric = ha.geometric_series(id_dual).sampler()
    for path, turns, direction in circle_cases(dual)[::2]:
        for Z0, inside, orders in points_around(dual, direction, (0, 0.4)):
            for k in orders:
                exact = dual_derivative(geometric_derivative, Z0, k)
                assert_close(ha.cif_derivative(geometric, path, Z0, k, id_dual, spot_check=False),
                             (turns if inside else 0) * exact)


def test_circle_integrals_match_closed_forms(dual, id_dual, cubic):
    conj = ha.conjugation_sampler(dual)
    for path, turns, direction in circle_cases(dual):
        assert_close(ha.integrate(cubic.sampler(), path, id_dual), [0, 0])
        # conj(W) dW = 2 pi i turns r^2 conj(d) d dt, and the center term averages out
        conj_d = dual.element(np.conj(direction.coords))
        assert_close(ha.integrate(conj, path, id_dual),
                     (2j * np.pi * turns * 0.25 * conj_d * direction).coords)


def test_circle_rule_through_a_pushforward(dual, cline, sigma_dual):
    # sigma(center + r e d) is the circle about 0.1 of radius 0.5 |sigma(d)| in C
    poly = ha.PowerSeries.polynomial(sigma_dual, dual.zero(),
                                     [cline.scalar(c) for c in POLY.coef]).sampler()
    geometric = ha.geometric_series(sigma_dual).sampler()
    for path, turns, direction in circle_cases(dual)[::3]:
        assert_close(ha.integrate(poly, path, sigma_dual), [0])
        for Z0, inside, orders in points_around(dual, direction):
            wind = turns if inside else 0
            s0 = Z0.coords[0]
            assert_close(ha.index_quadrature(path, Z0, sigma_dual), [wind])
            for k in orders:
                assert_close(ha.cif_derivative(poly, path, Z0, k, sigma_dual, spot_check=False),
                             [wind * poly_derivative(k, s0)])
        for Z0, inside, _ in points_around(dual, direction, (0, 0.4)):
            assert_close(ha.cif_value(geometric, path, Z0, sigma_dual, spot_check=False),
                         [(turns if inside else 0) * geometric_derivative(0, Z0.coords[0])])


def test_circle_node_budget_names_the_segment(dual, id_dual, monkeypatch):
    # a jump on the circle never converges: 64 + 64 nodes fill a budget of 128
    monkeypatch.setattr(contour, "QUAD_MAX_PANELS", 8)
    seen = []
    f = counting(ha.FunctionSampler(lambda Z: dual.unit() if Z.coords[0].real > 0.3
                                    else dual.zero(), dual, dual), seen)
    with pytest.raises(QuadratureNoConvergence,
                       match=r"node budget 128 of a circle exhausted at depth 1, "
                             r"unconverged at path 0 segment 0 after 128 nodes"):
        ha.integrate(f, unit_circle(dual), id_dual)
    assert seen == [64, 64]
    monkeypatch.setattr(contour, "QUAD_MAX_DEPTH", 0)
    with pytest.raises(QuadratureNoConvergence, match=r"refinement exhausted depth 0 at "
                                                      r"path 0 segment 0 after 64 nodes"):
        ha.integrate(f, unit_circle(dual), id_dual)


def test_many_turn_circles_sample_one_turn(dual, id_dual, monkeypatch):
    # the integrand has period 1 / |turns| in t: over all of [0, 1], every
    # node of T_32 on a 32-turn circle would sit at gamma(0)
    kernel_nodes = []
    batch_inv = contour._batch_inv
    monkeypatch.setattr(contour, "_batch_inv",
                        lambda A, w: kernel_nodes.append(w.shape[1]) or batch_inv(A, w))
    poly = ha.PowerSeries.polynomial(id_dual, dual.zero(),
                                     [dual.scalar(c) for c in POLY.coef]).sampler()
    center, Z0 = dual.element([0.1, 0.05]), dual.element([0.35, 0.3])   # halfway out
    nodes = set()
    for turns in (1, 2, 32, -32, 64):
        path = ha.Path.circle(center, 0.5, turns=turns)
        kernel_nodes.clear()
        assert_close(ha.index_quadrature(path, Z0, id_dual), [turns, 0])
        nodes.add(sum(kernel_nodes))
        assert_close(ha.cif_value(poly, path, Z0, id_dual, spot_check=False),
                     turns * dual_derivative(poly_derivative, Z0, 0))
    assert len(nodes) == 1   # as many nodes as one turn takes
    assert_close(ha.index_quadrature(ha.Path.circle(center, 0.5, turns=0), Z0, id_dual), [0, 0])


def lone_mode(dual, id_dual, degree):
    """1 + Z^degree: about 0 on the unit circle the Cauchy integrand is
    2 pi i (1 + e^(i degree theta)), whose only modes are 0 and degree."""
    coeffs = [dual.scalar(1.0)] + [dual.zero()] * (degree - 1) + [dual.scalar(1.0)]
    return ha.PowerSeries.polynomial(id_dual, dual.zero(), coeffs).sampler()


def test_circle_rule_sees_a_lone_mode_at_32(dual, id_dual):
    # T_16 = T_32 = 2 here, and T_64 = T_128 = 1: the rule starts at T_32
    value = ha.cif_value(lone_mode(dual, id_dual, 32), unit_circle(dual), dual.zero(), id_dual,
                         spot_check=False)
    assert_close(value, [1, 0])


@pytest.mark.xfail(strict=True, reason="T_32 = T_64 = 2 when every mode of the integrand "
                                       "is a multiple of 64; the rule stops on 2")
def test_circle_rule_misses_a_lone_mode_at_64(dual, id_dual):
    value = ha.cif_value(lone_mode(dual, id_dual, 64), unit_circle(dual), dual.zero(), id_dual,
                         spot_check=False)
    assert_close(value, [1, 0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_sample_ends_the_call_at_its_first_level(dual, id_dual, monkeypatch, value):
    # f is non-finite at W = -1 only, t = 0.5 on the second path's circle: the
    # first sample names that node, before any kernel arithmetic
    calls = []
    quadrature = contour._quadrature
    monkeypatch.setattr(contour, "_quadrature", lambda terms, phi, integrand, *rest: quadrature(
        terms, phi, lambda *a: calls.append(1) or integrand(*a), *rest))
    f = ha.FunctionSampler(lambda Z: ha.Element(dual, np.where(
        np.abs(Z.coords[0] + 1) < 1e-9, value, Z.coords)), dual, dual)
    cycle = ha.Cycle(((1, ha.Path.circle(dual.zero(), 0.5)), (1, unit_circle(dual))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: ha.cif_value(f, cycle, dual.element([0.2, 0.1]), id_dual),
                     lambda: ha.integrate_cycle(f, cycle, id_dual)):
            calls.clear()
            with pytest.raises(SamplerFailure, match=r"non-finite value at path 1 segment 0, "
                                                     r"t = 0\.5$"):
                call()
            assert calls == [1], (call, calls)


def test_large_circle_levels_are_evaluated_in_blocks(dual, id_dual, cubic, monkeypatch):
    Z0 = dual.element([0.97, 0.1])   # one level of 2,048 nodes
    seen = []
    f = counting(cubic.sampler(), seen)
    whole = ha.cif_value(f, unit_circle(dual), Z0, id_dual, spot_check=False)
    calls = len(seen)
    monkeypatch.setattr(contour, "QUAD_BLOCK_ENTRIES", 16 * 4 * 8)   # 128 nodes per call
    seen.clear()
    blocked = ha.cif_value(f, unit_circle(dual), Z0, id_dual, spot_check=False)
    assert np.abs((whole - blocked).coords).max() < 1e-13
    assert max(seen) == 128 and len(seen) > calls


# -- the planned first level of the circle rule ---------------------------------------------

PLAN_ALGEBRAS = {"dual": ha.dual_numbers(), "t3": ha.truncated_polynomials(3),
                 "random-basis-dual+split": random_basis_sum(np.random.default_rng(7),
                                                             ha.dual_numbers(), ha.split_complex())}


@st.composite
def planned_circles(draw):
    """A circle of random center, radius and direction; a point whose
    component l lies at distance ratio q_l in [0.05, 0.98] inside or outside
    the projected circle; a kernel power 1-4; f a polynomial or None; and a
    tolerance scaled by the integrand's size, so that rounding stays far
    below it."""
    algebra = PLAN_ALGEBRAS[draw(st.sampled_from(sorted(PLAN_ALGEBRAS)))]
    dec = ha.artin_decompose(algebra)
    L = dec.count
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idempotents = np.column_stack([e.coords for e in dec.idempotents])

    def element(spectrum):   # the given spectral values and a small nilpotent part
        nil = dec.nilradical_basis @ rng.uniform(-0.1, 0.1, dec.nilradical_basis.shape[1])
        return algebra.element(idempotents @ spectrum + nil)

    def phases():
        return np.exp(2j * np.pi * rng.random(L))

    center = element(rng.uniform(-1, 1, L) * phases())
    direction = element(rng.uniform(0.5, 1.5, L) * phases())
    radius = rng.uniform(0.5, 2.0)
    q = np.array(draw(st.lists(st.floats(0.05, 0.98), min_size=L, max_size=L)))
    rho = np.where(draw(st.lists(st.booleans(), min_size=L, max_size=L)), q, 1 / q)
    projected = radius * np.abs(dec.spectral_rows @ direction.coords)
    Z0 = element(dec.spectral_rows @ center.coords + rho * projected * phases())
    phi = ha.identity_morphism(algebra)
    path = ha.Path.circle(center, radius, direction=direction)
    power = draw(st.integers(1, 4))
    f = random_polynomial(rng, phi, draw(st.integers(0, 3))).sampler() \
        if draw(st.booleans()) else None
    on_path = path.segments[0].points(np.linspace(0, 1, 64))
    size = 1.0 if f is None else np.abs(f.values(on_path)).max()
    clearance = (projected * np.abs(1 - rho)).min()
    order = power + max(ha.profile(algebra, dec).heights) - 1
    return path, Z0, phi, power, f, 1e-10 * max(1.0, size) * max(1.0, clearance ** -order)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(planned_circles())
def test_the_planned_first_level_agrees_with_doubling_from_32(case):
    path, Z0, phi, power, f, tol = case
    terms, nodes = ((1, path),), []
    quadrature = contour._quadrature

    def counted(terms, phi, integrand, *rest):
        return quadrature(terms, phi, lambda pts, *a: nodes.append(pts.shape[1])
                          or integrand(pts, *a), *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contour, "_quadrature", counted)
        planned = contour._cauchy_kernel_integral(terms, Z0, phi, (power,), f, tol)
        planned_nodes = sum(nodes)
        nodes.clear()
        mp.setattr(contour, "_circle_start", lambda *a: 32)   # the reference doubles from T_32
        reference = contour._cauchy_kernel_integral(terms, Z0, phi, (power,), f, tol)
        reference_nodes = sum(nodes)   # 2 N, N the accepted rule's
    assert np.abs(planned - reference).max() <= 2 * tol
    assert planned_nodes <= 2 * reference_nodes
    if contour._circle_start(terms, Z0, phi, power, tol) <= reference_nodes // 2:
        assert planned_nodes == reference_nodes


@pytest.mark.parametrize("case", ["dual", "t3", "bidual", "random-basis-dual+split", "sigma"])
def test_a_cif_workload_shape_is_one_integrand_call(dual, t3, split, sigma_dual, monkeypatch,
                                                    case):
    # as in the benchmark's cif workload: the unit circle about a center of
    # spectral size 0.3, |sigma_l(Z0 - c)| = 0.4, nilpotent parts of size 0.3
    # and 0.4, f of degree 6 with coordinates of size 0.5, orders up to 3,
    # Taylor K = 6 at the center and the homological pair: one level each,
    # with one sample of f
    rng = np.random.default_rng(3)
    phi = sigma_dual if case == "sigma" else ha.identity_morphism(
        {"dual": dual, "t3": t3, "bidual": ha.bidual(),
         "random-basis-dual+split": random_basis_sum(rng, dual, split)}[case])
    A, B = phi.source, phi.target
    dec = ha.artin_decompose(A)

    def point(size):
        phases = np.exp(2j * np.pi * rng.random(dec.count + dec.nilradical_basis.shape[1]))
        return A.element(size * (np.column_stack([e.coords for e in dec.idempotents])
                                 @ phases[:dec.count] + dec.nilradical_basis @ phases[dec.count:]))

    center = point(0.3)
    Z0 = center + point(0.4)
    offset = A.element(dec.nilradical_basis @ rng.random(dec.nilradical_basis.shape[1]))
    f = ha.PowerSeries.polynomial(phi, A.zero(), [
        B.element(0.5 * np.exp(2j * np.pi * rng.random(B.dim))) for _ in range(7)]).sampler()
    circle = ha.Path.circle(center, 1.0)
    pair = ha.Cycle(((1, circle), (-1, ha.Path.circle(center + offset, 1.0))))
    calls = []
    quadrature = contour._quadrature
    monkeypatch.setattr(contour, "_quadrature", lambda terms, phi, integrand, *rest: quadrature(
        terms, phi, lambda *a: calls.append(1) or integrand(*a), *rest))
    for call in [lambda: ha.cif_value(f, circle, Z0, phi),
                 *(lambda k=k: ha.cif_derivative(f, circle, Z0, k, phi) for k in (1, 2, 3)),
                 lambda: ha.taylor_from_contour(f, circle, center, 6, phi),
                 lambda: ha.homological_cif_check(f, pair, Z0, phi)]:
        calls.clear()
        call()
        assert calls == [1]


# -- Taylor recovery ------------------------------------------------------------------------

def test_one_pass_taylor_matches_cif_derivatives(dual, id_dual, cubic):
    Z0 = dual.element([0.3, 0.2])
    for cycle in (ha.Path.circle(Z0, 1.0), unit_circle(dual, turns=2)):
        K = 5
        series = ha.taylor_from_contour(cubic.sampler(), cycle, Z0, K, id_dual)
        inv_idx = ha.index_spectral(cycle, Z0, id_dual).element.invert()
        for k in range(K + 1):
            ref = ha.cif_derivative(cubic.sampler(), cycle, Z0, k, id_dual) * inv_idx
            gap = (series.coefficient(k) - ref * (1.0 / math.factorial(k))).coord_norm()
            assert gap < 1e-10, (k, gap)


def test_taylor_samples_f_once_per_level(dual, id_dual, cubic):
    Z0 = dual.element([0.3, 0.2])
    seen = []
    ha.taylor_from_contour(counting(cubic.sampler(), seen), ha.Path.circle(Z0, 1.0), Z0, 6,
                           id_dual)
    # Z0 is the center, so the rule starts from T_32: its first level, 64
    # nodes and the three spot-check stencils in one call, converges; then
    # the 257-point bound check
    assert seen == [64 + 3 * 4 * dual.dim, 257]
