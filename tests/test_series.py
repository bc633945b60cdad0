import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoalg as ha
from holoalg.errors import (
    EstimateViolated,
    NoConvergence,
    NotNilpotent,
    OutsideScalarDomain,
)
from holoalg import series as series_module
from holoalg.algebra import _batch_norm
from holoalg.series import BoundaryIndeterminate, Divergent

from conftest import assert_coords
from test_batched import random_basis_sum
from test_node_kernels import FACTORS


def exp_scalar_series(algebra, bound=200):
    rule = lambda j: math.exp(-math.lgamma(j + 1)) * algebra.unit()
    return ha.ScalarSeries(algebra, 0.0, rule=rule, rule_bound=bound)


# -- radii ---------------------------------------------------------------------

def test_geometric_radius_is_one(id_dual):
    geo = ha.geometric_series(id_dual)
    assert abs(geo.radius() - 1.0) < 0.01


def test_polynomial_radius_infinite(cubic):
    assert math.isinf(cubic.radius())
    assert math.isinf(cubic.spectral_divergence_radius())


def test_component_radii_two_blocks(cc):
    phi = ha.identity_morphism(cc)
    s = ha.PowerSeries.from_rule(phi, cc.zero(),
                                 lambda n: cc.element([2.0 ** -n, 3.0 ** -n]))
    assert abs(s.radius() - 2.0) <= 0.1  # min of the individual radii, within 5%
    assert sorted(np.round(s.component_radii(), 6)) == [2.0, 3.0]


def test_radius_norm_independence(id_dual, cc):
    # radius() itself asserts the 5% two-norm agreement; exercise several rules
    ha.geometric_series(id_dual).radius()
    phi = ha.identity_morphism(cc)
    ha.PowerSeries.from_rule(phi, cc.zero(),
                             lambda n: cc.element([2.0 ** -n, 3.0 ** -n])).radius()
    dual = id_dual.source
    alt = ha.PowerSeries.from_rule(id_dual, dual.zero(),
                                   lambda n: ((-0.5) ** n) * dual.element([1, 1]))
    assert abs(alt.radius() - 2.0) < 0.1


def test_radius_disagreement_is_typed(id_dual, monkeypatch):
    monkeypatch.setattr(ha.PowerSeries, "_radius_estimate",
                        lambda self, kind: 1.0 if kind == "frobenius" else 2.0)
    with pytest.raises(EstimateViolated, match="disagree beyond 5%"):
        ha.geometric_series(id_dual).radius()


def test_spectral_divergence_radius_dominates(id_dual):
    dual = id_dual.source
    # coefficients 2^-n + (unit-norm nilpotent part): R governed by the full norm,
    # D^sp only by the eigenvalue part
    s = ha.PowerSeries.from_rule(id_dual, dual.zero(),
                                 lambda n: dual.element([2.0 ** -n, 1.0]))
    assert s.spectral_divergence_radius() >= s._radius_estimate("frobenius") - 1e-9


# -- evaluation ------------------------------------------------------------------

def test_geometric_at_half_unit(id_dual):
    geo = ha.geometric_series(id_dual)
    value = geo.evaluate(id_dual.source.scalar(0.5))
    assert_coords(value, [2, 0], tol=1e-10)


def test_geometric_with_large_nilpotent_part(dual, id_dual):
    geo = ha.geometric_series(id_dual)
    Z = dual.element([0.5, 10.0])
    value = geo.evaluate(Z)
    oracle = (dual.unit() - Z).invert()
    assert (value - oracle).coord_norm() < 1e-10


def test_geometric_divergent_and_boundary(dual, id_dual):
    geo = ha.geometric_series(id_dual)
    assert geo.evaluate(dual.scalar(2.0)) is Divergent
    assert geo.evaluate(dual.scalar(1.0)) is BoundaryIndeterminate


def test_verdict_ignores_nilpotent_part(dual, id_dual):
    geo = ha.geometric_series(id_dual)
    for z, expected in ((0.5, ha.Element), (2.0, Divergent)):
        small = geo.evaluate(dual.element([z, 0.001]))
        large = geo.evaluate(dual.element([z, 1e6]))
        if expected is Divergent:
            assert small is Divergent and large is Divergent
        else:
            assert isinstance(small, ha.Element) and isinstance(large, ha.Element)


# -- term-wise derivative -----------------------------------------------------------

def test_derive_cubic_closed_form(dual, cubic):
    d = cubic.derive()
    assert_coords(d.coefficient(0), [0, 0], tol=0)
    assert_coords(d.coefficient(1), [-2, 2], tol=0)
    assert_coords(d.coefficient(2), [3, 6], tol=0)
    # matches the closed-form derivative at a point
    Z = dual.element([0.4, -0.3])
    expected = dual.element([3, 6]) * Z * Z + dual.element([-2, 2]) * Z
    assert (d(Z) - expected).coord_norm() < 1e-12


def test_derive_constant_is_zero(dual, id_dual):
    const = ha.PowerSeries.polynomial(id_dual, dual.zero(), [dual.element([5, 5])])
    d = const.derive()
    assert d.degree == 0
    assert_coords(d.coefficient(0), [0, 0], tol=0)


def test_derive_geometric_radius_preserved(id_dual):
    geo = ha.geometric_series(id_dual)
    d = geo.derive()
    assert_coords(d.coefficient(3), 4 * np.array([1, 0]), tol=0)
    assert abs(d.radius() - geo.radius()) <= 0.05 * geo.radius()


# -- canonical forms -------------------------------------------------------------------

def test_canonical_exp_over_dual(dual, id_dual):
    cf = ha.canonical_form(exp_scalar_series(dual), id_dual)
    assert cf.heights == (2,)
    for z in np.linspace(-1.0, 1.0, 10):
        for w in np.linspace(-5.0, 5.0, 10):
            got = cf.evaluate(dual.element([z, w]))
            assert_coords(got, [math.exp(z), math.exp(z) * w], tol=1e-10)


def test_canonical_form_passes_gcru(dual, id_dual):
    cf = ha.canonical_form(exp_scalar_series(dual), id_dual)
    f = cf.sampler()
    rng = np.random.default_rng(8)
    for _ in range(5):
        Z = dual.element([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
                          rng.uniform(-2, 2)])
        assert ha.gcru_residual(f, id_dual, Z, h=1e-4) < 1e-6


def test_canonical_identity(dual, id_dual):
    g = ha.ScalarSeries(dual, 0.0, coeffs=[dual.zero(), dual.unit()])
    cf = ha.canonical_form(g, id_dual)
    rng = np.random.default_rng(10)
    for _ in range(10):
        Z = dual.random_element(rng)
        assert (cf.evaluate(Z) - Z).coord_norm() < 1e-12


def test_canonical_square_over_t3(t3):
    phi = ha.identity_morphism(t3)
    g = ha.ScalarSeries(t3, 0.0, coeffs=[t3.zero(), t3.zero(), t3.unit()])
    cf = ha.canonical_form(g, phi)
    assert cf.heights == (3,)
    z, x1, x2 = 0.7 - 0.2j, 1.5, -2.0
    got = cf.evaluate(t3.element([z, x1, x2]))
    # (z + x1 t + x2 t^2)^2 = z^2 + 2 z x1 t + (2 z x2 + x1^2) t^2
    assert_coords(got, [z * z, 2 * z * x1, 2 * z * x2 + x1 * x1], tol=1e-10)


def test_canonical_form_of_a_non_local_pair(cc):
    # canonical_form factors phi itself, so a direct sum works componentwise
    g = ha.ScalarSeries(cc, 0.0, coeffs=[cc.unit()])
    cf = ha.canonical_form(g, ha.identity_morphism(cc))
    assert (cf.evaluate(cc.element([2.0, 3.0])) - cc.unit()).coord_norm() < 1e-12


def test_canonical_exp_over_dual_plus_c(dual_plus_c):
    # basis (1, eps) of the dual block, then the unit of C: exp(z + w eps, u) =
    # (e^z, e^z w, e^u), one closed form per component
    cf = ha.canonical_form(exp_scalar_series(dual_plus_c), ha.identity_morphism(dual_plus_c))
    assert cf.heights == (2, 1)
    for z, w, u in ((0.3, -2.0, 0.5j), (-1.0 + 0.5j, 4.0, -0.8), (0.0, 1.0, 1.2 - 0.3j)):
        got = cf.evaluate(dual_plus_c.element([z, w, u]))
        assert_coords(got, [np.exp(z), np.exp(z) * w, np.exp(u)], tol=1e-10)


def test_canonical_shifted_data_matches_derivative(t3):
    # the canonical form of the shifted Taylor data (g', g'', ...) is the
    # derivative of the function represented by (g, g', ...)
    phi = ha.identity_morphism(t3)
    g = ha.ScalarSeries(t3, 0.0, coeffs=[t3.zero(), t3.zero(), t3.zero(), t3.unit()])  # z^3
    gp = ha.ScalarSeries(t3, 0.0, coeffs=[t3.zero(), t3.zero(), 3 * t3.unit()])        # 3 z^2
    cf = ha.canonical_form(g, phi)
    cfp = ha.canonical_form(gp, phi)
    rng = np.random.default_rng(12)
    for _ in range(5):
        Z = t3.random_element(rng)
        # g tilde is Z^3 on the whole cylinder, so its derivative is 3 Z^2
        assert (cf.evaluate(Z) - Z ** 3).coord_norm() < 1e-10
        assert (cfp.evaluate(Z) - 3 * Z ** 2).coord_norm() < 1e-10


# -- nilpotent increments ------------------------------------------------------------------

def test_nilpotent_derivative_square(dual, id_dual):
    sq = ha.PowerSeries.polynomial(id_dual, dual.zero(),
                                   [dual.zero(), dual.zero(), dual.unit()])
    rng = np.random.default_rng(14)
    eps = dual.element([0, 1])
    for _ in range(10):
        Z = dual.random_element(rng)
        got = ha.nilpotent_derivative(sq, Z, eps)
        assert (got - (2 * Z + eps)).coord_norm() < 1e-10


def test_nilpotent_derivative_at_zero_increment(dual, id_dual, cubic):
    Z = dual.element([0.3, 0.8])
    got = ha.nilpotent_derivative(cubic, Z, dual.zero())
    assert (got - cubic.derive()(Z)).coord_norm() < 1e-12


def test_nilpotent_derivative_of_constant(dual, id_dual):
    const = ha.PowerSeries.polynomial(id_dual, dual.zero(), [dual.element([4, 2])])
    got = ha.nilpotent_derivative(const, dual.element([1, 1]), dual.element([0, 3]))
    assert got.coord_norm() < 1e-12


def test_nilpotent_derivative_rejects_units(dual, id_dual, cubic):
    with pytest.raises(NotNilpotent):
        ha.nilpotent_derivative(cubic, dual.zero(), dual.unit())


def test_nilpotent_derivative_matches_difference_quotient(dual, id_dual, cubic):
    # oracle: (f(Z+H) - f(Z)) / phi(H) for H = X + delta, delta -> 0 through
    # units from both sides (the symmetric mean kills the O(delta) term)
    Z = dual.element([0.2, -0.4])
    X = dual.element([0, 0.7])
    got = ha.nilpotent_derivative(cubic, Z, X)
    delta = 1e-4

    def quotient(d):
        H = X + dual.scalar(d)
        return (cubic(Z + H) - cubic(Z)) * H.invert()

    mean = 0.5 * (quotient(delta) + quotient(-delta))
    assert (got - mean).coord_norm() < 1e-6 * (1 + got.coord_norm())


# -- extension to the spectral cylinder ------------------------------------------------------

def test_extension_of_polynomial_is_direct_evaluation(dual, cubic):
    Z = dual.element([0.1, 50.0])
    assert (ha.extend_to_cylinder(cubic, Z) - cubic(Z)).coord_norm() < 1e-9


def test_extension_of_geometric_series(dual, id_dual):
    geo = ha.geometric_series(id_dual)
    Z = dual.element([0.9, 1e6])
    got = ha.extend_to_cylinder(geo, Z)
    # (z + w eps)^{-1} = 1/z - (w/z^2) eps applied to 1 - Z = 0.1 - 1e6 eps
    oracle = dual.element([1 / 0.1, 1e6 / 0.01])
    assert (got - oracle).coord_norm() < 1e-9 * oracle.coord_norm()


def test_extension_outside_scalar_domain(dual, id_dual):
    geo = ha.geometric_series(id_dual)
    with pytest.raises(OutsideScalarDomain):
        ha.extend_to_cylinder(geo, dual.element([1.5, 0.0]))


def test_extension_of_canonical_form(dual, id_dual):
    cf = ha.canonical_form(exp_scalar_series(dual), id_dual)
    Z = dual.element([0.3, 1e3])
    got = ha.extend_to_cylinder(cf, Z)
    assert_coords(got, [math.exp(0.3), math.exp(0.3) * 1e3], tol=1e-6)


# -- the stacked evaluator against references ------------------------------------------------

def term_by_term(series, Z, tol=1e-12):
    """The former evaluation loop, kept as a reference: sum_k B_k phi(Z - Z0)^k one
    Element product per term, until four terms in a row fall below the tail bound."""
    dec_b = ha.artin_decompose(series.phi.target)
    radii = series.component_radii()
    spectral = dec_b.spectrum(series.phi(Z - series.center))
    q = max([abs(s) / (0.9 * r) for s, r in zip(spectral, radii) if np.isfinite(r)], default=0.0)
    tail = q / (1 - q) if 0 < q < 1 else (99.0 if q >= 1 else 1.0)
    w = series.phi(Z - series.center)
    acc, power, calm = series.phi.target.zero(), series.phi.target.unit(), 0
    for k in range(100_000):
        term = series.coefficient(k) * power
        acc, power = acc + term, power * w
        calm = calm + 1 if term.norm("frobenius") * max(tail, 1.0) < tol else 0
        if calm >= 4 and k >= 8:
            return acc
    raise AssertionError("the reference sum did not settle")


def relative_gap(got, expected):
    expected = np.asarray(expected, dtype=complex)
    return float(np.abs(got.coords - expected).max() / max(1.0, np.abs(expected).max()))


def mp_exp_derivative(z, n):
    return mp.exp(z)


def mp_geometric_derivative(z, n):
    return mp.factorial(n) / (1 - z) ** (n + 1)


def mp_local(derivative, z, nilpotent, height, increment=None):
    """At 50 digits, on a local algebra with basis 1, t, ..., t^(height-1):
    f(z + N) = sum_i g^(i)(z)/i! N^i, or with an increment X the nilpotent
    derivative sum_k f^(k+1)(z + N)/(k+1)! X^k, both as coordinates."""
    def mul(a, b):
        return [mp.fsum(a[i] * b[n - i] for i in range(n + 1)) for n in range(height)]

    def power(a, k):
        out = [mp.mpf(1)] + [mp.mpf(0)] * (height - 1)
        for _ in range(k):
            out = mul(out, a)
        return out

    shift = increment is not None
    with mp.workdps(50):
        N = [mp.mpf(0)] + [mp.mpc(c) for c in nilpotent]
        X = [mp.mpf(0)] + [mp.mpc(c) for c in (increment if shift else [0] * (height - 1))]
        out = [mp.mpc(0)] * height
        for k in range(height if shift else 1):
            for i in range(height):
                c = derivative(mp.mpc(z), i + k + shift) / (mp.factorial(i) * mp.factorial(k + shift))
                out = [o + c * t for o, t in zip(out, mul(power(N, i), power(X, k)))]
        return [complex(c) for c in out]


def exp_rule(algebra):
    return lambda k: math.exp(-math.lgamma(k + 1)) * algebra.unit()


LOCAL_CASES = (("dual", 2, 0.3 + 0.2j, [0.7]), ("t3", 3, -0.4 + 0.1j, [0.5, -0.3]))


@pytest.mark.parametrize("name, height, z, nil", LOCAL_CASES)
@pytest.mark.parametrize("kind", ["exp", "geometric"])
def test_power_series_paths_match_mpmath(name, height, z, nil, kind, dual, t3):
    algebra = {"dual": dual, "t3": t3}[name]
    phi = ha.identity_morphism(algebra)
    derivative = mp_exp_derivative if kind == "exp" else mp_geometric_derivative
    f = (ha.PowerSeries.from_rule(phi, algebra.zero(), exp_rule(algebra)) if kind == "exp"
         else ha.geometric_series(phi))
    Z = algebra.element([z] + nil)
    X = algebra.element([0.0] + [0.25j] * (height - 1))
    expected = mp_local(derivative, z, nil, height)
    assert relative_gap(f.evaluate(Z), expected) < 1e-12
    assert relative_gap(ha.extend_to_cylinder(f, Z), expected) < 1e-12
    got = ha.nilpotent_derivative(f, Z, X)
    assert relative_gap(got, mp_local(derivative, z, nil, height, list(X.coords[1:]))) < 1e-12


@pytest.mark.parametrize("name, height, z, nil", LOCAL_CASES)
@pytest.mark.parametrize("kind", ["exp", "geometric"])
def test_canonical_forms_match_mpmath(name, height, z, nil, kind, dual, t3):
    algebra = {"dual": dual, "t3": t3}[name]
    derivative = mp_exp_derivative if kind == "exp" else mp_geometric_derivative
    rule = exp_rule(algebra) if kind == "exp" else (lambda k: algebra.unit())
    cf = ha.canonical_form(ha.ScalarSeries(algebra, 0.0, rule=rule), ha.identity_morphism(algebra))
    Z = algebra.element([z] + nil)
    assert relative_gap(cf.evaluate(Z), mp_local(derivative, z, nil, height)) < 1e-12
    assert relative_gap(ha.extend_to_cylinder(cf, Z), mp_local(derivative, z, nil, height)) < 1e-12


@st.composite
def rule_series(draw):
    """A rule series on a direct sum of catalog factors (dims 2-10) in a random
    complex unitary basis: B_k = sum_l rho_l^-k e_l u, and a point whose spectral
    parts sit at half the component rates.  The rates lie in [2, 2.1]: a wider
    spread lets the rounding error of one component's projection dominate
    another's coordinates on the tail window, and no two computations of a
    component radius then agree to 1e-12."""
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=4)
                 .filter(lambda ns: 2 <= sum(FACTORS[n].dim for n in ns) <= 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    algebra = random_basis_sum(rng, *(FACTORS[n] for n in names))
    dec = ha.artin_decompose(algebra)
    rates = rng.uniform(2.0, 2.1, dec.count)
    u = algebra.unit() + algebra.element(dec.nilradical_basis @ rng.standard_normal(
        dec.nilradical_basis.shape[1]) * 0.5)
    parts = [(e * u).coords for e in dec.idempotents]
    rule = lambda k: algebra.element(sum(p * r ** -k for p, r in zip(parts, rates)))
    series = ha.PowerSeries.from_rule(ha.identity_morphism(algebra), algebra.zero(), rule)
    spectral = sum(0.5 * r * np.exp(2j * np.pi * rng.random()) * e.coords
                   for r, e in zip(rates, dec.idempotents))
    nilpotent = dec.nilradical_basis @ (rng.standard_normal(dec.nilradical_basis.shape[1])
                                        + 1j * rng.standard_normal(dec.nilradical_basis.shape[1]))
    return series, algebra.element(spectral + nilpotent)


def loop_radius(series, kind):
    norms = [series.coefficient(n).norm(kind) for n in range(series.rule_bound + 1)]
    n = range(series.rule_bound // 2, series.rule_bound + 1)
    return 1.0 / max(norms[i] ** (1.0 / i) for i in n)


def loop_component_radii(series):
    dec = ha.artin_decompose(series.phi.target)
    radii = []
    for ell in range(dec.count):
        norms = [np.linalg.norm(dec.component_coords(series.coefficient(n), ell))
                 for n in range(series.rule_bound + 1)]
        radii.append(1.0 / max(norms[i] ** (1.0 / i)
                               for i in range(series.rule_bound // 2, series.rule_bound + 1)))
    return np.array(radii)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rule_series())
def test_stacked_radii_and_sums_match_the_element_loops(case):
    series, Z = case
    assert abs(series.radius() - loop_radius(series, "frobenius")) <= 1e-12 * series.radius()
    assert abs(series._radius_estimate("operator") - loop_radius(series, "operator")) \
        <= 1e-12 * series.radius()
    loop = loop_component_radii(series)
    assert np.abs(series.component_radii() - loop).max() <= 1e-12 * loop.max()
    reference = term_by_term(series, Z)
    got = series.evaluate(Z)
    assert relative_gap(got, reference.coords) < 1e-10


# -- work counts ---------------------------------------------------------------------------------

def test_rule_is_read_once_per_index(dual, id_dual):
    calls = []
    unit = dual.unit()
    geo = ha.PowerSeries.from_rule(id_dual, dual.zero(), lambda k: calls.append(k) or unit)
    geo.radius(), geo.component_radii(), geo.spectral_divergence_radius()
    geo.evaluate(dual.element([0.5, 3.0]))
    geo.derive().radius()
    assert calls == list(range(201))
    # near the radius the budget reads past the window, each index once
    assert isinstance(geo.evaluate(dual.element([0.95, 3.0])), ha.Element)
    assert len(calls) > 201 and calls == list(range(len(calls)))
    geo.evaluate(dual.element([0.95, 3.0]))
    assert calls == list(range(len(calls)))


def test_sum_makes_no_element_product_per_term(monkeypatch):
    rng = np.random.default_rng(21)
    algebra = random_basis_sum(rng, FACTORS["t3"], FACTORS["bidual"], FACTORS["dual"],
                               FACTORS["C"])
    assert algebra.dim == 10
    phi = ha.identity_morphism(algebra)
    geo = ha.geometric_series(phi)
    dec = ha.artin_decompose(algebra)
    Z = algebra.element(sum(0.6 * np.exp(1j * k) * e.coords for k, e in enumerate(dec.idempotents))
                        + dec.nilradical_basis[:, 0])
    products = []
    mul = ha.Element.__mul__
    monkeypatch.setattr(ha.Element, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    value = geo.evaluate(Z)
    assert products == []
    monkeypatch.undo()
    assert (value - (algebra.unit() - Z).invert()).coord_norm() < 1e-10 * value.coord_norm()


def test_coefficients_outgrowing_the_estimate_raise(dual, id_dual):
    unit = dual.unit()
    # unit coefficients on the window (radius 1), growing as 1.5^k beyond it
    s = ha.PowerSeries.from_rule(id_dual, dual.zero(),
                                 lambda k: unit if k <= 200 else 1.5 ** (k - 200) * unit)
    assert isinstance(s.evaluate(dual.element([0.5, 1.0])), ha.Element)
    with pytest.raises(NoConvergence, match="outgrow the radius estimate"):
        s.evaluate(dual.element([0.95, 1.0]))


def full_window_radius(series, kind):
    """The radius estimate with every column of the window 0..bound normed, as
    before the norms were restricted to the tail window the estimate reads."""
    bound = series.rule_bound
    norms = _batch_norm(series.target, series._window(bound + 1), kind)
    lo = max(1, bound // 2)
    return float(1.0 / (norms[lo:] ** (1.0 / np.arange(lo, bound + 1))).max())


def test_radius_norms_only_the_tail_window(id_dual):
    rng = np.random.default_rng(23)
    algebra = random_basis_sum(rng, FACTORS["t3"], FACTORS["dual"], FACTORS["C"])
    phi = ha.identity_morphism(algebra)
    unit = algebra.unit()
    exp = ha.PowerSeries.from_rule(phi, algebra.zero(),
                                   lambda k: math.exp(k * math.log(3.0) - math.lgamma(k + 1))
                                   * unit)
    for series in (ha.geometric_series(id_dual), ha.geometric_series(phi), exp):
        assert series.radius() == full_window_radius(series, "frobenius")
        assert series._radius_estimate("operator") == full_window_radius(series, "operator")
    normed = []
    batch_norm = series_module._batch_norm
    counted = ha.geometric_series(phi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_batch_norm",
                   lambda a, x, kind="frobenius": normed.append(x.shape[1]) or batch_norm(a, x, kind))
        counted.radius()
    assert normed == [101, 101]   # columns 100..200, for each of the two norms


@pytest.mark.parametrize("make", ["rule series", "canonical form"])
def test_rule_sums_refuse_stacks(dual, id_dual, make):
    f = (ha.geometric_series(id_dual) if make == "rule series"
         else ha.canonical_form(exp_scalar_series(dual), id_dual))
    stack = ha.Element(dual, np.array([[0.1, 0.2], [0.3, 0.4]]))
    method = "PowerSeries.evaluate" if make == "rule series" else "CanonicalForm.evaluate"
    with pytest.raises(ValueError, match=method):
        f.evaluate(stack)
    # so their samplers loop over the columns
    sampler = f.sampler()
    got = sampler.values(stack.coords)
    want = np.column_stack([f.evaluate(dual.element(x)).coords for x in stack.coords.T])
    assert np.array_equal(got, want) and sampler._stacked is False
