import math

import numpy as np
import pytest

import holoalg as ha
from holoalg.errors import EstimateViolated, NotLocalPair, NotNilpotent, OutsideScalarDomain
from holoalg.series import BoundaryIndeterminate, Divergent

from conftest import assert_coords


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


def test_context_follows_the_seed():
    split = ha.split_complex()
    f = ha.PowerSeries.polynomial(ha.identity_morphism(split), split.zero(), [split.unit()])
    first = f.context()
    assert f.context(seed=0) is first
    dec_a, dec_b, _ = f.context(seed=1)
    assert dec_a is ha.artin_decompose(split, seed=1) is dec_b
    assert dec_a is not first[0]


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


def test_canonical_requires_local_pair(cc):
    phi = ha.identity_morphism(cc)
    g = ha.ScalarSeries(cc, 0.0, coeffs=[cc.unit()])
    with pytest.raises(NotLocalPair):
        ha.canonical_form(g, phi)
    # with the factorization attached it works componentwise
    dec = ha.artin_decompose(cc)
    fact = ha.factor(phi, dec, dec)
    cf = ha.canonical_form(g, phi, dec, dec, fact)
    assert (cf.evaluate(cc.element([2.0, 3.0])) - cc.unit()).coord_norm() < 1e-12


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
