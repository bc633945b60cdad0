import math

import numpy as np
import pytest

import holoalg as ha
from holoalg import contour
from holoalg.errors import (
    EstimateViolated,
    IndexNotInvertible,
    NotAdmissible,
    NotSmooth,
    QuadratureNoConvergence,
    SchemaError,
    WindingUnresolved,
)

from conftest import assert_coords


def unit_circle(algebra, turns=1):
    return ha.Path.circle(algebra.zero(), 1.0, turns=turns)


def sampled_ellipse(algebra, a=2.0, b=1.2, n=128, center=0j):
    ths = np.linspace(0.0, 2 * np.pi, n + 1)
    pts = [algebra.scalar(center + a * np.cos(t) + 1j * b * np.sin(t)) for t in ths]
    return ha.Path.samples(pts, smooth=True)


def square_loop(algebra, half=1.5):
    corners = [half + half * 1j, -half + half * 1j, -half - half * 1j,
               half - half * 1j, half + half * 1j]
    return ha.Path.polyline([algebra.scalar(c) for c in corners])


def const_sampler(algebra, coords):
    e = algebra.element(coords)
    return ha.FunctionSampler(lambda Z: e, algebra, algebra)


# -- paths ----------------------------------------------------------------------

def test_path_endpoint_validation(dual):
    with pytest.raises(ValueError):
        ha.Path(dual, (ha.LineSegment(dual, np.array([0j, 0j]), np.array([1 + 0j, 0j])),
                       ha.LineSegment(dual, np.array([2 + 0j, 0j]), np.array([3 + 0j, 0j]))),
                closed=False, kind="polyline")


def test_polyline_detects_closedness(dual):
    open_path = ha.Path.polyline([dual.zero(), dual.unit()])
    assert not open_path.closed
    closed = ha.Path.polyline([dual.zero(), dual.unit(), dual.scalar(1j), dual.zero()])
    assert closed.closed


def test_cycle_requires_closed_paths(dual):
    with pytest.raises(ValueError):
        ha.Cycle(((1, ha.Path.polyline([dual.zero(), dual.unit()])),))


def test_unsmooth_samples_rejected(dual, id_dual):
    pts = [dual.scalar(np.exp(2j * np.pi * t)) for t in np.linspace(0, 1, 65)]
    rough = ha.Path.samples(pts, smooth=False)
    with pytest.raises(NotSmooth):
        ha.length(rough, id_dual)
    with pytest.raises(NotSmooth):
        ha.integrate(const_sampler(dual, [1, 0]), rough, id_dual)
    # the spectral index only needs positions
    assert ha.index_spectral(rough, dual.zero(), id_dual).values == (1,)


def test_paths_compare_and_hash_by_identity(dual):
    p = unit_circle(dual)
    q = unit_circle(dual)
    assert p == p and p != q
    assert {p, p} == {p} and len({p, q}) == 2
    assert p.segments[0] == p.segments[0] and p.segments[0] != q.segments[0]
    square = square_loop(dual)
    assert len({square, *square.segments}) == 5
    cycle = ha.Cycle(((1, p), (-1, square)))
    assert hash(cycle) == hash(ha.Cycle(((1, p), (-1, square))))
    assert cycle in {cycle}


# -- lengths -----------------------------------------------------------------------

def test_scalar_circle_lengths(dual, id_dual):
    circ = ha.Path.circle(dual.zero(), 2.0)
    assert abs(ha.length(circ, id_dual, "frobenius") - 2 * np.pi * 2 * np.sqrt(2)) < 1e-9
    assert abs(ha.length(circ, id_dual, "operator") - 2 * np.pi * 2) < 1e-9


def test_unit_segment_length(dual, id_dual):
    seg = ha.Path.polyline([dual.zero(), dual.unit()])
    assert abs(ha.length(seg, id_dual, "frobenius") - np.sqrt(2)) < 1e-12
    assert abs(ha.length(seg, id_dual, "operator") - 1.0) < 1e-12


def test_length_through_morphism(dual, cline, sigma_dual):
    # sigma maps the scalar circle to the plain unit circle in C
    circ = unit_circle(dual)
    assert abs(ha.length(circ, sigma_dual, "frobenius") - 2 * np.pi) < 1e-9


# -- integration ----------------------------------------------------------------------

def test_closed_integrals_of_primitives_vanish(dual, id_dual):
    circ = unit_circle(dual)
    one = const_sampler(dual, [1, 0])
    ident = ha.FunctionSampler(lambda Z: Z, dual, dual)
    assert ha.integrate(one, circ, id_dual).coord_norm() < 1e-10
    assert ha.integrate(ident, circ, id_dual).coord_norm() < 1e-10


def test_reciprocal_integral_is_2_pi_i(dual, id_dual):
    circ = unit_circle(dual)
    recip = ha.FunctionSampler(lambda Z: Z.invert(), dual, dual)
    value = ha.integrate(recip, circ, id_dual)
    assert_coords(value, [2j * np.pi, 0], tol=1e-10)


def test_norm_estimate_holds_on_results(dual, id_dual, cubic):
    f = cubic.sampler()
    for path in (unit_circle(dual), square_loop(dual), sampled_ellipse(dual)):
        value = ha.integrate(f, path, id_dual)
        sup = max(f(dual.scalar(np.exp(2j * np.pi * t))).norm("frobenius")
                  for t in np.linspace(0, 1, 64))
        arc = ha.length(path, id_dual, "frobenius")
        # generous sup over a coarse grid for sampled paths inside the disc of radius 2.2
        sup = max(sup, max(f(dual.scalar(2.2 * np.exp(2j * np.pi * t))).norm("frobenius")
                           for t in np.linspace(0, 1, 64)))
        assert value.norm("frobenius") <= sup * arc * (1 + 1e-6)


def test_discontinuous_integrand_exhausts_depth(dual, id_dual):
    def jump(Z):
        return dual.unit() if Z.coords[0].real > 0.30000001 else dual.zero()
    f = ha.FunctionSampler(jump, dual, dual)
    seg = ha.Path.polyline([dual.zero(), dual.unit()])
    with pytest.raises(QuadratureNoConvergence,
                       match=r"depth 20 at path 0 segment 0, t in \[0\.2999"):
        ha.integrate(f, seg, id_dual, tol=1e-13)


def test_long_sampled_polyline_integrates(cline):
    # 4000 segments at the admissibility resolution; the integral of conj(Z) dZ
    # around a closed curve is 2i times the enclosed area
    n, a, b = 4000, 2.0, 1.2
    path = sampled_ellipse(cline, a, b, n)
    value = ha.integrate(ha.conjugation_sampler(cline), path, ha.identity_morphism(cline))
    area = 0.5 * n * a * b * np.sin(2 * np.pi / n)
    assert abs(value.coords[0] - 2j * area) < 1e-9


def scaled(monkeypatch, name, factor):
    """Multiply what contour.<name> returns by ``factor``."""
    original = getattr(contour, name)
    monkeypatch.setattr(contour, name, lambda *a, **k: factor * original(*a, **k))


def test_norm_estimate_violations_are_typed(dual, id_dual, monkeypatch):
    # a tenfold integrand breaks ||integral|| <= sup ||f|| * L (and its kernel form)
    scaled(monkeypatch, "_batch_mul", 10.0)
    seg = ha.Path.polyline([dual.zero(), dual.unit()])
    with pytest.raises(EstimateViolated, match="norm estimate"):
        ha.integrate(const_sampler(dual, [1, 0]), seg, id_dual)
    with pytest.raises(EstimateViolated, match="norm estimate"):
        ha.index_quadrature(unit_circle(dual), dual.zero(), id_dual)


def test_norm_estimate_is_checked_on_each_path(dual, id_dual, monkeypatch):
    # the two opposite circles cancel, so only a per-path check sees the violation
    scaled(monkeypatch, "_batch_mul", 10.0)
    cycle = ha.Cycle(((1, unit_circle(dual)), (-1, unit_circle(dual))))
    with pytest.raises(EstimateViolated, match="norm estimate"):
        ha.integrate_cycle(ha.conjugation_sampler(dual), cycle, id_dual)


def test_derivative_bound_violation_is_typed(dual, id_dual, cubic, monkeypatch):
    scaled(monkeypatch, "_cauchy_kernel_integral", 10.0)
    with pytest.raises(EstimateViolated, match="derivative bound violated at order 0"):
        ha.taylor_from_contour(cubic.sampler(), unit_circle(dual), dual.zero(), 3, id_dual)


def test_a_nan_sample_fails_the_derivative_bound(dual, id_dual):
    # NaN only near t = 1/256: one of the bound's 257 points and no node of
    # the 64-node circle rule, so only the bound check sees it, and NaN fails it
    spot = np.exp(2j * np.pi / 256)

    def f(Z):
        near = np.abs(Z.coords[0] - spot) < 1e-9
        return ha.Element(dual, np.multiply.outer([1, 0], np.where(near, np.nan, 1.0)))

    with pytest.raises(EstimateViolated, match="bound violated at order 0: .* > nan"):
        ha.taylor_from_contour(ha.FunctionSampler(f, dual, dual), unit_circle(dual),
                               dual.zero(), 3, id_dual)


def test_a_nan_norm_bound_fails_the_estimate(dual, id_dual, monkeypatch):
    # a NaN sample makes the integral NaN too, which never converges, so a NaN
    # bound is reached only by patching: here the arc lengths are NaN
    arcs = contour._arcs
    monkeypatch.setattr(contour, "_arcs", lambda *a, **k: arcs(*a, **k) * math.nan)
    seg = ha.Path.polyline([dual.zero(), dual.unit()])
    with pytest.raises(EstimateViolated, match="norm estimate"):
        ha.integrate(const_sampler(dual, [1, 0]), seg, id_dual)


def test_quadrature_tolerance_env_override(dual, id_dual, monkeypatch):
    from holoalg.contour import quad_tolerance
    assert quad_tolerance() == 1e-10
    monkeypatch.setenv("HOLOALG_TOL", "1e-6")
    assert quad_tolerance() == 1e-6


@pytest.mark.parametrize("bad", ["abc", "nan", "-inf", "0", "-1e-6"])
def test_quadrature_tolerance_must_be_positive_and_finite(monkeypatch, bad):
    from holoalg.contour import quad_tolerance
    monkeypatch.setenv("HOLOALG_TOL", bad)
    with pytest.raises(SchemaError, match="HOLOALG_TOL"):
        quad_tolerance()


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_quadrature_tolerance_argument_must_be_positive_and_finite(tol):
    from holoalg.contour import quad_tolerance
    with pytest.raises(SchemaError):
        quad_tolerance(tol)


# -- admissibility -----------------------------------------------------------------------

def test_admissibility_basic(dual, id_dual):
    circ = unit_circle(dual)
    inside = ha.admissibility(circ, dual.zero(), id_dual)
    assert inside.admissible and abs(inside.clearances[0] - 1.0) < 1e-6
    on_curve = ha.admissibility(circ, dual.unit(), id_dual)
    assert not on_curve.admissible
    cylinder = ha.admissibility(circ, dual.element([1.0, 1e6]), id_dual)
    assert not cylinder.admissible  # forbidden zone is the cylinder over the support


def test_admissibility_active_components(split, cc, cline):
    # only components hit by the morphism matter
    proj = ha.build_morphism(cc, cline, [[1, 0]])
    circ = ha.Path.circle(cc.zero(), 1.0)
    point = cc.element([3.0, 1.0])  # second component ON the projected circle
    report = ha.admissibility(circ, point, proj)
    assert report.active_components == (ha.factor(
        proj, ha.artin_decompose(cc), ha.artin_decompose(cline)).tau[0],)
    assert report.admissible


# -- the index -------------------------------------------------------------------------------

def test_index_spectral_basics(dual, id_dual):
    circ = unit_circle(dual)
    assert ha.index_spectral(circ, dual.zero(), id_dual).values == (1,)
    assert ha.index_spectral(unit_circle(dual, turns=2), dual.zero(), id_dual).values == (2,)
    assert ha.index_spectral(circ, dual.scalar(3.0), id_dual).values == (0,)
    assert ha.index_spectral(circ.reversed(), dual.zero(), id_dual).values == (-1,)


def test_index_spectral_carries_its_admissibility_report(dual, id_dual):
    Z0 = dual.element([0.2, 0.1])
    idx = ha.index_spectral(unit_circle(dual), Z0, id_dual)
    assert idx.admissibility == ha.admissibility(unit_circle(dual), Z0, id_dual)


def test_index_spectral_rejects_forbidden_points(dual, id_dual):
    with pytest.raises(NotAdmissible):
        ha.index_spectral(unit_circle(dual), dual.unit(), id_dual)


def test_index_nilpotent_shift_invariance(dual, id_dual):
    circ = unit_circle(dual)
    base = ha.index_spectral(circ, dual.zero(), id_dual)
    shifted = ha.index_spectral(circ, dual.element([0, 5.0]), id_dual)
    assert base.values == shifted.values  # exact integers
    quad = ha.index_quadrature(circ, dual.element([0, 5.0]), id_dual)
    assert (quad - base.element).coord_norm() < 1e-8


def test_index_translation_invariance(dual, id_dual):
    rng = np.random.default_rng(51)
    circ = unit_circle(dual)
    for _ in range(5):
        W = dual.random_element(rng)
        moved = circ.translate(W)
        Z0 = dual.element([0.2, 0.1])
        a = ha.index_spectral(circ, Z0, id_dual).values
        b = ha.index_spectral(moved, Z0 + W, id_dual).values
        assert a == b


def test_index_morphism_compatibility(dual, cline, sigma_dual):
    # Ind_phi(Gamma, Z) = Ind_B(phi o Gamma, phi(Z))
    circ = unit_circle(dual)
    Z0 = dual.element([0.3, 2.0])
    lhs = ha.index_spectral(circ, Z0, sigma_dual)
    pushed = circ.pushforward(sigma_dual)
    rhs = ha.index_spectral(pushed, sigma_dual(Z0), ha.identity_morphism(cline))
    assert lhs.values == rhs.values
    lq = ha.index_quadrature(circ, Z0, sigma_dual)
    rq = ha.index_quadrature(pushed, sigma_dual(Z0), ha.identity_morphism(cline))
    assert (lq - rq).coord_norm() < 1e-8


def test_index_and_cif_are_functorial(dual, cline, sigma_dual):
    # the category of function theories: for phi: A -> B and a unital psi: B -> C,
    # psi(x^-1) = psi(x)^-1, so Ind_{psi o phi} = psi(Ind_phi) and the CIF of
    # psi o f along psi o phi is psi of the CIF of f along phi
    B = ha.direct_sum(dual, cline)
    embed = ha.build_morphism(dual, B, [[1, 0], [0, 1], [1, 0]])   # z |-> (z, sigma(z))
    pairs = [(ha.identity_morphism(dual), sigma_dual),
             (embed, ha.build_morphism(B, dual, [[1, 0, 0], [0, 1, 0]])),
             (embed, ha.build_morphism(B, cline, [[0, 0, 1]]))]
    cycle = ha.Cycle(((1, unit_circle(dual)), (2, ha.Path.circle(dual.scalar(0.2), 1.5))))
    Z0 = dual.element([0.3, 2.0])
    rng = np.random.default_rng(3)
    for phi, psi in pairs:
        both = ha.compose(phi, psi)
        pushed = psi(ha.index_spectral(cycle, Z0, phi).element)
        spectrum = ha.artin_decompose(psi.target).spectrum(pushed)
        assert ha.index_spectral(cycle, Z0, both).values == tuple(np.rint(spectrum.real))
        assert np.abs(spectrum - np.rint(spectrum.real)).max() < 1e-12
        gap = psi(ha.index_quadrature(cycle, Z0, phi)) - ha.index_quadrature(cycle, Z0, both)
        assert gap.coord_norm() < 1e-8
        coeffs = [phi.target.random_element(rng, 0.5) for _ in range(4)]
        f = ha.PowerSeries.polynomial(phi, dual.element([0.1, 0.2]), coeffs).sampler()
        psi_f = ha.FunctionSampler(lambda Z: ha.Element(psi.target, psi.matrix @ f(Z).coords),
                                   dual, psi.target)
        gap = psi(ha.cif_value(f, cycle, Z0, phi)) - ha.cif_value(psi_f, cycle, Z0, both)
        assert gap.coord_norm() < 1e-8


def test_mixed_component_windings(cc):
    # a sampled loop winding +1 in one component and -2 in the other
    phi = ha.identity_morphism(cc)
    ts = np.linspace(0.0, 1.0, 257)
    pts = [cc.element([np.exp(2j * np.pi * t), np.exp(-4j * np.pi * t)]) for t in ts]
    loop = ha.Path.samples(pts, smooth=True)
    idx = ha.index_spectral(loop, cc.zero(), phi)
    assert sorted(idx.values) == [-2, 1]
    quad = ha.index_quadrature(loop, cc.zero(), phi)
    assert (quad - idx.element).coord_norm() < 1e-8


def test_index_agreement_across_families(dual, split, id_dual, id_split):
    """Quadrature within 1e-8 of the spectral integers: 3 path families x
    20 admissible points x 2 algebras."""
    rng = np.random.default_rng(77)
    for algebra, phi in ((dual, id_dual), (split, id_split)):
        families = [unit_circle(algebra, turns=1),
                    sampled_ellipse(algebra),
                    square_loop(algebra)]
        for path in families:
            checked = 0
            while checked < 20:
                coords = 1.6 * (rng.standard_normal(algebra.dim)
                                + 1j * rng.standard_normal(algebra.dim))
                Z0 = algebra.element(coords)
                if not ha.admissibility(path, Z0, phi).admissible:
                    continue
                spectral = ha.index_spectral(path, Z0, phi)
                quad = ha.index_quadrature(path, Z0, phi)
                assert (quad - spectral.element).coord_norm() < 1e-8
                checked += 1


def test_winding_unresolved_on_curve_point(dual, id_dual):
    # the loop 0 -> eps -> 0 projects to the single point 0: its length, and so
    # its forbidden band, is zero, and 1e-13 is admissible yet on the curve
    loop = ha.Path.polyline([dual.zero(), dual.element([0, 1]), dual.zero()])
    with pytest.raises(WindingUnresolved):
        ha.index_spectral(loop, dual.scalar(1e-13), id_dual)


def test_index_spectral_projects_each_path_once(split, id_split, monkeypatch):
    calls = []
    projection = contour._projection
    monkeypatch.setattr(contour, "_projection",
                        lambda path, rows, w0: calls.append(len(rows)) or projection(path, rows, w0))
    cycle = ha.Cycle(((1, ha.Path.circle(split.scalar(-0.7), 0.5)),
                      (-1, ha.Path.circle(split.scalar(0.7), 0.5))))
    assert ha.index_spectral(cycle, split.scalar(-0.7), id_split).values == (1, 1)
    # one call per path in one admissibility pass, each over both active components
    assert calls == [2, 2]


# -- Cauchy integral formulas --------------------------------------------------------------

def test_cif_value_recovers_constant_term(dual, id_dual, cubic):
    circ = unit_circle(dual)
    value = ha.cif_value(cubic.sampler(), circ, dual.zero(), id_dual)
    assert_coords(value, [1, 3], tol=1e-8)


def test_cif_value_doubled_circle(dual, id_dual, cubic):
    doubled = unit_circle(dual, turns=2)
    f = cubic.sampler()
    value = ha.cif_value(f, doubled, dual.zero(), id_dual)
    assert_coords(value, [2, 6], tol=1e-8)
    solved = ha.cif_value(f, doubled, dual.zero(), id_dual, solve=True)
    assert_coords(solved, [1, 3], tol=1e-8)


def test_cif_value_zero_index_component(dual, id_dual, cubic):
    circ = unit_circle(dual)
    outside = dual.scalar(3.0)
    value = ha.cif_value(cubic.sampler(), circ, outside, id_dual)
    assert value.coord_norm() < 1e-8
    with pytest.raises(IndexNotInvertible):
        ha.cif_value(cubic.sampler(), circ, outside, id_dual, solve=True)


def test_cif_derivatives(dual, id_dual, cubic):
    circ = unit_circle(dual)
    f = cubic.sampler()
    assert ha.cif_derivative(f, circ, dual.zero(), 1, id_dual).coord_norm() < 1e-8
    d3 = ha.cif_derivative(f, circ, dual.zero(), 3, id_dual)
    assert_coords(d3, [6, 12], tol=1e-8)  # 3! * (1 + 2 eps)
    assert ha.cif_derivative(f, circ, dual.zero(), 5, id_dual).coord_norm() < 1e-7


def test_cif_derivative_tolerance_bounds_the_value(dual, id_dual, cubic):
    # f = a3 Z^3 + a2 Z^2 + a0 and its derivatives at Z0, in the algebra
    a3, a2, a0 = dual.element([1, 2]), dual.element([-1, 1]), dual.element([1, 3])
    Z0 = dual.element([0.3, 0.2])
    exact = [a3 * Z0 * Z0 * Z0 + a2 * Z0 * Z0 + a0, 3 * a3 * Z0 * Z0 + 2 * a2 * Z0,
             6 * a3 * Z0 + 2 * a2, 6 * a3]
    circ = unit_circle(dual)
    for k, value in enumerate(exact):
        assert_coords(ha.cif_derivative(cubic.sampler(), circ, Z0, k, id_dual), value.coords)
    assert ha.cif_derivative(cubic.sampler(), circ, Z0, 5, id_dual).coord_norm() < 1e-10
    # 20! / 2 pi asks for an integral below rounding: the node budget ends it
    with pytest.raises(QuadratureNoConvergence, match="node budget 160000 of a circle"):
        ha.cif_derivative(cubic.sampler(), circ, Z0, 20, id_dual)


def test_cif_derivative_order_zero_is_cif_value(dual, id_dual, cubic):
    circ = unit_circle(dual)
    f = cubic.sampler()
    Z0 = dual.element([0.2, 1.0])
    a = ha.cif_derivative(f, circ, Z0, 0, id_dual)
    b = ha.cif_value(f, circ, Z0, id_dual)
    assert (a - b).coord_norm() < 1e-12


def test_cif_spot_check_warns_for_conjugation(dual, id_dual):
    conj = ha.conjugation_sampler(dual)
    with pytest.warns(UserWarning, match="non-holomorphic"):
        ha.cif_value(conj, unit_circle(dual), dual.zero(), id_dual)


def test_cif_spot_check_sees_every_spot_point(dual, id_dual, monkeypatch):
    # conjugation on the left half-plane only: of the spot points at t = 0.17,
    # 0.43 and 0.81 on the unit circle, only the second lies there.  The
    # stencils ride in the first sample of f, and the warning comes before
    # the rule fails on the jumps, at the caller's line
    monkeypatch.setattr(contour, "QUAD_MAX_DEPTH", 0)
    f = ha.FunctionSampler(lambda Z: dual.element(np.conj(Z.coords)) if Z.coords[0].real < 0
                           else Z, dual, dual)
    with pytest.warns(UserWarning, match=r"non-holomorphic near the path \(residual 2") as record, \
            pytest.raises(QuadratureNoConvergence, match="exhausted depth 0"):
        ha.cif_derivative(f, unit_circle(dual), dual.zero(), 0, id_dual)
    assert [w.filename for w in record] == [__file__]


def test_coefficients_from_derivatives(dual, id_dual, cubic):
    circ = unit_circle(dual)
    f = cubic.sampler()
    for k in range(4):
        got = ha.cif_derivative(f, circ, dual.zero(), k, id_dual) * (1 / math.factorial(k))
        assert (got - cubic.coefficient(k)).coord_norm() < 1e-8


def test_taylor_from_contour_cubic(dual, id_dual, cubic):
    series = ha.taylor_from_contour(cubic.sampler(), unit_circle(dual),
                                    dual.zero(), 3, id_dual)
    for k in range(4):
        assert (series.coefficient(k) - cubic.coefficient(k)).coord_norm() < 1e-8
    # re-evaluates the function inside a shrunk polycylinder
    rng = np.random.default_rng(99)
    for _ in range(10):
        Z = dual.element(0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        assert (series(Z) - cubic(Z)).coord_norm() < 1e-8


def test_taylor_from_contour_constant(dual, id_dual):
    const = const_sampler(dual, [4, -2])
    series = ha.taylor_from_contour(const, unit_circle(dual), dual.zero(), 3, id_dual)
    assert_coords(series.coefficient(0), [4, -2], tol=1e-9)
    for k in range(1, 4):
        assert series.coefficient(k).coord_norm() < 1e-9


def test_taylor_from_contour_geometric_samples(dual, id_dual):
    inv = ha.FunctionSampler(lambda Z: (dual.unit() - Z).invert(), dual, dual)
    series = ha.taylor_from_contour(inv, ha.Path.circle(dual.zero(), 0.5),
                                    dual.zero(), 5, id_dual)
    for k in range(6):
        assert (series.coefficient(k) - dual.unit()).coord_norm() < 1e-6


def test_taylor_from_contour_needs_invertible_index(dual, id_dual, cubic):
    with pytest.raises(IndexNotInvertible):
        ha.taylor_from_contour(cubic.sampler(), unit_circle(dual),
                               dual.scalar(3.0), 2, id_dual)


# -- Goursat and homological checks ------------------------------------------------------------

def test_goursat_on_triangles(dual, id_dual, cubic):
    tri = (dual.zero(), dual.unit(), dual.scalar(1j))
    assert ha.goursat_residual(cubic.sampler(), tri, id_dual) < 1e-9
    assert ha.goursat_residual(const_sampler(dual, [3, 1]), tri, id_dual) < 1e-12
    conj = ha.conjugation_sampler(dual)
    # componentwise conj integrates to 2i * area per coordinate
    assert ha.goursat_residual(conj, tri, id_dual) > 1e-3


def test_homological_nilpotent_offset_pair(dual, id_dual, cubic):
    g1 = unit_circle(dual)
    g2 = ha.Path.circle(dual.element([0, 1.0]), 1.0)
    cycle = ha.Cycle(((1, g1), (-1, g2)))
    f = cubic.sampler()
    Z0 = dual.element([0, 5.0])
    report = ha.homological_cif_check(f, cycle, Z0, id_dual)
    assert report.index.values == (0,)
    assert report.integral_norm < 1e-9
    assert report.cif_residual < 1e-9
    # oracle: the two loops integrate to the same value separately
    a = ha.integrate(f, g1, id_dual)
    b = ha.integrate(f, g2, id_dual)
    assert (a - b).coord_norm() < 1e-9
    # while the kernel integral over a single loop is genuinely nonzero
    single = ha.cif_value(f, g1, Z0, id_dual)
    assert single.coord_norm() > 0.5


def test_homological_doubled_loop(dual, id_dual, cubic):
    cycle = ha.Cycle(((2, unit_circle(dual)),))
    Z0 = dual.element([0, 5.0])
    report = ha.homological_cif_check(cubic.sampler(), cycle, Z0, id_dual)
    assert report.index.values == (2,)
    assert report.cif_residual < 1e-8
    # f(5 eps) * 2 is recovered by the quadrature side
    rhs = ha.cif_value(cubic.sampler(), cycle, Z0, id_dual)
    assert (rhs - 2 * cubic(Z0)).coord_norm() < 1e-8


def test_homological_zero_index_point(dual, id_dual, cubic):
    report = ha.homological_cif_check(cubic.sampler(), unit_circle(dual),
                                      dual.scalar(4.0), id_dual)
    assert report.index.values == (0,)
    assert report.cif_residual < 1e-8
