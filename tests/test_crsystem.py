import warnings

import numpy as np
import pytest

import holoalg as ha
from holoalg.algebra import build_algebra, transform_tensor
from holoalg.errors import (
    InvalidRecovered,
    NoConvergence,
    NonSquare,
    RankDeficient,
    SamplerFailure,
    SingularDerivative,
)

from conftest import assert_coords
from test_batched import random_basis_sum
from test_node_kernels import FACTORS


# -- system generation -----------------------------------------------------------

def test_gcru_dual(dual, id_dual):
    system = ha.gcru_system(id_dual)
    assert system.equation_count == 2
    expected = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.array_equal(system.coefficient_matrix(1), expected)
    text = system.latex()
    assert r"\frac{\partial f^{1}}{\partial z^{2}} = 0" in text
    assert r"\frac{\partial f^{2}}{\partial z^{2}} = \frac{\partial f^{1}}{\partial z^{1}}" in text


def test_gcru_split(split, id_split):
    system = ha.gcru_system(id_split)
    expected = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.array_equal(system.coefficient_matrix(1), expected)


def test_gcru_complex_plane_basis_is_classical(cplane):
    system = ha.gcru_system(ha.identity_morphism(cplane))
    expected = np.array([[0, -1], [1, 0]], dtype=complex)
    assert np.array_equal(system.coefficient_matrix(1), expected)


def test_gcru_equation_count(dual, t3, sigma_dual):
    assert ha.gcru_system(ha.identity_morphism(t3)).equation_count == (3 - 1) * 3
    assert ha.gcru_system(sigma_dual).equation_count == (2 - 1) * 1


def test_gcru_rebases_automatically(dual):
    # swap the basis so the unit is second; the emitted system must re-base
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    swapped = build_algebra(transform_tensor(dual.tensor, U))
    system = ha.gcru_system(ha.identity_morphism(swapped))
    assert system.change_of_basis is not None
    # new first basis vector is the unit of the swapped presentation
    assert np.abs(system.change_of_basis[:, 0] - swapped.unit_coords).max() < 1e-12


def test_scheffers_counts_and_classical_content(cplane):
    sch = ha.scheffers_system(ha.identity_morphism(cplane))
    eqs = sch.equations()
    assert len(eqs) == 2 * 2 * 2
    # the (i=1, j=2, k=1) equation reads df^1/dz^2 = -df^2/dz^1
    eq = next(e for e in eqs if (e["i"], e["j"], e["k"]) == (1, 2, 1))
    assert eq["lhs_coeffs"] == [[0.0, 0.0], [1.0, 0.0]]
    assert eq["rhs_coeffs"] == [[0.0, 0.0], [-1.0, 0.0]]


# -- residuals ---------------------------------------------------------------------

def test_cubic_residual_small_and_second_order(dual, id_dual, cubic):
    f = cubic.sampler()
    rng = np.random.default_rng(0)
    for _ in range(10):
        Z = dual.random_element(rng)
        r1 = ha.gcru_residual(f, id_dual, Z, h=1e-4)
        r2 = ha.gcru_residual(f, id_dual, Z, h=5e-5)
        assert r1 < 1e-6
        assert 0.15 <= r2 / r1 <= 0.45


def test_conjugation_flagged(dual, id_dual):
    conj = ha.conjugation_sampler(dual)
    Z = dual.element([0.4 + 0.2j, -0.1 + 0.9j])
    res = ha.gcru_residual(conj, id_dual, Z, h=1e-4)
    assert abs(res - 2.0) < 1e-6  # the classical CR block value
    assert ha.holomorphy_verdict(res, 1e-4) == "non-holomorphic"


def test_constant_residual_tiny(dual, id_dual):
    const = ha.FunctionSampler(lambda Z: dual.element([2, -1]), dual, dual)
    Z = dual.element([0.3, 0.7])
    assert ha.gcru_residual(const, id_dual, Z, h=1e-4) < 1e-12
    assert ha.dij_residual(const, id_dual, Z, h=1e-4) < 1e-12


def test_dij_residual_mirrors_gcru(dual, id_dual, cubic):
    f = cubic.sampler()
    Z = dual.element([0.5, -0.25])
    assert ha.dij_residual(f, id_dual, Z, h=1e-4) < 1e-6
    conj = ha.conjugation_sampler(dual)
    assert ha.dij_residual(conj, id_dual, Z, h=1e-4) > 1.0


def test_verdict_agreement_on_corpus(dual, split, t3):
    """GCRU and d_ij residuals give the same verdict for a shared corpus."""
    rng = np.random.default_rng(1)
    for algebra in (dual, split, t3):
        phi = ha.identity_morphism(algebra)
        samplers = []
        for degree in range(1, 6):  # five random polynomials: holomorphic
            coeffs = [algebra.random_element(rng) for _ in range(degree + 1)]
            samplers.append((ha.PowerSeries.polynomial(phi, algebra.zero(), coeffs).sampler(),
                             True))
        samplers.append((ha.conjugation_sampler(algebra), False))
        # real part, modulus-squared, coordinatewise square, conjugate-square:
        # none of these multiplies by an algebra element
        samplers.append((ha.FunctionSampler(
            lambda Z, A=algebra: A.element(Z.coords.real), algebra, algebra), False))
        samplers.append((ha.FunctionSampler(
            lambda Z, A=algebra: A.element(Z.coords * Z.coords.conj()), algebra, algebra), False))
        samplers.append((ha.FunctionSampler(
            lambda Z, A=algebra: A.element(Z.coords ** 2), algebra, algebra), False))
        samplers.append((ha.FunctionSampler(
            lambda Z, A=algebra: A.element(np.conj(Z.coords) ** 2), algebra, algebra), False))
        assert len(samplers) == 10
        for f, holomorphic in samplers:
            Z = algebra.random_element(rng)
            h = 1e-4
            va = ha.holomorphy_verdict(ha.gcru_residual(f, phi, Z, h), h)
            vb = ha.holomorphy_verdict(ha.dij_residual(f, phi, Z, h), h)
            assert va == vb
            assert va == ("holomorphic" if holomorphic else "non-holomorphic")


def test_sampler_failure_propagates(dual, id_dual):
    def broken(Z):
        raise ValueError("boom")
    f = ha.FunctionSampler(broken, dual, dual)
    with pytest.raises(SamplerFailure):
        ha.gcru_residual(f, id_dual, dual.zero(), h=1e-4)


# -- derivatives ----------------------------------------------------------------------

def test_numeric_derivative_of_cubic(dual, id_dual, cubic):
    f = cubic.sampler()
    # truncation of the central difference is O(h^2 f''')
    assert_coords(ha.numeric_derivative(f, id_dual, dual.zero(), h=1e-4), [0, 0], tol=1e-7)
    # closed form derivative (3+6e)Z^2 + (-2+2e)Z at Z=1 gives 1+8e
    assert_coords(ha.numeric_derivative(f, id_dual, dual.unit(), h=1e-4), [1, 8], tol=1e-7)


def test_derivative_of_the_morphism_itself(dual, cline, sigma_dual):
    f = ha.FunctionSampler(sigma_dual.apply, dual, cline)
    d = ha.numeric_derivative(f, sigma_dual, dual.element([0.2, 0.4]), h=1e-5)
    assert_coords(d, [1], tol=1e-10)


def test_jacobian_consistency_square_map(dual, id_dual):
    sq = ha.PowerSeries.polynomial(id_dual, dual.zero(),
                                   [dual.zero(), dual.zero(), dual.unit()])
    f = sq.sampler()
    rng = np.random.default_rng(2)
    for _ in range(10):
        Z = dual.random_element(rng)
        assert ha.jacobian_consistency(f, Z, h=1e-4) < 1e-6
        # oracle: lambda(2Z) is the lower-triangular [[2z, 0], [2w, 2z]]
        lam = (2 * Z).regular_matrix()
        z, w = Z.coords
        assert np.abs(lam - np.array([[2 * z, 0], [2 * w, 2 * z]])).max() < 1e-12


def test_jacobian_identity_map(dual):
    f = ha.FunctionSampler(lambda Z: Z, dual, dual)
    assert ha.jacobian_consistency(f, dual.element([0.3, 0.4]), h=1e-4) < 1e-10


def test_jacobian_conjugation(dual):
    conj = ha.conjugation_sampler(dual)
    assert ha.jacobian_consistency(conj, dual.element([0.3, 0.4]), h=1e-4) >= 1.0


def test_jacobian_needs_endomorphism(dual, cline, sigma_dual):
    f = ha.FunctionSampler(sigma_dual.apply, dual, cline)
    with pytest.raises(NonSquare):
        ha.jacobian_consistency(f, dual.zero())


# -- structure recovery ------------------------------------------------------------------

def half_square_sampler(algebra):
    phi = ha.identity_morphism(algebra)
    return ha.FunctionSampler(lambda Z: 0.5 * (Z * Z), algebra, algebra)


def generic_points(algebra, seed=0):
    rng = np.random.default_rng(seed)
    return [algebra.random_element(rng) for _ in range(algebra.dim)]


def test_recover_structure_round_trip(dual, split, t3):
    for algebra in (dual, split, t3):
        f = half_square_sampler(algebra)
        points = generic_points(algebra)
        tensor = ha.recover_structure(f, points, points)  # f' = id
        assert np.abs(tensor.alpha - algebra.alpha).max() < 1e-10


def test_recover_structure_determinant_oracle(dual):
    # cross-check one recovered entry against the literal ratio of determinants
    f = half_square_sampler(dual)
    points = generic_points(dual, seed=9)
    tensor = ha.recover_structure(f, points, points)
    G = np.column_stack([p.coords for p in points])
    # exact Jacobian of Z^2/2 at P is lambda(P)
    jacs = [p.regular_matrix() for p in points]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                num = G.T.copy()
                num[:, k] = [jacs[t][i, j] for t in range(2)]
                value = np.linalg.det(num) / np.linalg.det(G.T)
                assert abs(tensor.alpha[j, k, i] - value) < 1e-9


def test_recover_structure_exact_jacobians(dual):
    f = half_square_sampler(dual)
    points = generic_points(dual, seed=4)
    jacs = [p.regular_matrix() for p in points]
    tensor = ha.recover_structure(f, points, points, jacobians=jacs)
    assert np.abs(tensor.alpha - dual.alpha).max() < 1e-12


def test_recover_structure_rank_deficient(dual):
    f = half_square_sampler(dual)
    p = dual.element([1, 1])
    with pytest.raises(RankDeficient):
        ha.recover_structure(f, [p, p], [p, p])


def test_recover_structure_invalid_post_hoc(dual):
    f = half_square_sampler(dual)
    points = generic_points(dual)
    # inconsistent Jacobian data produces constants failing the identities
    jacs = [np.array([[1, 2], [3, 4]], dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex)]
    with pytest.raises(InvalidRecovered):
        ha.recover_structure(f, points, points, jacobians=jacs)


# -- pointwise inversion of regular maps ---------------------------------------------------

def test_newton_affine(dual, id_dual):
    c = dual.element([2, 1])
    d = dual.element([0, 3])
    P = ha.PowerSeries.polynomial(id_dual, dual.zero(), [d, c])
    W = dual.element([1.5, -0.5])
    Z = ha.newton_invert_map(P, W, dual.zero())
    assert ((W - d) * c.invert() - Z).coord_norm() < 1e-10


def test_newton_quadratic_perturbation(dual, id_dual):
    # P(Z) = Z + eps Z^2 has the exact inverse W - eps W^2
    eps = dual.element([0, 1])
    P = ha.PowerSeries.polynomial(id_dual, dual.zero(), [dual.zero(), dual.unit(), eps])
    rng = np.random.default_rng(21)
    for _ in range(20):
        W = dual.random_element(rng)
        Z = ha.newton_invert_map(P, W, W)
        assert (Z - (W - eps * W * W)).coord_norm() < 1e-10
        assert (P(Z) - W).coord_norm() < 1e-10


def test_newton_cube_root(dual, id_dual):
    P = ha.PowerSeries.polynomial(
        id_dual, dual.zero(), [dual.zero(), dual.zero(), dual.zero(), dual.unit()])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # det of J is not constant for Z^3
        Z = ha.newton_invert_map(P, dual.scalar(8.0), dual.scalar(2.5))
    assert_coords(Z, [2, 0], tol=1e-9)


def test_newton_warns_on_nonconstant_jacobian(dual, id_dual):
    P = ha.PowerSeries.polynomial(id_dual, dual.zero(),
                                  [dual.zero(), dual.zero(), dual.unit()])
    with pytest.warns(UserWarning, match="not constant"):
        ha.newton_invert_map(P, dual.scalar(4.0), dual.scalar(1.5))


def regular_map(rng, algebra, degree=3):
    """P = B_0 + B_1 Z + sum_{k>=2} N_k Z^k with B_1 a unit and nilpotent N_k:
    sigma_l(P'(Z)) = sigma_l(B_1), so the Jacobian determinant is constant."""
    dec = ha.artin_decompose(algebra)
    idempotents = np.column_stack([e.coords for e in dec.idempotents])
    nil = dec.nilradical_basis

    def nilpotent():
        return algebra.element(nil @ (0.3 * rng.standard_normal((nil.shape[1], 2)) @ [1, 1j]))

    unit = algebra.element(idempotents @ np.exp(2j * np.pi * rng.random(dec.count))) + nilpotent()
    coeffs = [algebra.random_element(rng, 0.3), unit] + [nilpotent() for _ in range(degree - 1)]
    return ha.PowerSeries.polynomial(ha.identity_morphism(algebra), algebra.zero(), coeffs)


def test_newton_is_silent_on_a_regular_map():
    rng = np.random.default_rng(44)
    for _ in range(5):
        algebra = random_basis_sum(rng, FACTORS["t3"], FACTORS["dual"], FACTORS["split"])
        P = regular_map(rng, algebra)
        W = algebra.random_element(rng, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = ha.newton_invert_map(P, W, W)
        assert (P(Z) - W).norm("frobenius") < 1e-10


def test_newton_warns_on_a_spectral_term_in_one_component():
    rng = np.random.default_rng(45)
    algebra = random_basis_sum(rng, FACTORS["t3"], FACTORS["dual"], FACTORS["split"])
    P = regular_map(rng, algebra)
    e = ha.artin_decompose(algebra).idempotents[-1]
    bent = ha.PowerSeries.polynomial(P.phi, P.center, [*P.coeffs[:2], P.coeffs[2] + 0.1 * e])
    W = algebra.random_element(rng, 0.1)
    with pytest.warns(UserWarning, match="not constant"):
        Z = ha.newton_invert_map(bent, W, W)
    assert (bent(Z) - W).norm("frobenius") < 1e-10


def test_newton_draws_no_random_point(monkeypatch):
    rng = np.random.default_rng(46)
    algebra = random_basis_sum(rng, FACTORS["t3"], FACTORS["dual"], FACTORS["split"])
    P = regular_map(rng, algebra)   # decomposes the algebra before the draws are refused
    W = algebra.random_element(rng, 0.5)
    monkeypatch.setattr(ha.Algebra, "random_element",
                        lambda *args, **kwargs: pytest.fail("Newton drew a random element"))
    Z = ha.newton_invert_map(P, W, W)
    assert (P(Z) - W).norm("frobenius") < 1e-10


def test_newton_singular_derivative(dual, id_dual):
    P = ha.PowerSeries.polynomial(id_dual, dual.zero(),
                                  [dual.zero(), dual.zero(), dual.unit()])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SingularDerivative):
            ha.newton_invert_map(P, dual.scalar(4.0), dual.zero())


def test_newton_no_convergence(dual, id_dual):
    P = ha.PowerSeries.polynomial(id_dual, dual.zero(), [dual.zero(), dual.unit()])
    with pytest.raises(NoConvergence):
        ha.newton_invert_map(P, dual.scalar(1.0), dual.scalar(100.0), max_steps=0)
