import numpy as np
import pytest

import holoalg as ha
from holoalg.errors import (
    AlgebraMismatch,
    NotDetermined,
    NotMultiplicative,
    NotUnital,
)
from holoalg.morphism import Morphism


def incl_c(dual, cline):
    """z |-> z * 1 as a morphism C -> dual numbers."""
    return ha.build_morphism(cline, dual, [[1], [0]])


# -- construction --------------------------------------------------------------

def test_identity_gamma_equals_alpha(dual, split, t3):
    for algebra in (dual, split, t3):
        phi = ha.identity_morphism(algebra)
        assert np.abs(phi.gamma - algebra.tensor.basis_matrices()).max() < 1e-14


def test_sigma_dual_gamma(sigma_dual):
    # target is 1-dimensional: gamma[j] are 1x1 blocks
    assert abs(sigma_dual.gamma[0][0, 0] - 1) < 1e-14  # 1 acts as 1
    assert abs(sigma_dual.gamma[1][0, 0]) < 1e-14      # eps acts as 0


def test_j_to_eps_is_not_multiplicative(split, dual):
    with pytest.raises(NotMultiplicative):
        ha.build_morphism(split, dual, np.eye(2))  # sends j to eps


def test_non_unital_matrix_rejected(dual):
    with pytest.raises(NotUnital):
        ha.build_morphism(dual, dual, [[0, 0], [0, 1]])


def test_gamma_target_relation(dual, split, cline, sigma_dual):
    # sum_r beta^i_{r l} gamma^r_{jk} = sum_r gamma^i_{jr} beta^r_{k l}
    candidates = [
        ha.identity_morphism(dual),
        ha.identity_morphism(split),
        sigma_dual,
        incl_c(dual, cline),
    ]
    for phi in candidates:
        beta = phi.target.alpha  # beta[r, l, i] is the coefficient of b_i in b_r b_l
        lhs = np.einsum("rli,jrk->jkli", beta, phi.gamma)
        rhs = np.einsum("jir,klr->jkli", phi.gamma, beta)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_gamma_multiplicativity_relation(dual, split, sigma_dual):
    # sum_r gamma^i_{r l} alpha^r_{jk} = sum_s gamma^i_{js} gamma^s_{k l}
    for phi in (ha.identity_morphism(dual), ha.identity_morphism(split), sigma_dual):
        alpha = phi.source.alpha
        lhs = np.einsum("ril,jkr->jkil", phi.gamma, alpha)
        rhs = np.einsum("jis,ksl->jkil", phi.gamma, phi.gamma)
        assert np.abs(lhs - rhs).max() < 1e-12


# -- composition -----------------------------------------------------------------

def test_compose_identities(dual):
    phi = ha.identity_morphism(dual)
    assert np.abs(ha.compose(phi, phi).matrix - np.eye(2)).max() < 1e-14


def test_compose_sigma_with_inclusion(dual, cline, sigma_dual):
    # C -> dual -> C is the identity on C
    comp = ha.compose(incl_c(dual, cline), sigma_dual)
    assert np.abs(comp.matrix - np.eye(1)).max() < 1e-14


def test_compose_mismatch(dual, split):
    with pytest.raises(AlgebraMismatch):
        ha.compose(ha.identity_morphism(dual), ha.identity_morphism(split))


def test_compose_projections_three_components(cline, cc):
    # C^3 --drop third--> C^2 --first--> C ; tau composes accordingly
    c3 = ha.direct_sum(cc, cline)
    p32 = ha.build_morphism(c3, cc, [[1, 0, 0], [0, 1, 0]])
    p21 = ha.build_morphism(cc, cline, [[1, 0]])
    comp = ha.compose(p32, p21)
    assert np.abs(comp.matrix - np.array([[1, 0, 0]])).max() < 1e-14
    fact = ha.factor(comp, ha.artin_decompose(c3), ha.artin_decompose(cline))
    fact32 = ha.factor(p32, ha.artin_decompose(c3), ha.artin_decompose(cc))
    fact21 = ha.factor(p21, ha.artin_decompose(cc), ha.artin_decompose(cline))
    assert fact.tau == tuple(fact32.tau[k] for k in fact21.tau)


# -- factorization ------------------------------------------------------------------

def test_factor_projection(cc, cline):
    proj = ha.build_morphism(cc, cline, [[1, 0]])
    fact = ha.factor(proj, ha.artin_decompose(cc), ha.artin_decompose(cline))
    assert len(fact.tau) == 1
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = cc.random_element(rng)
        assert (fact.reconstruct(z) - proj(z)).coord_norm() < 1e-10


def test_factor_local_pair(dual, cline, sigma_dual):
    fact = ha.factor(sigma_dual, ha.artin_decompose(dual), ha.artin_decompose(cline))
    assert fact.tau == (0,)
    assert fact.local_matrices[0].shape == (1, 2)


def test_factor_diagonal_embedding(cline, cc):
    diag = ha.build_morphism(cline, cc, [[1], [1]])
    fact = ha.factor(diag, ha.artin_decompose(cline), ha.artin_decompose(cc))
    assert fact.tau == (0, 0)


def test_factor_reconstruction_everywhere(dual, split, cc, dual_plus_c, cline, sigma_dual):
    cases = [
        ha.identity_morphism(dual_plus_c),
        sigma_dual,
        ha.build_morphism(cline, cc, [[1], [1]]),
        ha.build_morphism(dual_plus_c, cline, [[0, 0, 1]]),
    ]
    rng = np.random.default_rng(5)
    for phi in cases:
        fact = ha.factor(phi, ha.artin_decompose(phi.source), ha.artin_decompose(phi.target))
        for _ in range(100):
            z = phi.source.random_element(rng)
            assert (fact.reconstruct(z) - phi(z)).coord_norm() < 1e-10


def test_factor_local_parts_preserve_ideals(dual, dual_plus_c, cline):
    # the local part must map the source maximal ideal into the target one
    phi = ha.build_morphism(dual_plus_c, cline, [[0, 0, 1]])
    dec_a = ha.artin_decompose(dual_plus_c)
    dec_b = ha.artin_decompose(cline)
    fact = ha.factor(phi, dec_a, dec_b)
    for ell, k in enumerate(fact.tau):
        ideal = dec_a.maximal_ideal_bases[k]
        for col in ideal.T:
            image = fact.local_apply(dual_plus_c.element(col), ell)
            assert abs(dec_b.sigma(image, ell)) < 1e-10


def test_factor_dichotomy_violation(cc, cline):
    # an invalid 'morphism' averaging the two components breaks the dichotomy
    bogus = Morphism(cc, cline, np.array([[0.5, 0.5]]),
                     np.zeros((2, 1, 1), dtype=complex))
    with pytest.raises(NotDetermined):
        ha.factor(bogus, ha.artin_decompose(cc), ha.artin_decompose(cline))


# -- factorization cache -------------------------------------------------------------

def test_factor_runs_once_per_morphism(split, monkeypatch):
    from holoalg import morphism
    runs = []
    body = morphism._factor
    monkeypatch.setattr(morphism, "_factor", lambda *args: runs.append(args[0]) or body(*args))
    phi = ha.identity_morphism(split)
    circle = ha.Path.circle(split.zero(), 1.0)
    Z0 = split.element([0.2, 0.1])
    for _ in range(2):
        ha.admissibility(circle, Z0, phi)
        ha.index_spectral(circle, Z0, phi)
    assert len(runs) == 1
    other = ha.identity_morphism(split)
    ha.index_spectral(circle, Z0, other)
    assert runs == [phi, other]
    dec = ha.artin_decompose(split)
    assert ha.factor(phi, dec, dec) is ha.factor(phi, dec, dec)


def test_failed_factorization_is_not_cached(cc, monkeypatch):
    from holoalg import morphism
    phi = ha.identity_morphism(cc)
    dec = ha.artin_decompose(cc)
    with monkeypatch.context() as patch:
        patch.setattr(morphism, "_factor", lambda *args: (_ for _ in ()).throw(NotDetermined("x")))
        with pytest.raises(NotDetermined):
            ha.factor(phi, dec, dec)
    assert ha.factor(phi, dec, dec).tau == (0, 1)
