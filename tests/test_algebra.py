import numpy as np
import pytest

import holoalg as ha
from holoalg.algebra import StructureTensor, build_algebra, rebase_matrix, transform_tensor
from holoalg.errors import (
    AlgebraMismatch,
    NotAssociative,
    NotAUnit,
    NotCommutative,
    NoUnit,
)

from conftest import assert_coords


# -- construction and unit solving -------------------------------------------

def test_unit_coords_of_standard_algebras(dual, split):
    assert_coords(dual.unit(), [1, 0], tol=1e-12)
    assert_coords(split.unit(), [1, 0], tol=1e-12)


def test_unit_coords_in_shifted_basis(dual):
    # basis {1+eps, eps}: solving the unit law must give coordinates (1, -1).
    U = np.array([[1, 0], [1, 1]], dtype=complex)  # columns in old coordinates
    shifted = transform_tensor(dual.tensor, U, ("1+eps", "eps"))
    algebra = build_algebra(shifted)
    assert_coords(algebra.unit(), [1, -1], tol=1e-12)
    # oracle: solve the stacked unit system directly
    n = 2
    left = shifted.alpha.transpose(2, 1, 0).reshape(n * n, n)
    right = shifted.alpha.transpose(2, 0, 1).reshape(n * n, n)
    eps, *_ = np.linalg.lstsq(np.vstack([left, right]),
                              np.concatenate([np.eye(n).reshape(-1)] * 2), rcond=None)
    assert np.abs(eps - [1, -1]).max() < 1e-12


def test_commutativity_violation_reports_indices(split):
    alpha = split.alpha.copy()
    alpha[0, 1, 0] = 5.0  # a_1 a_2 != a_2 a_1 now
    with pytest.raises(NotCommutative, match=r"alpha"):
        build_algebra(StructureTensor(2, alpha))


def test_associativity_violation_reports_quadruple(t3):
    # corrupt t * t^2 to be 1 instead of 0
    alpha = t3.alpha.copy()
    alpha[1, 2, 0] = 1.0
    alpha[2, 1, 0] = 1.0
    with pytest.raises(NotAssociative, match=r"\(i,j,k,l\)"):
        build_algebra(StructureTensor(3, alpha))


def test_an_overflowing_associator_is_not_associative():
    # the associator of these commutative constants overflows to inf - inf =
    # NaN, which a "gap > tol" test lets through, and the unit solve then fails
    rng = np.random.default_rng(160)
    alpha = rng.standard_normal((3, 3, 3))
    alpha = 1e160 * (alpha + alpha.transpose(1, 0, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotAssociative):
            build_algebra(StructureTensor(3, alpha))


def test_no_unit_is_detected():
    # the 2-dimensional zero-product algebra has no unit
    with pytest.raises(NoUnit):
        build_algebra(StructureTensor(2, np.zeros((2, 2, 2))))


# -- multiplication -----------------------------------------------------------

def test_dual_square(dual):
    z = dual.element([1, 1])
    assert_coords(z * z, [1, 2], tol=0)


def test_split_square(split):
    j = split.element([0, 1])
    assert_coords(j * j, [1, 0], tol=0)


def test_mul_against_linear_solve_oracle(dual):
    z = dual.element([2, 3])
    w = z.invert()
    oracle = np.linalg.solve(z.regular_matrix(), dual.unit_coords)
    assert np.abs(w.coords - oracle).max() < 1e-14
    assert_coords(z * w, [1, 0])


def test_algebra_mismatch(dual, split):
    with pytest.raises(AlgebraMismatch):
        dual.element([1, 0]) * split.element([1, 0])


def test_scalar_mixing(dual):
    z = dual.element([1, 2])
    assert_coords(2 * z + 1, [3, 4], tol=0)
    assert_coords((z - 1) / 2, [0, 1], tol=0)


def test_element_shape_validation(dual):
    with pytest.raises(ValueError):
        dual.element([1, 2, 3])
    with pytest.raises(ValueError):
        dual.element([1])


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_structure_tensor_rejects_non_finite_entries(dual, entry):
    alpha = dual.alpha.copy()
    alpha[1, 1, 0] = entry
    with pytest.raises(ValueError, match="finite"):
        StructureTensor(2, alpha)


# -- regular representation ----------------------------------------------------

def test_regular_representation_of_unit(dual, split, t3):
    for algebra in (dual, split, t3):
        assert np.abs(algebra.unit().regular_matrix() - np.eye(algebra.dim)).max() < 1e-12


def test_regular_representation_of_eps(dual):
    eps = dual.element([0, 1])
    lam = eps.regular_matrix()
    expected = np.zeros((2, 2))
    expected[1, 0] = 1  # maps 1 to eps, kills eps
    assert np.array_equal(lam, expected)


def test_regular_representation_multiplicative(dual, split, t3):
    rng = np.random.default_rng(7)
    for algebra in (dual, split, t3):
        for _ in range(20):
            a = algebra.random_element(rng)
            b = algebra.random_element(rng)
            gap = np.linalg.norm(
                a.regular_matrix() @ b.regular_matrix() - (a * b).regular_matrix(), "fro")
            assert gap <= 1e-12 * (1 + a.norm() * b.norm())


# -- inversion -------------------------------------------------------------------

def test_invert_dual_closed_form(dual):
    z, w = 1.5 - 0.5j, 2.0 + 1.0j
    inv = dual.element([z, w]).invert()
    assert_coords(inv, [1 / z, -w / z ** 2])


def test_invert_split_closed_form(split):
    a, b = 2.0 + 1.0j, 0.5 - 0.25j
    inv = split.element([a, b]).invert()
    d = a * a - b * b
    assert_coords(inv, [a / d, -b / d])


def test_invert_unit_is_unit(dual):
    assert_coords(dual.unit().invert(), [1, 0])


def test_invert_rejects_nilpotents(dual):
    with pytest.raises(NotAUnit):
        dual.element([0, 1]).invert()


@pytest.mark.parametrize("s", [1e-7, 1e-9, 1e-11, 0.0])
def test_unit_rules_agree_on_small_spectral_parts(dual, s):
    # z = s + eps: a unit exactly when s != 0, though lambda(z) has singular-value
    # ratio about s^2, below the 1e-12 that used to decide
    from holoalg.contour import _batch_inv
    z = dual.element([s, 1.0])
    assert z.is_unit() == (s != 0)
    if s == 0:
        for invert in (z.invert, lambda: _batch_inv(ha.artin_decompose(dual), z.coords[:, None])):
            with pytest.raises(NotAUnit):
                invert()
        return
    expected = np.array([1 / s, -1 / s ** 2])
    batched = _batch_inv(ha.artin_decompose(dual), z.coords[:, None])[:, 0]
    for got in (z.invert().coords, batched):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_invert_agrees_with_nilpotent_series(dual, t3):
    rng = np.random.default_rng(11)
    for algebra in (dual, t3):
        dec = ha.artin_decompose(algebra)
        for _ in range(20):
            z = algebra.random_element(rng) + algebra.scalar(2.0)  # keep well away from 0
            direct = z.invert()
            series = ha.invert_via_series(z, dec)
            assert (direct - series).coord_norm() < 1e-10


def test_series_and_solve_share_one_unit_rule(dual, t3, split):
    # the rule is scale-invariant: a tiny unit is a unit to both inverses, and
    # a nilpotent element or a zero character is a non-unit to both
    rng = np.random.default_rng(29)
    for algebra in (dual, ha.direct_sum(t3, split)):
        dec = ha.artin_decompose(algebra)
        idempotents = np.column_stack([e.coords for e in dec.idempotents])
        chars = np.exp(2j * np.pi * rng.random(dec.count))
        z = algebra.element(1e-20 * (idempotents @ chars + dec.nilradical_basis @
                                     rng.standard_normal(dec.nilradical_basis.shape[1])))
        direct, series = z.invert(), ha.invert_via_series(z, dec)
        assert (direct - series).coord_norm() <= 1e-10 * direct.coord_norm()
        assert (series * z - algebra.unit()).coord_norm() < 1e-10
        for bad in (algebra.element(dec.nilradical_basis[:, 0]),
                    algebra.element(idempotents[:, :-1].sum(axis=1))):
            for invert in (lambda x: x.invert(), lambda x: ha.invert_via_series(x, dec)):
                with pytest.raises(NotAUnit):
                    invert(bad)


# -- spectral radius ---------------------------------------------------------------

def test_spectral_radius_ignores_nilpotent_part(dual):
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        w = 10 * (rng.standard_normal() + 1j * rng.standard_normal())
        assert abs(dual.element([z, w]).spectral_radius() - abs(z)) < 1e-10


def test_spectral_radius_split(split):
    a, b = 1.0 + 2.0j, -0.5 + 1.0j
    expected = max(abs(a + b), abs(a - b))
    assert abs(split.element([a, b]).spectral_radius() - expected) < 1e-10


def test_spectral_radius_zero(dual):
    assert dual.zero().spectral_radius() == 0.0


def test_spectral_radius_norm_like(split, t3):
    rng = np.random.default_rng(13)
    for algebra in (split, t3):
        assert abs(algebra.unit().spectral_radius() - 1) < 1e-12
        for _ in range(25):
            a = algebra.random_element(rng)
            b = algebra.random_element(rng)
            assert (a * b).spectral_radius() <= a.spectral_radius() * b.spectral_radius() + 1e-10
            assert (a + b).spectral_radius() <= a.spectral_radius() + b.spectral_radius() + 1e-10


# -- norms ---------------------------------------------------------------------------

def test_frobenius_norm_of_unit(dual):
    assert abs(dual.unit().norm("frobenius") - np.sqrt(2)) < 1e-12


def test_operator_norm_of_unit(dual, split, t3):
    for algebra in (dual, split, t3):
        assert abs(algebra.unit().norm("operator") - 1.0) < 1e-12


def test_frobenius_norm_matches_triangular_formula(dual):
    z, w = 1.0 + 2.0j, -3.0 + 0.5j
    expected = np.sqrt(2 * abs(z) ** 2 + abs(w) ** 2)
    assert abs(dual.element([z, w]).norm("frobenius") - expected) < 1e-12


@pytest.mark.parametrize("kind", ["frobenius", "operator", "direct-sum"])
def test_norms_submultiplicative(kind, dual, split, t3):
    rng = np.random.default_rng(17)
    for algebra in (dual, split, t3):
        for _ in range(25):
            a = algebra.random_element(rng)
            b = algebra.random_element(rng)
            na = a.norm(kind)
            nb = b.norm(kind)
            assert (a * b).norm(kind) <= na * nb * (1 + 1e-12) + 1e-12


@pytest.mark.parametrize("kind", ["frobenius", "operator", "direct-sum"])
def test_norm_dominates_spectral_radius(kind, dual, split, t3):
    rng = np.random.default_rng(19)
    for algebra in (dual, split, t3):
        for _ in range(25):
            a = algebra.random_element(rng)
            assert a.norm(kind) >= a.spectral_radius() - 1e-10


def test_direct_sum_norm_reads_the_cached_decomposition(dual, cline):
    algebra = ha.direct_sum(dual, cline)
    z = algebra.element([1.0, 2.0, -3.0j])
    norm = z.norm("direct-sum")
    dec = algebra._decomposition
    assert dec is not None and norm == dec.direct_sum_norm(z)
    assert ha.artin_decompose(algebra) is dec


# -- unit group coordinates ------------------------------------------------------------

def test_unit_group_coords_basic(dual):
    dec = ha.artin_decompose(dual)
    (s, log_term), = ha.unit_group_coords(dual.element([1, 1]), dec)
    assert abs(s - 1) < 1e-12
    assert_coords(log_term, [0, 1])
    (s, log_term), = ha.unit_group_coords(dual.element([2, 2]), dec)
    assert abs(s - 2) < 1e-12
    assert_coords(log_term, [0, 1])  # log(1 + eps) = eps


def test_unit_group_roundtrip(dual, split, t3, dual_plus_c):
    rng = np.random.default_rng(23)
    for algebra in (dual, split, t3, dual_plus_c):
        dec = ha.artin_decompose(algebra)
        for _ in range(15):
            u = algebra.random_element(rng) + algebra.scalar(3.0)
            if not u.is_unit():
                continue
            parts = ha.unit_group_coords(u, dec)
            back = ha.unit_group_exp(parts, dec)
            assert (back - u).coord_norm() < 1e-10


def test_unit_group_rejects_non_units(dual):
    dec = ha.artin_decompose(dual)
    with pytest.raises(NotAUnit):
        ha.unit_group_coords(dual.element([0, 1]), dec)


# -- re-basing helpers ---------------------------------------------------------------

def test_rebase_matrix_puts_unit_first(dual):
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    swapped = build_algebra(transform_tensor(dual.tensor, U))
    V = rebase_matrix(swapped)
    assert np.abs(V[:, 0] - swapped.unit_coords).max() < 1e-12
    assert abs(np.linalg.det(V)) > 1e-12


def test_equal_elements_of_separately_built_algebras_hash_alike():
    a = ha.dual_numbers().element([1, 2])
    b = ha.dual_numbers().element([1, 2])
    assert a.algebra is not b.algebra
    assert a == b and len({a, b}) == 1
    # -0.0 == 0.0, so the signed zero must not split the hash either
    assert len({a.algebra.element([0.0, 2]), b.algebra.element([-0.0, 2])}) == 1


# -- stacks of elements ----------------------------------------------------------------

def test_stacks_broadcast_against_single_elements(dual):
    X = np.array([[0.5, 1j, 2.0], [0.25, 2.0, -1.0]])
    Z, c0, c1 = ha.Element(dual, X), dual.element([1, 2]), dual.element([-1j, 0.5])
    got = (c0 + Z * c1 - 2.0) * Z + 1j - Z ** 3
    for t, x in enumerate(X.T):
        z = dual.element(x)
        want = (c0 + z * c1 - 2.0) * z + 1j - z ** 3
        assert np.abs(got.coords[:, t] - want.coords).max() <= 1e-15 * np.abs(want.coords).max()
    assert (Z ** 0).coords.shape == X.shape and Z / 2.0 == Z * 0.5
    for bad in (np.zeros((3, 2)), np.zeros(3)):
        with pytest.raises(ValueError, match="expected 2 coordinates per point"):
            ha.Element(dual, bad)


REFUSALS = {
    "invert": lambda Z: Z.invert(),
    "is_unit": lambda Z: Z.is_unit(),
    "norm": lambda Z: Z.norm(),
    "coord_norm": lambda Z: Z.coord_norm(),
    "spectral_radius": lambda Z: Z.spectral_radius(),
    "regular_matrix": lambda Z: Z.regular_matrix(),
    "__truediv__": lambda Z: Z.algebra.unit() / Z,
    "__rtruediv__": lambda Z: 1.0 / Z,
    "__pow__": lambda Z: Z ** -1,
    "__hash__": lambda Z: hash(Z),
}


@pytest.mark.parametrize("method", sorted(REFUSALS))
def test_single_point_methods_refuse_stacks(dual, method):
    stack = ha.Element(dual, np.array([[1.0, 2.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match=rf"Element\.{method}.* not on a stack of 2"):
        REFUSALS[method](stack)
    REFUSALS[method](dual.element([1.0, 0.5]))   # one point still works
