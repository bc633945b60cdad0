import dataclasses

import numpy as np
import pytest

import holoalg as ha
from holoalg import decomposition
from holoalg.errors import NotNilpotent

from conftest import assert_coords
from test_batched import random_basis_sum


# -- nilradical ----------------------------------------------------------------

def test_nilradical_dual(dual):
    basis = ha.nilradical(dual)
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1) < 1e-12 and abs(basis[0, 0]) < 1e-12


def test_nilradical_split_trivial(split):
    assert ha.nilradical(split).shape == (2, 0)


def test_nilradical_t3(t3):
    basis = ha.nilradical(t3)
    assert basis.shape == (3, 2)
    # span{t, t^2}: no component along 1
    assert np.abs(basis[0]).max() < 1e-12


# -- Artin decomposition -----------------------------------------------------------

def test_split_decomposition_exact(split):
    dec = ha.artin_decompose(split)
    assert dec.count == 2
    # oracle: e = (a, b) with e^2 = e and e not in {0, 1} forces a=1/2, b=+-1/2
    got = sorted((round(e.coords[0].real, 10), round(e.coords[1].real, 10))
                 for e in dec.idempotents)
    assert got == [(0.5, -0.5), (0.5, 0.5)]
    for e in dec.idempotents:
        assert np.abs(e.coords.imag).max() < 1e-10


def test_dual_is_local(dual):
    dec = ha.artin_decompose(dual)
    assert dec.count == 1
    assert_coords(dec.idempotents[0], [1, 0])


def test_direct_sum_dual_c(dual_plus_c):
    dec = ha.artin_decompose(dual_plus_c)
    assert dec.count == 2
    assert sorted(dec.component_dims) == [1, 2]


def test_idempotent_relations(dual, split, t3, dual_plus_c):
    for algebra in (dual, split, t3, dual_plus_c):
        dec = ha.artin_decompose(algebra)
        total = algebra.zero()
        for k, e in enumerate(dec.idempotents):
            total = total + e
            for l, f in enumerate(dec.idempotents):
                expected = e if k == l else algebra.zero()
                assert ((e * f) - expected).coord_norm() < 1e-10
        assert (total - algebra.unit()).coord_norm() < 1e-10


def test_maximal_ideal_vectors_are_nilpotent(dual, t3, dual_plus_c):
    for algebra in (dual, t3, dual_plus_c):
        dec = ha.artin_decompose(algebra)
        for basis in dec.maximal_ideal_bases:
            for col in basis.T:
                x = algebra.element(col)
                power = x
                for _ in range(algebra.dim - 1):
                    power = power * x
                assert power.coord_norm() < 1e-10


def test_sigma_is_an_algebra_map(dual, split, t3, dual_plus_c):
    rng = np.random.default_rng(31)
    for algebra in (dual, split, t3, dual_plus_c):
        dec = ha.artin_decompose(algebra)
        for k in range(dec.count):
            assert abs(dec.sigma(algebra.unit(), k) - 1) < 1e-10
            for _ in range(20):
                a = algebra.random_element(rng)
                b = algebra.random_element(rng)
                gap = abs(dec.sigma(a * b, k) - dec.sigma(a, k) * dec.sigma(b, k))
                assert gap < 1e-10


def test_reconstruction_from_components(dual, split, t3, dual_plus_c):
    rng = np.random.default_rng(37)
    for algebra in (dual, split, t3, dual_plus_c):
        dec = ha.artin_decompose(algebra)
        for _ in range(20):
            z = algebra.random_element(rng)
            back = algebra.zero()
            for k in range(dec.count):
                back = back + dec.idempotents[k] * dec.project(z, k)
            assert (back - z).coord_norm() < 1e-10


class _Flat:
    """A generator whose 'random' elements are all zero."""

    def standard_normal(self, n):
        return np.zeros(n)


def test_clustering_ambiguous_on_degenerate_generic_element(monkeypatch):
    # force the 'random' generic element to be scalar: all quotient eigenvalues
    # coincide, every retry fails, and the ambiguity is reported; a fresh
    # algebra, since a shared one may already hold a cached decomposition
    split = ha.split_complex()
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _Flat())
    with pytest.raises(ha.errors.ClusteringAmbiguous):
        ha.artin_decompose(split)


def test_failed_decomposition_is_not_cached(monkeypatch):
    split = ha.split_complex()
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda seed=None: _Flat())
        with pytest.raises(ha.errors.ClusteringAmbiguous):
            ha.artin_decompose(split)
    assert ha.artin_decompose(split).count == 2


def counting_worker(monkeypatch):
    """Record the algebra (by id) of every decomposition actually computed."""
    seen = []
    worker = decomposition._decompose

    def counted(algebra):
        seen.append(id(algebra))
        return worker(algebra)

    monkeypatch.setattr(decomposition, "_decompose", counted)
    return seen


def test_decomposition_is_cached_per_algebra(monkeypatch):
    seen = counting_worker(monkeypatch)
    algebra = ha.direct_sum(ha.split_complex(), ha.dual_numbers())
    first = ha.artin_decompose(algebra)
    assert ha.artin_decompose(algebra) is first
    assert seen == [id(algebra)]


def test_decomposition_arrays_are_read_only(dual_plus_c):
    dec = ha.artin_decompose(dual_plus_c)
    arrays = [dec.spectral_rows, dec.nilradical_basis,
              *dec.component_bases, *dec.maximal_ideal_bases]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_decomposition_is_seed_reproducible(monkeypatch):
    # fresh algebras, since the shared fixtures may hold a cached decomposition
    builders = (ha.split_complex, lambda: ha.direct_sum(ha.dual_numbers(), ha.complex_line()))
    first = [ha.artin_decompose(build()) for build in builders]
    for build, d1 in zip(builders, first):
        assert np.array_equal(d1.spectral_rows, ha.artin_decompose(build()).spectral_rows)
    # another generic element finds the same components up to tiny numerical noise
    draw, other, draws = ha.Algebra.random_element, np.random.default_rng(12345), []
    monkeypatch.setattr(ha.Algebra, "random_element",
                        lambda self, rng, scale=1.0: draws.append(1) or draw(self, other, scale))
    for build, d1 in zip(builders, first):
        d3 = ha.artin_decompose(build())
        assert np.abs(d1.spectral_rows - d3.spectral_rows).max() < 1e-8
    assert len(draws) == 2


def test_lifted_idempotents_match_quotient_oracle(dual_plus_c):
    # independent oracle: quotient idempotents from scratch by eigendecomposition
    algebra = dual_plus_c
    dec = ha.artin_decompose(algebra)
    nil = ha.nilradical(algebra)
    # complement of the nilradical and projection along it
    _, _, vh = np.linalg.svd(nil.conj().T)
    comp = vh[nil.shape[1]:].conj().T if nil.shape[1] else np.eye(algebra.dim)
    comp = np.linalg.svd(np.eye(algebra.dim) - nil @ nil.conj().T)[0][:, :algebra.dim - nil.shape[1]]
    mixed = np.column_stack([comp, nil])
    proj = np.linalg.inv(mixed)[: comp.shape[1]]
    rng = np.random.default_rng(0)
    g = algebra.random_element(rng)
    action = np.column_stack([proj @ algebra.mul_coords(g.coords, comp[:, j])
                              for j in range(comp.shape[1])])
    evals, evecs = np.linalg.eig(action)
    quotient_idems = []
    for k in range(len(evals)):
        v = evecs[:, k]
        vv = proj @ algebra.mul_coords(comp @ v, comp @ v)
        c = (v.conj() @ vv) / (v.conj() @ v)
        quotient_idems.append(comp @ (v / c))
    # each lifted idempotent must be congruent to a quotient idempotent mod nilradical
    for e in dec.idempotents:
        gaps = []
        for q in quotient_idems:
            diff = e.coords - q
            # residual of the best approximation inside the nilradical
            coeff, *_ = np.linalg.lstsq(nil, diff, rcond=None)
            gaps.append(np.abs(nil @ coeff - diff).max())
        assert min(gaps) < 1e-10


# -- spectrum -------------------------------------------------------------------------

def test_spectrum_split(split):
    dec = ha.artin_decompose(split)
    a, b = 1.0 + 0.5j, -2.0 + 1.0j
    got = sorted(dec.spectrum(split.element([a, b])), key=lambda z: (z.real, z.imag))
    expected = sorted([a + b, a - b], key=lambda z: (z.real, z.imag))
    assert np.abs(np.array(got) - np.array(expected)).max() < 1e-10


def test_spectrum_dual(dual):
    dec = ha.artin_decompose(dual)
    z = 0.3 - 0.7j
    assert np.abs(dec.spectrum(dual.element([z, 100.0])) - [z]).max() < 1e-10


def test_spectrum_of_unit(dual_plus_c):
    dec = ha.artin_decompose(dual_plus_c)
    assert np.abs(dec.spectrum(dual_plus_c.unit()) - 1).max() < 1e-10


def test_spectrum_matches_eigenvalues_with_multiplicity(dual, split, t3, dual_plus_c):
    rng = np.random.default_rng(41)
    for algebra in (dual, split, t3, dual_plus_c):
        dec = ha.artin_decompose(algebra)
        dims = dec.component_dims
        for _ in range(10):
            z = algebra.random_element(rng)
            expected = []
            for k, d in enumerate(dims):
                expected.extend([dec.sigma(z, k)] * d)
            eig = np.sort_complex(np.linalg.eigvals(z.regular_matrix()))
            assert np.abs(np.sort_complex(np.array(expected)) - eig).max() < 1e-8


def test_sigma_matches_generalized_eigenspace(dual_plus_c):
    algebra = dual_plus_c
    dec = ha.artin_decompose(algebra)
    rng = np.random.default_rng(43)
    for _ in range(10):
        z = algebra.random_element(rng)
        lam = z.regular_matrix()
        for k in range(dec.count):
            nk = dec.component_dims[k]
            shifted = lam - dec.sigma(z, k) * np.eye(algebra.dim)
            power = np.linalg.matrix_power(shifted, nk)
            residual = np.abs(power @ dec.component_bases[k]).max()
            assert residual < 1e-8 * (1 + np.abs(lam).max() ** nk)


def test_spectral_radius_is_max_sigma(dual, split, t3, dual_plus_c):
    rng = np.random.default_rng(47)
    for algebra in (dual, split, t3, dual_plus_c):
        dec = ha.artin_decompose(algebra)
        for _ in range(15):
            z = algebra.random_element(rng)
            assert abs(z.spectral_radius() - np.abs(dec.spectrum(z)).max()) < 1e-10


# -- profiles --------------------------------------------------------------------------

def test_profile_t3(t3):
    prof = ha.profile(t3, ha.artin_decompose(t3))
    assert prof.heights == (3,)
    assert prof.components[0].widths == (1, 1)


def test_profile_dual(dual):
    prof = ha.profile(dual, ha.artin_decompose(dual))
    assert prof.heights == (2,)
    assert prof.components[0].widths == (1,)


def test_profile_split(split):
    prof = ha.profile(split, ha.artin_decompose(split))
    assert prof.heights == (1, 1)
    assert all(c.widths == () for c in prof.components)


def test_profile_widths_sum(dual, t3, dual_plus_c):
    for algebra in (dual, t3, dual_plus_c):
        dec = ha.artin_decompose(algebra)
        prof = ha.profile(algebra, dec)
        for comp, dim in zip(prof.components, dec.component_dims):
            assert sum(comp.widths) + 1 == dim


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_profile_in_a_random_unitary_basis(dual, t3, dual_plus_c, seed):
    # powers of the ideal made only of rounding error must count as zero
    for algebra in (dual, t3, dual_plus_c):
        moved = random_basis_sum(np.random.default_rng(seed), algebra)
        expected = ha.profile(algebra, ha.artin_decompose(algebra))
        prof = ha.profile(moved, ha.artin_decompose(moved))
        assert sorted(prof.heights) == sorted(expected.heights)
        assert sorted(c.widths for c in prof.components) == \
            sorted(c.widths for c in expected.components)


def test_profile_rejects_an_ideal_without_vanishing_power(dual):
    # a unit in place of the maximal ideal never multiplies down to zero
    dec = ha.artin_decompose(dual)
    fake = dataclasses.replace(dec, maximal_ideal_bases=(dual.unit_coords[:, None],))
    with pytest.raises(NotNilpotent, match="within 3 layers"):
        ha.profile(dual, fake)


def test_filtering_basis_depth_order(t3):
    dec = ha.artin_decompose(t3)
    prof = ha.profile(t3, dec)
    basis = prof.components[0].filtering_basis
    assert basis.shape == (3, 3)
    # deepest power (t^2) first, unit last
    assert np.abs(basis[:, 0] - np.array([0, 0, 1]) * basis[2, 0]).max() < 1e-10
    assert_coords(t3.element(basis[:, 2]), [1, 0, 0])


def orthonormal_span(vectors):
    u, s, _ = np.linalg.svd(np.column_stack(vectors), full_matrices=False)
    return u[:, :int(np.sum(s > 1e-9))]


@pytest.mark.parametrize("name", ["t3", "bidual", "random basis"])
def test_filtering_basis_columns_span_the_ideal_powers(name, t3):
    algebra = {"t3": t3, "bidual": ha.bidual(),
               "random basis": random_basis_sum(np.random.default_rng(7), t3, ha.dual_numbers(),
                                                ha.bidual(), ha.complex_line())}[name]
    dec = ha.artin_decompose(algebra)
    for k, comp in enumerate(ha.profile(algebra, dec).components):
        basis = comp.filtering_basis
        ideal = [algebra.element(v) for v in dec.maximal_ideal_bases[k].T]
        power = ideal   # spanning m^i, from the products of i vectors of the ideal
        for i in range(1, comp.height + 1):
            span = orthonormal_span([v.coords for v in power] + [np.zeros(algebra.dim)])
            # the columns of layers i and deeper, sum_{j >= i} d_j of them, come first
            cols = basis[:, :sum(comp.widths[i - 1:])]
            assert np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max(initial=0) < 1e-10
            assert span.shape[1] == cols.shape[1]
            assert np.abs(cols - span @ (span.conj().T @ cols)).max(initial=0) < 1e-10
            power = [x * y for x in ideal for y in power]
