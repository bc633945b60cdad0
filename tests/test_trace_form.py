"""The local structure read off the regular trace: component dimensions,
spectral rows and component bases against the former rank-cutoff construction,
the work a decomposition does, and the integer partition check."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import holoalg as ha
from holoalg import decomposition
from holoalg.errors import ClusteringAmbiguous

from test_batched import random_basis_sum
from test_node_kernels import FACTORS, checked, linalg_impl


@st.composite
def direct_sums(draw):
    """A direct sum of catalog factors (dim 1-10) in a random complex unitary basis."""
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=4)
                 .filter(lambda ns: sum(FACTORS[n].dim for n in ns) <= 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_basis_sum(rng, *(FACTORS[n] for n in names))


def column_space(mat, scale=None):
    """The former rank-cutoff column space: singular values up to 1e-10 times
    ``scale`` (default: the largest singular value) count as zero."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :int(np.sum(s > 1e-10 * (s[0] if scale is None else scale)))]


def rank_cutoff_finish(algebra, nil_basis, idempotents):
    """The former component construction, kept as a reference: per idempotent,
    the component and maximal-ideal bases by rank-cutoff SVDs of lambda(e) and
    lambda(e) times the nilradical, and the spectral row by a least-squares
    solve of a_j e = sigma(a_j) e + (ideal part).  In the order given."""
    bases, ideals, rows = [], [], []
    for e in idempotents:
        lam_e = e.regular_matrix()
        bases.append(column_space(lam_e))
        # cut off against |e|, not the product: e * nil is 0 on a reduced factor
        ideals.append(column_space(lam_e @ nil_basis, scale=np.linalg.norm(lam_e)))
        frame = np.column_stack([e.coords.reshape(-1, 1), ideals[-1]])
        rows.append(np.linalg.lstsq(frame, lam_e, rcond=None)[0][0])
    return bases, ideals, np.array(rows)


def projector(basis):
    return basis @ basis.conj().T


@checked
@given(direct_sums())
def test_trace_form_matches_the_rank_cutoff_construction(algebra):
    dec = ha.artin_decompose(algebra)
    bases, ideals, rows = rank_cutoff_finish(algebra, dec.nilradical_basis, dec.idempotents)
    assert dec.component_dims == tuple(b.shape[1] for b in bases)
    assert np.abs(dec.spectral_rows - rows).max() < 1e-12
    for got, expected in zip(dec.component_bases + dec.maximal_ideal_bases, bases + ideals):
        assert got.shape == expected.shape
        assert np.abs(projector(got) - projector(expected)).max() < 1e-12
    widths = [sum(c.widths) for c in ha.profile(algebra, dec).components]
    assert widths == [d - 1 for d in dec.component_dims]


@pytest.mark.parametrize("algebra, count", [
    (FACTORS["dual"], 1),
    (random_basis_sum(np.random.default_rng(7), FACTORS["t3"], FACTORS["split"], FACTORS["dual"]), 4),
], ids=["dual", "random-basis-t3+split+dual"])
def test_decompose_makes_three_svds_and_no_solve(monkeypatch, algebra, count):
    calls = []
    for name in ("svd", "lstsq", "inv"):
        def counted(*args, name=name, real=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg_impl, name, counted)
        monkeypatch.setattr(np.linalg, name, counted)
    dec = decomposition._decompose(algebra)
    monkeypatch.undo()
    assert calls == ["svd"] * 3
    assert dec.count == count


def test_finish_refuses_idempotents_that_do_not_partition_the_dimension(split):
    # one of split-complex's two idempotents has trace 1, not 2 = dim
    dec = ha.artin_decompose(split)
    with pytest.raises(ClusteringAmbiguous, match=r"traces 1 are not .* dimension 2"):
        decomposition._finish(split, dec.nilradical_basis, dec.idempotents[:1])
