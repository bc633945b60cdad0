"""The local expansion sum_l sum_j T_j(s_l) e_l n_l^j behind the series inverse
and the unit-group logarithm and exponential, on direct sums of catalog
factors in random complex unitary bases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import holoalg as ha
from holoalg import decomposition
from holoalg.algebra import _batch_regular

from test_batched import random_basis_sum
from test_node_kernels import FACTORS

checked = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def units(draw):
    """A direct sum of catalog factors (dim 2-10) in a random unitary basis, its
    decomposition, and a unit whose characters have moduli in [0.6, 1.6] and
    whose nilpotent part is a random point of the nilradical."""
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=4)
                 .filter(lambda ns: 2 <= sum(FACTORS[n].dim for n in ns) <= 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    algebra = random_basis_sum(rng, *(FACTORS[n] for n in names))
    dec = ha.artin_decompose(algebra)
    chars = np.exp(rng.uniform(-0.5, 0.5, dec.count) + 2j * np.pi * rng.uniform(size=dec.count))
    nil = dec.nilradical_basis
    shift = 0.5 * (rng.standard_normal(nil.shape[1]) + 1j * rng.standard_normal(nil.shape[1]))
    idempotents = np.column_stack([e.coords for e in dec.idempotents])
    return algebra, dec, algebra.element(idempotents @ chars + nil @ shift)


def reference_logs(u, dec):
    """log(1 + x/s) per component by the Element loop of the alternating series."""
    out = []
    for k in range(dec.count):
        s = dec.sigma(u, k)
        y = dec.nilpotent_part(u, k) * (1.0 / s)
        log, power = u.algebra.zero(), y
        for j in range(1, u.algebra.dim + 1):
            log, power = log + ((-1) ** (j + 1) / j) * power, power * y
        out.append((s, log))
    return out


def close(got, expected, tol=1e-10):
    return np.linalg.norm(got.coords - expected.coords) <= tol * (1 + expected.coord_norm())


@checked
@given(units())
def test_series_inverse_matches_the_linear_solve(case):
    _, dec, u = case
    inverse = ha.invert(u)
    got = ha.invert_via_series(u, dec)
    assert np.linalg.norm(got.coords - inverse.coords) <= 1e-10 * inverse.coord_norm()


@checked
@given(units())
def test_unit_group_log_and_exp_round_trip(case):
    _, dec, u = case
    parts = ha.unit_group_coords(u, dec)
    for (s, log), (s_ref, log_ref) in zip(parts, reference_logs(u, dec), strict=True):
        assert abs(s - s_ref) <= 1e-12 * abs(s_ref)
        assert close(log, log_ref)
    assert close(ha.unit_group_exp(parts, dec), u)


def test_local_expansion_makes_no_element_arithmetic(monkeypatch):
    rng = np.random.default_rng(29)
    algebra = random_basis_sum(rng, FACTORS["t3"], FACTORS["bidual"], FACTORS["dual"],
                               FACTORS["C"])
    assert algebra.dim == 10
    dec = ha.artin_decompose(algebra)
    u = algebra.unit() + algebra.element(0.3 * dec.nilradical_basis.sum(axis=1))
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
        def counted(a, b, method=getattr(ha.Element, name), name=name):
            calls.append(name)
            return method(a, b)
        monkeypatch.setattr(ha.Element, name, counted)
    inverse = ha.invert_via_series(u, dec)
    back = ha.unit_group_exp(ha.unit_group_coords(u, dec), dec)
    nil = ha.nilradical(algebra)
    assert calls == []
    monkeypatch.undo()
    assert close(inverse * u, algebra.unit()) and close(back, u)
    assert nil.shape == dec.nilradical_basis.shape


@checked
@given(units())
def test_local_inverse_matches_the_linear_solve(case):
    algebra, dec, u = case
    w = np.column_stack([u.coords, (u * u).coords, (0.5j * u).coords])
    rhs = np.broadcast_to(algebra.unit_coords[:, None], (algebra.dim, 3))
    want = np.linalg.solve(_batch_regular(algebra, w), rhs.T[:, :, None])[:, :, 0].T
    got = decomposition._local_inverse(dec, w)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_local_inverse_runs_one_product_per_height_step(monkeypatch):
    # bidual numbers: one component of dimension 4 and height 3 (xy != 0 = x^2 = y^2)
    bidual = ha.bidual()
    dec = ha.artin_decompose(bidual)
    assert dec.component_dims == (4,) and ha.profile(bidual, dec).heights == (3,)
    products = []
    apply = decomposition._batch_apply
    monkeypatch.setattr(decomposition, "_batch_apply",
                        lambda lams, x: products.append(1) or apply(lams, x))
    u = bidual.element([1.5, 0.4, -0.3j, 0.7])
    inverse = ha.invert_via_series(u, dec)
    assert len(products) == 2
    monkeypatch.undo()
    assert close(inverse * u, bidual.unit())
