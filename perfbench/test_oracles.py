"""Hand-checked cases for the benchmark's oracles (python3 -m pytest perfbench)."""

import math

import numpy as np

import oracles
from oracles import Circle, OracleAlgebra, Polyline


def test_readme_cubic_over_dual_numbers():
    # f(Z) = (1+2e) Z^3 + (-1+e) Z^2 + (1+3e)
    dual = OracleAlgebra(["dual"])
    coeffs = [[1, 3], [0, 0], [-1, 1], [1, 2]]
    zero = np.zeros(2)
    assert np.allclose(oracles.poly_derivative(dual, coeffs, zero, 0), [1, 3])
    assert np.allclose(oracles.poly_derivative(dual, coeffs, zero, 3) / 6, [1, 2])
    # f'(1) = 3(1+2e) + 2(-1+e) = 1 + 8e
    assert np.allclose(oracles.poly_derivative(dual, coeffs, dual.unit, 1), [1, 8])


def test_dual_inverse_and_exp():
    dual = OracleAlgebra(["dual"])
    z = np.array([2.0, 3.0])
    assert np.allclose(dual.inv(z), [0.5, -0.75])
    assert np.allclose(dual.exp(np.array([0.5, 2.0])), [math.exp(0.5), 2 * math.exp(0.5)])


def test_split_characters_and_idempotents():
    split = OracleAlgebra(["split"])
    assert np.allclose(split.characters(np.array([3.0, 1.0])), [4, 2])
    e1, e2 = split.idempotents
    assert np.allclose(split.mul(e1, e1), e1)
    assert np.allclose(split.mul(e1, e2), 0)
    assert np.allclose(e1 + e2, split.unit)


def test_direct_sum_in_a_random_basis_keeps_its_structure():
    rng = np.random.default_rng(0)
    alg = OracleAlgebra(["dual", "split", "t3"], oracles.random_unitary(rng, 7))
    assert alg.component_dims == (2, 1, 1, 3)
    assert alg.heights == (2, 1, 1, 3)
    assert np.allclose(alg.alpha, alg.alpha.transpose(1, 0, 2))
    x, y = rng.standard_normal(7), rng.standard_normal(7)
    assert np.allclose(alg.mul(alg.unit, x), x)
    assert np.allclose(alg.mul(alg.mul(x, y), x), alg.mul(x, alg.mul(y, x)))
    for i, a in enumerate(alg.idempotents):
        for j, b in enumerate(alg.idempotents):
            assert np.allclose(alg.mul(a, b), a if i == j else 0)
    assert np.allclose(alg.rows @ alg.idempotents.T, np.eye(4))
    for col in alg.nil_basis.T:
        assert np.allclose(alg.mul(col, alg.mul(col, col)), 0)   # height 3 at most
        assert np.allclose(alg.characters(col), 0)


def test_windings_of_circles_and_polylines():
    dual = OracleAlgebra(["dual"])
    u, zero = dual.unit, np.zeros(2, dtype=complex)
    row = dual.rows[0]
    circle = Circle(zero, 1.0, u)
    assert oracles.winding_and_distance(circle, row, 0.2) == (1, 0.8)
    assert oracles.winding_and_distance(Circle(zero, 1.0, u, turns=-2), row, 0j)[0] == -2
    wind, dist = oracles.winding_and_distance(circle, row, 3.0)
    assert (wind, dist) == (0, 2.0)
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    ccw = Polyline(tuple(s * u for s in square))
    cw = Polyline(tuple(s * u for s in reversed(square)))
    assert oracles.winding_and_distance(ccw, row, 0.3j) == (1, 0.7)
    assert oracles.winding_and_distance(cw, row, 0j)[0] == -1
    assert oracles.winding_and_distance(ccw, row, 5.0)[0] == 0


def test_cycle_windings_per_character():
    split = OracleAlgebra(["split"])
    u = split.unit
    terms = [(1, Circle(-0.7 * u, 0.5, u)), (-1, Circle(0.7 * u, 0.5, u))]
    # characters -0.7 and 0.7: inside the first circle and inside the second
    z = split.element([-0.7, 0.7])
    assert [w for w, _ in oracles.cycle_windings(terms, split.rows, z)] == [1, -1]
    assert np.allclose(oracles.index_element(split, [1, -1]), [0, 1])   # e1 - e2 = j
