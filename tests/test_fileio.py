import json

import numpy as np
import pytest

import holoalg as ha
from holoalg import fileio
from holoalg.errors import SchemaError

from conftest import cubic_example


def test_algebra_round_trip(dual, split, t3):
    for algebra, name in ((dual, "dual"), (split, "split"), (t3, "t3")):
        data = fileio.algebra_to_json(algebra, name)
        back, back_name = fileio.algebra_from_json(json.loads(json.dumps(data)))
        assert back_name == name
        assert np.array_equal(back.alpha, algebra.alpha)
        assert np.abs(back.unit_coords - algebra.unit_coords).max() < 1e-12


def test_algebra_schema_errors():
    with pytest.raises(SchemaError):
        fileio.algebra_from_json([1, 2, 3])
    with pytest.raises(SchemaError):
        fileio.algebra_from_json({"dim": 2, "alpha": [[[1, 0]]]})
    with pytest.raises(SchemaError):
        fileio.algebra_from_json({"dim": 1, "alpha": [[["x"]]]})
    for dim in (0, -1):
        with pytest.raises(SchemaError, match="dim must be >= 1"):
            fileio.algebra_from_json({"dim": dim, "alpha": []})
    with pytest.raises(SchemaError, match="basis label"):
        fileio.algebra_from_json({"dim": 1, "basis": ["a", "b"], "alpha": [[[[1, 0]]]]})


def test_element_round_trip(dual):
    e = dual.element([1.5 - 0.25j, 3.0 + 2.0j])
    back = fileio.element_from_json(dual, fileio.element_to_json(e))
    assert (back - e).coord_norm() == 0.0
    with pytest.raises(SchemaError):
        fileio.element_from_json(dual, [[1, 0]])


def test_morphism_round_trip(dual, cline, sigma_dual):
    data = fileio.morphism_to_json(sigma_dual, "dual", "C")
    back = fileio.morphism_from_json(data, dual, cline)
    assert np.array_equal(back.matrix, sigma_dual.matrix)
    with pytest.raises(SchemaError):
        fileio.morphism_from_json({"source": "a", "target": "b"}, dual, cline)


def test_function_round_trip(dual, id_dual):
    cubic = cubic_example(dual, id_dual)
    data = fileio.function_to_json(cubic)
    back = fileio.function_from_json(data, id_dual)
    for k in range(4):
        assert (back.coefficient(k) - cubic.coefficient(k)).coord_norm() == 0.0
    with pytest.raises(SchemaError):
        fileio.function_from_json({"type": "rational"}, id_dual)


def test_scalar_series_file(dual):
    data = {"type": "canonical", "center": [0.0, 0.0], "height": 2,
            "scalar_taylor": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
    g, height = fileio.scalar_series_from_json(data, dual)
    assert height == 2
    assert (g.derivative(0.5) - dual.scalar(0.5)).coord_norm() < 1e-12
    again, h2 = fileio.scalar_series_from_json(
        json.loads(json.dumps(fileio.scalar_series_to_json(g, height))), dual)
    assert h2 == 2 and (again.derivative(0.5) - g.derivative(0.5)).coord_norm() == 0.0


def test_algebra_dim_must_be_a_json_integer():
    for dim in (2.0, "2", True, None, [2]):
        with pytest.raises(SchemaError, match="JSON integer"):
            fileio.algebra_from_json({"dim": dim, "alpha": []})
    # checked before anything of size dim^3 is allocated
    with pytest.raises(SchemaError, match="100000 x 100000 x 100000 nest"):
        fileio.algebra_from_json({"dim": 100000, "alpha": []})


@pytest.mark.parametrize("height", ["x", None, [1], 2.5, -1, True])
def test_scalar_series_height_must_be_a_non_negative_integer(dual, height):
    data = {"type": "canonical", "center": [0.0, 0.0], "height": height,
            "scalar_taylor": [[[1.0, 0.0], [0.0, 0.0]]]}
    with pytest.raises(SchemaError, match="height"):
        fileio.scalar_series_from_json(data, dual)


def test_path_round_trips(dual):
    circle = ha.Path.circle(dual.element([0.5, 0.5]), 2.0, turns=-3,
                            direction=dual.element([0, 1]))
    back = fileio.path_from_json(fileio.path_to_json(circle), dual)
    assert back.kind == "circle"
    assert back.segments[0].turns == -3
    poly = ha.Path.polyline([dual.zero(), dual.unit(), dual.scalar(1j), dual.zero()])
    back = fileio.path_from_json(fileio.path_to_json(poly), dual)
    assert back.closed and len(back.segments) == 3
    pts = [dual.scalar(np.exp(2j * np.pi * t)) for t in np.linspace(0, 1, 33)]
    samples = ha.Path.samples(pts, smooth=True)
    back = fileio.path_from_json(fileio.path_to_json(samples), dual)
    assert back.kind == "samples" and back.smooth
    with pytest.raises(SchemaError):
        fileio.path_from_json({"type": "spiral"}, dual)


def test_mapped_and_reversed_paths_round_trip(dual, cline, sigma_dual):
    circle = ha.Path.circle(dual.element([0.5, 0.5]), 2.0, direction=dual.element([1, 1]))
    poly = ha.Path.polyline([dual.zero(), dual.unit(), dual.scalar(1j), dual.zero()])
    cases = [(circle.reversed(), dual), (circle.translate(dual.element([1, -2j])), dual),
             (circle.pushforward(sigma_dual), cline), (poly.reversed(), dual)]
    for path, algebra in cases:
        back = fileio.path_from_json(json.loads(json.dumps(fileio.path_to_json(path))), algebra)
        assert (back.kind, back.closed) == (path.kind, path.closed)
        ts = np.linspace(0.0, 1.0, 7)
        for a, b in zip(back.segments, path.segments, strict=True):
            assert np.abs(a.points(ts) - b.points(ts)).max() < 1e-12
            assert np.abs(a.velocities(ts) - b.velocities(ts)).max() < 1e-12


def test_cycle_round_trip(dual):
    cycle = ha.Cycle(((1, ha.Path.circle(dual.zero(), 1.0)),
                      (-1, ha.Path.circle(dual.element([0, 1]), 1.0))))
    back = fileio.cycle_from_json(fileio.cycle_to_json(cycle), dual)
    assert [m for m, _ in back.terms] == [1, -1]
    # a bare path file is accepted as a one-term cycle
    one = fileio.cycle_from_json(fileio.path_to_json(ha.Path.circle(dual.zero(), 1.0)), dual)
    assert len(one.terms) == 1
