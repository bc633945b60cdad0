"""The closed-form windings and clearances against independent oracles:
the quadrature index, and brute-force distances to densely sampled curves."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import holoalg as ha
from holoalg.contour import ADMISSIBILITY_RESOLUTION

from test_batched import random_basis_sum
from test_node_kernels import FACTORS

ALGEBRAS = {
    "split": ha.split_complex(),
    "dual+C": ha.direct_sum(ha.dual_numbers(), ha.complex_line()),
    "split+dual": ha.direct_sum(ha.split_complex(), ha.dual_numbers()),
}
ORACLE_SAMPLES = 100_000
MARGIN = 0.05   # least clearance of a drawn point, so that quadrature stays cheap

checked = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def random_path(rng, algebra, kind, turns, vertices):
    if kind == "circle":
        direction = algebra.unit() + algebra.random_element(rng, 0.4)   # not the unit
        return ha.Path.circle(algebra.random_element(rng, 0.5), rng.uniform(0.5, 2.0),
                              turns, direction)
    # a random, usually self-crossing, closed polygon
    points = [algebra.random_element(rng, 1.5) for _ in range(vertices)]
    return ha.Path.polyline(points + points[:1])


@st.composite
def cycles_and_points(draw):
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    algebra = ALGEBRAS[name]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["circle", "polyline"]))
        path = random_path(rng, algebra, kind, draw(st.sampled_from([-2, -1, 0, 1, 2])),
                           draw(st.integers(3, 8)))
        terms.append((draw(st.sampled_from([-2, -1, 1, 2])), path))
    return algebra, ha.Cycle(tuple(terms)), algebra.random_element(rng, 1.5)


def brute_force(path, row, w0):
    """Least distance of w0 to ORACLE_SAMPLES points of row(path), and their spacing."""
    per_seg = ORACLE_SAMPLES // len(path.segments)
    ts = np.linspace(0.0, 1.0, per_seg)
    curves = [row @ seg.points(ts) for seg in path.segments]
    dist = min(float(np.abs(w - w0).min()) for w in curves)
    spacing = max(float(np.abs(np.diff(w)).max()) for w in curves)
    return dist, spacing


@checked
@given(cycles_and_points())
def test_spectral_index_is_the_rounded_quadrature_index(case):
    algebra, cycle, Z0 = case
    phi = ha.identity_morphism(algebra)
    report = ha.admissibility(cycle, Z0, phi)
    assume(report.admissible and min(report.clearances) > MARGIN)
    spectral = ha.index_spectral(cycle, Z0, phi)
    quad = ha.index_quadrature(cycle, Z0, phi)
    rows = ha.artin_decompose(algebra).spectral_rows
    assert tuple(int(v) for v in np.round((rows @ quad.coords).real)) == spectral.values
    assert (quad - spectral.element).coord_norm() < 1e-8


@checked
@given(cycles_and_points())
def test_clearances_match_brute_force_distances(case):
    algebra, cycle, Z0 = case
    phi = ha.identity_morphism(algebra)
    report = ha.admissibility(cycle, Z0, phi)
    rows = ha.artin_decompose(algebra).spectral_rows
    for k, clearance, threshold in zip(report.active_components, report.clearances,
                                       report.thresholds):
        w0 = complex(rows[k] @ Z0.coords)
        sampled = [brute_force(path, rows[k], w0) for _, path in cycle.terms]
        dist = min(d for d, _ in sampled)
        spacing = max(s for _, s in sampled)
        # the sampled curve lies on the exact one: never nearer, at most a spacing farther
        assert clearance - 1e-12 <= dist <= clearance + spacing + 1e-12
        sigma = ha.build_morphism(algebra, ha.complex_line(), rows[k:k + 1])
        lengths = [ha.length(path, sigma, "operator") for _, path in cycle.terms]
        assert threshold == pytest.approx(2 * ADMISSIBILITY_RESOLUTION * max(lengths),
                                          rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_forbidden_band_is_twice_the_resolution_times_the_length(name):
    algebra = ALGEBRAS[name]
    phi = ha.identity_morphism(algebra)
    square = [1.5 + 1.5j, -1.5 + 1.5j, -1.5 - 1.5j, 1.5 - 1.5j, 1.5 + 1.5j]
    paths = {"circle": (ha.Path.circle(algebra.zero(), 2.0), 2.0, 2 * math.pi * 2.0),
             "square": (ha.Path.polyline([algebra.scalar(c) for c in square]), 1.5, 12.0)}
    for path, edge, arc in paths.values():
        threshold = 2 * ADMISSIBILITY_RESOLUTION * arc
        for factor, admissible in ((0.5, False), (2.0, True)):
            # inside, at distance factor * threshold from the projected curve
            Z0 = algebra.scalar(edge - factor * threshold)
            report = ha.admissibility(path, Z0, phi)
            assert report.thresholds == pytest.approx((threshold,) * len(report.thresholds))
            assert report.clearances == pytest.approx((factor * threshold,)
                                                      * len(report.clearances))
            assert report.admissible is admissible


# -- the line rule on generic algebras --------------------------------------------

def random_polyline(rng, algebra):
    """A closed polyline: a square, rotated, scaled and moved, with its corners
    along a random direction (not the unit), or a random closed polygon."""
    if rng.random() < 0.5:
        center, direction = algebra.random_element(rng, 0.5), algebra.random_element(rng, 0.3)
        corner = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        points = [center + (algebra.unit() + direction) * (corner * 1j ** k) for k in range(4)]
    else:
        points = [algebra.random_element(rng, 1.5) for _ in range(rng.integers(3, 9))]
    return ha.Path.polyline(points + points[:1])


@st.composite
def polyline_cycles_and_points(draw):
    """Cycles of one or two closed polylines over a direct sum of catalog
    factors (dim at most 7) in a random unitary basis, and a point."""
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3)
                 .filter(lambda ns: sum(FACTORS[n].dim for n in ns) <= 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    algebra = random_basis_sum(rng, *(FACTORS[n] for n in names))
    terms = tuple((draw(st.sampled_from([-2, -1, 1, 2])), random_polyline(rng, algebra))
                  for _ in range(draw(st.integers(1, 2))))
    return algebra, ha.Cycle(terms), algebra.random_element(rng, 1.5)


@checked
@given(polyline_cycles_and_points())
def test_line_rule_index_matches_the_spectral_index(case):
    algebra, cycle, Z0 = case
    phi = ha.identity_morphism(algebra)
    report = ha.admissibility(cycle, Z0, phi)
    assume(report.admissible and min(report.clearances) > MARGIN)
    spectral = ha.index_spectral(cycle, Z0, phi)
    assert (ha.index_quadrature(cycle, Z0, phi) - spectral.element).coord_norm() < 1e-8
