"""The four benchmark workloads: inputs from a seed, operations, and checks.

A workload builds its inputs once from the seed and exposes one pass: a
fixed list of operations.  Every run executes whole passes, so the mix of
operations in a run is the same whatever the seed or the run length.
Each operation returns what holoalg computed; ``check`` compares it with
the oracles of ``oracles.py`` and returns a list of problems (empty when
the result is right).  An operation that hits a fault of the program
raises, and is counted as failed.

Seeds draw bases, phases and angles, never magnitudes: every point sits at a
fixed distance class from its curves and every coefficient has a fixed
modulus.  In ``structure`` the seed also picks the factors of each direct
sum, whose dimension is fixed.  That keeps the amount of work, and with it
the run time, nearly the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from oracles import Circle, OracleAlgebra, Polyline

# The one operation that fails every time, on a fault of the program that no
# seed changes: `holoalg validate` on an algebra file with "dim": 0.  Any other
# failed operation makes a run incorrect.
KNOWN_FAULT = "validate_dim0"

MARGIN = 0.2   # least distance of a projected point from every projected curve
TOL = 1e-8     # agreement asked of values, derivatives, coefficients, indices


class OperationFailed(Exception):
    """The program misbehaved in a way that is a fault, not a wrong number."""


@dataclass
class Operation:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


def phases(rng: np.random.Generator, shape, modulus: float) -> np.ndarray:
    return modulus * np.exp(2j * np.pi * rng.random(shape))


def close(got, expected, tol: float = TOL) -> float | None:
    """None when |got - expected| <= tol * max(1, |expected|), else the gap."""
    got = np.asarray(got, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    gap = float(np.abs(got - expected).max()) if expected.size else 0.0
    scale = max(1.0, float(np.abs(expected).max()) if expected.size else 0.0)
    return None if gap <= tol * scale else gap


def expect(problems: list, label: str, got, expected, tol: float = TOL) -> None:
    gap = close(got, expected, tol)
    if gap is not None:
        problems.append(f"{label}: off by {gap:.3e}")


def build(ha, alg: OracleAlgebra):
    return ha.build_algebra(ha.StructureTensor(alg.dim, alg.alpha))


def to_path(ha, A, curve, sampled: bool = False):
    if isinstance(curve, Circle):
        return ha.Path.circle(A.element(curve.center), curve.radius, curve.turns,
                              A.element(curve.direction))
    points = [A.element(p) for p in curve.points]
    return ha.Path.samples(points, smooth=True) if sampled else ha.Path.polyline(points)


def to_cycle(ha, A, terms, sampled=False):
    return ha.Cycle(tuple((mult, to_path(ha, A, c, sampled)) for mult, c in terms))


def scalar_curves(alg: OracleAlgebra):
    """The four index cycles, as scalar multiples of the unit."""
    u = alg.unit
    zero = np.zeros(alg.dim, dtype=complex)
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    ts = np.arange(128) / 128.0
    ellipse = list(1.5 * np.cos(2 * np.pi * ts) + 0.8j * np.sin(2 * np.pi * ts))
    ellipse.append(ellipse[0])
    return {
        # name: (terms, sampled, scalar position classes (center, radius))
        "circle": ([(1, Circle(zero, 1.0, u))], False, [(0, 0.5), (0, 1.6)]),
        "square": ([(1, Polyline(tuple(s * u for s in square)))], False,
                   [(0, 0.5), (0, 2.0)]),
        "ellipse": ([(1, Polyline(tuple(s * u for s in ellipse)))], True,
                    [(0, 0.4), (0, 2.0)]),
        "two_circles": ([(1, Circle(-0.7 * u, 0.5, u)), (-1, Circle(0.7 * u, 0.5, u))],
                        False, [(-0.7, 0.2), (0.7, 0.2), (0, 1.8)]),
    }


def admissible_point(rng, alg: OracleAlgebra, terms, classes, p: int) -> np.ndarray:
    """A point whose k-th character lies in class (p + k) of ``classes``, at an
    angle drawn from the seed, at least MARGIN away from every projected curve.
    """
    scalars = []
    for k, row in enumerate(alg.rows):
        center, radius = classes[(p + k) % len(classes)]
        for _ in range(1000):
            s = center + radius * np.exp(2j * np.pi * rng.random())
            z = s * alg.idempotents[k]
            if min(d for _, d in oracles.cycle_windings(terms, [row], z)) >= MARGIN:
                break
        else:
            raise RuntimeError("no admissible point found")
        scalars.append(s)
    return alg.element(scalars, phases(rng, alg.nil_basis.shape[1], 0.3))


# ---------------------------------------------------------------------------
# index: admissibility + spectral index + quadrature index
# ---------------------------------------------------------------------------

# Points per cycle (circle, square, ellipse, two circles) for dual, split and
# the dim-7 sum.  Sorted by cost, the 18 cheap dual and split operations lie
# below the dim-7 square operations (about 25 ms) and 18 dearer ones above
# them, so the median of the 44 operations falls in the middle of the eight
# dim-7 square operations, three operations away from either neighbour group.
# The pass runs the groups interleaved, not one after another.
POINTS_PER_CYCLE = ((3, 3, 3, 3), (3, 3, 3, 3), (4, 8, 4, 4))


def index_workload(ha, seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 1])
    algebras = [OracleAlgebra(["dual"]), OracleAlgebra(["split"]),
                OracleAlgebra(["dual", "split", "t3"], oracles.random_unitary(rng, 7))]
    ops = []
    for alg, counts in zip(algebras, POINTS_PER_CYCLE):
        A = build(ha, alg)
        phi = ha.identity_morphism(A)
        for points, (kind, (terms, sampled, classes)) in zip(counts, scalar_curves(alg).items()):
            cycle = to_cycle(ha, A, terms, sampled)
            for p in range(points):
                z = admissible_point(rng, alg, terms, classes, p)
                windings = [w for w, _ in oracles.cycle_windings(terms, alg.rows, z)]
                ops.append(((p + 0.5) / points,
                            Operation(kind, _index_run(ha, cycle, A.element(z), phi),
                                      _index_check(alg, windings))))
    # each group's operations spread evenly through the pass, so that they
    # sample the machine's speed over the whole pass, not over a fraction of
    # a second
    return [op for _, op in sorted(ops, key=lambda t: t[0])]


def _index_run(ha, cycle, Z0, phi):
    def run():
        adm = ha.admissibility(cycle, Z0, phi)
        spectral = ha.index_spectral(cycle, Z0, phi)
        quad = ha.index_quadrature(cycle, Z0, phi)
        return adm, spectral, quad
    return run


def _index_check(alg, windings):
    expected = oracles.index_element(alg, windings)

    def check(result):
        adm, spectral, quad = result
        problems = []
        if not adm.admissible:
            problems.append("admissible point reported inadmissible")
        if sorted(spectral.values) != sorted(windings):
            problems.append(f"spectral index {spectral.values} != windings {windings}")
        expect(problems, "spectral index element", spectral.element.coords, expected)
        expect(problems, "quadrature index", quad.coords, spectral.element.coords)
        expect(problems, "quadrature vs closed form", quad.coords, expected)
        return problems
    return check


# ---------------------------------------------------------------------------
# cif: Cauchy integral formulas and Taylor recovery
# ---------------------------------------------------------------------------

# three derivative orders per morphism, so that the cheap value and derivative
# operations outnumber the taylor and homological ones two to one and the
# median operation falls inside the cheap group, not between the groups
CIF_KINDS = ("value", "derivative", "derivative", "derivative", "taylor", "homological")
TAYLOR_K = 6


def cif_workload(ha, seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 2])
    specs = [
        (OracleAlgebra(["dual"]), None, None),
        (OracleAlgebra(["t3"]), None, None),
        (OracleAlgebra(["bidual"]), None, None),
        (OracleAlgebra(["dual", "split"], oracles.random_unitary(rng, 4)), None, None),
        # the spectral projection sigma: dual -> C
        (OracleAlgebra(["dual"]), OracleAlgebra(["C"]), np.array([[1.0, 0.0]])),
    ]
    ops = []
    for m, (src, tgt, mat) in enumerate(specs):
        A = build(ha, src)
        if tgt is None:
            tgt, mat = src, np.eye(src.dim)
            B, phi = A, ha.identity_morphism(A)
        else:
            B = build(ha, tgt)
            phi = ha.build_morphism(A, B, mat)
        rows = tgt.rows @ mat          # characters of the target pulled back to A
        nil = src.nil_basis.shape[1]
        center = src.element(phases(rng, len(src.rows), 0.3), phases(rng, nil, 0.3))
        circle = [(1, Circle(center, 1.0, src.unit))]

        def inside():
            return center + src.element(phases(rng, len(src.rows), 0.4), phases(rng, nil, 0.4))

        for j, kind in enumerate(CIF_KINDS):
            degree = 3 + (m + j) % 4
            coeffs = [phases(rng, tgt.dim, 0.5) for _ in range(degree + 1)]
            series = ha.PowerSeries.polynomial(phi, A.zero(), [B.element(c) for c in coeffs])
            f = series.sampler()

            def deriv(z, order, coeffs=coeffs):
                return oracles.poly_derivative(tgt, coeffs, mat @ z, order)

            if kind == "homological":
                offset = src.nil_basis @ phases(rng, nil, 1.0)
                terms = circle + [(-1, Circle(center + offset, 1.0, src.unit))]
                z = inside()
            else:
                terms = circle
                z = center if kind == "taylor" else inside()
            windings = [w for w, _ in oracles.cycle_windings(terms, rows, z)]
            index = oracles.index_element(tgt, windings)
            cycle = to_cycle(ha, A, terms)
            Z0 = A.element(z)
            if kind == "value":
                run = (lambda f=f, c=cycle, Z0=Z0, phi=phi: ha.cif_value(f, c, Z0, phi))
                check = _cif_check(tgt.mul(deriv(z, 0), index))
            elif kind == "derivative":
                order = j
                run = (lambda f=f, c=cycle, Z0=Z0, phi=phi, k=order:
                       ha.cif_derivative(f, c, Z0, k, phi))
                check = _cif_check(tgt.mul(deriv(z, order), index))
            elif kind == "taylor":
                run = (lambda f=f, c=cycle, Z0=Z0, phi=phi:
                       ha.taylor_from_contour(f, c, Z0, TAYLOR_K, phi))
                check = _taylor_check([deriv(z, k) / math.factorial(k)
                                       for k in range(TAYLOR_K + 1)])
            else:
                run = (lambda f=f, c=cycle, Z0=Z0, phi=phi:
                       ha.homological_cif_check(f, c, Z0, phi))
                check = _homological_check(windings)
            ops.append(Operation(kind, run, check))
    return ops


def _cif_check(expected):
    def check(result):
        problems = []
        expect(problems, "contour integral", result.coords, expected)
        return problems
    return check


def _taylor_check(expected):
    def check(series):
        problems = []
        for k, b in enumerate(expected):
            expect(problems, f"Taylor coefficient {k}", series.coefficient(k).coords, b)
        return problems
    return check


def _homological_check(windings):
    def check(report):
        problems = []
        if sorted(report.index.values) != sorted(windings):
            problems.append(f"index {report.index.values} != windings {windings}")
        if not report.cif_residual < 1e-9:
            problems.append(f"homological residual {report.cif_residual:.3e}")
        if not report.integral_norm < 1e-9:
            problems.append(f"null-homologous integral {report.integral_norm:.3e}")
        return problems
    return check


# ---------------------------------------------------------------------------
# structure: a fresh algebra per operation through the algebraic layers
# ---------------------------------------------------------------------------

STRUCTURE_DIMS = tuple(range(2, 11)) * 3
NILPOTENT_FACTORS = ("dual", "t3", "bidual")


def factor_names(rng, dim: int) -> list[str]:
    """A seeded direct sum of catalog factors of total dimension ``dim`` with
    at least one factor that has a nilradical."""
    while True:
        names, left = [], dim
        while left:
            fits = [n for n, f in oracles.FACTORS.items() if f.dim <= left]
            name = fits[rng.integers(len(fits))]
            names.append(name)
            left -= oracles.FACTORS[name].dim
        if any(n in NILPOTENT_FACTORS for n in names):
            return names


def structure_workload(ha, seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for dim in STRUCTURE_DIMS:
        names = factor_names(rng, dim)
        alg = OracleAlgebra(names, oracles.random_unitary(rng, dim))
        local = OracleAlgebra([next(n for n in names if n in NILPOTENT_FACTORS)])
        nil = alg.nil_basis.shape[1]
        M = len(alg.rows)
        inputs = {
            "unit": alg.element(phases(rng, M, 1.0), phases(rng, nil, 0.5)),
            "N": alg.nil_basis @ phases(rng, nil, 0.5),
            "W": phases(rng, dim, 0.5),
            "points": [phases(rng, dim, 1.0) for _ in range(dim)],
            "Zg": phases(rng, dim, 0.5),
            "Zs": alg.element(phases(rng, M, 0.5), phases(rng, nil, 0.3)),
            "Zc": local.element(phases(rng, 1, 0.5), phases(rng, local.nil_basis.shape[1], 0.5)),
        }
        ops.append(Operation("structure", _structure_run(ha, alg, local, inputs),
                             _structure_check(alg, local, inputs)))
    return ops


def _exp_rule(unit):
    return lambda j: math.exp(-math.lgamma(j + 1)) * unit


def _structure_run(ha, alg, local, inputs):
    def run():
        A = build(ha, alg)
        dec = ha.artin_decompose(A)
        phi = ha.identity_morphism(A)
        fact = ha.factor(phi, dec, dec)
        u = A.element(inputs["unit"])
        inverse = ha.invert(u)
        inverse_series = ha.invert_via_series(u, dec)
        P = ha.PowerSeries.polynomial(phi, A.zero(), [A.zero(), A.unit(), A.element(inputs["N"])])
        W = A.element(inputs["W"])
        preimage = ha.newton_invert_map(P, W, W)
        half_square = ha.FunctionSampler(lambda Z: 0.5 * (Z * Z), A, A)
        points = [A.element(p) for p in inputs["points"]]
        recovered = ha.recover_structure(half_square, points, points)
        Zg = A.element(inputs["Zg"])
        h = 1e-5 * (1.0 + Zg.coord_norm())
        residual = ha.gcru_residual(P.sampler(), phi, Zg, h)
        verdict = ha.holomorphy_verdict(residual, h)
        geometric = ha.geometric_series(phi)
        radius = geometric.radius()
        geometric_value = geometric.evaluate(A.element(inputs["Zs"]))
        L = build(ha, local)
        canonical = ha.canonical_form(ha.ScalarSeries(L, 0.0, rule=_exp_rule(L.unit())),
                                      ha.identity_morphism(L))
        canonical_value = canonical.evaluate(L.element(inputs["Zc"]))
        return (dec, fact, inverse, inverse_series, preimage, recovered, verdict,
                radius, geometric_value, canonical_value)
    return run


def _structure_check(alg, local, inputs):
    u, N, W = inputs["unit"], inputs["N"], inputs["W"]
    expected_exp = local.exp(inputs["Zc"])
    expected_geometric = alg.inv(alg.unit - inputs["Zs"])

    def check(result):
        (dec, fact, inverse, inverse_series, preimage, recovered, verdict,
         radius, geometric_value, canonical_value) = result
        problems = []
        if dec.count != len(alg.component_dims):
            problems.append(f"{dec.count} components, expected {len(alg.component_dims)}")
        if sorted(dec.component_dims) != sorted(alg.component_dims):
            problems.append(f"component dims {dec.component_dims} != {alg.component_dims}")
        idems = [e.coords for e in dec.idempotents]
        for i, a in enumerate(idems):
            if all(close(a, b) is not None for b in alg.idempotents):
                problems.append(f"idempotent {i} matches no factor idempotent")
            for j, b in enumerate(idems):
                expect(problems, f"e{i} e{j}", alg.mul(a, b), a if i == j else 0 * a)
        expect(problems, "sum of idempotents", sum(idems), alg.unit)
        if list(fact.tau) != list(range(dec.count)):
            problems.append(f"identity factorization tau {fact.tau}")
        expect(problems, "inverse", inverse.coords, alg.inv(u))
        expect(problems, "invert_via_series vs invert", inverse_series.coords, inverse.coords)
        z = preimage.coords
        expect(problems, "Newton preimage P(Z) - W", z + alg.mul(N, alg.mul(z, z)), W, 1e-9)
        expect(problems, "recovered tensor", recovered.alpha, alg.alpha)
        if verdict != "holomorphic":
            problems.append(f"polynomial map judged {verdict}")
        if not abs(radius - 1.0) <= 0.05:
            problems.append(f"geometric series radius {radius}")
        expect(problems, "geometric series value", geometric_value.coords, expected_geometric)
        expect(problems, "canonical form of exp", canonical_value.coords, expected_exp)
        return problems
    return check


# ---------------------------------------------------------------------------
# cli: one `python -m holoalg.cli <subcommand> --json` per operation
# ---------------------------------------------------------------------------

def _el(z) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(z, dtype=complex)]


def _from_el(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data])


def _algebra_json(alg: OracleAlgebra, name: str) -> dict:
    n = alg.dim
    return {"name": name, "dim": n, "basis": [f"a{i + 1}" for i in range(n)],
            "alpha": [[[[float(alg.alpha[j, k, i].real), float(alg.alpha[j, k, i].imag)]
                        for i in range(n)] for k in range(n)] for j in range(n)]}


def _path_json(curve) -> dict:
    if isinstance(curve, Circle):
        return {"type": "circle", "center": _el(curve.center), "radius": curve.radius,
                "turns": curve.turns, "direction": _el(curve.direction)}
    return {"type": "samples", "points": [_el(p) for p in curve.points], "smooth": True}


class CliRunner:
    """Runs the CLI in a child process, or in process through ``cli.main``."""

    def __init__(self, workdir: str, env: dict, in_process: bool):
        self.workdir = workdir
        self.env = env
        self.in_process = in_process

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        argv = [a if a.startswith("-") or not a.endswith(".json")
                else os.path.join(self.workdir, a) for a in argv]
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "holoalg.cli", *argv],
                                  env=self.env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        from holoalg import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:
                # what an uncaught exception does to `python -m holoalg.cli`
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()


def cli_workload(ha, seed: int, runner: CliRunner) -> list[Operation]:
    rng = np.random.default_rng([seed, 4])
    wd = runner.workdir

    def write(name, data):
        with open(os.path.join(wd, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    alg7 = OracleAlgebra(["dual", "split", "t3"], oracles.random_unitary(rng, 7))
    cat7 = OracleAlgebra(["dual", "split", "t3"])
    loc = OracleAlgebra(["bidual"])
    inv = OracleAlgebra(["dual", "t3"], oracles.random_unitary(rng, 5))
    write("alg7.json", _algebra_json(alg7, "alg7"))
    write("cat7.json", _algebra_json(cat7, "cat7"))
    write("loc.json", _algebra_json(loc, "bidual"))
    write("inv.json", _algebra_json(inv, "inv"))
    write("dim0.json", {"name": "empty", "dim": 0, "basis": [], "alpha": []})

    coeffs = [phases(rng, loc.dim, 0.5) for _ in range(6)]
    write("poly.json", {"type": "poly", "center": _el(np.zeros(loc.dim)),
                        "coeffs": [_el(c) for c in coeffs]})
    zc = phases(rng, loc.dim, 0.5)
    write("zc.json", _el(zc))
    center = loc.element(phases(rng, 1, 0.3), phases(rng, 3, 0.3))
    circle = [(1, Circle(center, 1.0, loc.unit))]
    write("circle.json", _path_json(circle[0][1]))
    z0 = center + loc.element(phases(rng, 1, 0.4), phases(rng, 3, 0.4))
    write("z0.json", _el(z0))
    zs = phases(rng, loc.dim, 0.8)
    write("zs.json", _el(zs))

    terms, _, classes = scalar_curves(alg7)["ellipse"]
    write("ellipse7.json", _path_json(terms[0][1]))
    z7 = admissible_point(rng, alg7, terms, classes, 0)
    write("z7.json", _el(z7))
    windings7 = [w for w, _ in oracles.cycle_windings(terms, alg7.rows, z7)]
    windings0 = [w for w, _ in oracles.cycle_windings(circle, loc.rows, z0)]

    N = inv.nil_basis @ phases(rng, inv.nil_basis.shape[1], 0.5)
    write("map.json", {"type": "poly", "center": _el(np.zeros(inv.dim)),
                       "coeffs": [_el(np.zeros(inv.dim)), _el(inv.unit), _el(N)]})
    w = phases(rng, inv.dim, 0.5)
    write("w.json", _el(w))

    def op(kind, argv, check):
        def run():
            code, out, err = runner(argv)
            if code != 0:
                raise OperationFailed(f"{kind}: exit {code}: {err.strip()[-300:]}")
            return out

        def checked(out):
            try:
                report = json.loads(out)
            except json.JSONDecodeError as exc:
                return [f"{kind}: invalid JSON ({exc})"]
            problems = []
            check(report, problems)
            return problems
        return Operation(kind, run, checked)

    def validate(r, problems):
        expect(problems, "unit", _from_el(r["unit"]), alg7.unit, 1e-10)
        alpha = np.array([[[complex(*p) for p in row] for row in plane] for plane in r["alpha"]])
        expect(problems, "alpha", alpha, alg7.alpha, 0.0)
        if not (r["commutative"] and r["associative"]):
            problems.append("validate: identities reported broken")

    def decompose(r, problems):
        if r["components"] != len(cat7.component_dims):
            problems.append(f"decompose: {r['components']} components")
        if sorted(zip(r["component_dims"], r["heights"])) != sorted(
                zip(cat7.component_dims, cat7.heights)):
            problems.append(f"decompose: dims {r['component_dims']} heights {r['heights']}")
        for e in r["idempotents"]:
            if all(close(_from_el(e), b) is not None for b in cat7.idempotents):
                problems.append("decompose: idempotent matches no factor idempotent")

    def crgen(r, problems):
        n = cat7.dim
        if r["equation_count"] != (n - 1) * n:
            problems.append(f"crgen: {r['equation_count']} equations")
        U = (np.array([[complex(*p) for p in row] for row in r["change_of_basis"]])
             if "change_of_basis" in r else np.eye(n))
        expect(problems, "crgen: first basis vector is the unit", U[:, 0], cat7.unit)
        gammas = [cat7.regular(np.eye(n)[r_]) for r_ in range(n)]
        for eq in r["equations"]:
            i, j = eq["i"] - 1, eq["j"] - 1
            want = sum(U[r_, j] * gammas[r_] for r_ in range(n))[i]
            expect(problems, f"crgen: equation ({i + 1},{j + 1})",
                   [complex(*p) for p in eq["coeffs"]], want)

    def check_cmd(r, problems):
        if r["verdict"] != "holomorphic":
            problems.append(f"check: verdict {r['verdict']}")
        expect(problems, "check: derivative", _from_el(r["derivative"]),
               oracles.poly_derivative(loc, coeffs, zc, 1), 1e-6)

    def index(r, problems):
        if not r["admissible"]:
            problems.append("index: point reported inadmissible")
        if sorted(r["spectral"]) != sorted(windings7):
            problems.append(f"index: spectral {r['spectral']} != {windings7}")
        expect(problems, "index: quadrature", _from_el(r["quadrature"]),
               oracles.index_element(alg7, windings7))

    def cif(r, problems):
        if r["index"] != windings0:
            problems.append(f"cif: index {r['index']} != {windings0}")
        expect(problems, "cif: third derivative", _from_el(r["value"]),
               oracles.poly_derivative(loc, coeffs, z0, 3))

    def series(r, problems):
        if r["radius"] != "inf":
            problems.append(f"series: radius {r['radius']}")
        expect(problems, "series: value", _from_el(r["value"]),
               oracles.poly_derivative(loc, coeffs, zs, 0))

    def invert(r, problems):
        z = _from_el(r["preimage"])
        expect(problems, "invert: P(Z) - W", z + inv.mul(N, inv.mul(z, z)), w, 1e-9)
        if not r["residual"] < 1e-10:
            problems.append(f"invert: residual {r['residual']}")

    def dim0_run():
        code, _, err = runner(["validate", "dim0.json", "--json"])
        lines = err.strip().splitlines()
        if code != 1 or len(lines) != 1 or not lines[0].startswith("error:"):
            raise OperationFailed(f"validate dim 0: exit {code}, {len(lines)} stderr lines "
                                  f"ending {lines[-1][:120] if lines else ''!r}")
        return None

    return [
        op("validate", ["validate", "alg7.json", "--json"], validate),
        op("decompose", ["decompose", "cat7.json", "--json"], decompose),
        op("crgen", ["crgen", "cat7.json", "--json"], crgen),
        op("check", ["check", "loc.json", "--function", "poly.json", "--point", "zc.json",
                     "--json"], check_cmd),
        op("index", ["index", "--algebra", "alg7.json", "--path", "ellipse7.json",
                     "--point", "z7.json", "--json"], index),
        op("cif", ["cif", "--algebra", "loc.json", "--function", "poly.json", "--path",
                   "circle.json", "--point", "z0.json", "--order", "3", "--json"], cif),
        op("series", ["series", "--algebra", "loc.json", "--function", "poly.json",
                      "--point", "zs.json", "--json"], series),
        op("invert", ["invert", "--algebra", "inv.json", "--function", "map.json",
                      "--value", "w.json", "--json"], invert),
        Operation(KNOWN_FAULT, dim0_run, lambda _: []),
    ]
