"""Command-line interface.

Subcommands: validate, decompose, crgen, check, index, cif, series, invert.
Every subcommand supports --json (machine-readable report, full doubles) and
--seed (default 0, behind all randomness).  Human mode prints numbers with 12
significant digits.  Exit codes: 0 success, 2 mathematical validation failure
(the violated identity is printed), 1 I/O or schema errors.  The environment
variable HOLOALG_TOL overrides the quadrature tolerance (default 1e-10).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fileio
from .algebra import Algebra, Element
from .contour import _cif_scale, _index_inverse, cif_derivative, index_quadrature, index_spectral
from .crsystem import (
    default_step,
    gcru_residual,
    dij_residual,
    gcru_system,
    holomorphy_verdict,
    newton_invert_map,
    numeric_derivative,
    scheffers_system,
)
from .decomposition import artin_decompose, nilradical, profile
from .errors import HoloalgError, SchemaError
from .morphism import Morphism, identity_morphism
from .series import Divergent, BoundaryIndeterminate


def fmt_c(z: complex) -> str:
    z = complex(z)
    scale = abs(z)
    re, im = z.real, z.imag
    # parts below the 12th significant digit of the modulus are display noise
    if abs(im) <= 1e-12 * scale:
        im = 0.0
    if abs(re) <= 1e-12 * scale:
        re = 0.0
    if im == 0:
        return f"{re:.12g}"
    return f"{re:.12g}{im:+.12g}i"


def fmt_el(e: Element) -> str:
    return "(" + ", ".join(fmt_c(c) for c in e.coords) + ")"


def fmt_vec(v) -> str:
    return "(" + ", ".join(fmt_c(c) for c in v) + ")"


def _load_morphism_args(args, source: Algebra) -> tuple[Morphism, Algebra]:
    """Morphism from --morphism/--target flags; identity when absent."""
    if getattr(args, "morphism", None):
        target = source
        if getattr(args, "target", None):
            target, _ = fileio.load_algebra(args.target)
        phi = fileio.morphism_from_json(fileio.read_json(args.morphism), source, target)
        return phi, target
    return identity_morphism(source), source


# ---------------------------------------------------------------------------
# subcommand handlers: return (report dict, human lines)
# ---------------------------------------------------------------------------

def cmd_validate(args):
    algebra, name = fileio.load_algebra(args.algebra)
    # the report re-parses under the algebra input schema
    report = fileio.algebra_to_json(algebra, name)
    report["commutative"] = True
    report["associative"] = True
    report["unit"] = fileio.element_to_json(algebra.unit())
    lines = [f"commutative, associative, unit={fmt_el(algebra.unit())}"]
    return report, lines


def cmd_decompose(args):
    algebra, name = fileio.load_algebra(args.algebra)
    dec = artin_decompose(algebra, seed=args.seed)
    prof = profile(algebra, dec)
    nil = nilradical(algebra)
    report = {
        "name": name,
        "components": dec.count,
        "component_dims": list(dec.component_dims),
        "idempotents": [fileio.element_to_json(e) for e in dec.idempotents],
        "sigma_rows": [[[float(c.real), float(c.imag)] for c in row]
                       for row in dec.spectral_rows],
        "heights": list(prof.heights),
        "widths": [list(c.widths) for c in prof.components],
        "nilradical": [[[float(c.real), float(c.imag)] for c in col]
                       for col in nil.T],
    }
    lines = [f"components: {dec.count}", f"nilradical dimension: {nil.shape[1]}"]
    for k in range(dec.count):
        lines.append(
            f"component {k + 1}: dim {dec.component_dims[k]}, "
            f"height {prof.heights[k]}, widths {tuple(prof.components[k].widths)}, "
            f"idempotent={fmt_el(dec.idempotents[k])}, "
            f"sigma={fmt_vec(dec.spectral_rows[k])}")
    return report, lines


def cmd_crgen(args):
    algebra, name = fileio.load_algebra(args.algebra)
    phi, _ = _load_morphism_args(args, algebra)
    system = gcru_system(phi)
    report = {
        "name": name,
        "form": "gcru",
        "equation_count": system.equation_count,
        "equations": system.equations(),
    }
    if system.change_of_basis is not None:
        report["change_of_basis"] = [[[float(c.real), float(c.imag)] for c in row]
                                     for row in system.change_of_basis]
    if args.scheffers:
        report["scheffers"] = scheffers_system(phi).equations()
    if args.format == "latex":
        report["latex"] = system.latex()
        lines = [system.latex()]
    else:
        lines = [json.dumps(report["equations"])]
    return report, lines


def cmd_check(args):
    if args.step is not None and not (math.isfinite(args.step) and args.step > 0):
        raise SchemaError(f"--step must be a positive finite number, got {args.step}")
    algebra, _ = fileio.load_algebra(args.algebra)
    phi, _ = _load_morphism_args(args, algebra)
    series = fileio.function_from_json(fileio.read_json(args.function), phi)
    point = fileio.load_element(args.point, algebra)
    f = series.sampler()
    h = default_step(point) if args.step is None else args.step
    res = gcru_residual(f, phi, point, h)
    res_half = gcru_residual(f, phi, point, h / 2)
    dres = dij_residual(f, phi, point, h)
    verdict = holomorphy_verdict(res, h)
    deriv = numeric_derivative(f, phi, point, h)
    report = {
        "step": h,
        "gcru_residual": res,
        "gcru_residual_half_step": res_half,
        "dij_residual": dres,
        "verdict": verdict,
        "derivative": fileio.element_to_json(deriv),
    }
    lines = [
        f"GCRU residual = {res:.12g} (h={h:.12g}); halved-step residual = {res_half:.12g}",
        f"d_ij residual = {dres:.12g}",
        f"verdict: {verdict}",
        f"f'(Z) = {fmt_el(deriv)}",
    ]
    return report, lines


def cmd_index(args):
    algebra, _ = fileio.load_algebra(args.algebra)
    phi, _ = _load_morphism_args(args, algebra)
    cycle = fileio.cycle_from_json(fileio.read_json(args.path), algebra)
    point = fileio.load_element(args.point, algebra)
    spings = index_spectral(cycle, point, phi, seed=args.seed)
    dec_b = artin_decompose(phi.target, seed=args.seed)
    adm = spings.admissibility
    quad = index_quadrature(cycle, point, phi, seed=args.seed)
    quad_components = list(dec_b.spectrum(quad))
    report = {
        "admissible": adm.admissible,
        "clearances": list(adm.clearances),
        "spectral": list(spings.values),
        "quadrature": fileio.element_to_json(quad),
        "quadrature_components": [[c.real, c.imag] for c in quad_components],
    }
    spectral_str = (str(spings.values[0]) if len(spings.values) == 1
                    else fmt_vec(np.array(spings.values, dtype=complex)))
    quad_str = (fmt_c(quad_components[0]) if len(quad_components) == 1
                else fmt_vec(quad_components))
    lines = [f"Ind = {spectral_str} (spectral) / {quad_str} (quadrature)"]
    return report, lines


def cmd_cif(args):
    try:
        _cif_scale(args.order)   # a bad --order fails before any work
    except ValueError as exc:
        raise SchemaError(f"--order: {exc}") from exc
    algebra, _ = fileio.load_algebra(args.algebra)
    phi, _ = _load_morphism_args(args, algebra)
    series = fileio.function_from_json(fileio.read_json(args.function), phi)
    cycle = fileio.cycle_from_json(fileio.read_json(args.path), algebra)
    point = fileio.load_element(args.point, algebra)
    f = series.sampler()
    idx = index_spectral(cycle, point, phi, seed=args.seed)
    integral = cif_derivative(f, cycle, point, args.order, phi, seed=args.seed)
    report = {
        "order": args.order,
        "index": list(idx.values),
        "integral": fileio.element_to_json(integral),
    }
    lines = [f"index = {list(idx.values)}",
             f"(k!/2 pi i) integral = {fmt_el(integral)} (k={args.order})"]
    if all(v != 0 for v in idx.values):
        solved = integral * _index_inverse(idx, phi.target, args.seed)
        report["value"] = fileio.element_to_json(solved)
        label = "f(Z0)" if args.order == 0 else f"f^({args.order})(Z0)"
        lines.append(f"{label} = {fmt_el(solved)}")
    return report, lines


def cmd_series(args):
    algebra, _ = fileio.load_algebra(args.algebra)
    phi, _ = _load_morphism_args(args, algebra)
    series = fileio.function_from_json(fileio.read_json(args.function), phi)
    radius = series.radius()
    comp = series.component_radii()
    dsp = series.spectral_divergence_radius()
    report = {
        "polynomial": series.is_polynomial,
        "radius": "inf" if math.isinf(radius) else radius,
        "component_radii": ["inf" if math.isinf(r) else float(r) for r in comp],
        "spectral_divergence_radius": "inf" if math.isinf(dsp) else dsp,
    }
    comp_str = ", ".join("inf" if math.isinf(r) else f"{r:.12g}" for r in comp)
    lines = [f"radius = {radius:.12g}" if math.isfinite(radius) else "radius = inf",
             f"component radii = ({comp_str})",
             f"spectral divergence radius = {dsp:.12g}" if math.isfinite(dsp)
             else "spectral divergence radius = inf"]
    if args.point:
        point = fileio.load_element(args.point, algebra)
        value = series.evaluate(point)
        if value is Divergent:
            report["value"] = "divergent"
            lines.append("value: divergent")
        elif value is BoundaryIndeterminate:
            report["value"] = "boundary-indeterminate"
            lines.append("value: boundary-indeterminate")
        else:
            report["value"] = fileio.element_to_json(value)
            lines.append(f"value = {fmt_el(value)}")
    return report, lines


def cmd_invert(args):
    algebra, _ = fileio.load_algebra(args.algebra)
    phi = identity_morphism(algebra)
    series = fileio.function_from_json(fileio.read_json(args.function), phi)
    w = fileio.load_element(args.value, algebra)
    guess = fileio.load_element(args.guess, algebra) if args.guess else w
    z = newton_invert_map(series, w, guess, seed=args.seed)
    residual = (series(z) - w).norm("frobenius")
    report = {
        "preimage": fileio.element_to_json(z),
        "residual": residual,
    }
    lines = [f"P^(-1)(W) = {fmt_el(z)}", f"residual |P(Z)-W| = {residual:.12g}"]
    return report, lines


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoalg",
        description="Computation with finite-dimensional commutative unital "
                    "complex algebras and their holomorphic function theory.",
        epilog="HOLOALG_TOL overrides the quadrature tolerance (default 1e-10).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")

    p = sub.add_parser("validate", help="validate a structure tensor file")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("decompose", help="local factors, idempotents, profiles")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("crgen", help="emit the generalized Cauchy-Riemann system")
    p.add_argument("algebra")
    p.add_argument("--morphism", help="morphism file (default: identity)")
    p.add_argument("--target", help="target algebra file for the morphism")
    p.add_argument("--format", choices=("json", "latex"), default="json")
    p.add_argument("--scheffers", action="store_true",
                   help="also emit the redundant symmetric form")
    common(p)
    p.set_defaults(handler=cmd_crgen)

    p = sub.add_parser("check", help="finite-difference holomorphy test at a point")
    p.add_argument("algebra")
    p.add_argument("--function", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--morphism")
    p.add_argument("--target")
    p.add_argument("--step", type=float, default=None)
    common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("index", help="generalized index by two methods")
    p.add_argument("--algebra", required=True)
    p.add_argument("--path", required=True, help="path or cycle file")
    p.add_argument("--point", required=True)
    p.add_argument("--morphism")
    p.add_argument("--target")
    common(p)
    p.set_defaults(handler=cmd_index)

    p = sub.add_parser("cif", help="Cauchy integral formula value or derivative")
    p.add_argument("--algebra", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--morphism")
    p.add_argument("--target")
    common(p)
    p.set_defaults(handler=cmd_cif)

    p = sub.add_parser("series", help="radius report and optional evaluation")
    p.add_argument("--algebra", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--point")
    p.add_argument("--morphism")
    p.add_argument("--target")
    common(p)
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("invert", help="pointwise Newton inverse of a polynomial map")
    p.add_argument("--algebra", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--value", required=True, help="target element file")
    p.add_argument("--guess", help="starting element file (default: the target)")
    common(p)
    p.set_defaults(handler=cmd_invert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise SchemaError(f"--seed must be a non-negative integer, got {args.seed}")
        report, lines = args.handler(args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HoloalgError as exc:
        print(f"validation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
