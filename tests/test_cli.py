import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import holoalg as ha
from holoalg import fileio
from holoalg.cli import main

from conftest import cubic_example


@pytest.fixture()
def files(tmp_path, dual, split, t3, id_dual):
    def dump(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    cubic = cubic_example(dual, id_dual)
    out = {
        "dual": dump("dual.json", fileio.algebra_to_json(dual, "dual")),
        "split": dump("split.json", fileio.algebra_to_json(split, "split")),
        "t3": dump("t3.json", fileio.algebra_to_json(t3, "t3")),
        "cubic": dump("cubic.json", fileio.function_to_json(cubic)),
        "circle": dump("circle.json", fileio.path_to_json(ha.Path.circle(dual.zero(), 1.0))),
        "origin": dump("origin.json", fileio.element_to_json(dual.zero())),
        "one": dump("one.json", fileio.element_to_json(dual.unit())),
        "w": dump("w.json", fileio.element_to_json(dual.element([0.7, -0.3]))),
        "square_fn": dump("square_fn.json", fileio.function_to_json(
            ha.PowerSeries.polynomial(id_dual, dual.zero(),
                                      [dual.zero(), dual.unit(), dual.element([0, 1])]))),
    }
    bad_alpha = fileio.algebra_to_json(split, "bad")
    bad_alpha["alpha"][1][1][0] = [1.0, 0.0]
    bad_alpha["alpha"][0][1][0] = [0.5, 0.0]  # breaks the unit action: non-associative
    out["bad"] = dump("bad.json", bad_alpha)
    out["garbage"] = dump("garbage.json", {"dim": "x"})
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_human(files, capsys):
    code, out, _ = run(capsys, "validate", files["dual"])
    assert code == 0
    assert out.strip() == "commutative, associative, unit=(1, 0)"


def test_validate_json_round_trips(files, capsys, dual):
    code, out, _ = run(capsys, "validate", files["dual"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["commutative"] and report["associative"]
    assert report["unit"] == [[1.0, 0.0], [0.0, 0.0]]
    # the report re-parses under the algebra input schema
    back, name = fileio.algebra_from_json(report)
    assert name == "dual" and np.array_equal(back.alpha, dual.alpha)


def test_validate_rejects_corrupted_tensor(files, capsys):
    code, _, err = run(capsys, "validate", files["bad"])
    assert code == 2
    assert "NotAssociative" in err or "NotCommutative" in err


def test_schema_error_exit_code(files, capsys):
    code, _, err = run(capsys, "validate", files["garbage"])
    assert code == 1
    code, _, err = run(capsys, "validate", str(files["garbage"]) + ".missing")
    assert code == 1


@pytest.mark.parametrize("dim", [0, -2])
def test_nonpositive_dim_is_a_one_line_error(tmp_path, capsys, dim):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "empty", "dim": dim, "basis": [], "alpha": []}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def one_line_error(code, out, err):
    return code == 1 and out == "" and err.startswith("error:") \
        and len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("entry", [float("nan"), float("-inf"), 10 ** 400])
def test_non_finite_alpha_is_a_one_line_error(tmp_path, capsys, dual, entry):
    data = fileio.algebra_to_json(dual, "dual")
    data["alpha"][1][1][0] = [entry, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert one_line_error(code, out, err)
    assert "alpha[1][1][0]" in err


@pytest.mark.parametrize("dim, alpha", [(100000, []), (2.0, []), ("2", []), (True, []),
                                        (2, [[[[1, 0]] * 2] * 2])])
def test_bad_dim_or_alpha_nest_is_a_one_line_error(tmp_path, capsys, dim, alpha):
    # a huge dim is refused before its dim^3 array is allocated
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "dim": dim, "alpha": alpha}))
    assert one_line_error(*run(capsys, "validate", str(path)))


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-1"])
def test_bad_step_is_a_one_line_error(files, capsys, step):
    code, out, err = run(capsys, "check", files["dual"], "--function", files["cubic"],
                         "--point", files["one"], "--step", step)
    assert one_line_error(code, out, err)
    assert "--step" in err


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1e-10"])
def test_bad_tolerance_is_a_one_line_error(files, capsys, monkeypatch, value):
    monkeypatch.setenv("HOLOALG_TOL", value)
    code, out, err = run(capsys, "index", "--algebra", files["dual"], "--path",
                         files["circle"], "--point", files["origin"])
    assert one_line_error(code, out, err)
    assert "HOLOALG_TOL" in err


def test_estimate_violation_exits_2(files, capsys, monkeypatch):
    from holoalg import contour
    mul = contour._batch_mul
    monkeypatch.setattr(contour, "_batch_mul", lambda *a: 10.0 * mul(*a))
    code, _, err = run(capsys, "index", "--algebra", files["dual"], "--path",
                       files["circle"], "--point", files["origin"])
    assert code == 2
    assert err.startswith("validation failed: EstimateViolated:")
    assert "Traceback" not in err


def test_decompose_split(files, capsys, split):
    code, out, _ = run(capsys, "decompose", files["split"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["components"] == 2
    idems = {tuple(np.round([c[0] for c in e], 6)) for e in report["idempotents"]}
    assert idems == {(0.5, 0.5), (0.5, -0.5)}
    assert report["heights"] == [1, 1]
    # idempotents re-parse as element literals
    e = fileio.element_from_json(split, report["idempotents"][0])
    assert ((e * e) - e).coord_norm() < 1e-10


def test_decompose_t3(files, capsys):
    code, out, _ = run(capsys, "decompose", files["t3"], "--json")
    report = json.loads(out)
    assert report["components"] == 1
    assert report["heights"] == [3]
    assert report["widths"] == [[1, 1]]
    assert len(report["nilradical"]) == 2


def test_crgen_latex(files, capsys):
    code, out, _ = run(capsys, "crgen", files["dual"], "--format", "latex")
    assert code == 0
    assert r"\frac{\partial f^{1}}{\partial z^{2}} = 0" in out


def test_crgen_json(files, capsys):
    code, out, _ = run(capsys, "crgen", files["split"], "--json", "--scheffers")
    report = json.loads(out)
    assert report["equation_count"] == 2
    eq = report["equations"][0]
    assert (eq["i"], eq["j"]) == (1, 2)
    assert eq["coeffs"] == [[0.0, 0.0], [1.0, 0.0]]
    assert len(report["scheffers"]) == 8


def test_check_cubic(files, capsys):
    code, out, _ = run(capsys, "check", files["dual"], "--function", files["cubic"],
                       "--point", files["one"], "--step", "1e-4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "holomorphic"
    assert report["gcru_residual"] < 1e-6
    deriv = np.array([c[0] + 1j * c[1] for c in report["derivative"]])
    assert np.abs(deriv - [1, 8]).max() < 1e-6


def test_index_human_line(files, capsys):
    code, out, _ = run(capsys, "index", "--algebra", files["dual"], "--path",
                       files["circle"], "--point", files["origin"])
    assert code == 0
    assert out.strip() == "Ind = 1 (spectral) / 1 (quadrature)"


def test_index_runs_admissibility_once(files, capsys, monkeypatch):
    from holoalg import contour
    calls = []
    admissibility = contour.admissibility
    monkeypatch.setattr(contour, "admissibility",
                        lambda *a, **k: calls.append(1) or admissibility(*a, **k))
    code, out, _ = run(capsys, "index", "--algebra", files["dual"], "--path",
                       files["circle"], "--point", files["origin"], "--json")
    assert code == 0 and len(calls) == 1
    report = json.loads(out)
    assert report["admissible"] and abs(report["clearances"][0] - 1.0) < 1e-6


def test_index_forbidden_point(files, capsys):
    code, _, err = run(capsys, "index", "--algebra", files["dual"], "--path",
                       files["circle"], "--point", files["one"])
    assert code == 2
    assert "NotAdmissible" in err


def test_cif_command(files, capsys):
    code, out, _ = run(capsys, "cif", "--algebra", files["dual"], "--function",
                       files["cubic"], "--path", files["circle"], "--point",
                       files["origin"], "--order", "3", "--json")
    assert code == 0
    report = json.loads(out)
    value = np.array([c[0] + 1j * c[1] for c in report["value"]])
    assert np.abs(value - [6, 12]).max() < 1e-8


def test_cif_order_past_the_tolerance_is_a_validation_failure(files, capsys):
    code, out, err = run(capsys, "cif", "--algebra", files["dual"], "--function",
                         files["cubic"], "--path", files["circle"], "--point",
                         files["origin"], "--order", "20")
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("validation failed: QuadratureNoConvergence: node budget")


@pytest.mark.parametrize("command", ["cif", "index"])
def test_seed_reaches_every_decomposition(files, capsys, monkeypatch, command):
    from holoalg import decomposition
    seeds = []
    worker = decomposition._decompose
    monkeypatch.setattr(decomposition, "_decompose",
                        lambda algebra, seed: seeds.append(seed) or worker(algebra, seed))
    extra = ["--function", files["cubic"], "--order", "1"] if command == "cif" else []
    code, _, _ = run(capsys, command, "--algebra", files["dual"], "--path", files["circle"],
                     "--point", files["origin"], "--seed", "3", *extra)
    assert code == 0 and seeds and set(seeds) == {3}


def test_series_command(files, capsys):
    code, out, _ = run(capsys, "series", "--algebra", files["dual"], "--function",
                       files["cubic"], "--point", files["w"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["radius"] == "inf"
    assert "value" in report


def test_invert_command(files, capsys):
    code, out, _ = run(capsys, "invert", "--algebra", files["dual"], "--function",
                       files["square_fn"], "--value", files["w"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["residual"] < 1e-10


def test_identical_invocations_are_bit_identical(files, capsys):
    _, out1, _ = run(capsys, "decompose", files["split"], "--json")
    _, out2, _ = run(capsys, "decompose", files["split"], "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "index", "--algebra", files["dual"], "--path",
                     files["circle"], "--point", files["origin"], "--json")
    _, out4, _ = run(capsys, "index", "--algebra", files["dual"], "--path",
                     files["circle"], "--point", files["origin"], "--json")
    assert out3 == out4


def test_crgen_through_a_morphism_file(files, capsys, tmp_path, dual, cline, sigma_dual):
    cfile = tmp_path / "cline.json"
    cfile.write_text(json.dumps(fileio.algebra_to_json(cline, "C")))
    mfile = tmp_path / "sigma.json"
    mfile.write_text(json.dumps(fileio.morphism_to_json(sigma_dual, "dual", "C")))
    code, out, _ = run(capsys, "crgen", files["dual"], "--morphism", str(mfile),
                       "--target", str(cfile), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["equation_count"] == 1
    assert report["equations"][0]["coeffs"] == [[0.0, 0.0]]  # df^1/dz^2 = 0


def test_index_through_a_morphism_file(files, capsys, tmp_path, cline, sigma_dual):
    cfile = tmp_path / "cline.json"
    cfile.write_text(json.dumps(fileio.algebra_to_json(cline, "C")))
    mfile = tmp_path / "sigma.json"
    mfile.write_text(json.dumps(fileio.morphism_to_json(sigma_dual, "dual", "C")))
    code, out, _ = run(capsys, "index", "--algebra", files["dual"], "--path",
                       files["circle"], "--point", files["origin"], "--morphism",
                       str(mfile), "--target", str(cfile), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["spectral"] == [1]
    assert abs(report["quadrature"][0][0] - 1.0) < 1e-8


def test_unknown_flags_rejected(files):
    with pytest.raises(SystemExit):
        main(["validate", files["dual"], "--frobnicate"])


def circle_file(**fields):
    data = {"type": "circle", "center": [[0, 0], [0, 0]], "radius": 1.0}
    data.update(fields)
    return data


@pytest.mark.parametrize("text", [
    json.dumps(circle_file(radius=float("nan"))),
    json.dumps(circle_file(radius=float("inf"))),
    json.dumps(circle_file(turns=1.5)),
    json.dumps(circle_file(turns=1e300)),
    json.dumps(circle_file(turns=10 ** 400)),
    json.dumps({"terms": [{"mult": 1.5, "path": circle_file()}]}),
    json.dumps({"terms": []}),
    json.dumps({"terms": {"mult": 1}}),
], ids=["radius-nan", "radius-inf", "turns-fraction", "turns-1e300", "turns-10^400",
        "mult-fraction", "no-terms", "terms-not-a-list"])
def test_bad_path_and_cycle_files_are_one_line_errors(files, capsys, tmp_path, text):
    path = tmp_path / "bad_path.json"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a RuntimeWarning would escape main as an exception
        code, out, err = run(capsys, "index", "--algebra", files["dual"], "--path", str(path),
                             "--point", files["origin"])
    assert one_line_error(code, out, err), err


@pytest.mark.parametrize("argv", [
    ("cif", "--order", "-1"),
    ("cif", "--order", "200"),
    ("decompose", "--seed", "-1"),
    ("index", "--seed", "-1"),
], ids=["order-negative", "order-factorial-overflows", "decompose-seed", "index-seed"])
def test_bad_order_and_seed_are_one_line_errors(files, capsys, monkeypatch, argv):
    from holoalg import contour
    monkeypatch.setattr(contour, "_cauchy_kernel_integral",
                        lambda *a, **k: pytest.fail("integrated before checking the order"))
    command, *flags = argv
    inputs = {"cif": ["--algebra", files["dual"], "--function", files["cubic"],
                      "--path", files["circle"], "--point", files["origin"]],
              "decompose": [files["split"]],
              "index": ["--algebra", files["dual"], "--path", files["circle"],
                        "--point", files["origin"]]}[command]
    assert one_line_error(*run(capsys, command, *inputs, *flags))


def test_importing_the_cli_loads_neither_scipy_nor_numpy_polynomial():
    # numpy is the one runtime dependency, and the quadrature's constants are
    # written out rather than computed by numpy.polynomial at import (numpy
    # before 2.0 loads numpy.polynomial itself, so only what holoalg adds counts)
    src = os.path.dirname(os.path.dirname(ha.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, numpy; before = set(sys.modules); import holoalg.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
