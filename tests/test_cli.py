"""End-to-end CLI runs: JSON in, canonical JSON out, exit codes."""

import json

import numpy as np
import pytest

from crextend import Polynomial, normal_form_model
from crextend.cli import dumps_canonical, main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_doc(lambdas, E=None):
    return normal_form_model(list(lambdas), E=E).to_json_dict()


def poly_doc(p):
    return p.to_json_dict()


# -- canonical serializer ------------------------------------------------------


def test_dumps_canonical_formats():
    text = dumps_canonical({"a": 0.1, "b": [True, None, 3], "c": "x"})
    assert '"a": 0.10000000000000001' in text
    assert "true" in text and "null" in text
    with pytest.raises(Exception):
        dumps_canonical({"bad": float("nan")})


# -- classify -------------------------------------------------------------------


def test_cli_classify(tmp_path, capsys):
    A = [[{"re": 4.0, "im": 0.0}]]
    B = [[{"re": 1.0, "im": 0.0}]]
    path = write_json(tmp_path / "model.json", {"n": 1, "A": A, "B": B})
    code, out, err = run(capsys, ["classify", path])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "classify"
    assert doc["classification"] == "elliptic"
    assert doc["elliptic_oracle"] is True
    assert doc["nondegenerate"] is True
    assert doc["lambdas"] == [0.25]
    assert doc["T"][0][0]["re"] == pytest.approx(0.5)
    assert doc["residual_a"] < 1e-12 and doc["residual_b"] < 1e-12
    assert doc["config"]["grid_n"] == 512


def test_cli_classify_normal_form_input(tmp_path, capsys):
    A = [[{"re": 1.0, "im": 0.0}]]
    B = [[{"re": 0.3, "im": 0.0}]]
    path = write_json(tmp_path / "model.json", {"n": 1, "A": A, "B": B})
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "elliptic"
    assert doc["lambdas"] == [0.3]


def test_cli_classify_hyperbolic_note(tmp_path, capsys):
    A = [[{"re": -1.0, "im": 0.0}]]
    B = [[{"re": 0.0, "im": 0.0}]]
    path = write_json(tmp_path / "model.json", {"n": 1, "A": A, "B": B})
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "hyperbolic"
    assert doc["lambdas"] is None
    assert doc["note"]


# -- extend ----------------------------------------------------------------------


def test_cli_extend_sphere(tmp_path, capsys):
    f = Polynomial.z(1) * Polynomial.zbar(1)
    path = write_json(tmp_path / "in.json", {"model": model_doc([0.0]), "f": poly_doc(f)})
    code, out, _ = run(capsys, ["extend", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Extended"
    assert doc["P_pretty"] == "w"
    assert doc["residual"] < 1e-12
    assert doc["certificate"] is None
    assert doc["verify"]["max_pointwise_error"] < 1e-10
    assert doc["verify"]["seed"] == 0


def test_cli_extend_obstruction_exit_zero(tmp_path, capsys):
    path = write_json(
        tmp_path / "in.json", {"model": model_doc([0.0]), "f": poly_doc(Polynomial.zbar(1))}
    )
    code, out, _ = run(capsys, ["extend", path])
    assert code == 0  # a NotExtendible verdict is a result, not an error
    doc = json.loads(out)
    assert doc["status"] == "NotExtendible"
    assert doc["P"] is None
    assert doc["certificate"]["detail"]["offending"] == [0, 1]
    assert doc["certificate"]["residual"] > 0.1
    assert "verify" not in doc


def test_cli_extend_deterministic_bytes(tmp_path, capsys):
    m = normal_form_model([0.3])
    from crextend import q_polynomial

    P = Polynomial.w(1) * Polynomial.w(1) + 2 * Polynomial.z(1)
    f = P.substitute_w(q_polynomial(m))
    path = write_json(tmp_path / "in.json", {"model": model_doc([0.3]), "f": poly_doc(f)})
    _, out1, _ = run(capsys, ["extend", path, "--seed", "7"])
    _, out2, _ = run(capsys, ["extend", path, "--seed", "7"])
    assert out1 == out2
    _, out3, _ = run(capsys, ["extend", path, "--seed", "8"])
    assert json.loads(out3)["verify"]["seed"] == 8


# -- check ------------------------------------------------------------------------


def test_cli_check_moments_mode(tmp_path, capsys):
    from crextend import q_polynomial

    f = q_polynomial(normal_form_model([0.25]))  # f = rho extends to w
    path = write_json(
        tmp_path / "in.json",
        {"model": model_doc([0.25]), "f": poly_doc(f), "leaves": [0.1, 0.2], "Lmax": 6},
    )
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "moments"
    assert doc["passed"] is True
    assert doc["Lmax"] == 6
    assert len(doc["entries"]) == 2 * 7
    assert doc["max_modulus"] < doc["tol"]


def test_cli_check_moments_failure_verdict(tmp_path, capsys):
    path = write_json(
        tmp_path / "in.json",
        {"model": model_doc([0.0]), "f": poly_doc(Polynomial.zbar(1)), "leaves": [0.2]},
    )
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["max_modulus"] == pytest.approx(2 * np.pi * 0.04, rel=1e-8)


def test_cli_check_cr_mode(tmp_path, capsys):
    f = Polynomial.z(2, 0) * Polynomial.zbar(2, 1)
    path = write_json(tmp_path / "in.json", {"model": model_doc([0.0, 0.0]), "f": poly_doc(f)})
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "cr-fields"
    assert doc["passed"] is False
    assert doc["violations"][0]["pair"] == [0, 1]
    assert doc["violations"][0]["field_applied_pretty"] == "z1^2"


# -- leaf-extend --------------------------------------------------------------------


def test_cli_leaf_extend(tmp_path, capsys):
    doc_in = {
        "model": model_doc([0.0]),
        "data": {"builtin": "identity"},
        "r": 0.3,
        "points": [{"re": 0.1, "im": 0.0}, {"re": 0.0, "im": -0.05}],
    }
    path = write_json(tmp_path / "in.json", doc_in)
    code, out, _ = run(capsys, ["leaf-extend", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == pytest.approx(0.09)
    vals = doc["values"]
    assert vals[0]["F"]["re"] == pytest.approx(0.1, abs=1e-12)
    assert vals[1]["F"]["im"] == pytest.approx(-0.05, abs=1e-12)


def test_cli_leaf_extend_near_boundary_is_input_error(tmp_path, capsys):
    doc_in = {
        "model": model_doc([0.0]),
        "data": {"builtin": "constant", "value": 1.0},
        "r": 0.3,
        "points": [{"re": 0.299, "im": 0.0}],
    }
    path = write_json(tmp_path / "in.json", doc_in)
    code, out, err = run(capsys, ["leaf-extend", path])
    assert code == 2
    assert out == "" and "input error" in err


# -- probe-degenerate -----------------------------------------------------------------


def test_cli_probe_degenerate_radial(tmp_path, capsys):
    doc_in = {
        "family": {"kind": "radial", "power": 4},
        "data": {"builtin": "sqrt-re-w"},
        "ladder": {"start": 1e-4, "ratio": 2.0, "count": 8},
    }
    path = write_json(tmp_path / "in.json", doc_in)
    code, out, _ = run(capsys, ["probe-degenerate", path, "--grid-n", "256"])
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "power-law"
    assert doc["exponent"] == pytest.approx(-0.5, abs=0.05)
    assert len(doc["rows"]) == 8
    assert doc["rows"][0]["Fs"] is None


def test_cli_probe_degenerate_quadric(tmp_path, capsys):
    doc_in = {
        "family": {"kind": "quadric", "model": model_doc([0.0])},
        "data": {"polynomial": poly_doc(Polynomial.z(1) * Polynomial.zbar(1))},
        "ladder": {"start": 1e-4, "ratio": 2.0, "count": 8},
    }
    path = write_json(tmp_path / "in.json", doc_in)
    code, out, _ = run(capsys, ["probe-degenerate", path, "--grid-n", "256"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exponent"] == pytest.approx(0.0, abs=0.05)


# -- errors and configuration ----------------------------------------------------------


def test_cli_malformed_json_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1,\n  "A": [[}')
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 2
    assert "malformed JSON" in err
    assert "line 2" in err and "column" in err


def test_cli_missing_file(capsys):
    code, _, err = run(capsys, ["classify", "/nonexistent/model.json"])
    assert code == 2
    assert "cannot read" in err


def test_cli_numerical_failure_exit_3(tmp_path, capsys):
    # quartic well pinches the level set: Newton cannot find the leaf
    E = Polynomial.monomial(1, (2,), (2,), 0, -30.0)
    doc_in = {
        "model": model_doc([0.0], E=E),
        "data": {"builtin": "constant"},
        "r": 0.45,
        "points": [{"re": 0.0, "im": 0.0}],
    }
    path = write_json(tmp_path / "in.json", doc_in)
    code, out, err = run(capsys, ["leaf-extend", path, "--grid-n", "256"])
    assert code == 3
    assert "numerical failure" in err


def test_cli_nan_model_entry_is_input_error(tmp_path, capsys):
    A = [[{"re": float("nan"), "im": 0.0}]]
    B = [[{"re": 0.0, "im": 0.0}]]
    path = write_json(tmp_path / "model.json", {"n": 1, "A": A, "B": B})
    code, out, err = run(capsys, ["classify", path])
    assert code == 2 and out == ""
    assert "A[0][0]" in err and "non-finite" in err


def test_cli_nan_point_is_input_error(tmp_path, capsys):
    doc_in = {
        "model": model_doc([0.3]),
        "data": {"builtin": "identity"},
        "r": 0.1,
        "points": [{"re": "nan", "im": 0.0}],
    }
    path = write_json(tmp_path / "in.json", doc_in)
    code, out, err = run(capsys, ["leaf-extend", path])
    assert code == 2 and out == ""
    assert "points[0]" in err and "non-finite" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cli_overflowing_report_is_numerical_failure(tmp_path, capsys, sign):
    f = sign * 1e308 * (Polynomial.z(1) * Polynomial.zbar(1) + Polynomial.z(1) ** 2)
    path = write_json(tmp_path / "in.json", {"model": model_doc([0.3]), "f": poly_doc(f)})
    code, out, err = run(capsys, ["extend", path])
    assert code == 3 and out == ""
    assert "non-finite" in err


def test_cli_tol_leaf_gates_leaf_residual(tmp_path, capsys):
    doc_in = {
        "model": model_doc([0.3]),
        "data": {"builtin": "identity"},
        "r": 0.1,
        "points": [{"re": 0.01, "im": 0.0}],
    }
    in_path = write_json(tmp_path / "in.json", doc_in)
    code, _, _ = run(capsys, ["leaf-extend", in_path])
    assert code == 0
    cfg_path = write_json(tmp_path / "cfg.json", {"tol_leaf": 1e-20})
    code, out, err = run(capsys, ["leaf-extend", in_path, "--config", cfg_path])
    assert code == 3 and out == ""
    assert "leaf residual" in err


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", {"grid_n": 256, "tol_moment": 1e-6, "seed": 5})
    f = Polynomial.z(1) * Polynomial.zbar(1)
    in_path = write_json(
        tmp_path / "in.json", {"model": model_doc([0.1]), "f": poly_doc(f), "leaves": [0.1]}
    )
    code, out, _ = run(capsys, ["check", in_path, "--config", cfg_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["grid_n"] == 256
    assert doc["config"]["tol_moment"] == 1e-6
    # flags win over the config file
    code, out, _ = run(capsys, ["check", in_path, "--config", cfg_path, "--grid-n", "128"])
    doc = json.loads(out)
    assert doc["config"]["grid_n"] == 128
    assert doc["N"] == 128


def test_cli_config_validation(tmp_path, capsys):
    f = Polynomial.z(1)
    in_path = write_json(tmp_path / "in.json", {"model": model_doc([0.0]), "f": poly_doc(f)})
    code, _, err = run(capsys, ["extend", in_path, "--grid-n", "100"])
    assert code == 2 and "power of two" in err
    bad_cfg = write_json(tmp_path / "cfg.json", {"mystery_field": 1})
    code, _, err = run(capsys, ["extend", in_path, "--config", bad_cfg])
    assert code == 2 and "unknown config fields" in err
    neg_cfg = write_json(tmp_path / "cfg.json2", {"tol_extend": -1.0})
    code, _, err = run(capsys, ["extend", in_path, "--config", neg_cfg])
    assert code == 2 and "must be positive" in err


def test_cli_out_flag_writes_file(tmp_path, capsys):
    f = Polynomial.z(1) * Polynomial.zbar(1)
    in_path = write_json(tmp_path / "in.json", {"model": model_doc([0.0]), "f": poly_doc(f)})
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["extend", in_path, "--out", str(out_path)])
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "Extended"
