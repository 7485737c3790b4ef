"""End-to-end CLI runs: JSON in, canonical JSON out, exit codes."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import dictref
from conftest import congruent_model, perfbench_check, perfbench_corpus
import crextend
from crextend import Polynomial, QuadricModel, extend, leafcauchy, normal_form_model, polyalg, q_polynomial
from crextend.polyalg import MAX_TERMS
from crextend.cli import _COMMANDS, RunConfig, dumps_canonical, main


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


def _congruent_doc(lambdas):
    """A = S^H S, B = S^T diag(lambdas) S for a fixed S: Bishop invariants lambdas, a model that is no normal form."""
    S = np.array([[1.0, 0.3 + 0.2j], [-0.1j, 0.9]])
    A = S.conj().T @ S
    B = S.T @ np.diag(np.asarray(lambdas, dtype=complex)) @ S
    return QuadricModel((A + A.conj().T) / 2, (B + B.T) / 2).to_json_dict()


@pytest.mark.parametrize(
    "doc, top, exact",
    [
        (_congruent_doc([0.3, 1e8]), 1e8, False),
        (_congruent_doc([0.3, 1e10]), 1e10, False),
        (model_doc([1e300]), 1e300, True),
        (model_doc([1e300, 1e300]), 1e300, True),
    ],
    ids=["congruent-1e8", "congruent-1e10", "diag-1e300-n1", "diag-1e300-n2"],
)
def test_cli_classify_large_b_is_hyperbolic(tmp_path, capsys, doc, top, exact):
    # normalize's residuals grow with |B| (5.7e-8 at 1e8); each is gated
    # relative to the matrices it compares and reported raw.  A diagonal
    # model's normal form is in closed form, so its residual may be 0
    code, out, err = run(capsys, ["classify", write_json(tmp_path / "model.json", doc)])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["classification"] == "hyperbolic"
    assert max(report["lambdas"]) == pytest.approx(top, rel=1e-12)
    assert report["residual_b"] <= 1e-8 * top
    assert report["residual_b"] >= 0 if exact else report["residual_b"] > 0
    assert report["residual_a"] <= 1e-8


@pytest.mark.parametrize(
    "A, B, j",
    [
        ([[1.0]], [[1.5e308 + 1.5e308j]], 1),
        (np.eye(2), np.diag([1e300, 1.5e308 + 1.5e308j]), 2),
    ],
    ids=["n1", "n2"],
)
def test_cli_classify_refuses_an_overflowing_invariant(tmp_path, capsys, A, B, j):
    # |B_jj| / A_jj overflows: classify names the invariant on one line and
    # exits 3, where the writer or a nan residual used to; extend calls the
    # model hyperbolic
    model = QuadricModel(A=np.array(A), B=np.array(B)).to_json_dict()
    code, out, err = run(capsys, ["classify", write_json(tmp_path / "model.json", model)])
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and f"invariant lambda_{j} = inf is not finite" in err
    f = poly_doc(Polynomial.z(len(A)))
    code, out, err = run(capsys, ["extend", write_json(tmp_path / "in.json", {"model": model, "f": f})])
    assert code == 2 and out == "" and "model is hyperbolic, not elliptic" in err


def test_cli_classify_and_extend_agree_on_the_elliptic_edge(tmp_path, capsys):
    # n = 1 models a hair inside the elliptic edge, lambda = 0.5 - 1e-10 up to
    # rounding: the classify subcommand and extend read the same lambda bits,
    # so extend refuses exactly the models classify does not call elliptic
    f = poly_doc(Polynomial.z(1))
    verdicts = set()
    for a in np.linspace(0.1, 10, 54):
        model = QuadricModel(A=np.array([[a]]), B=np.array([[a * (0.5 - 1e-10)]])).to_json_dict()
        code, out, err = run(capsys, ["classify", write_json(tmp_path / "model.json", model)])
        assert code == 0 and err == ""
        kind = json.loads(out)["classification"]
        code, out, err = run(capsys, ["extend", write_json(tmp_path / "in.json", {"model": model, "f": f})])
        if kind == "elliptic":
            assert code == 0 and err == "", a
        else:
            assert code == 2 and f"model is {kind}, not elliptic" in err, a
        verdicts.add(kind)
    assert verdicts == {"elliptic", "parabolic"}


def test_cli_classify_and_extend_zero_invariants(tmp_path, capsys):
    # a congruent n = 4 model with lambda = (0, 0, 0.151, 0.409)
    lams = [0.0, 0.0, 0.151, 0.409]
    m = congruent_model(np.random.default_rng(311), lams)
    path = write_json(tmp_path / "model.json", m.to_json_dict())
    code, out, err = run(capsys, ["classify", path])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["classification"] == "elliptic"
    assert doc["lambdas"] == pytest.approx(lams, abs=1e-12)
    f = (Polynomial.w(4) + Polynomial.z(4, 2)).substitute_w(q_polynomial(m))
    path = write_json(tmp_path / "in.json", {"model": m.to_json_dict(), "f": poly_doc(f)})
    code, out, err = run(capsys, ["extend", path])
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "Extended"


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


def test_cli_options_before_or_after_command(tmp_path, capsys):
    f = Polynomial.z(1) * Polynomial.zbar(1)
    path = write_json(tmp_path / "in.json", {"model": model_doc([0.0]), "f": poly_doc(f)})
    code1, out1, _ = run(capsys, ["--seed", "3", "extend", path])
    code2, out2, _ = run(capsys, ["extend", path, "--seed", "3"])
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1)["verify"]["seed"] == 3


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
    for row in vals:
        assert set(row) == {"z", "F", "winding_defect", "error_estimate"}
        assert 0 <= row["winding_defect"] <= leafcauchy.WINDING_TOL
    assert set(doc) == {"command", "config", "r", "level", "data", "values"}  # no leaf-wide diagnostic


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


def test_cli_check_and_probe_run_the_terms_of_f_once_per_document(tmp_path, capsys, monkeypatch):
    # a document's leaves share f's parts on the grid's unit curve: one pass
    # of f's terms per check or probe document, with E too
    passes = []
    add_terms = polyalg._add_terms
    monkeypatch.setattr(polyalg, "_add_terms", lambda terms, *args: passes.append(terms) or add_terms(terms, *args))
    E = Polynomial.monomial(1, (2,), (2,), 0, 0.1)
    f = Polynomial.z(1) ** 2 * Polynomial.zbar(1) + 0.3 * Polynomial.zbar(1) ** 4 + 1.0
    for model in (model_doc([0.2]), model_doc([0.2], E=E)):
        documents = {
            "check": {"model": model, "f": poly_doc(f)},
            "probe-degenerate": {
                "family": {"kind": "quadric", "model": model},
                "data": {"polynomial": poly_doc(f)},
                "ladder": {"start": 1e-3, "ratio": 1.5, "count": 10},
            },
        }
        for command, doc_in in documents.items():
            passes.clear()
            code, _, err = run(capsys, [command, write_json(tmp_path / "in.json", doc_in), "--grid-n", "1024"])
            assert code == 0, err
            assert sum(terms == f.terms for terms in passes) == 1, command


@pytest.mark.parametrize(
    "count, message",
    [
        (3, "s ladder needs at least 6 and at most 64 rungs"),
        (8, "solve_leaf: model must be in Bishop normal form"),
    ],
)
def test_cli_probe_checks_the_ladder_before_the_model(tmp_path, capsys, count, message):
    # the quadric family meets its model on the first rung, after the ladder checks
    model = model_doc([0.1])
    model["A"][0][0] = {"re": 2.0, "im": 0.0}
    doc_in = {
        "family": {"kind": "quadric", "model": model},
        "data": {"builtin": "sqrt-re-w"},
        "ladder": {"start": 1e-4, "ratio": 2.0, "count": count},
    }
    code, out, err = run(capsys, ["probe-degenerate", write_json(tmp_path / "in.json", doc_in)])
    assert code == 2 and out == ""
    assert err.startswith(f"crextend: input error: {message}")


def test_cli_check_stops_its_ladder_at_the_first_failing_leaf(tmp_path, capsys):
    # E = 30 |z|^4: the leaf at 1e30 does not converge; Newton at 1e100
    # overflows, but the ladder never reaches it
    E = Polynomial.monomial(1, (2,), (2,), 0, 30.0)
    doc_in = {"model": model_doc([0.0], E=E), "f": poly_doc(Polynomial.z(1)), "leaves": [0.1, 1e100, 1e30]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["check", write_json(tmp_path / "in.json", doc_in)])
    assert code == 3 and out == "" and caught == []
    assert err == (
        "crextend: numerical failure: leaf solve did not converge in 50 iterations at r = 1e+30 "
        "(leaf may be outside the model's validity radius)\n"
    )


def test_cli_overflowing_leaf_prints_only_its_failure(tmp_path, capsys):
    # Newton at r = 1e100 overflows: stderr holds the CLI's one line, no numpy warning
    E = Polynomial.monomial(1, (2,), (2,), 0, 30.0)
    doc_in = {"model": model_doc([0.0], E=E), "f": poly_doc(Polynomial.z(1)), "leaves": [1e100]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["check", write_json(tmp_path / "in.json", doc_in)])
    assert code == 3 and out == "" and caught == []
    assert err == (
        "crextend: numerical failure: leaf solve did not converge in 50 iterations at r = 1e+100 "
        "(leaf may be outside the model's validity radius)\n"
    )


def test_cli_leaf_solve_whose_square_overflows_names_r(tmp_path, capsys):
    E = Polynomial.monomial(1, (2,), (2,), 0, 0.5)
    doc_in = {
        "model": model_doc([0.1], E=E),
        "data": {"builtin": "identity"},
        "r": 1e300,
        "points": [{"re": 0.0, "im": 0.0}],
    }
    code, out, err = run(capsys, ["leaf-extend", write_json(tmp_path / "in.json", doc_in)])
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("crextend: numerical failure: leaf solve at r = 1e+300: r^2 overflows ")


@pytest.mark.parametrize(
    "model",
    [
        QuadricModel(A=np.array([[1, 0.3j], [-0.3j, 1]]), B=np.array([[0.1, 0.05], [0.05, 0.2]])),
        normal_form_model([0.2]),
        normal_form_model([0.1, 0.3]),
    ],
    ids=["congruent-n2", "nf-0.2", "nf-0.1-0.3"],
)
@pytest.mark.parametrize("obstructed", [False, True])
def test_cli_extend_at_scale_1e200_reports_its_verdict(tmp_path, capsys, model, obstructed):
    # squared coefficients overflow here: the residuals must stay finite and quiet
    z1, w = Polynomial.z(model.n, 0), Polynomial.w(model.n)
    f = 1e200 * (z1 * z1 * z1 + w * z1 + w * w).substitute_w(q_polynomial(model))
    if obstructed:
        f = f + 1e200 * Polynomial.zbar(model.n)
    path = write_json(tmp_path / "in.json", {"model": model.to_json_dict(), "f": poly_doc(f)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["extend", path])
    assert code == 0 and err == "" and caught == []
    assert json.loads(out)["status"] == ("NotExtendible" if obstructed else "Extended")


def test_cli_extend_n10_zbar40_is_not_extendible_in_bounded_time(tmp_path, capsys, monkeypatch):
    # a diagonal Q is divided, not solved as a graded block: zbar1^40 at n = 10
    # has no quotient, so P is empty and degree 40 fails without any power of
    # Q, and without the least-squares recheck, whose block there is far
    # beyond MAX_GRADED_ENTRIES
    model = normal_form_model([0.1] * 10)
    Q = q_polynomial(model)
    products, solves = [], []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda p, q: products.append((p, q)) or mul(p, q))
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: solves.append(args))
    doc_in = {"model": model.to_json_dict(), "f": poly_doc(_zbar1_power(10, 40))}
    path = write_json(tmp_path / "in.json", doc_in)
    start = time.perf_counter()
    code, out, err = run(capsys, ["extend", path])
    assert time.perf_counter() - start < 30.0  # a backstop: the work is bounded below
    assert code == 0 and err == ""
    assert not solves and not any(Q in pair for pair in products)
    assert all(len(p.coeffs) * len(q.coeffs) <= 2 for p, q in products if isinstance(q, Polynomial))
    report = json.loads(out)
    assert report["status"] == "NotExtendible" and report["certificate"]["degree"] == 40
    assert report["certificate"]["condition"] == "CR field X f != 0"
    assert [d["degree"] for d in report["degrees"]] == [40]


def _extend_recording_lstsq(tmp_path, capsys, monkeypatch, doc):
    """(report, lstsq calls, threshold) of `extend` on a corpus document."""
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: calls.append(args) or lstsq(*args, **kwargs))
    code, out, err = run(capsys, [doc.command, write_json(tmp_path / "in.json", json.loads(doc.text)), *doc.flags])
    assert code == 0 and err == ""
    f = Polynomial.from_json_dict(json.loads(doc.text)["f"])
    return json.loads(out), calls, extend.DEFAULT_EXTEND_TOL * (1 + f.max_coeff())


def test_cli_extend_proven_obstruction_makes_no_least_squares_solve(tmp_path, capsys, monkeypatch):
    # an obstructed n = 3 normal form: the CR-field certificate's lower bound
    # passes the threshold, so the failing degree takes no dense solve and
    # reports the division's residual
    doc = perfbench_corpus().extend_doc(np.random.default_rng(5), 3, 8, "nf", d0=5)
    report, calls, threshold = _extend_recording_lstsq(tmp_path, capsys, monkeypatch, doc)
    cert = report["certificate"]
    assert not calls and report["status"] == "NotExtendible"
    assert (cert["degree"], cert["condition"]) == (5, "CR field X f != 0")
    assert cert["lower_bound"] >= threshold
    assert report["residual"] == cert["residual"] == report["degrees"][-1]["residual"] >= cert["lower_bound"]


@pytest.mark.parametrize("n, kind, lam", [(1, "nf", 0.3), (2, "nn", None)], ids=["involution-0.3", "congruent-n2"])
def test_cli_extend_unproven_obstruction_keeps_least_squares(tmp_path, capsys, monkeypatch, n, kind, lam):
    # the involution (n = 1, lambda > 0) and a congruent model have no lower
    # bound, so their failing degree's residual is the least-squares one
    doc = perfbench_corpus().extend_doc(np.random.default_rng(9), n, 4, kind, d0=3, lam=lam)
    report, calls, threshold = _extend_recording_lstsq(tmp_path, capsys, monkeypatch, doc)
    cert = report["certificate"]
    assert calls and report["status"] == "NotExtendible" and report["residual"] >= threshold
    assert cert["lower_bound"] is None and cert["degree"] == 3
    assert cert["condition"] == ("not involution-invariant" if kind == "nf" else None)
    if kind == "nn":
        assert cert["detail"] == {}


@pytest.mark.parametrize("n", [1, 2])
def test_cli_extend_overflowing_b_is_hyperbolic(tmp_path, capsys, n):
    # |B_jj| / A_jj = 1e300: the closed-form verdict refuses the model as
    # hyperbolic, where a normal form's residual would overflow the check
    model = QuadricModel(A=np.eye(n), B=1e300 * np.eye(n))
    path = write_json(tmp_path / "in.json", {"model": model.to_json_dict(), "f": poly_doc(Polynomial.z(n, 0))})
    code, out, err = run(capsys, ["extend", path])
    assert code == 2 and out == "" and "model is hyperbolic, not elliptic" in err


def test_cli_extend_diagonal_corpus_documents_decompose_nothing(tmp_path, capsys, monkeypatch):
    # one block of the benchmark's extend-graded traffic: every document on
    # a diagonal model (every normal form, every n = 1 model) runs with eigh
    # and SVD refused, and its report agrees with its reference
    def refuse(*args, **kwargs):
        raise AssertionError("decomposition called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    check, path, ran = perfbench_check(), tmp_path / "in.json", 0
    for doc in perfbench_corpus().block("extend-graded", 1, 0):
        m = QuadricModel.from_json_dict(json.loads(doc.text)["model"])
        if np.count_nonzero(m.A - np.diag(m.A.diagonal())) or np.count_nonzero(m.B - np.diag(m.B.diagonal())):
            continue
        path.write_text(doc.text, encoding="utf-8")
        code, out, err = run(capsys, [doc.command, str(path), *doc.flags])
        assert check.mismatch(doc, code, out) is None, (doc.kind, err)
        ran += 1
    assert ran == 13  # of its 17 documents


def test_cli_extend_residual_is_the_largest_degree_residual_on_the_corpus(tmp_path, capsys):
    # one block of the benchmark's extend-graded traffic: each Extended report's
    # residual is the largest of its degrees' residuals, the numbers the gate compared
    extended = 0
    for doc in perfbench_corpus().block("extend-graded", 1, 0):
        if doc.command != "extend":
            continue
        path = tmp_path / "in.json"
        path.write_text(doc.text, encoding="utf-8")
        code, out, _ = run(capsys, [doc.command, str(path), *doc.flags])
        report = json.loads(out)
        if code == 0 and report["status"] == "Extended":
            extended += 1
            assert report["residual"] == max(d["residual"] for d in report["degrees"])
    assert extended == 8  # of its 17 documents

@pytest.mark.parametrize("n, degree, kind", [(3, 14, "nf"), (3, 6, "nn")])
def test_cli_extend_largest_corpus_shapes_sort_without_lexsort(tmp_path, capsys, monkeypatch, n, degree, kind):
    # the benchmark corpus's largest extend documents, a normal form at
    # degree 14 and a congruent model at degree 6: every merge packs its rows
    # into int64 keys, and the report is the one the reference sort gives
    doc = perfbench_corpus().extend_doc(np.random.default_rng(degree), n, degree, kind)
    path = write_json(tmp_path / "in.json", json.loads(doc.text))
    argv = [doc.command, path, *doc.flags]
    with monkeypatch.context() as patch:
        patch.setattr(polyalg, "sorted_runs", dictref.sorted_runs)
        patch.setattr(extend, "sorted_runs", dictref.sorted_runs)
        want = run(capsys, argv)

    def refuse(keys):
        raise AssertionError("np.lexsort called")

    monkeypatch.setattr(np, "lexsort", refuse)
    assert run(capsys, argv) == want
    assert want[0] == 0 and json.loads(want[1])["status"] == "Extended"


# -- errors and configuration ----------------------------------------------------------


def test_cli_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert len(_COMMANDS) == 5
    for name, cmd in _COMMANDS.items():
        assert cmd.__doc__ and f"  {name}" in text and cmd.__doc__ in text
    for argv in (["extend", "--help"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out == text


def test_cli_flags_do_not_carry_over_between_calls(tmp_path, capsys):
    path = write_json(tmp_path / "in.json", model_doc([0.2]))
    code, out, _ = run(capsys, ["classify", path, "--seed", "5", "--grid-n", "128"])
    assert code == 0 and json.loads(out)["config"]["seed"] == 5
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0 and json.loads(out)["config"] == RunConfig().to_json_dict()


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
        "points": [{"re": float("nan"), "im": 0.0}],  # written as the JSON literal NaN
    }
    path = write_json(tmp_path / "in.json", doc_in)
    code, out, err = run(capsys, ["leaf-extend", path])
    assert code == 2 and out == ""
    assert "points[0]" in err and "non-finite" in err


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cli_overflowing_report_is_numerical_failure(tmp_path, capsys, sign):
    f = sign * 1e308 * (Polynomial.z(1) * Polynomial.zbar(1) + Polynomial.z(1) ** 2)
    path = write_json(tmp_path / "in.json", {"model": model_doc([0.3]), "f": poly_doc(f)})
    code, out, err = run(capsys, ["extend", path])
    assert code == 3 and out == ""
    assert "non-finite" in err


_HUGE = {"re": 1e308, "im": 0.0}
NUMERICAL = {
    # eigvalsh of the real form of a 1e308 model does not converge (LinAlgError)
    "classify-1e308": (
        "classify",
        {"n": 2, "A": [[_HUGE, {"re": -1e308, "im": 0.0}], [{"re": -1e308, "im": 0.0}, _HUGE]], "B": [[_HUGE] * 2] * 2},
    ),
    # r ** (ell + 1) of a leaf at 1e9 overflows a Python float from ell = 34 on;
    # the message names the leaf radius and ell
    "check-leaf-1e9": (
        "check",
        {"model": model_doc([0.2]), "f": poly_doc(Polynomial.zbar(1) ** 3), "leaves": [1e9], "Lmax": 40},
        ["radius r = 1e+09", "ell = 34"],
    ),
    # zbar^30 overflows on the leaf at 1e11 and its moment is nan: refused
    # by name, not passed over by the max modulus
    "check-nan-moment": (
        "check",
        {"model": model_doc([0.1]), "f": poly_doc(Polynomial.zbar(1) ** 30), "leaves": [1e11], "Lmax": 0},
        ["ell = 0 on the leaf of radius r = 1e+11 is not finite"],
    ),
}


@pytest.mark.parametrize("name", sorted(NUMERICAL))
def test_cli_numpy_and_overflow_errors_are_numerical_failures(tmp_path, capsys, name):
    command, doc_in, *named = NUMERICAL[name]
    code, out, err = run(capsys, [command, write_json(tmp_path / "in.json", doc_in)])
    assert code == 3 and out == ""
    assert err.startswith("crextend: numerical failure:") and "Traceback" not in err
    for fragment in named[0] if named else []:
        assert fragment in err


def _real(x):
    return {"re": x, "im": 0.0}


_ZEROS = [[_real(0.0)] * 2] * 2
# Q^2 overflows at A = 1e200; on both routes the overflowing power used to
# reach lstsq, whose LAPACK error lines went to file descriptor 1.  At n = 2
# on the division route the CR-field certificate proves degree 24 first
# (X f = -1.2e201 z1^12 z2 zb1^11 over |y|_2 <= 24 * 2e200), so that run ends
# NotExtendible, exit 0; the n = 1 model is not a normal form, no certificate
# decides its degree, and the division route still refuses Q^2 there.
OVERFLOWING_Q = {
    "n1-division": (
        {"n": 1, "A": [[_real(1e200)]], "B": [[_real(0.0)]]},
        Polynomial.z(1) ** 20 * Polynomial.zbar(1) ** 20,
    ),
    "n2-division": (
        {"n": 2, "A": [[_real(1e200), _real(0.0)], [_real(0.0), _real(1e200)]], "B": _ZEROS},
        Polynomial.z(2, 0) ** 12 * Polynomial.zbar(2, 0) ** 12 + Polynomial.z(2, 1),
    ),
    "n2-dense": (
        {"n": 2, "A": [[_real(1e200), _real(1e199)], [_real(1e199), _real(1e200)]], "B": _ZEROS},
        Polynomial.z(2, 0) ** 12 * Polynomial.zbar(2, 0) ** 12 + Polynomial.z(2, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_Q))
def test_cli_overflowing_q_power_is_refused_before_any_solve(tmp_path, capfd, monkeypatch, name):
    model, f = OVERFLOWING_Q[name]
    solves, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: solves.append(args) or lstsq(*args, **kwargs))
    code = main(["extend", write_json(tmp_path / "in.json", {"model": model, "f": poly_doc(f)})])
    out, err = capfd.readouterr()  # file descriptors 1 and 2, where LAPACK writes too
    if name == "n2-division":
        report = json.loads(out)
        assert code == 0 and err == "" and solves == [] and report["status"] == "NotExtendible"
        assert report["certificate"]["degree"] == 24
        assert report["certificate"]["condition"] == "CR field X f != 0"
        assert report["certificate"]["lower_bound"] == pytest.approx(0.25, rel=1e-12)
        return
    assert code == 3 and out == ""
    assert err == "crextend: numerical failure: q^2, substituted for w^2, has a non-finite coefficient\n"


def test_cli_floating_point_warnings_stay_off_stderr(tmp_path):
    # the power tables and the moment weight overflow at r = 1e300 before the
    # moment's scale does; a fresh interpreter shows every warning numpy raises
    doc_in = {"model": model_doc([0.2]), "f": poly_doc(Polynomial.zbar(1) ** 3), "leaves": [1e300]}
    src = str(Path(crextend.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "crextend.cli", "check", write_json(tmp_path / "in.json", doc_in)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "crextend: numerical failure: moment of order ell = 1 on the leaf of radius r = 1e+300: "
        "r^(ell + 1) overflows"
    ]


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


def test_cli_unwritable_out_is_input_error(tmp_path, capsys):
    in_path = write_json(tmp_path / "in.json", {"model": model_doc([0.0]), "f": poly_doc(Polynomial.z(1))})
    for out_path in (tmp_path / "missing" / "r.json", tmp_path):  # no such directory; a directory
        code, out, err = run(capsys, ["extend", in_path, "--out", str(out_path)])
        assert code == 2 and out == ""
        assert err.startswith("crextend: input error: cannot write the report to") and str(out_path) in err
        assert "Traceback" not in err


# -- malformed scalars and oversized inputs ----------------------------------------------


def _leaf_extend_doc(**changes):
    doc = {
        "model": model_doc([0.2]),
        "data": {"builtin": "constant", "value": 1.0},
        "r": 0.3,
        "points": [{"re": 0.1, "im": 0.0}],
    }
    return {**doc, **changes}


def _probe_doc(**ladder_changes):
    return {
        "family": {"kind": "radial", "power": 4},
        "data": {"builtin": "sqrt-re-w"},
        "ladder": {"start": 1e-4, "ratio": 2.0, "count": 8, **ladder_changes},
    }


def _check_doc(f=None, **changes):
    f = f if f is not None else poly_doc(Polynomial.zbar(1) ** 3)
    return {"model": model_doc([0.2]), "f": f, **changes}


def _many_terms(count):
    """An n = 2 polynomial document of count distinct terms, each of degree at most 61."""
    terms = []
    for i in range(count):
        a1, a2, b1, b2 = i % 16, i // 16 % 16, i // 256 % 16, i // 4096
        terms.append({"alpha": [a1, a2], "beta": [b1, b2], "k": 0, "re": 1.0, "im": 0.0})
    return {"n": 2, "terms": terms}


def _dense_real(m):
    """The real n = 2 polynomial with every term z^alpha zbar^beta of degree >= 3, exponents below m."""
    rows = np.indices((m,) * 4).reshape(4, -1).T
    rows = rows[rows.sum(axis=1) >= 3]
    exps = np.column_stack((rows, np.zeros(len(rows), dtype=int)))
    return Polynomial(2, exps, np.ones(len(rows)))


def _z_power(n, d):
    return {"n": n, "terms": [{"alpha": [d] + [0] * (n - 1), "beta": [0] * n, "k": 0, "re": 1.0, "im": 0.0}]}


def _huge_int_term():
    """The n = 1 document of z with a real part beyond the float range."""
    return {"n": 1, "terms": [{"alpha": [1], "beta": [0], "k": 0, "re": 10**400, "im": 0.0}]}


def _huge_int_model():
    doc = model_doc([0.2])
    doc["A"][0][0] = {"re": -(10**400), "im": 0}
    return doc


def _offdiagonal_model(n):
    """A = I and B = 0.09 I + 0.01 (all ones): elliptic, with off-diagonal terms in Q."""
    return QuadricModel(A=np.eye(n), B=0.09 * np.eye(n) + 0.01).to_json_dict()


def _zbar1_power(n, d):
    return Polynomial.monomial(n, (0,) * n, (d,) + (0,) * (n - 1), 0)


def _bool_term(**changes):
    """The n = 1 document of z zbar with JSON booleans put in place of some exponents."""
    return {"n": 1, "terms": [{"alpha": [1], "beta": [1], "k": 0, "re": 1.0, "im": 0.0, **changes}]}


MALFORMED = {
    "value-string": ("leaf-extend", _leaf_extend_doc(data={"builtin": "constant", "value": "abc"}), None),
    "value-nan": ("leaf-extend", _leaf_extend_doc(data={"builtin": "constant", "value": float("nan")}), None),
    "r-string": ("leaf-extend", _leaf_extend_doc(r="abc"), None),
    "r-list": ("leaf-extend", _leaf_extend_doc(r=[1]), None),
    "r-infinity": ("leaf-extend", _leaf_extend_doc(r=float("inf")), None),
    "r-bool": ("leaf-extend", _leaf_extend_doc(r=True), None),
    "ladder-start-string": ("probe-degenerate", _probe_doc(start="abc"), None),
    "ladder-count-string": ("probe-degenerate", _probe_doc(count="x"), None),
    "ladder-count-huge": ("probe-degenerate", _probe_doc(count=10**9), None),
    "ladder-overflow": ("probe-degenerate", _probe_doc(start=1.0, ratio=1e300), None),
    "ladder-list-string": ("probe-degenerate", {**_probe_doc(), "ladder": ["a"]}, None),
    "power-string": ("probe-degenerate", {**_probe_doc(), "family": {"kind": "radial", "power": "abc"}}, None),
    "Lmax-string": ("check", _check_doc(Lmax="x"), None),
    "Lmax-negative": ("check", _check_doc(Lmax=-1), None),
    "Lmax-above-cap": ("check", _check_doc(Lmax=69), None),
    "leaves-string": ("check", _check_doc(leaves=["x"]), None),
    "leaves-empty": ("check", _check_doc(leaves=[]), None),
    "leaf-ladder-empty": ("check", _check_doc(), {"leaf_ladder": []}),
    "leaf-ladder-number": ("check", _check_doc(), {"leaf_ladder": 5}),
    "tol-string": ("check", _check_doc(tol="x"), None),
    "check-z^70": ("check", _check_doc(f=_z_power(1, 70)), None),
    "check-z^1e8": ("check", _check_doc(f=_z_power(1, 10**8)), None),
    "extend-z^1e8": ("extend", {"model": model_doc([0.2, 0.1]), "f": _z_power(2, 10**8)}, None),
    # w is a coordinate of the ambient space, not boundary data
    "check-w-term": (
        "check",
        {"model": model_doc([0.1]), "f": poly_doc(Polynomial.zbar(1) * Polynomial.w(1))},
        None,
    ),
    "exponent-bool": ("extend", {"model": model_doc([0.1]), "f": _bool_term(alpha=[True])}, None),
    "k-bool": ("extend", {"model": model_doc([0.1]), "f": _bool_term(k=False)}, None),
    # a non-diagonal Q divides degree 40 in normal-form coordinates, whose tables at n = 10 are refused at once
    "extend-n10-nondiagonal-zbar^40": (
        "extend",
        {"model": _offdiagonal_model(10), "f": poly_doc(_zbar1_power(10, 40))},
        None,
    ),
    # more terms than MAX_TERMS, refused before any term is read
    "check-n2-too-many-terms": ("check", {"model": model_doc([0.1, 0.2]), "f": _many_terms(MAX_TERMS + 1)}, None),
    # cr_check multiplies rho_zbar (E has 4096 terms) by f_zbar (4096 terms): 12.8M pairs
    "check-n2-product-too-large": (
        "check",
        {"model": model_doc([0.1, 0.2], E=_dense_real(8)), "f": poly_doc(_dense_real(8))},
        None,
    ),
    # refused before open(), which would take an integer as a file descriptor
    "config-out-int": ("check", _check_doc(), {"out": 12345}),
    "config-out-bool": ("check", _check_doc(), {"out": True}),
    "config-out-list": ("check", _check_doc(), {"out": ["r.json"]}),
    "config-seed-bool": ("check", _check_doc(), {"seed": True}),
    # integers beyond the float range, and an n whose exponent matrix cannot be allocated
    "f-coefficient-beyond-float": ("extend", {"model": model_doc([0.1]), "f": _huge_int_term()}, None),
    "model-A-beyond-float": ("classify", _huge_int_model(), None),
    "f-n-beyond-allocation": ("extend", {"model": model_doc([0.1]), "f": {"n": 10**20, "terms": []}}, None),
    # a number written as a string, or a bool, is not a number, in a coefficient as anywhere else
    "f-coefficient-string": (
        "check",
        _check_doc(f={"n": 1, "terms": [{"alpha": [0], "beta": [3], "k": 0, "re": "1.5", "im": 0.0}]}),
        None,
    ),
    "point-bool": ("leaf-extend", _leaf_extend_doc(points=[{"re": 0.1, "im": True}]), None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_scalar_is_input_error(tmp_path, capsys, name):
    command, doc_in, config = MALFORMED[name]
    argv = [command, write_json(tmp_path / "in.json", doc_in)]
    if config is not None:
        argv += ["--config", write_json(tmp_path / "cfg.json", config)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("crextend: input error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "name, message",
    [
        ("f-coefficient-beyond-float", "terms[0]: non-finite number (inf+0j)"),
        ("model-A-beyond-float", "A[0][0]: non-finite number (-inf+0j)"),
        ("f-n-beyond-allocation", "polynomial field 'n' is too large"),
    ],
)
def test_cli_huge_numbers_name_their_field(tmp_path, capsys, name, message):
    command, doc_in, _ = MALFORMED[name]
    code, _, err = run(capsys, [command, write_json(tmp_path / "in.json", doc_in)])
    assert code == 2 and message in err


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, '{"n": ' + "1" * 5000 + "}"])
def test_cli_unparseable_json_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 2 and out == "" and "malformed JSON" in err


def test_cli_check_default_run_fails_where_empty_inputs_passed(tmp_path, capsys):
    # zbar^3 at lambda = 0.2 is not extendible; empty leaves or Lmax = -1 used to pass it
    code, out, _ = run(capsys, ["check", write_json(tmp_path / "in.json", _check_doc())])
    assert code == 0 and json.loads(out)["passed"] is False
