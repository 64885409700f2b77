"""Command-line front end: problem parsing, commands, exit codes,
certificates, golden outputs."""

import contextlib
import io
import json
import os
import re

import pytest

from covar.cli import (
    ProblemError,
    ProblemFile,
    list_presets,
    load_certificate,
    main,
    parse_problem,
)
from covar.action import FiniteGroupAction
from covar.covariant import Covariant, verify_equivariance
from covar.exactalg import RatFn
from test_noname import _power_map_problem

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_volatile(x) for x in obj]
    return obj


# -- problem parsing ---------------------------------------------------------------


def test_presets_are_available():
    names = list_presets()
    assert "vandermonde_s2" in names and "scalar_counterexample" in names


def test_parse_preset():
    p = parse_problem("vandermonde_s2")
    assert p.group.order == 2
    assert len(p.covariants) == 2


def test_parse_then_serialize_is_identity_on_presets():
    from importlib import resources

    for name in list_presets():
        ref = resources.files("covar").joinpath("presets", name + ".json")
        text = ref.read_text(encoding="utf-8")
        problem = parse_problem(name)
        assert problem.canonical_text() == text, name


def test_dimension_error_names_the_field(tmp_path):
    bad = {"space": {"x_vars": ["x1", "x2"], "w_vars": ["w1", "w2"]},
           "group": {"type": "finite",
                     "generators": [{"x": [["0", "1", "0"], ["1", "0", "0"]],
                                     "w": [["1", "0"], ["0", "1"]]}]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ProblemError, match=r"group\.generators\[0\]\.x"):
        parse_problem(str(path))


def test_undeclared_variable_is_a_reference_error(tmp_path):
    bad = {"space": {"x_vars": ["x1", "x2"], "w_vars": ["w1", "w2"]},
           "group": {"type": "finite",
                     "generators": [{"x": [["0", "1"], ["1", "0"]],
                                     "w": [["0", "1"], ["1", "0"]]}]},
           "covariants": [["x1", "x9"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ProblemError, match="x9"):
        parse_problem(str(path))


def test_unknown_template_is_rejected():
    with pytest.raises(ProblemError, match="unknown template"):
        parse_problem({"group": {"type": "symbolic", "n": 2,
                                 "x_template": "mystery", "w_template": "scalar"}})


def test_missing_file_is_a_problem_error():
    with pytest.raises(ProblemError, match="no such problem"):
        parse_problem("/nonexistent/path.json")


# -- commands and exit codes ----------------------------------------------------------


def test_verify_command_ok():
    code, out, _ = run_cli(["verify", "vandermonde_s2"])
    assert code == 0 and "PASS" in out


def test_verify_command_refutes(tmp_path):
    prob = {"space": {"x_vars": ["x1", "x2"], "w_vars": ["w1", "w2"]},
            "group": {"type": "finite",
                      "generators": [{"x": [["0", "1"], ["1", "0"]],
                                      "w": [["0", "1"], ["1", "0"]]}]},
            "covariants": [["x1", "x1"]]}
    path = tmp_path / "bad_cov.json"
    path.write_text(json.dumps(prob))
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 1 and "FAIL" in out


def test_independence_exit_codes():
    code, _, _ = run_cli(["independence", "vandermonde_s2"])
    assert code == 0
    code, out, _ = run_cli(["independence", "scalar_counterexample"])
    assert code == 1
    assert "rank" in out


def test_noname_build_and_verify_roundtrip(tmp_path):
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run_cli(["noname-build", "vandermonde_s2", "--out", cert_path])
    assert code == 0
    assert os.path.exists(cert_path)
    # self-contained: verification does not touch the original problem file
    code2, out2, _ = run_cli(["noname-verify", cert_path])
    assert code2 == 0
    m, _problem = load_certificate(cert_path)
    assert str(m.f) == "x1*x2^2 - x1^2*x2"


def test_noname_build_rejects_dependent_family(tmp_path):
    prob = {"space": {"x_vars": ["x1", "x2"], "w_vars": ["w1", "w2"]},
            "group": {"type": "finite",
                      "generators": [{"x": [["0", "1"], ["1", "0"]],
                                      "w": [["0", "1"], ["1", "0"]]}]},
            "covariants": [["x1", "x2"], ["2*x1", "2*x2"]]}
    path = tmp_path / "dep.json"
    path.write_text(json.dumps(prob))
    code, out, _ = run_cli(["noname-build", str(path)])
    assert code == 1


def test_noname_verify_detects_corruption(tmp_path):
    cert_path = str(tmp_path / "cert.json")
    run_cli(["noname-build", "vandermonde_s2", "--out", cert_path])
    with open(cert_path) as fh:
        cert = json.load(fh)
    cert["phi"][0][0] = "(x2^2 + 1)/(x1*x2^2 - x1^2*x2)"
    with open(cert_path, "w") as fh:
        json.dump(cert, fh)
    code, out, _ = run_cli(["noname-verify", cert_path])
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("column,accepted", [
    (["x1*x1", "x2^2"], True),    # the same column, spelled differently
    (["x1^2", "x2^3"], False),    # a tampered column
], ids=["respelled", "tampered"])
def test_certificate_covariants_must_be_the_frame_columns(tmp_path, column, accepted):
    cert_path = str(tmp_path / "cert.json")
    run_cli(["noname-build", "vandermonde_s2", "--out", cert_path])
    with open(cert_path) as fh:
        cert = json.load(fh)
    assert cert["covariants"][1] == ["x1^2", "x2^2"]
    cert["covariants"][1] = column
    path = _write_problem(tmp_path, cert, "respelled.json")
    if not accepted:
        with pytest.raises(ProblemError,
                           match="covariants: expected the columns of phi_inv, in order"):
            load_certificate(path)
        return
    m, _ = load_certificate(path)
    assert [F.coords for F in m.covariants] == [
        [row[j] for row in m.phi_inv.entries] for j in range(2)]
    assert run_cli(["noname-verify", path])[0] == 0


def _scaled_row(rows, k, x_vars):
    return [str(RatFn.parse(e, x_vars, reduce=False) * k) for e in rows[0]]


def _phi_rows_swapped(cert):
    cert["phi"].reverse()


def _phi_row_tripled(cert):
    cert["phi"][0] = _scaled_row(cert["phi"], 3, tuple(cert["space"]["x_vars"]))


def _frame_row_doubled(cert):
    cert["phi_inv"][0] = _scaled_row(cert["phi_inv"], 2, tuple(cert["space"]["x_vars"]))
    del cert["covariants"]


def _round_trip(where, indices):
    return [("round_trips", f"round trip through {where} {i}") for i in indices]


_PHI, _FRAME = "phi fails at output", "the frame fails at coordinate"
_INVERSE_FAILURES = [("phi_times_frame_is_identity", None),
                     ("frame_times_phi_is_identity", None)]


@pytest.mark.parametrize("tamper,failed", [
    (_phi_rows_swapped, _INVERSE_FAILURES + _round_trip(_PHI, [1, 2, 3, 4])
     + _round_trip(_FRAME, [1, 2, 3, 4])),
    # F * phi differs from the identity on other rows than phi * F does
    (_phi_row_tripled, _INVERSE_FAILURES + _round_trip(_PHI, [1])
     + _round_trip(_FRAME, [1, 4])),
    (_frame_row_doubled, [("f_equals_det_of_frame",
                           "localization denominator equals the frame determinant")]
     + _INVERSE_FAILURES + _round_trip(_PHI, [1, 2, 3, 4]) + _round_trip(_FRAME, [1])
     + [("generators_invariant",
         "frame column 1 is not equivariant, so a generator moves")]),
], ids=["phi-rows-swapped", "phi-row-tripled", "frame-row-doubled"])
def test_noname_verify_names_each_failed_row(tmp_path, tamper, failed):
    cert_path = tmp_path / "cert.json"
    assert run_cli(["noname-build", "matrix_words_gl2", "--out", str(cert_path)])[0] == 0
    cert = json.loads(cert_path.read_text())
    tamper(cert)
    code, report, _ = _machine(["noname-verify", _write_problem(tmp_path, cert,
                                                                "tampered.json")])
    assert code == 1
    assert [(c["name"], c.get("detail")) for c in report["checks"]
            if not c["passed"]] == failed


def test_symbolic_certificate_roundtrip(tmp_path):
    cert_path = str(tmp_path / "words.json")
    code, _, _ = run_cli(["noname-build", "matrix_words_gl2", "--out", cert_path])
    assert code == 0
    code2, _, _ = run_cli(["noname-verify", cert_path])
    assert code2 == 0


def test_generate_command():
    code, out, _ = run_cli(["generate", "s3_permutation", "--degree-bound", "3"])
    assert code == 0 and "3 generically independent covariants" in out


def test_generate_failure_reports_rank(tmp_path):
    prob = {"space": {"x_vars": ["x1"], "w_vars": ["w1"]},
            "group": {"type": "finite",
                      "generators": [{"x": [["-1"]], "w": [["-1"]]}]}}
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(prob))
    code, out, _ = run_cli(["generate", str(path), "--degree-bound", "0"])
    assert code == 1 and "rank 0" in out


def test_clear_command():
    code, out, _ = run_cli(["clear", "rational_swap"])
    assert code == 0
    assert "independence_preserved" in out


def test_relation_command_dependent():
    code, out, _ = run_cli(["relation", "powers_s2_cubic"])
    assert code == 0
    assert "x1*x2" in out


def test_relation_command_independent():
    code, out, _ = run_cli(["relation", "vandermonde_s2"])
    assert code == 0
    assert "independent" in out


def test_lower_command():
    code, out, _ = run_cli(["lower", "powers_s2_cubic"])
    assert code == 0
    assert "degree_lowered" in out


def test_module_verdict_exit_codes():
    code, out, _ = run_cli(["module-verdict", "scalar_counterexample"])
    assert code == 1 and "abstain" in out
    code2, _, _ = run_cli(["module-verdict", "powers_s2_cubic"])
    assert code2 == 1  # dependent family under the decided bridge
    code3, _, _ = run_cli(["module-verdict", "vandermonde_s2"])
    assert code3 == 0


def test_example_command_lists_presets():
    code, out, _ = run_cli(["example"])
    assert code == 0 and "vandermonde_s2" in out


def test_example_command_builds_family():
    code, out, _ = run_cli(["example", "matrix_words_gl2"])
    assert code == 0 and "a11" in out


def test_package_runs_as_a_module():
    import subprocess
    import sys

    import covar

    src = os.path.dirname(os.path.dirname(os.path.abspath(covar.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "covar", "example"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "vandermonde_s2" in proc.stdout


def test_closed_stdout_exits_without_a_traceback():
    """A reader that is gone before the report is written: the child exits
    with the SIGPIPE status and writes nothing to stderr."""
    import subprocess
    import sys

    import covar

    src = os.path.dirname(os.path.dirname(os.path.abspath(covar.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "covar", "example"], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_usage_errors_exit_two(tmp_path):
    code, _, err = run_cli(["independence", "/missing.json"])
    assert code == 2 and "error" in err
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code2, _, err2 = run_cli(["independence", str(bad)])
    assert code2 == 2 and "invalid JSON" in err2
    with pytest.raises(SystemExit) as exc:
        run_cli(["not-a-command", "x"])
    assert exc.value.code == 2


def _certificate_with(tmp_path, **fields):
    cert = tmp_path / "cert.json"
    assert run_cli(["noname-build", "vandermonde_s2", "--out", str(cert)])[0] == 0
    return dict(json.loads(cert.read_text()), **fields)


def _certificate_without_f(tmp_path):
    payload = _certificate_with(tmp_path)
    del payload["f"]
    return payload


def _cubic_with(**fields):
    payload = json.loads(parse_problem("powers_s2_cubic").canonical_text())
    return dict(payload, **fields)


def _family_problem(template, copies, **family):
    return {"group": {"type": "symbolic", "n": 2, "x_template": template,
                      "w_template": template, "x_copies": copies, "w_copies": 1},
            "family": dict(family, n=2)}


def _swap_problem_over(prime):
    swap = [["0", "1"], ["1", "0"]]
    return {"field": {"prime": prime},
            "group": {"type": "finite", "generators": [{"x": swap, "w": swap}]},
            "covariants": [["x1", "x2"]]}


SWAP_PAIR = {"x": [["0", "1"], ["1", "0"]], "w": [["0", "1"], ["1", "0"]]}


def _finite_problem(*generators, **group) -> dict:
    return {"group": {"type": "finite", "generators": list(generators), **group},
            "covariants": [["x1", "x2"]]}


def _symbolic_group(**overrides) -> dict:
    group = {"type": "symbolic", "n": 2, "x_template": "gl_natural",
             "w_template": "gl_natural", **overrides}
    return {"group": group, "covariants": []}


def _swap_problem_with_x_vars(x_vars) -> dict:
    return {"space": {"x_vars": x_vars},
            "group": {"type": "finite",
                      "generators": [{"x": [["0", "1"], ["1", "0"]],
                                      "w": [["0", "1"], ["1", "0"]]}]},
            "covariants": [[x_vars[1] if isinstance(x_vars[1], str) else "0", "0"]]}


@pytest.mark.parametrize("command,make_payload,field", [
    ("verify", lambda tmp: {
        "group": {"type": "symbolic", "n": 2, "x_template": "gl_conjugation",
                  "w_template": "gl_conjugation", "x_copies": 2, "w_copies": 1},
        "family": {"name": "matrix_words"}}, "family.n"),
    ("verify", lambda tmp: {
        "field": {"prime": 5},
        "group": {"type": "finite",
                  "generators": [{"x": [["1/5", "0"], ["0", "1"]],
                                  "w": [["1", "0"], ["0", "1"]]}]},
        "covariants": [["x1", "x2"]]}, "group.generators"),
    ("noname-verify", _certificate_without_f, "f"),
    ("verify", lambda tmp: {
        "hypotheses": [],
        "group": {"type": "finite",
                  "generators": [{"x": [["0", "1"], ["1", "0"]],
                                  "w": [["0", "1"], ["1", "0"]]}]},
        "covariants": [["x1", "x2"]]}, "hypotheses"),
    ("verify", lambda tmp: {
        "group": {"type": "symbolic", "n": 2, "x_template": "gl_conjugation",
                  "w_template": "gl_conjugation", "x_copies": 2, "w_copies": 1},
        "family": {"name": "matrix_words", "n": 2, "words": [1, 2]}}, "family.words[0]"),
    ("verify", lambda tmp: _swap_problem_over(6), "field.prime"),
    ("verify", lambda tmp: _swap_problem_over(int("7" * 400)), "field.prime"),
    ("noname-verify", lambda tmp: _certificate_with(tmp, phi=[[1, "0"], ["0", "1"]]),
     "phi[0][0]"),
    ("noname-verify", lambda tmp: _certificate_with(tmp, weight={}), "weight"),
    ("noname-verify", lambda tmp: _certificate_with(tmp, weight="1"), "weight"),
    ("noname-verify", lambda tmp: _certificate_with(tmp, out_vars=["a1"]), "out_vars"),
    ("noname-verify", lambda tmp: _certificate_with(tmp, out_vars=["x1", "x2"]),
     "out_vars"),
    ("noname-verify", lambda tmp: _certificate_with(tmp, out_vars=["a1", "a1"]),
     "out_vars"),
    ("noname-verify", lambda tmp: _certificate_with(
        tmp, covariants=[["x1^2", "x2^2"], ["x1", "x2"]]), "covariants"),
    ("generate --degree-bound -1", lambda tmp: _swap_problem_over(5), "--degree-bound"),
    ("lower", lambda tmp: _cubic_with(reflection={"element": "abc"}), "reflection.element"),
    ("lower", lambda tmp: _cubic_with(reflection="element"), "reflection"),
    ("verify", lambda tmp: _family_problem("gl_conjugation", 2, name="matrix_words",
                                           words=[[1]]), "family.words[0]"),
    ("verify", lambda tmp: _family_problem("gl_conjugation", 2, name="matrix_words",
                                           words=[[0, 1], [1, 2, 3]]), "family.words[1]"),
    ("verify", lambda tmp: _family_problem("gl_conjugation", 2, name="matrix_words",
                                           words=[[1, -1]]), "family.words[0]"),
    ("verify", lambda tmp: {"group": {"type": "finite", "generators": [
        {"x": [["0", "1"], ["1", "0"]], "w": [["0", "1"], ["1", "0"]]}]},
        "family": {"name": "power_maps", "n": 2, "powers": [1, -2]}}, "family.powers"),
    ("verify", lambda tmp: _family_problem("gl_natural", 1, name="projections", m=1),
     "family.m"),
    ("verify", lambda tmp: _symbolic_group(x_template=[]), "group.x_template"),
    ("verify", lambda tmp: _symbolic_group(x_template={}), "group.x_template"),
    ("verify", lambda tmp: _symbolic_group(w_copies=0), "group.w_copies"),
    ("verify", lambda tmp: _symbolic_group(x_copies=0), "group.x_copies"),
    ("verify", lambda tmp: _symbolic_group(x_copies=-1), "group.x_copies"),
    ("verify", lambda tmp: _symbolic_group(n=0), "group.n"),
    ("verify", lambda tmp: _swap_problem_with_x_vars(["a", "a"]), "space.x_vars"),
    ("verify", lambda tmp: _swap_problem_with_x_vars(["a", 3]), "space.x_vars"),
    ("lower", lambda tmp: _cubic_with(reflection={"x": [["0", "1"], ["1", "q"]]}),
     "reflection.x"),
    ("lower", lambda tmp: _cubic_with(reflection={"x": [["0", "1"], ["1", "1/0"]]}),
     "reflection.x"),
    ("module-verdict", lambda tmp: _cubic_with(hypotheses={"fraction_field": "false"}),
     "hypotheses.fraction_field"),
    ("module-verdict", lambda tmp: _cubic_with(hypotheses={"fraction_field": 1}),
     "hypotheses.fraction_field"),
    ("module-verdict", lambda tmp: _cubic_with(hypotheses={"note": ["a", "b"]}),
     "hypotheses.note"),
    ("module-verdict", lambda tmp: _cubic_with(hypotheses={"fraction_field": True,
                                                           "reflection": True}),
     "hypotheses.reflection"),
    ("relation", lambda tmp: _cubic_with(hypotheses={"factorial_affine": True}),
     "hypotheses.factorial_affine"),
    ("module-verdict", lambda tmp: _cubic_with(hypotheses={"fraction_feild": True}),
     "hypotheses.fraction_feild"),
    ("lower", lambda tmp: _cubic_with(relation=["x1^2*x2", "-x1^2 - x1*x2", "x1 + "]),
     "relation[2]"),
    ("lower", lambda tmp: _cubic_with(relation=["x1^2*x2", "1/0*x1", "x1"]), "relation[1]"),
    ("verify", lambda tmp: _cubic_with(covariants=[["x1", "x2"], ["x1^2", "(x2)/(0)"]]),
     "covariants[1][1]"),
    ("verify", lambda tmp: _finite_problem({"x": [["0", "1"], ["1", "0"]],
                                            "w": [["0", "-1"], ["1", "0"]]}), "group"),
    ("verify", lambda tmp: _finite_problem({"x": [["1", "1"], ["0", "1"]],
                                            "w": [["1", "0"], ["0", "1"]]}, max_order=16),
     "group"),
    ("verify", lambda tmp: _finite_problem({"x": [["1", "1"], ["1", "1"]],
                                            "w": [["0", "1"], ["1", "0"]]}), "group"),
    ("verify", lambda tmp: _symbolic_group(n=2.7), "group.n"),
    ("verify", lambda tmp: _symbolic_group(n=True), "group.n"),
    ("verify", lambda tmp: _symbolic_group(x_copies="2"), "group.x_copies"),
    ("verify", lambda tmp: _family_problem("gl_conjugation", 2, name="matrix_words",
                                           words=[[1.9, 0]]), "family.words[0]"),
    ("verify", lambda tmp: _finite_problem(SWAP_PAIR, max_order=2.5), "group.max_order"),
    ("verify", lambda tmp: dict(_finite_problem(SWAP_PAIR), covariants=[[None, "x2"]]),
     "covariants[0][0]"),
    ("lower", lambda tmp: _cubic_with(relation=["x1^2*x2", True, "x1"]), "relation[1]"),
    ("verify", lambda tmp: _finite_problem({"x": [[0, 1.0], [1, 0]], "w": SWAP_PAIR["w"]}),
     "group.generators[0].x[0][1]"),
    ("verify", lambda tmp: _finite_problem(SWAP_PAIR, {"x": [[0.5, "0"], ["0", "1"]],
                                                       "w": SWAP_PAIR["w"]}),
     "group.generators[1].x[0][0]"),
    ("verify", lambda tmp: _finite_problem({"x": SWAP_PAIR["x"], "w": [["0", True],
                                                                      ["1", "0"]]}),
     "group.generators[0].w[0][1]"),
    ("lower", lambda tmp: _cubic_with(reflection={"x": [["0", "1"], [1.0, "0"]]}),
     "reflection.x[1][0]"),
], ids=["family-without-n", "gf5-entry-with-denominator-5", "certificate-without-f",
        "hypotheses-not-an-object", "word-not-an-array", "composite-prime",
        "prime-with-400-digits", "phi-entry-not-a-string", "weight-empty-object",
        "weight-not-an-object", "out-vars-shorter-than-d", "out-vars-taken-by-x",
        "out-vars-repeated", "covariants-not-the-frame-columns", "negative-degree-bound",
        "reflection-element-not-an-integer", "reflection-not-an-object",
        "word-of-one-exponent", "word-of-three-exponents", "negative-word-exponent",
        "negative-power", "projections-m-below-n", "x-template-an-array",
        "x-template-an-object", "no-w-copies", "no-x-copies", "negative-x-copies", "n-zero",
        "x-vars-repeated", "x-var-not-a-string", "reflection-entry-not-a-number",
        "reflection-entry-over-zero", "flag-a-string", "flag-a-number",
        "note-not-a-string", "both-bridges", "factorial-affine-flag", "misspelt-flag",
        "relation-coefficient-unparsable",
        "relation-coefficient-over-zero", "covariant-over-zero",
        "w-images-not-a-homomorphism", "unipotent-past-max-order", "singular-generator",
        "n-a-float", "n-a-boolean", "x-copies-a-string", "word-exponent-a-float",
        "max-order-a-float", "coordinate-null", "relation-coefficient-a-boolean",
        "generator-entry-a-float", "generator-entry-a-fraction-float",
        "generator-entry-a-boolean", "reflection-entry-a-float"])
def test_malformed_input_exits_two_naming_the_field(tmp_path, command, make_payload,
                                                    field):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(make_payload(tmp_path)))
    code, _, err = run_cli([*command.split(), str(path)])
    assert code == 2
    assert f"error: {field}:" in err
    assert "Traceback" not in err


def test_a_coordinate_or_coefficient_of_another_type_expects_a_string(tmp_path):
    for command, payload, field in (
            ("verify", dict(_finite_problem(SWAP_PAIR), covariants=[[None, "x2"]]),
             "covariants[0][0]"),
            ("lower", _cubic_with(relation=["x1^2*x2", True, "x1"]), "relation[1]"),
            ("verify", _finite_problem({"x": [[0, 1.0], [1, 0]], "w": SWAP_PAIR["w"]}),
             "group.generators[0].x[0][1]")):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli([command, str(path)])
        assert code == 2
        assert f"error: {field}: expected a string" in err


def test_finite_commands_never_take_the_function_action(monkeypatch):
    """clear, lower and relation move polynomials forward by act_cleared."""
    calls = []
    for name in ("act_on_poly", "x_substitution"):
        real = getattr(FiniteGroupAction, name)
        monkeypatch.setattr(FiniteGroupAction, name,
                            lambda self, *args, name=name, real=real:
                            calls.append(name) or real(self, *args))
    for argv in (["clear", "rational_swap"], ["lower", "powers_s2_cubic"],
                 ["relation", "powers_s2_cubic"]):
        code, _, err = run_cli(argv)
        assert code == 0, err
    assert calls == []


def test_empty_word_or_power_list_is_an_empty_family():
    words = parse_problem(_family_problem("gl_conjugation", 2, name="matrix_words",
                                          words=[]))
    swap = [["0", "1"], ["1", "0"]]
    powers = parse_problem({"group": {"type": "finite",
                                      "generators": [{"x": swap, "w": swap}]},
                            "family": {"name": "power_maps", "n": 2, "powers": []}})
    assert words.covariants == [] and powers.covariants == []


def test_word_family_preset_n3_uses_certified_status():
    code, out, _ = run_cli(["example", "matrix_words_gl3"])
    assert code == 0
    code2, out2, _ = run_cli(["verify", "matrix_words_gl3"])
    assert code2 == 0 and "certified during family construction" in out2


def test_prime_field_problem(tmp_path):
    prob = {"field": {"prime": 5},
            "space": {"x_vars": ["x1", "x2"], "w_vars": ["w1", "w2"]},
            "group": {"type": "finite",
                      "generators": [{"x": [["0", "1"], ["1", "0"]],
                                      "w": [["0", "1"], ["1", "0"]]}]},
            "covariants": [["x1", "x2"], ["x1^2", "x2^2"]]}
    path = tmp_path / "gf5.json"
    path.write_text(json.dumps(prob))
    code, out, _ = run_cli(["noname-build", str(path), "--format", "machine"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["ok"]
    assert "positive characteristic" in payload["report"]["data"]["assumptions"][0]
    # witness points are evaluated in GF(5), powers included
    assert run_cli(["independence", str(path)])[0] == 0


def _symbolic_family_problem(n, template, x_copies, family, field=None):
    prob = {"group": {"type": "symbolic", "n": n, "x_template": template,
                      "w_template": template, "x_copies": x_copies, "w_copies": 1},
            "family": family}
    if field is not None:
        prob["field"] = {"prime": field}
    return prob


@pytest.mark.parametrize("command", ["independence", "noname-build"])
@pytest.mark.parametrize("problem", [
    _symbolic_family_problem(2, "gl_conjugation", 2,
                             {"name": "matrix_words", "n": 2}, field=5),
    _symbolic_family_problem(2, "gl_natural", 3,
                             {"name": "projections", "n": 2, "m": 3}, field=5),
], ids=["matrix-words", "projections"])
def test_symbolic_families_over_a_prime_field(tmp_path, problem, command):
    # the family is built on the problem's GF(5) group, not over Q
    path = tmp_path / "gf5_family.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli([command, str(path), "--format", "machine"])
    assert code == 0, err
    assert json.loads(out)["report"]["ok"]


_SWAP = [["0", "1"], ["1", "0"]]


@pytest.mark.parametrize("problem", [
    _symbolic_family_problem(2, "gl_natural", 2, {"name": "matrix_words", "n": 2}),
    _symbolic_family_problem(3, "gl_conjugation", 2, {"name": "matrix_words", "n": 2}),
    _symbolic_family_problem(2, "gl_natural", 4, {"name": "projections", "n": 2, "m": 3}),
    {"group": {"type": "finite", "generators": [{"x": _SWAP, "w": _SWAP}]},
     "family": {"name": "matrix_words", "n": 2}},
    # power maps are covariant for permutations, not for the scalar GL_1 action
    {"group": {"type": "symbolic", "n": 1, "x_template": "scalar",
               "w_template": "scalar", "x_copies": 2, "w_copies": 2},
     "family": {"name": "power_maps", "n": 2}},
], ids=["words-on-natural", "words-n2-on-n3", "projections-m3-on-4-copies",
        "words-on-finite", "power-maps-on-scalar"])
def test_family_that_does_not_fit_its_group_exits_two(tmp_path, problem):
    path = tmp_path / "misfit.json"
    path.write_text(json.dumps(problem))
    code, _, err = run_cli(["verify", str(path)])
    assert code == 2
    assert "error: family: generated family does not live on the declared spaces" in err


def test_word_family_is_built_on_the_problem_group(monkeypatch):
    from covar import action

    inits = []
    built = []
    init, images = action.SymbolicGroupAction.__init__, action._linear_images

    def counting_init(self, *args, **kwargs):
        inits.append(self)
        init(self, *args, **kwargs)

    def counting_images(rows, space_vars, out_vars, field):
        built.append((id(rows), space_vars, out_vars))
        return images(rows, space_vars, out_vars, field)

    monkeypatch.setattr(action.SymbolicGroupAction, "__init__", counting_init)
    monkeypatch.setattr(action, "_linear_images", counting_images)
    problem = parse_problem("matrix_words_gl3")
    assert inits == [problem.group]
    assert all(F.action is problem.group for F in problem.covariants)
    # the family is certified by construction; fresh copies of the words of
    # degree at most one, verified directly, share each table
    words = [F for F in problem.covariants
             if max(c.total_degree() for c in F.coords) <= 1]
    for F in words:
        assert verify_equivariance(Covariant(problem.group, F.coords)).ok
    assert len(words) == 3 and built and len(built) == len(set(built))


def test_machine_format_is_json():
    code, out, _ = run_cli(["independence", "vandermonde_s2",
                            "--format", "machine"])
    payload = json.loads(out)
    assert payload["report"]["ok"] is True


def test_reports_deterministic_for_fixed_seed():
    runs = [run_cli(["independence", "vandermonde_s2", "--seed", "5",
                     "--format", "machine"])[1] for _ in range(2)]
    a, b = (strip_volatile(json.loads(r)) for r in runs)
    assert a == b


@pytest.mark.parametrize("golden_name,argv", [
    ("vandermonde_noname.json",
     ["noname-build", "vandermonde_s2", "--format", "machine"]),
    ("scalar_independence.json",
     ["independence", "scalar_counterexample", "--format", "machine"]),
    ("powers_relation.json",
     ["relation", "powers_s2_cubic", "--format", "machine"]),
    ("s3_generate.json",
     ["generate", "s3_permutation", "--degree-bound", "3", "--format", "machine"]),
])
def test_golden_outputs(golden_name, argv):
    with open(os.path.join(GOLDEN, golden_name)) as fh:
        golden = json.load(fh)
    expected_code = golden.pop("_exit_code")
    code, out, _ = run_cli(argv)
    assert code == expected_code
    assert strip_volatile(json.loads(out)) == golden


# -- rational frames and padded symbolic checks ------------------------------------

_SWAP_GROUP = {"type": "finite", "generators": [{"x": _SWAP, "w": _SWAP}]}
_SWAP_RATIONAL = ["(x1)/(x1 + x2)", "(x2)/(x1 + x2)"]
_RATIONAL_FAMILIES = {
    # det F = x1*x2^2 - x1^2*x2, a polynomial, from a rational column
    "polynomial-determinant": [_SWAP_RATIONAL, ["x1^3 + x1^2*x2", "x1*x2^2 + x2^3"]],
    # det F = (x1*x2^2 - x1^2*x2)/(x1 + x2)
    "rational-determinant": [_SWAP_RATIONAL, ["x1^2", "x2^2"]],
}


def _write_problem(tmp_path, payload, name="problem.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _machine(argv):
    code, out, err = run_cli([*argv, "--format", "machine"])
    return code, (json.loads(out)["report"] if out else None), err


def test_relation_certificate_on_a_rational_family():
    code, report, _ = _machine(["relation", "rational_swap"])
    assert code == 0
    assert report["data"] == {"outcome": "independent", "certificate_minor": "x1"}
    assert "rows [0], columns [0]: x1" in report["checks"][0]["detail"]


def test_relation_coefficients_on_a_rational_family(tmp_path):
    path = _write_problem(tmp_path, {"group": _SWAP_GROUP,
                                     "covariants": [_SWAP_RATIONAL, ["x1", "x2"]]})
    code, report, _ = _machine(["relation", path])
    assert code == 0
    assert report["data"]["coefficients"] == ["-x2 - x1", "1"]


@pytest.mark.parametrize("last,code", [("a22 + a12*a21 + a22^2", 0),
                                       ("a22 + a12*a21 + 2*a22^2", 1)],
                         ids=["a-plus-a-squared", "perturbed"])
def test_verify_pads_det_powers_of_a_non_homogeneous_covariant(tmp_path, last, code):
    # A + A^2 mixes degrees 1 and 2, so its cleared images carry different
    # det powers and the check has to pad them to one
    group = {"type": "symbolic", "n": 2, "x_template": "gl_conjugation",
             "w_template": "gl_conjugation", "x_copies": 1, "w_copies": 1}
    coords = ["a11 + a11^2 + a12*a21", "a12 + a11*a12 + a12*a22",
              "a21 + a11*a21 + a21*a22", last]
    path = _write_problem(tmp_path, {"group": group, "covariants": [coords]})
    assert run_cli(["verify", path])[0] == code


def test_independence_without_a_rational_witness(tmp_path):
    # x1^2 + x1 vanishes at every point of GF(2) but not as a polynomial
    path = _write_problem(tmp_path, {
        "field": {"prime": 2},
        "group": {"type": "finite", "generators": [{"x": [["1"]], "w": [["1"]]}]},
        "covariants": [["x1^2 + x1"]]})
    code, report, _ = _machine(["independence", path])
    assert code == 0
    assert report["data"]["rank"] == 1
    assert report["checks"][0]["detail"] == (
        "rank 1 = family size; no rational witness found in the search budget")


@pytest.mark.parametrize("family", list(_RATIONAL_FAMILIES), ids=list(_RATIONAL_FAMILIES))
def test_noname_on_a_rational_frame(tmp_path, family):
    path = _write_problem(tmp_path, {"group": _SWAP_GROUP,
                                     "covariants": _RATIONAL_FAMILIES[family]})
    cert = tmp_path / "cert.json"
    code, _, err = run_cli(["noname-build", path, "--out", str(cert)])
    assert code == 0, err
    assert run_cli(["noname-verify", str(cert)])[0] == 0
    payload = json.loads(cert.read_text())
    dens = {e.rpartition("/")[2] for row in payload["phi"] for e in row}
    assert len(dens) == 1 and "(" in dens.pop()
    payload["phi"].reverse()
    swapped = _write_problem(tmp_path, payload, "swapped.json")
    assert run_cli(["noname-verify", swapped])[0] == 1


@pytest.mark.parametrize("family", list(_RATIONAL_FAMILIES), ids=list(_RATIONAL_FAMILIES))
def test_no_elimination_sees_rational_entries(tmp_path, monkeypatch, family):
    def refuse(self, other):
        raise AssertionError("elimination over rational-function entries")

    monkeypatch.setattr(RatFn, "exact_div", refuse)
    path = _write_problem(tmp_path, {"group": _SWAP_GROUP,
                                     "covariants": _RATIONAL_FAMILIES[family]})
    cert = str(tmp_path / "cert.json")
    for argv in (["independence", path], ["relation", path],
                 ["noname-build", path, "--out", cert], ["noname-verify", cert]):
        code, _, err = run_cli(argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("problem,outcome,eliminations", [
    # the frame N once, then the certificate's transposed pivot columns,
    # whose last pivot is the minor
    ("s4_power_maps", "independent", 2),
    ("vandermonde_s2", "independent", 2),
    # the kernel comes from the one echelon of N, also for the
    # relative-invariant coefficients
    ("powers_s2_cubic", "relation", 1),
])
def test_relation_eliminates_the_frame_once(tmp_path, monkeypatch, problem, outcome,
                                            eliminations):
    from covar.exactalg import Matrix

    calls = []
    echelon_ff = Matrix._echelon_ff

    def counting(self):
        calls.append(self.rows)
        return echelon_ff(self)

    monkeypatch.setattr(Matrix, "_echelon_ff", counting)
    if problem == "s4_power_maps":
        problem = _write_problem(tmp_path, _power_map_problem(4))
    code, report, _ = _machine(["relation", problem])
    assert code == 0 and report["data"]["outcome"] == outcome
    assert len(calls) == eliminations
    if outcome == "relation":
        assert "invariant_coefficients" in report["data"]


# S2 on the sign character, and the S3 power maps 1..5, a kernel of dimension 2
_SIGN_S2 = {"group": {"type": "finite", "generators": [{"x": _SWAP, "w": [["-1"]]}]},
            "covariants": [["x1 - x2"], ["x1^3 - x2^3"], ["x1^2*x2 - x1*x2^2"]]}
_S3_POWERS = dict(_power_map_problem(3), covariants=[
    [x if k == 1 else f"{x}^{k}" for x in ("x1", "x2", "x3")] for k in range(1, 6)])


@pytest.mark.parametrize("problem,coefficients", [
    (_SIGN_S2, ["-x1*x2", "0", "1"]),
    (_S3_POWERS, ["-x1*x2*x3^2 - x1*x2^2*x3 - x1^2*x2*x3",
                  "x2*x3^2 + x2^2*x3 + x1*x3^2 + 2*x1*x2*x3 + x1*x2^2 + x1^2*x3 + x1^2*x2",
                  "-x3^2 - x2*x3 - x2^2 - x1*x3 - x1*x2 - x1^2", "0", "1"]),
], ids=["s2-sign", "s3-powers-1-to-5"])
def test_finite_dependent_family_needs_no_hypothesis(tmp_path, problem, coefficients):
    """A finite group decides both the relative-invariant coefficients of a
    relation and the fraction-field bridge: no hypotheses key is read."""
    path = _write_problem(tmp_path, problem)
    code, report, _ = _machine(["relation", path])
    assert code == 0 and report["data"]["invariant_coefficients"] == coefficients
    code, report, _ = _machine(["module-verdict", path])
    assert code == 1 and report["data"]["verdict"] == "dependent"


@pytest.mark.parametrize("command,option", [
    ("verify", ["--out", "X"]),
    ("relation", ["--out", "X"]),
    ("independence", ["--degree-bound", "2"]),
    ("noname-build", ["--degree-bound", "2"]),
])
def test_options_only_where_they_act(tmp_path, monkeypatch, command, option):
    """--out belongs to noname-build and generate, --degree-bound to
    generate; elsewhere they are usage errors, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "vandermonde_s2", *option])
    assert exc.value.code == 2
    assert os.listdir(tmp_path) == []


def _run_cli_exit(argv):
    """run_cli, with an argparse exit read as its exit code."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, re.sub(r'"seconds": [0-9.e-]+|\(\d+\.\d+s\)', "", buf.getvalue()), err.getvalue()


PARSER_CASES = [
    ["verify", "vandermonde_s2"],
    ["independence", "vandermonde_s2", "--seed", "3", "--format", "machine"],
    ["noname-build", "vandermonde_s2", "--out", "cert.json"],
    ["noname-verify", "cert.json", "--format", "machine"],
    ["generate", "s3_permutation", "--degree-bound", "2", "--out", "gen.json"],
    ["clear", "rational_swap"],
    ["relation", "powers_s2_cubic", "--format", "machine"],
    ["lower", "powers_s2_cubic"],
    ["module-verdict", "scalar_counterexample"],
    ["example"],
    ["example", "vandermonde_s2", "--format", "machine"],
    [], ["--help"], ["-h"], ["verify", "--help"], ["generate", "-h"],
    ["bogus"], ["bogus", "vandermonde_s2"], ["--format", "machine", "verify", "vandermonde_s2"],
    ["verify", "vandermonde_s2", "--degree-bound", "3"],
    ["relation", "vandermonde_s2", "--out", "x.json"],
    ["verify", "vandermonde_s2", "extra"],
    ["verify", "vandermonde_s2", "--bogus", "--seed", "x"],
    ["independence", "vandermonde_s2", "--format", "xml"],
    ["generate", "s3_permutation", "--degree-bound", "two"],
    ["verify"], ["noname-verify"],
    ["verify", "no_such_problem"],
]


def test_command_parser_matches_the_full_parser(tmp_path, monkeypatch):
    """A command line that names its command first is parsed by that
    command's subparser alone; the full parser gives the same stdout,
    stderr and exit code on every line."""
    from covar import cli

    monkeypatch.chdir(tmp_path)
    lazy = [_run_cli_exit(argv) for argv in PARSER_CASES]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    full = [_run_cli_exit(argv) for argv in PARSER_CASES]
    for argv, a, b in zip(PARSER_CASES, lazy, full):
        assert a == b, argv
    codes = [code for code, _, _ in lazy]
    # module-verdict finds the scalar counterexample dependent
    assert codes[:11] == [0] * 8 + [1, 0, 0] and set(codes[11:16]) == {0, 2}
    # the usage of a misplaced option lists every command
    assert "{verify,independence,noname-build," in lazy[PARSER_CASES.index(
        ["verify", "vandermonde_s2", "--degree-bound", "3"])][2]


# -- refuted covariants and recorded assumptions -----------------------------------


def _preset_with(name, **fields) -> dict:
    """A copy of a preset's problem with some top-level fields replaced."""
    return {**json.loads(parse_problem(name).canonical_text()), **fields}


# vandermonde_s2 with covariant 2 replaced by (x1^2, x1^2): the swap sends it
# to (x2^2, x2^2), not to itself
_REFUTED = _preset_with("vandermonde_s2", covariants=[["x1", "x2"], ["x1^2", "x1^2"]])


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("command,title", [
    ("noname-build", "no-name construction"),
    ("clear", "denominator clearing"),
    ("module-verdict", "module independence"),
])
def test_commands_claiming_equivariance_refuse_a_refuted_covariant(tmp_path, command,
                                                                   title, fmt):
    code, out, err = run_cli([command, _write_problem(tmp_path, _REFUTED), "--format", fmt])
    assert (code, err) == (1, "")
    if fmt == "text":
        assert out.splitlines()[:2] == [
            f"== {title} ==", "[FAIL] covariants_equivariant: covariant 2 is not equivariant"]
    else:
        assert strip_volatile(json.loads(out)) == {"report": {
            "title": title, "ok": False, "data": {},
            "checks": [{"name": "covariants_equivariant", "passed": False,
                        "detail": "covariant 2 is not equivariant"}]}}


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_verify_names_the_refuted_covariant(tmp_path, fmt):
    code, out, _ = run_cli(["verify", _write_problem(tmp_path, _REFUTED), "--format", fmt])
    assert code == 1
    if fmt == "text":
        assert "[PASS] covariant_1_equivariant" in out
        assert "[FAIL] covariant_2_equivariant: equivariance refuted" in out
    else:
        checks = json.loads(out)["report"]["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [
            ("covariant_1_equivariant", True), ("covariant_2_equivariant", False)]


@pytest.mark.parametrize("command,report", [
    ("independence", {
        "title": "generic independence", "ok": True,
        "checks": [{"name": "independent", "passed": True,
                    "detail": "rank 2 = family size; witness point confirmed exactly"}],
        "data": {"family_size": 2, "rank": 2, "verdict": "independent", "w_dim": 2,
                 "witness_minor": "-1", "witness_point": {"x1": "-1", "x2": "0"}}}),
    ("relation", {
        "title": "relation over the function field", "ok": True,
        "checks": [{"name": "relation_or_certificate", "passed": True,
                    "detail": "independent; certificate minor on rows [0, 1], "
                              "columns [0, 1]: -x1^2*x2 + x1^3"}],
        "data": {"certificate_minor": "-x1^2*x2 + x1^3", "outcome": "independent"}}),
])
def test_rank_commands_do_not_decide_equivariance(tmp_path, monkeypatch, command, report):
    """Ranks and kernels are checked directly; no output of these commands
    reads the equivariance ledger, so they run no equivariance check."""
    from covar import covariant

    calls = []
    witness = covariant._equivariance_witness
    monkeypatch.setattr(covariant, "_equivariance_witness",
                        lambda F: calls.append(F) or witness(F))
    code, got, _ = _machine([command, _write_problem(tmp_path, _REFUTED)])
    assert code == 0 and strip_volatile(got) == report
    assert calls == []


def test_module_verdict_does_not_bridge_refuted_covariants(tmp_path):
    """The fraction-field bridge transfers a generic verdict for covariants
    only.  (x1, x1) and (x2, x2) are not covariants of the swap, and no
    invariant relation between them exists, so "dependent" would be wrong."""
    problem = _preset_with("vandermonde_s2", covariants=[["x1", "x1"], ["x2", "x2"]],
                           hypotheses={"fraction_field": True})
    code, report, _ = _machine(["module-verdict", _write_problem(tmp_path, problem)])
    assert code == 1
    assert report["checks"] == [{"name": "covariants_equivariant", "passed": False,
                                 "detail": "covariant 1 is not equivariant"}]
    assert "verdict" not in report["data"]


def test_hypothesis_note_recorded_under_assumptions(tmp_path):
    note = "commutator-group hypothesis"
    problem = _preset_with("scalar_counterexample",
                           hypotheses={"fraction_field": True, "note": note})
    code, report, _ = _machine(["module-verdict", _write_problem(tmp_path, problem)])
    assert code == 1 and report["data"]["verdict"] == "dependent"
    assert report["data"]["assumptions"] == [note]
    assert "hypothesis_note" not in report["data"]
    assert "(asserted)" in report["checks"][0]["detail"]


_GF5 = {"prime": 5}
_POSITIVE_CHARACTERISTIC = ("positive characteristic: generic separability of the "
                            "action is assumed, not verified")


@pytest.mark.parametrize("problem,argv,code", [
    (_preset_with("vandermonde_s2", field=_GF5), ["verify"], 0),
    (_preset_with("vandermonde_s2", field=_GF5), ["independence"], 0),
    (_preset_with("vandermonde_s2", field=_GF5), ["noname-build"], 0),
    (_preset_with("vandermonde_s2", field=_GF5), ["noname-verify"], 0),
    (_preset_with("vandermonde_s2", field=_GF5), ["generate"], 0),
    (_preset_with("vandermonde_s2", field=_GF5), ["clear"], 0),
    (_preset_with("vandermonde_s2", field=_GF5), ["relation"], 0),
    (_preset_with("vandermonde_s2", field=_GF5), ["module-verdict"], 0),
    (_preset_with("powers_s2_cubic", field=_GF5), ["relation"], 0),
    (_preset_with("powers_s2_cubic", field=_GF5), ["lower"], 0),
    (_preset_with("vandermonde_s2", field=_GF5, covariants=[["x1", "x2"]] * 2),
     ["noname-build"], 1),
    (_preset_with("vandermonde_s2", field=_GF5), ["generate", "--degree-bound", "0"], 1),
    ({**_REFUTED, "field": _GF5}, ["noname-build"], 1),
], ids=["verify", "independence", "noname-build", "noname-verify", "generate", "clear",
        "relation-independent", "module-verdict", "relation-dependent", "lower",
        "noname-build-dependent", "generate-exhausted", "noname-build-refuted"])
def test_every_report_on_a_prime_field_problem_records_the_assumption(tmp_path, problem,
                                                                      argv, code):
    path = _write_problem(tmp_path, problem)
    cert = str(tmp_path / "cert.json")
    if argv == ["noname-verify"]:
        assert run_cli(["noname-build", path, "--out", cert])[0] == 0
        path = cert
    got, report, _ = _machine([argv[0], path, *argv[1:]])
    assert got == code
    assert report["data"]["assumptions"] == [_POSITIVE_CHARACTERISTIC]
