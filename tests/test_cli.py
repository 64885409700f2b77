"""Command-line front end: problem parsing, commands, exit codes,
certificates, golden outputs."""

import contextlib
import io
import json
import os
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from covar import cli as cli_module
from covar.cli import (
    COMMANDS,
    MAX_ORDER_CEILING,
    ProblemError,
    ProblemFile,
    _read_args,
    build_parser,
    list_presets,
    load_certificate,
    main,
    parse_problem,
)
from covar.action import FiniteGroupAction, SymbolicGroupAction, TemplateSpec
from covar.covariant import Covariant, verify_equivariance
from covar.exactalg import Matrix, Poly, RatFn
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


def test_a_words_certificate_with_the_natural_weight_fails(tmp_path):
    """det(g_W) of the conjugation block is 1: the weight of the natural
    template, det(g)^-1, is refused."""
    cert_path = tmp_path / "words.json"
    assert run_cli(["noname-build", "matrix_words_gl2", "--out", str(cert_path)])[0] == 0
    cert = json.loads(cert_path.read_text())
    assert cert["weight"] == {"type": "symbolic", "value": "1"}
    cert["weight"]["value"] = "(1)/(-g12*g21 + g11*g22)"
    code, report, _ = _machine(["noname-verify", _write_problem(tmp_path, cert)])
    assert code == 1
    assert "weight_is_det_w_inverse" in [c["name"] for c in report["checks"]
                                         if not c["passed"]]


@pytest.mark.parametrize("copies", ["x_copies", "w_copies"])
def test_a_symbolic_space_past_the_bound_exits_two(tmp_path, copies):
    """40000 copies of the trivial template are refused before any action
    matrix is allocated, in one line naming the copy count."""
    problem = _symbolic_group(n=1, x_template="trivial", w_template="trivial",
                              **{copies: 40000})
    code, out, err = run_cli(["verify", _write_problem(tmp_path, problem)])
    assert (code, out) == (2, "")
    role = copies[0].upper()
    assert err == (f"error: group.{copies}: 40000 copies give 40000 {role}-variables, "
                   "more than the 1000 a symbolic action takes\n")


@pytest.mark.parametrize("copies,code", [(7, 0), (22, 0), (23, 2)])
def test_conjugation_copies_run_out_of_letters_only_past_22(tmp_path, copies, code):
    """A seventh copy of X is lettered i, not g; past the 22 free letters
    the run exits 2 in one line naming group.x_copies and the limit."""
    problem = _symbolic_group(n=1, x_template="gl_conjugation",
                              w_template="gl_conjugation", x_copies=copies)
    problem["covariants"] = [["a11"]]
    got, out, err = run_cli(["verify", _write_problem(tmp_path, problem)])
    assert got == code
    if code:
        assert (out, err) == ("", "error: group.x_copies: 23 matrix copies, more than "
                                  "the 22 letters that name them\n")


def test_a_generic_element_past_the_bound_exits_two(tmp_path):
    """Explicit covariants on GL_8 conjugation need det(g), which has 8!
    terms: the first read refuses it at once, naming n."""
    problem = _symbolic_group(n=8, x_template="gl_conjugation",
                              w_template="gl_conjugation")
    problem["covariants"] = [[f"a{i}{j}" for i in range(1, 9) for j in range(1, 9)]]
    path = _write_problem(tmp_path, problem)
    start = time.perf_counter()
    code, out, err = run_cli(["verify", path])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: group.n: the generic element of GL_8 is not built: its det(g) "
                   "has 8! = 40320 terms, more than the 5040 of n = 7\n")


@pytest.mark.parametrize("n,templates,message", [
    (3000, "gl_conjugation", "x_copies: 1 copies give 9000000 X-variables, more than "
                             "the 1000 a symbolic action takes"),
    (300, "trivial", "n: the generic element of GL_300 has 90000 g-variables, more "
                     "than the 1000 a symbolic action takes"),
], ids=["conjugation-3000", "trivial-300"])
def test_a_symbolic_group_is_counted_before_it_is_named(tmp_path, n, templates, message):
    """The sizes of X, W and g come from n and the templates, so an action
    too large to name is refused at once; n = 31 (961 g-variables) builds."""
    problem = _symbolic_group(n=n, x_template=templates, w_template=templates)
    start = time.perf_counter()
    code, out, err = run_cli(["verify", _write_problem(tmp_path, problem)])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: group.{message}\n")
    problem = _symbolic_group(n=31, x_template="trivial", w_template="trivial")
    problem["covariants"] = [["x1"]]
    assert run_cli(["verify", _write_problem(tmp_path, problem)])[0] == 0


@pytest.fixture
def generic_calls(monkeypatch):
    """By name, every call of det, adjugate, a template block or the build
    of an action's generic g (not the g and h that
    ``Character.check_multiplicative`` makes)."""
    calls = []
    for owner, name, label in ((Matrix, "det", "det"), (Matrix, "adjugate", "adjugate"),
                               (TemplateSpec, "block", "block"),
                               (SymbolicGroupAction.__dict__["g_mat"], "func", "g_mat")):
        def spy(*args, _fn=getattr(owner, name), _label=label):
            calls.append(_label)
            return _fn(*args)
        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("command", ["verify", "independence", "module-verdict"])
def test_natural_coordinates_at_n_8_form_no_determinant(tmp_path, command, generic_calls):
    """x -> g x has no denominator, so the coordinate covariants of eight
    copies of k^8 are certified on GL_8 with no det(g), whose 8! terms
    are refused, and no adj(g)."""
    problem = _symbolic_group(n=8, x_copies=8)
    problem["covariants"] = [[f"x{i}{j}" for i in range(1, 9)] for j in range(1, 9)]
    path = _write_problem(tmp_path, problem)
    start = time.perf_counter()
    assert run_cli([command, path])[0] == 0
    assert time.perf_counter() - start < 1.0
    assert "det" not in generic_calls and "adjugate" not in generic_calls


@pytest.mark.parametrize("preset", ["matrix_words_gl2", "matrix_words_gl3"])
def test_parsing_a_symbolic_problem_builds_no_generic_element(preset, generic_calls):
    parse_problem(preset)
    assert generic_calls == []


@pytest.mark.parametrize("command", ["verify", "independence", "module-verdict"])
def test_the_words_at_n_8_read_no_generic_element(tmp_path, command, generic_calls):
    """The words are covariants by construction and ranked at a point, so
    each command exits 0 in under a second on GL_8, whose det(g) would
    have 8! terms."""
    group = {"type": "symbolic", "n": 8, "x_template": "gl_conjugation",
             "w_template": "gl_conjugation", "x_copies": 2}
    path = _write_problem(tmp_path, {"group": group,
                                     "family": {"name": "matrix_words", "n": 8}})
    start = time.perf_counter()
    assert run_cli([command, path])[0] == 0
    assert time.perf_counter() - start < 1.0
    assert generic_calls == []


def test_noname_build_builds_no_generic_element_and_verify_builds_one(tmp_path,
                                                                      generic_calls):
    cert = str(tmp_path / "cert.json")
    assert run_cli(["noname-build", "matrix_words_gl2", "--out", cert])[0] == 0
    assert "g_mat" not in generic_calls
    assert run_cli(["noname-verify", cert])[0] == 0
    assert generic_calls.count("g_mat") == 1


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
IDENTITY3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


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


UNIPOTENT_PAIR = {"x": [["1", "1"], ["0", "1"]], "w": [["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize("max_order,message", [
    (0, "expected a positive integer, got 0"),
    (-5, "expected a positive integer, got -5"),
    (MAX_ORDER_CEILING + 1,
     f"expected an integer from 1 to {MAX_ORDER_CEILING}, got {MAX_ORDER_CEILING + 1}"),
], ids=["zero", "negative", "ceiling-plus-one"])
def test_max_order_out_of_range_exits_two_before_the_closure(tmp_path, monkeypatch,
                                                             max_order, message):
    closures = []
    monkeypatch.setattr(cli_module, "make_finite_group",
                        lambda *args, **kwargs: closures.append(kwargs))
    path = tmp_path / "max_order.json"
    path.write_text(json.dumps(_finite_problem(UNIPOTENT_PAIR, max_order=max_order)))
    code, _, err = run_cli(["verify", str(path)])
    assert code == 2
    assert f"error: group.max_order: {message}" in err
    assert closures == []


def test_max_order_at_the_ceiling_runs_the_closure_to_its_cap(tmp_path):
    assert MAX_ORDER_CEILING >= 40320  # S8 closes under the ceiling
    path = tmp_path / "max_order.json"
    path.write_text(json.dumps(_finite_problem(UNIPOTENT_PAIR, max_order=MAX_ORDER_CEILING)))
    code, _, err = run_cli(["verify", str(path)])
    assert code == 2
    assert f"error: group: closure exceeded the cap of {MAX_ORDER_CEILING} elements" in err
    assert parse_problem(_finite_problem(SWAP_PAIR, max_order=MAX_ORDER_CEILING)).group.order == 2


@pytest.mark.parametrize("entry", ["abc", "0x10"])
def test_a_generator_entry_that_is_no_rational_names_the_generators(tmp_path, entry):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(_finite_problem({"x": [[entry, "1"], ["1", "0"]],
                                                "w": SWAP_PAIR["w"]})))
    code, _, err = run_cli(["verify", str(path)])
    assert code == 2
    assert "error: group.generators: " in err and "Traceback" not in err


@pytest.mark.parametrize("reflection,message", [
    (None, "lower needs a 'reflection' object in the problem file"),
    ({"element": 0}, "reflection.element: element 0 does not fix a hyperplane pointwise"),
    ({"x": [["1", "0"], ["0", "1"]]}, "reflection.x: matrix is not a reflection of the group"),
    ({}, "reflection: expected 'element' or 'x'"),
], ids=["no-reflection", "element-not-a-reflection", "x-not-a-reflection", "neither-key"])
def test_lower_refuses_a_reflection_block_it_cannot_read(tmp_path, reflection, message):
    code, out, err = run_cli(["lower", _write_problem(tmp_path,
                                                      _cubic_with(reflection=reflection))])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_lower_takes_the_reflection_by_its_element(tmp_path):
    """The swap is element 1 of S2: naming it gives the step of the preset,
    which names it by its matrix."""
    code, out, _ = run_cli(["lower", _write_problem(tmp_path,
                                                    _cubic_with(reflection={"element": 1}))])
    assert code == 0
    assert out == run_cli(["lower", "powers_s2_cubic"])[1]


@pytest.mark.parametrize("problem,message", [
    (_finite_problem(SWAP_PAIR, {"x": IDENTITY3, "w": SWAP_PAIR["w"]}),
     "x-generators must be square and of equal size"),
    (dict(_finite_problem(SWAP_PAIR), space={"x_vars": ["a"]}),
     "variable names do not match matrix sizes"),
], ids=["generators-of-unequal-sizes", "x-vars-of-the-wrong-length"])
def test_finite_group_of_mismatched_sizes_exits_two_naming_group(tmp_path, problem, message):
    code, out, err = run_cli(["verify", _write_problem(tmp_path, problem)])
    assert (code, out, err) == (2, "", f"error: group: {message}\n")


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


def _spy_word_expansion(monkeypatch) -> list:
    from covar import forge

    expanded = []
    expand = forge.MatrixWords.expand
    monkeypatch.setattr(forge.MatrixWords, "expand",
                        lambda self, word: expanded.append(word) or expand(self, word))
    return expanded


_WORDS_N5 = _symbolic_family_problem(5, "gl_conjugation", 2,
                                     {"name": "matrix_words", "n": 5})


@pytest.mark.parametrize("command", ["verify", "independence", "module-verdict"])
@pytest.mark.parametrize("problem", ["matrix_words_gl2", "matrix_words_gl3", _WORDS_N5],
                         ids=["gl2", "gl3", "n5"])
def test_word_commands_that_read_no_coordinate_expand_no_word(tmp_path, monkeypatch,
                                                              command, problem):
    """The ledger holds the certificate of every word, and the witness scan
    multiplies scalar point matrices, so these commands expand nothing."""
    if isinstance(problem, dict):
        problem = _write_problem(tmp_path, problem)
    expanded = _spy_word_expansion(monkeypatch)
    code, report, _ = _machine([command, problem])
    assert code == 0 and report["ok"]
    assert expanded == []


def test_a_far_word_verifies_without_expansion(tmp_path, monkeypatch):
    """A^1000000 would have to be expanded in 8 variables; it is certified
    by construction, so verify never forms it."""
    problem = _symbolic_family_problem(2, "gl_conjugation", 2, {
        "name": "matrix_words", "n": 2, "words": [[1000000, 0]]})
    expanded = _spy_word_expansion(monkeypatch)
    code, report, _ = _machine(["verify", _write_problem(tmp_path, problem)])
    assert code == 0 and report["data"]["count"] == 1
    assert expanded == []


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
    ("words_gl3_independence.json",
     ["independence", "matrix_words_gl3", "--format", "machine"]),
    ("words_gl2_noname.json",
     ["noname-build", "matrix_words_gl2", "--format", "machine"]),
])
def test_golden_outputs(golden_name, argv):
    with open(os.path.join(GOLDEN, golden_name)) as fh:
        golden = json.load(fh)
    expected_code = golden.pop("_exit_code")
    code, out, _ = run_cli(argv)
    assert code == expected_code
    assert strip_volatile(json.loads(out)) == golden


def _s4_power_maps(tmp_path, field: dict | None = None) -> str:
    """The benchmark's S4 power-map problem at seed 0, over ``field`` when
    one is given, written to a file."""
    import random

    from test_bench_oracle_agreement import workloads

    raw = workloads.symmetric_group_problem(4, random.Random(0))
    if field is not None:
        raw["field"] = field
    path = tmp_path / "s4_power_maps.json"
    path.write_text(json.dumps(raw, indent=2))
    return str(path)


@pytest.mark.parametrize("golden_name,argv,field", [
    pytest.param("s4_power_maps_noname.json", ["noname-build"], None,
                 id="s4_power_maps_noname.json-argv0"),
    pytest.param("s4_power_maps_generate.json", ["generate", "--degree-bound", "4"], None,
                 id="s4_power_maps_generate.json-argv1"),
    pytest.param("s4_power_maps_mod32003_noname.json", ["noname-build"], {"prime": 32003},
                 id="s4_power_maps_mod32003_noname.json"),
    pytest.param("s4_power_maps_mod32003_generate.json",
                 ["generate", "--degree-bound", "4"], {"prime": 32003},
                 id="s4_power_maps_mod32003_generate.json"),
])
def test_s4_power_map_payloads_are_pinned_byte_for_byte(tmp_path, golden_name, argv, field):
    """The certificate and the generate payload as written: any change in
    the order or spelling of the printed terms fails here."""
    out = tmp_path / golden_name
    code, _, _ = run_cli([argv[0], _s4_power_maps(tmp_path, field), *argv[1:],
                          "--out", str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN, golden_name), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_s5_power_map_certificate_is_pinned_byte_for_byte(tmp_path):
    """The S5 power maps build their phi by equivariance, one cofactor
    column moved by the generators, and write f once: the certificate is
    the one the cofactor adjugate wrote."""
    out = tmp_path / "s5.json"
    code, _, _ = run_cli(["noname-build", _write_problem(tmp_path, _power_map_problem(5)),
                          "--out", str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN, "s5_power_maps_noname.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def _reordered(text: str) -> str:
    """A polynomial text with its terms in reverse order."""
    terms = text.replace(" - ", " + -").split(" + ")
    return " + ".join(reversed(terms)).replace("+ -", "- ")


def test_a_certificate_reads_f_once_and_any_spelling_of_it(tmp_path, monkeypatch):
    """load_certificate parses f's text once, for f and every phi
    denominator written as f; a denominator spelled with f's terms
    reordered is parsed on its own and still verifies, and phi with two
    rows swapped still fails."""
    cert = tmp_path / "s4.json"
    assert run_cli(["noname-build", _s4_power_maps(tmp_path), "--out", str(cert)])[0] == 0
    payload = json.loads(cert.read_text())
    f = payload["f"]
    parsed = []
    parse = Poly.parse
    monkeypatch.setattr(Poly, "parse", lambda text, *a, **k: parsed.append(text)
                        or parse(text, *a, **k))
    assert run_cli(["noname-verify", str(cert)])[0] == 0
    assert parsed.count(f) == 1

    respelled = _reordered(f)
    assert respelled != f and Poly.parse(respelled, ("x1", "x2", "x3", "x4")) == Poly.parse(
        f, ("x1", "x2", "x3", "x4"))
    phi = [[e.replace(f"/({f})", f"/({respelled})") for e in row] for row in payload["phi"]]
    assert phi != payload["phi"]
    for variant, code in ((dict(payload, phi=phi), 0),
                          (dict(payload, phi=phi[::-1]), 1),
                          (dict(payload, phi=payload["phi"][::-1]), 1)):
        parsed.clear()
        path = _write_problem(tmp_path, variant, "variant.json")
        assert run_cli(["noname-verify", path])[0] == code
        assert parsed.count(f) == 1


@pytest.mark.parametrize("phi,field,message", [
    ([["(x1)/(0)", "0"], ["0", "1"]], "phi[0][0]", "zero denominator"),
    # a denominator text met twice is parsed once, so its first entry is named
    ([["1", "(x1)/(x1 +)"], ["(x2)/(x1 +)", "1"]], "phi[0][1]", "expected"),
    ([["1", "(x1)/(x1 + x2)"], ["(x2)/(x1 + x2)", "(1)/(x9)"]], "phi[1][1]",
     "undeclared variable 'x9'"),
], ids=["zero", "shared-and-malformed", "undeclared"])
def test_a_malformed_phi_denominator_names_its_entry(tmp_path, phi, field, message):
    path = _write_problem(tmp_path, _certificate_with(tmp_path, phi=phi), "malformed.json")
    code, _, err = run_cli(["noname-verify", path])
    assert code == 2
    assert err.startswith(f"error: {field}: ") and message in err


def test_a_degree_past_the_packed_width_exits_2_naming_the_field(tmp_path):
    from covar.exactalg import MAX_DEGREE

    raw = json.loads(json.dumps(_power_map_problem(2)))
    raw["covariants"][1] = ["x1^2", f"3*x2^{MAX_DEGREE + 1}"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(raw))
    for command in ("verify", "noname-build"):
        code, out, err = run_cli([command, str(path)])
        assert code == 2 and not out
        assert err == (f"error: covariants[1][1]: a term is past total degree {MAX_DEGREE}, "
                       "the most a packed exponent holds\n")
    # at the bound the problem is read, and a product past it exits 2
    raw["covariants"][1] = [f"x1^{MAX_DEGREE}", f"x2^{MAX_DEGREE}"]
    path.write_text(json.dumps(raw))
    code, _, err = run_cli(["noname-build", str(path)])
    assert code == 2
    assert err.startswith(f"error: a product of total degree {MAX_DEGREE + 1} is past")


def test_generator_commands_lift_only_the_generators(tmp_path, monkeypatch):
    """A closure keeps its element matrices as integer forms; the commands
    that check on generators lift only those, and reading the order lifts
    none."""
    import random

    from covar import action as action_module
    from test_bench_oracle_agreement import workloads

    path = tmp_path / "s5.json"
    path.write_text(json.dumps(workloads.symmetric_group_problem(5, random.Random(0))))
    lifted = []
    read = action_module._ElementMatrices.__getitem__
    monkeypatch.setattr(action_module._ElementMatrices, "__getitem__",
                        lambda self, i: lifted.append(i) or read(self, i))
    problem = parse_problem(str(path))
    assert problem.group.order == 120 and not lifted
    generators = set(problem.group.generators)
    cert = tmp_path / "cert.json"
    for argv in (["verify"], ["independence"], ["module-verdict"], ["relation"],
                 ["noname-build", "--out", str(cert)]):
        code, _, _ = run_cli([argv[0], str(path), *argv[1:]])
        assert code == 0, argv
    code, _, _ = run_cli(["noname-verify", str(cert)])
    assert code == 0
    assert lifted and set(lifted) <= generators


def test_polynomial_coordinates_are_read_without_a_rational_function(monkeypatch):
    made = []
    init = RatFn.__init__
    monkeypatch.setattr(RatFn, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    problem = parse_problem(_power_map_problem(5))
    assert len(problem.covariants) == 5 and not made
    parse_problem("rational_swap")
    assert made


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
    ["verify", "vandermonde_s2", "--seed=3"],
    ["verify", "vandermonde_s2", "--se", "3"],
    ["verify", "vandermonde_s2", "--seed", "-1"],
    ["verify", "--seed", "3", "vandermonde_s2"],
    ["example", "--format", "machine"],
]


def test_command_parser_matches_the_full_parser(tmp_path, monkeypatch):
    """A line that _read_args takes is read without argparse, and every
    other line goes to the full parser; the full parser alone gives the
    same stdout, stderr and exit code on every line."""
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


_ARG_TOKENS = ["verify", "independence", "noname-build", "noname-verify", "generate",
               "clear", "relation", "lower", "module-verdict", "example", "bogus",
               "vandermonde_s2", "s3_permutation", "cert.json", "--seed", "--format",
               "--out", "--degree-bound", "--degree_bound", "-h", "--help", "--se",
               "--seed=3", "-1", "--", "-", "", "xml", "text", "machine", "0", "3",
               " 7", "+2", "1_0", "٣"]


_FULL_PARSER = build_parser()


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_ARG_TOKENS), max_size=8),
    st.lists(st.one_of(st.sampled_from(_ARG_TOKENS), st.integers(-5, 99).map(str),
                       st.text(max_size=4)), max_size=8),
    st.builds(lambda command, problem, flags: [command, problem] + flags,
              st.sampled_from(list(COMMANDS)), st.sampled_from(_ARG_TOKENS),
              st.lists(st.sampled_from(_ARG_TOKENS), max_size=6)),
    # mostly well formed: a command, perhaps a problem, flag-value pairs
    st.builds(lambda command, problem, pairs: [command, *problem, *sum(pairs, ())],
              st.sampled_from(list(COMMANDS)),
              st.lists(st.sampled_from(["vandermonde_s2", "", " x"]), max_size=1),
              st.lists(st.tuples(st.sampled_from(["--seed", "--format", "--out",
                                                  "--degree-bound"]),
                                 st.sampled_from(["0", "3", " 7", "+2", "1_0", "٣", "text",
                                                  "machine", "xml", "-1", "", "c.json"])),
                       max_size=4))))
def test_read_args_agrees_with_the_full_parser(argv):
    """Whenever _read_args takes a line, the full parser reads the same
    attributes from it."""
    args = _read_args(argv)
    if args is not None:
        assert vars(args) == vars(_FULL_PARSER.parse_args(argv)), argv


# values the full parser takes for each long option
_GOOD_VALUES = {"--seed": ["0", "3", "12", " 7", "+2", "1_0", "٣"],
                "--format": ["text", "machine"], "--out": ["c.json", "", "x y"],
                "--degree-bound": ["0", "4"]}


@st.composite
def _well_formed_lines(draw):
    command = draw(st.sampled_from(list(COMMANDS)))
    flags = ["--seed", "--format"]
    if command == "generate":
        flags.append("--degree-bound")
    if command in ("noname-build", "generate"):
        flags.append("--out")
    problem = draw(st.sampled_from(["vandermonde_s2", "", "cert.json", "verify"]))
    line = [command] + ([] if command == "example" and draw(st.booleans()) else [problem])
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5)):
        line += [flag, draw(st.sampled_from(_GOOD_VALUES[flag]))]
    return line


@settings(max_examples=200, deadline=None)
@given(_well_formed_lines())
def test_read_args_takes_each_well_formed_line(argv):
    """A line of the form <command> <problem> [--flag value]... is read
    without argparse, with the attributes the full parser reads."""
    args = _read_args(argv)
    assert args is not None, argv
    assert vars(args) == vars(_FULL_PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["verify", "--help"], ["bogus", "p"], ["verify"], ["noname-verify"],
    ["verify", "p", "--seed=3"], ["verify", "p", "--se", "3"],
    ["verify", "p", "--seed", "-1"], ["noname-build", "p", "--out", "-x"],
    ["verify", "--seed", "3", "p"], ["example", "--format", "machine", "p"],
    ["generate", "p", "--degree_bound", "2"], ["verify", "p", "--problem", "q"],
    ["verify", "p", "--fn", "f"], ["verify", "p", "--out", "c.json"],
    ["independence", "p", "--degree-bound", "2"], ["verify", "p", "--seed", "x"],
    ["verify", "p", "--format", "xml"], ["verify", "p", "--seed"], ["verify", "p", "q"],
    ["verify", "p", "--", "--seed"], ["verify", "-", "--seed", "3"],
])
def test_read_args_declines_every_other_line(argv):
    """Help, an unknown or missing command or problem, an option that is
    not an exact long option of the command, a value starting with '-'
    and a value the full parser refuses all go to the full parser."""
    assert _read_args(argv) is None


@pytest.mark.parametrize("workload", ["gl_words", "perm_groups", "preset_sweep"])
def test_read_args_takes_every_benchmark_operation(workload, tmp_path):
    """Every command line the benchmark runs is read without argparse,
    with the attributes the full parser reads."""
    from test_bench_oracle_agreement import workloads

    for op in workloads.WORKLOADS[workload](1, str(tmp_path)).ops:
        args = _read_args(op.args)
        assert args is not None, op.args
        assert vars(args) == vars(_FULL_PARSER.parse_args(op.args))


def test_a_well_formed_line_imports_no_argparse_or_dataclasses():
    """A fresh process runs one command: it imports neither argparse nor
    dataclasses nor inspect, while a malformed line still gets argparse's
    usage and exit code 2."""
    import subprocess
    import sys

    import covar

    src = os.path.dirname(os.path.dirname(os.path.abspath(covar.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "from covar import cli\n"
              "code = cli.main(['verify', 'vandermonde_s2'])\n"
              "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stderr.split())
    assert "covar.cli" in added
    assert not added & {"argparse", "dataclasses", "inspect"}
    proc = subprocess.run([sys.executable, "-m", "covar", "verify", "vandermonde_s2",
                           "--seed=x"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: covar verify")
    assert "argument --seed: invalid int value: 'x'" in proc.stderr


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


def _gl2_words_with_a_changed_coefficient() -> dict:
    """The gl2 words I, A, B, AB given as explicit covariants, the entry
    a12*b21 + a11*b11 of AB with the coefficient of a11*b11 doubled."""
    words = [[str(c) for c in F.coords] for F in parse_problem("matrix_words_gl2").covariants]
    assert words[3][0] == "a12*b21 + a11*b11"
    words[3][0] = "a12*b21 + 2*a11*b11"
    return {"group": parse_problem("matrix_words_gl2").raw["group"], "covariants": words}


_REFUTED_ROWS = [(_REFUTED, 2), (_gl2_words_with_a_changed_coefficient(), 4)]


@pytest.mark.parametrize("fmt,problem,refuted", [
    (fmt, *row) for row in _REFUTED_ROWS for fmt in ("text", "machine")],
    ids=["text", "machine", "gl2-words-text", "gl2-words-machine"])
def test_verify_names_the_refuted_covariant(tmp_path, fmt, problem, refuted):
    code, out, _ = run_cli(["verify", _write_problem(tmp_path, problem), "--format", fmt])
    assert code == 1
    if fmt == "text":
        assert "[PASS] covariant_1_equivariant" in out
        assert f"[FAIL] covariant_{refuted}_equivariant: equivariance refuted" in out
    else:
        checks = json.loads(out)["report"]["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [
            (f"covariant_{k}_equivariant", k != refuted)
            for k in range(1, len(problem["covariants"]) + 1)]


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
