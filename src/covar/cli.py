"""Command-line front end.

Problem files are JSON.  Matrices are row-major arrays of rational strings,
polynomials are strings in the canonical grammar, symbolic groups are named
by template.  See README.md for the full schema.

Exit codes: 0 every check passed; 1 a mathematical check failed (dependence,
refuted equivariance, failed verification); 2 usage errors (bad arguments,
missing or malformed files, dimension or reference errors).
"""

from __future__ import annotations

import json
import os
import sys
from importlib import resources
from types import SimpleNamespace

from .action import (
    ActionError,
    Character,
    FiniteGroupAction,
    GroupAction,
    SpaceSizeError,
    make_finite_group,
    symbolic_general_linear,
)
from .covariant import (
    Covariant,
    DependentCovariantsError,
    RelativeInvariant,
    ensure_equivariant,
    generic_independence,
)
from .exactalg import (
    DegreeOverflowError,
    DimensionError,
    ExactAlgError,
    Matrix,
    ParseError,
    Poly,
    PrimeField,
    RatFn,
    lift_coeff,
    parse_entry,
    qmat,
)
from .forge import (
    GenerationExhaustedError,
    clear_denominators,
    example_family,
    generate_covariants,
)
from .noname import (
    NoNameMap,
    _pick_out_vars,
    _taken_names,
    build_isomorphism,
    verify_isomorphism,
)
from .reflect import (
    IndependenceCertificate,
    Reflection,
    Relation,
    _relative_invariant_coefficients,
    find_reflections,
    lower_relation,
    module_independence_verdict,
    relation_over_function_field,
)
from .report import Report

USAGE_EXIT = 2
MATH_EXIT = 1
# the status of a program killed by SIGPIPE: the reader closed stdout
PIPE_EXIT = 141


class ProblemError(ExactAlgError):
    """A problem file is malformed; message carries the offending field."""


class ProblemFile:
    """Validated problem description."""

    def __init__(self, group: GroupAction, covariants: list[Covariant] | None = None,
                 raw: dict | None = None, path: str = ""):
        self.group = group
        self.covariants = [] if covariants is None else covariants
        self.raw = {} if raw is None else raw
        self.path = path

    @property
    def hypotheses(self) -> dict:
        return self.raw.get("hypotheses", {})

    def canonical_text(self) -> str:
        """Canonical serialization; parsing then serializing a canonical
        file reproduces it byte for byte."""
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"


def _expect(cond: bool, message: str):
    if not cond:
        raise ProblemError(message)


def _is_int(value) -> bool:
    """A JSON integer: not a float, a string or a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value, where: str) -> int:
    _expect(_is_int(value), f"{where}: expected an integer, got {value!r}")
    return value


def _positive(value, where: str) -> int:
    n = _int(value, where)
    _expect(n >= 1, f"{where}: expected a positive integer, got {n}")
    return n


def _var_names(space: dict, key: str) -> tuple[str, ...] | None:
    """space.<key> as a tuple of distinct names, or None when not given."""
    names = space.get(key)
    strings = isinstance(names, list) and all(isinstance(v, str) and v for v in names)
    _expect(not names or (strings and len(set(names)) == len(names)),
            f"space.{key}: expected an array of distinct variable names")
    return tuple(names) if names else None


def _parse_field(raw: dict) -> PrimeField | None:
    block = raw.get("field")
    if block is None:
        return None
    _expect(isinstance(block, dict) and "prime" in block,
            "field: expected an object with a 'prime' entry")
    prime = _int(block["prime"], "field.prime")
    try:
        return PrimeField(prime)
    except ExactAlgError as exc:
        raise ProblemError(f"field.prime: {exc}") from None


def _parse_matrix(rows, where: str) -> list[list[str]]:
    _expect(isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
            f"{where}: expected a non-empty array of rows")
    width = len(rows[0])
    for i, r in enumerate(rows):
        _expect(len(r) == width, f"{where}: row {i} has {len(r)} entries, expected {width}")
    _expect(len(rows) == width, f"{where}: matrix must be square "
            f"({len(rows)}x{width} given)")
    return [[_text(x, f"{where}[{i}][{j}]") for j, x in enumerate(r)]
            for i, r in enumerate(rows)]


def _text(value, where: str) -> str:
    """A string or a JSON integer as text; any other value names the field."""
    _expect(isinstance(value, str) or _is_int(value),
            f"{where}: expected a string or an integer, got {value!r}")
    return str(value)


def _parsed(parse, text, where: str, group: GroupAction, **options):
    """``parse`` over the X-variables of a string or an integer; any other
    value, a malformed text, a degree past the packed width or a zero
    denominator names the field."""
    try:
        return parse(_text(text, where), group.x_vars, group.field, **options)
    except (ParseError, DegreeOverflowError, ZeroDivisionError) as exc:
        raise ProblemError(f"{where}: {exc}") from None


# the largest group.max_order a problem may ask for.  It admits S8 (40320
# elements); a closure of 2 x 2 matrices that runs into it took 0.23 s and
# 41 MB on a shared 2-CPU machine, where a cap of 10^8 would exhaust memory
MAX_ORDER_CEILING = 50_000

# the hypotheses a problem file may assert, each with its JSON type; X = k^n
# and a finite group decide every other one
HYPOTHESES = {"fraction_field": (bool, "true or false"), "note": (str, "a string")}


def _check_hypotheses(hyp) -> None:
    """Only the keys of ``HYPOTHESES``, each of its type."""
    _expect(isinstance(hyp, dict), "hypotheses: expected an object")
    for key, value in hyp.items():
        _expect(key in HYPOTHESES, f"hypotheses.{key}: unknown hypothesis; only "
                "fraction_field and note can be asserted")
        kind, name = HYPOTHESES[key]
        _expect(isinstance(value, kind), f"hypotheses.{key}: expected {name}, got {value!r}")


def parse_problem(source: str | dict, path: str = "") -> ProblemFile:
    """Load and validate a problem file (path, preset name, or dict)."""
    if isinstance(source, dict):
        raw = source
    else:
        text, path = _read_problem_text(source)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemError(f"invalid JSON: {exc}") from None
    _expect(isinstance(raw, dict), "top level: expected a JSON object")
    _check_hypotheses(raw.get("hypotheses", {}))
    field = _parse_field(raw)
    group_block = raw.get("group")
    _expect(isinstance(group_block, dict), "group: required object missing")
    kind = group_block.get("type")
    space = raw.get("space", {})
    _expect(isinstance(space, dict), "space: expected an object")
    x_vars, w_vars = _var_names(space, "x_vars"), _var_names(space, "w_vars")
    if kind == "finite":
        gens_block = group_block.get("generators")
        _expect(isinstance(gens_block, list) and gens_block,
                "group.generators: non-empty array required")
        gens = []
        for k, pair in enumerate(gens_block):
            _expect(isinstance(pair, dict) and "x" in pair and "w" in pair,
                    f"group.generators[{k}]: expected an object with 'x' and 'w'")
            gens.append((_parse_matrix(pair["x"], f"group.generators[{k}].x"),
                         _parse_matrix(pair["w"], f"group.generators[{k}].w")))
        max_order = _positive(group_block.get("max_order", 10_000), "group.max_order")
        _expect(max_order <= MAX_ORDER_CEILING, f"group.max_order: expected an integer "
                f"from 1 to {MAX_ORDER_CEILING}, got {max_order}")
        try:
            group = make_finite_group(gens, x_vars=x_vars, w_vars=w_vars,
                                      max_order=max_order, field=field)
        except (ActionError, DimensionError) as exc:
            raise ProblemError(f"group: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            # an entry that is not a rational number of the coefficient field
            raise ProblemError(f"group.generators: {exc}") from None
    elif kind == "symbolic":
        for key in ("n", "x_template", "w_template"):
            _expect(key in group_block, f"group.{key}: required for symbolic groups")
        for key in ("x_template", "w_template"):
            _expect(isinstance(group_block[key], str), f"group.{key}: expected a template name")
        try:
            group = symbolic_general_linear(
                _positive(group_block["n"], "group.n"), group_block["x_template"],
                group_block["w_template"],
                x_copies=_positive(group_block.get("x_copies", 1), "group.x_copies"),
                w_copies=_positive(group_block.get("w_copies", 1), "group.w_copies"),
                field=field)
        except SpaceSizeError as exc:
            raise ProblemError(f"group.{exc}") from None
        except (ActionError, DimensionError) as exc:
            raise ProblemError(f"group: {exc}") from None
        for key, names, declared in (("x_vars", x_vars, group.x_vars),
                                     ("w_vars", w_vars, group.w_vars)):
            _expect(names in (None, declared), f"space.{key}: does not match the "
                    f"template's variables {list(declared)}")
    else:
        raise ProblemError("group.type: must be 'finite' or 'symbolic'")

    covariants = []
    cov_block = raw.get("covariants", [])
    _expect(isinstance(cov_block, list), "covariants: expected an array")
    for k, coords in enumerate(cov_block):
        _expect(isinstance(coords, list) and len(coords) == group.w_dim,
                f"covariants[{k}]: expected {group.w_dim} coordinate strings")
        covariants.append(Covariant(group, [
            _parsed(parse_entry, text, f"covariants[{k}][{c_idx}]", group)
            for c_idx, text in enumerate(coords)]))

    family = raw.get("family")
    if family is not None:
        _expect(isinstance(family, dict) and "name" in family,
                "family: expected an object with a 'name'")
        _expect(not covariants, "covariants and family cannot both be given")
        covariants = _family_from_block(family, group)

    return ProblemFile(group, covariants, raw, path)


def _family_from_block(block: dict, group: GroupAction) -> list[Covariant]:
    name = block["name"]

    def param(key: str) -> int:
        _expect(key in block, f"family.{key}: required for the {name!r} family")
        return _int(block[key], f"family.{key}")

    if name == "matrix_words":
        words = block.get("words")
        if words is not None:
            _expect(isinstance(words, list), "family.words: expected an array")
            pairs = []
            for k, w in enumerate(words):
                where = f"family.words[{k}]"
                _expect(isinstance(w, list) and len(w) == 2,
                        f"{where}: expected a pair of nonnegative integers")
                pair = (_int(w[0], where), _int(w[1], where))
                _expect(min(pair) >= 0, f"{where}: exponents must be "
                        f"nonnegative, got {w}")
                pairs.append(pair)
            words = pairs
        params = dict(n=param("n"), words=words)
    elif name == "projections":
        params = dict(n=param("n"), m=param("m"))
        _expect(params["m"] >= params["n"], f"family.m: need at least n = "
                f"{params['n']} copies, got {params['m']}")
    elif name == "power_maps":
        powers = block.get("powers")
        _expect(powers is None or isinstance(powers, list),
                "family.powers: expected an array of integers")
        if powers is not None:
            powers = [_int(p, "family.powers") for p in powers]
            _expect(min(powers, default=0) >= 0,
                    f"family.powers: powers must be nonnegative, got {powers}")
        params = dict(n=param("n"), powers=powers)
    else:
        raise ProblemError(f"family.name: unknown family {name!r}")
    try:
        return example_family(name, group=group, **params)
    except DimensionError:
        raise ProblemError("family: generated family does not live on the "
                           "declared spaces") from None


def _read_problem_text(source: str) -> tuple[str, str]:
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read(), source
    name = source if source.endswith(".json") else source + ".json"
    try:
        ref = resources.files("covar").joinpath("presets").joinpath(name)
        if ref.is_file():
            return ref.read_text(encoding="utf-8"), f"preset:{name}"
    except (FileNotFoundError, ModuleNotFoundError):
        pass
    raise ProblemError(f"no such problem file or preset: {source}")


def list_presets() -> list[str]:
    out = []
    for entry in resources.files("covar").joinpath("presets").iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[:-5])
    return sorted(out)


# ---------------------------------------------------------------------------
# serialization of results
# ---------------------------------------------------------------------------


def _serialize_group(problem: ProblemFile) -> dict:
    block = dict(problem.raw.get("group", {}))
    return block


def _serialize_space(group: GroupAction) -> dict:
    return {"x_vars": list(group.x_vars), "w_vars": list(group.w_vars)}


def _serialize_weight(weight: Character) -> dict:
    if weight.table is not None:
        return {"type": "finite", "values": [str(v) for v in weight.table]}
    return {"type": "symbolic", "value": str(weight.ratfn)}


def _parse_weight(block, group: GroupAction) -> Character:
    kind, key = ("finite", "values") if group.is_finite else ("symbolic", "value")
    _expect(isinstance(block, dict) and block.get("type") == kind,
            f"weight: expected an object of type {kind!r}")
    entry = block.get(key)
    _expect(isinstance(entry, list) if group.is_finite else isinstance(entry, str),
            f"weight.{key}: expected " + ("an array" if group.is_finite else "a string"))
    try:
        if group.is_finite:
            return Character(group, table=[lift_coeff(v, group.field) for v in entry])
        return Character(group, ratfn=RatFn.parse(entry, group.g_vars, group.field))
    except (ExactAlgError, ValueError, ZeroDivisionError) as exc:
        raise ProblemError(f"weight.{key}: {exc}") from None


def _certificate_entry(text, where: str, group: GroupAction,
                       reduce: bool = True) -> Poly | RatFn:
    """One certificate string parsed over the X-variables: with ``reduce``
    a Poly when it is one, else the RatFn as written; the error names the
    field."""
    _expect(isinstance(text, str), f"{where}: expected a string")
    if reduce:
        return _parsed(parse_entry, text, where, group)
    return _parsed(RatFn.parse, text, where, group, reduce=False)


def _square(raw: dict, key: str, group: GroupAction) -> list[list]:
    """A certificate field's d rows of d entries, d = dim W, unparsed."""
    d = group.w_dim
    rows = raw[key]
    _expect(isinstance(rows, list) and len(rows) == d
            and all(isinstance(r, list) and len(r) == d for r in rows),
            f"{key}: expected {d} rows of {d} strings")
    return rows


def _certificate_square(raw: dict, key: str, group: GroupAction,
                        reduce: bool = True) -> list[list[Poly | RatFn]]:
    """A certificate field holding d rows of d strings, parsed."""
    return [[_certificate_entry(e, f"{key}[{i}][{j}]", group, reduce)
             for j, e in enumerate(row)] for i, row in enumerate(_square(raw, key, group))]


def _frame_covariants(raw: dict, phi_inv: Matrix, group: GroupAction) -> list[Covariant]:
    """The ``covariants`` field, which must hold the columns of phi_inv in
    order.  An entry written as the same string as its phi_inv entry parses
    to the same value, so it takes that parse; only an entry spelled
    differently is parsed and compared."""
    written = raw["phi_inv"]
    columns = []
    for j, row in enumerate(_square(raw, "covariants", group)):
        coords = []
        for i, text in enumerate(row):
            entry = phi_inv.entries[i][j]
            if text != written[i][j]:
                _expect(_certificate_entry(text, f"covariants[{j}][{i}]", group) == entry,
                        "covariants: expected the columns of phi_inv, in order")
            coords.append(entry)
        columns.append(Covariant(group, coords))
    return columns


def certificate_payload(m: NoNameMap, problem: ProblemFile, report: Report) -> dict:
    return {
        "kind": "noname-certificate",
        "group": _serialize_group(problem),
        "space": _serialize_space(m.action),
        "field": problem.raw.get("field"),
        "f": str(m.f),
        "weight": _serialize_weight(m.invariant.weight),
        "phi": [[str(e) for e in row] for row in m.phi.entries],
        "phi_inv": [[str(e) for e in row] for row in m.phi_inv.entries],
        "covariants": [[str(c) for c in F.coords] for F in m.covariants],
        "out_vars": list(_pick_out_vars(m.action, m.dim)),
        "checks": [c.to_dict() for c in report.checks],
    }


def load_certificate(path: str) -> tuple[NoNameMap, ProblemFile]:
    text, path = _read_problem_text(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"invalid JSON: {exc}") from None
    _expect(isinstance(raw, dict) and raw.get("kind") == "noname-certificate",
            "kind: expected 'noname-certificate'")
    for key in ("group", "f", "weight", "phi", "phi_inv"):
        _expect(key in raw, f"{key}: required certificate field missing")
    problem = parse_problem({"group": raw["group"], "space": raw.get("space", {}),
                             "field": raw.get("field")}, path)
    group = problem.group
    d = group.w_dim
    f = _certificate_entry(raw["f"], "f", group)
    weight = _parse_weight(raw["weight"], group)
    # phi keeps its written denominator det N, so phi_rows folds it once
    phi = Matrix(_certificate_square(raw, "phi", group, reduce=False))
    phi_inv = Matrix(_certificate_square(raw, "phi_inv", group))
    covs = []
    if "covariants" in raw:
        covs = _frame_covariants(raw, phi_inv, group)
    # the output coordinate names are written for readers; no check reads them
    out_vars = raw.get("out_vars")
    _expect(out_vars is None or (
        isinstance(out_vars, list) and len(out_vars) == d
        and all(isinstance(v, str) and v for v in out_vars)
        and len(set(out_vars)) == d and not set(out_vars) & _taken_names(group)),
        f"out_vars: expected {d} distinct names, none of them an x, w or g variable")
    invariant = RelativeInvariant(f, weight, group)
    m = NoNameMap(group, invariant, phi, phi_inv, covs)
    return m, problem


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _emit(report: Report, args, problem: ProblemFile | None = None,
          extra: dict | None = None) -> None:
    """Print the report.  Given the problem it answers, first record the
    caller-side hypotheses the library cannot decide."""
    notes = []
    if problem is not None and problem.group.field is not None:
        notes.append("positive characteristic: generic separability of the "
                     "action is assumed, not verified")
    if problem is not None and problem.hypotheses.get("note"):
        notes.append(problem.hypotheses["note"])
    if notes:
        report.data["assumptions"] = notes
    if args.format == "machine":
        payload = {"report": report.to_dict()}
        if extra:
            payload.update(extra)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render_text())
        if extra and "certificate_path" in extra:
            print(f"certificate written to {extra['certificate_path']}")


def _write_out(args, payload: dict) -> dict:
    if not args.out:
        return {}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"certificate_path": args.out}


def _need_covariants(problem: ProblemFile) -> list[Covariant]:
    if not problem.covariants:
        raise ProblemError("this command needs covariants (or a family) "
                           "in the problem file")
    return problem.covariants


def _refused(Fs: list[Covariant], title: str, problem: ProblemFile, args) -> bool:
    """Decide each covariant's status once on the ledger; when one is
    refuted, emit a ``title`` report naming the first and return True."""
    ledger = ensure_equivariant(Fs)
    if ledger.ok:
        return False
    i = ledger.checks.index(ledger.failed_checks()[0])
    out = Report(title)
    out.add("covariants_equivariant", False, f"covariant {i + 1} is not equivariant")
    _emit(out, args, problem)
    return True


def cmd_verify(args) -> int:
    problem = parse_problem(args.problem)
    Fs = _need_covariants(problem)
    report = ensure_equivariant(Fs)
    report.data["count"] = len(Fs)
    _emit(report, args, problem)
    return 0 if report.ok else MATH_EXIT


def cmd_independence(args) -> int:
    problem = parse_problem(args.problem)
    report = generic_independence(_need_covariants(problem), seed=args.seed)
    _emit(report, args, problem)
    return 0 if report.ok else MATH_EXIT


def cmd_noname_build(args) -> int:
    problem = parse_problem(args.problem)
    Fs = _need_covariants(problem)
    if _refused(Fs, "no-name construction", problem, args):
        return MATH_EXIT
    try:
        m = build_isomorphism(Fs)
    except DependentCovariantsError as exc:
        out = Report("no-name construction")
        out.add("covariants_independent", False, str(exc))
        _emit(out, args, problem)
        return MATH_EXIT
    report = m.report
    report.title = "no-name construction"
    report.data["weight"] = str(m.invariant.weight)
    payload = certificate_payload(m, problem, report)
    extra = _write_out(args, payload)
    if args.format == "machine":
        extra["certificate"] = payload
    _emit(report, args, problem, extra)
    return 0 if report.ok else MATH_EXIT


def cmd_noname_verify(args) -> int:
    m, problem = load_certificate(args.problem)
    report = verify_isomorphism(m)
    _emit(report, args, problem)
    return 0 if report.ok else MATH_EXIT


def cmd_generate(args) -> int:
    if args.degree_bound < 0:
        raise ProblemError(f"--degree-bound: must be nonnegative, got {args.degree_bound}")
    problem = parse_problem(args.problem)
    if not isinstance(problem.group, FiniteGroupAction):
        raise ProblemError("generate works on finite groups only")
    report = Report("covariant generation")
    try:
        fam = generate_covariants(problem.group, args.degree_bound)
    except GenerationExhaustedError as exc:
        report.add("full_family_found", False, str(exc))
        report.data["achieved_rank"] = exc.achieved_rank
        report.data["covariants"] = [[str(c) for c in F.coords] for F in exc.found]
        _emit(report, args, problem)
        return MATH_EXIT
    rep_ind = generic_independence(fam, seed=args.seed)
    report.add("full_family_found", True,
               f"{len(fam)} generically independent covariants")
    report.add("family_independent", rep_ind.ok)
    report.data["covariants"] = [[str(c) for c in F.coords] for F in fam]
    report.data.update({k: v for k, v in rep_ind.data.items()
                        if k in ("rank", "witness_point", "witness_minor")})
    _write_out(args, {"kind": "covariant-family",
                      "covariants": report.data["covariants"]})
    _emit(report, args, problem)
    return 0 if report.ok else MATH_EXIT


def cmd_clear(args) -> int:
    problem = parse_problem(args.problem)
    Fs = _need_covariants(problem)
    if not isinstance(problem.group, FiniteGroupAction):
        raise ProblemError("clear works on finite groups only")
    if _refused(Fs, "denominator clearing", problem, args):
        return MATH_EXIT
    f, cleared = clear_denominators(Fs, problem.group)
    # each cleared covariant is f^n F_k, one nonzero invariant times the
    # input, so the generic rank and with it the verdict are unchanged
    verdict = generic_independence(Fs, seed=args.seed).data["verdict"]
    report = Report("denominator clearing")
    report.add("integral_outputs", all(not F.is_rational for F in cleared))
    report.add("factor_is_absolute_invariant", True, f"f = {f}")
    report.add("independence_preserved", True, f"before: {verdict}, after: {verdict}")
    report.data["f"] = str(f)
    report.data["covariants"] = [[str(c) for c in F.coords] for F in cleared]
    _emit(report, args, problem)
    return 0 if report.ok else MATH_EXIT


def cmd_relation(args) -> int:
    problem = parse_problem(args.problem)
    Fs = _need_covariants(problem)
    report = Report("relation over the function field")
    found = relation_over_function_field(Fs)
    if isinstance(found, IndependenceCertificate):
        report.add("relation_or_certificate", True,
                   f"independent; certificate {found}")
        report.data["outcome"] = "independent"
        report.data["certificate_minor"] = str(found.minor)
        _emit(report, args, problem)
        return 0
    report.data["outcome"] = "relation"
    report.data["coefficients"] = [str(h) for h in found.coeffs]
    report.add("relation_or_certificate", found.verified,
               "kernel relation verified by expansion")
    # finite groups only: bench/oracle.py checks the weight of these
    # coefficients on the generators, which a symbolic problem lacks
    if isinstance(problem.group, FiniteGroupAction):
        cleared = _relative_invariant_coefficients(found)
        report.add("relative_invariant_coefficients", cleared.verified,
                   "coefficients are relative invariants of one weight")
        report.data["invariant_coefficients"] = [str(h) for h in cleared.coeffs]
    _emit(report, args, problem)
    return 0 if report.ok else MATH_EXIT


def _reflection_from_block(block, group: FiniteGroupAction) -> Reflection:
    refls = find_reflections(group)
    if block is None:
        raise ProblemError("lower needs a 'reflection' object in the problem file")
    _expect(isinstance(block, dict), "reflection: expected an object with "
            "'element' or 'x'")
    if "element" in block:
        idx = _int(block["element"], "reflection.element")
        for r in refls:
            if r.element == idx:
                return r
        raise ProblemError(f"reflection.element: element {idx} does not fix a "
                           "hyperplane pointwise")
    if "x" in block:
        try:
            mat = qmat(_parse_matrix(block["x"], "reflection.x"), group.field)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemError(f"reflection.x: {exc}") from None
        for r in refls:
            if group.x_mats[r.element] == mat:
                return r
        raise ProblemError("reflection.x: matrix is not a reflection of the group")
    raise ProblemError("reflection: expected 'element' or 'x'")


def cmd_lower(args) -> int:
    problem = parse_problem(args.problem)
    Fs = _need_covariants(problem)
    if not isinstance(problem.group, FiniteGroupAction):
        raise ProblemError("lower works on finite groups only")
    rel_block = problem.raw.get("relation")
    if not isinstance(rel_block, list) or len(rel_block) != len(Fs):
        raise ProblemError("relation: expected one coefficient string per covariant")
    coeffs = [_parsed(Poly.parse, text, f"relation[{k}]", problem.group)
              for k, text in enumerate(rel_block)]
    rel = Relation(coeffs, Fs).verify()
    s = _reflection_from_block(problem.raw.get("reflection"), problem.group)
    lowered = lower_relation(rel, s)
    report = Report("reflection descent step")
    report.add("division_exact", True,
               f"hyperplane form {s.hyperplane_form} divides every difference")
    report.add("output_verified", lowered.verified)
    if not lowered.is_zero:
        report.add("degree_lowered", lowered.max_degree() < rel.max_degree(),
                   f"{rel.max_degree()} -> {lowered.max_degree()}")
    report.data["coefficients"] = [str(h) for h in lowered.coeffs]
    report.data["zero_relation"] = lowered.is_zero
    _emit(report, args, problem)
    return 0 if report.ok else MATH_EXIT


def cmd_module_verdict(args) -> int:
    problem = parse_problem(args.problem)
    Fs = _need_covariants(problem)
    if _refused(Fs, "module independence", problem, args):
        return MATH_EXIT
    report = module_independence_verdict(
        Fs, problem.hypotheses.get("fraction_field", False), seed=args.seed)
    _emit(report, args, problem)
    return 0 if report.ok else MATH_EXIT


def cmd_example(args) -> int:
    if args.problem is None:
        print("available presets:")
        for name in list_presets():
            print(f"  {name}")
        return 0
    problem = parse_problem(args.problem)
    Fs = _need_covariants(problem)
    report = Report("example family")
    report.add("family_built", True, f"{len(Fs)} covariants")
    report.data["covariants"] = [[str(c) for c in F.coords] for F in Fs]
    report.data["x_vars"] = list(problem.group.x_vars)
    report.data["w_vars"] = list(problem.group.w_vars)
    _emit(report, args)
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "independence": cmd_independence,
    "noname-build": cmd_noname_build,
    "noname-verify": cmd_noname_verify,
    "generate": cmd_generate,
    "clear": cmd_clear,
    "relation": cmd_relation,
    "lower": cmd_lower,
    "module-verdict": cmd_module_verdict,
    "example": cmd_example,
}


def build_parser():
    """The argparse parser of every command: the reference for
    :func:`_read_args`, and the reader of every line that it declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="covar",
        description="construct and verify explicit localized isomorphisms "
                    "from generically independent covariants")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        if name == "example":
            p.add_argument("problem", nargs="?", default=None,
                           help="problem file, preset name, or omit to list presets")
        else:
            p.add_argument("problem", help="problem file or preset name "
                           "(certificate file for noname-verify)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized witness search (default 0); "
                            "with at most 6 X-variables it only orders the random "
                            "draws tried after every point with max |c| <= 3")
        if name == "generate":
            p.add_argument("--degree-bound", type=int, default=3, dest="degree_bound",
                           help="degree bound (default 3)")
        if name in ("noname-build", "generate"):
            p.add_argument("--out", default=None,
                           help="write the certificate / result payload to this path")
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="report format on stdout")
        p.set_defaults(fn=fn)
    return parser


# each long option of build_parser and the attribute it sets
_FLAGS = {"--seed": "seed", "--degree-bound": "degree_bound", "--out": "out",
          "--format": "format"}


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """Read ``<command> <problem> [--flag value]...`` without argparse: the
    command first, then the problem (optional for ``example`` only), then
    exact long options of that command, each with a separate value that
    does not start with ``-``.  The attributes are those the full parser
    gives.  Any other line, or a value the full parser refuses, gives None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command, rest = argv[0], argv[1:]
    args = {"command": command, "problem": None, "seed": 0, "format": "text",
            "fn": COMMANDS[command]}
    if command == "generate":
        args["degree_bound"] = 3
    if command in ("noname-build", "generate"):
        args["out"] = None
    if rest and not rest[0].startswith("-"):
        args["problem"], rest = rest[0], rest[1:]
    elif command != "example":
        return None
    if len(rest) % 2:
        return None
    for flag, value in zip(rest[::2], rest[1::2]):
        key = _FLAGS.get(flag)
        if key not in args or value.startswith("-"):
            return None
        if key in ("seed", "degree_bound"):
            try:
                value = int(value)
            except ValueError:
                return None
        elif key == "format" and value not in ("text", "machine"):
            return None
        args[key] = value
    return SimpleNamespace(**args)


def _parse_args(argv: list[str]):
    """The arguments of a command line: read directly when
    :func:`_read_args` takes it, else by the full parser, whose usage,
    help and errors are argparse's own."""
    args = _read_args(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.fn(args)
        # flushed here, so that a closed stdout is met inside the try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # no one reads the rest: send it to devnull, so that the flush at
        # exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_EXIT
    except SpaceSizeError as exc:
        # a generic element too large to build, refused where a command reads it
        print(f"error: group.{exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ProblemError, ParseError, DimensionError, ActionError,
            DegreeOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ExactAlgError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return MATH_EXIT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
