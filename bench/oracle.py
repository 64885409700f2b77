"""Independent answers for every benchmark operation.

Nothing here imports covar.  Problems are read from their JSON files, the
canonical polynomial grammar is parsed into sympy, and every verdict is
recomputed from the mathematics:

* a family of e covariants into a d-dimensional W with e > d is dependent;
  otherwise a nonzero e x e minor at a rational point proves independence
  (and sympy's symbolic rank decides the remaining small cases);
* a finite-group covariant is equivariant iff F(g x) = g_W F(x) for every
  generator g, since the stabilizer of F is a subgroup;
* a certificate is right when f is the sympy determinant of the frame and
  phi . frame = I at seeded rational points where f does not vanish;
* relation and lower coefficients must give sum_i h_i F_i = 0 after sympy
  expansion, and lower must lower the degree.

Each ``check_*`` function returns None when the program's output is right
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import combinations

import sympy

# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------


class Problem:
    """What the oracle knows about a problem file."""

    def __init__(self, raw: dict):
        self.raw = raw
        group = raw["group"]
        self.hyp = raw.get("hypotheses", {})
        self.kind = group["type"] if group["type"] == "finite" else group["x_template"]
        if self.kind == "finite":
            self.gens = [(_fmat(g["x"]), _fmat(g["w"])) for g in group["generators"]]
            nx, nw = len(self.gens[0][0]), len(self.gens[0][1])
            space = raw.get("space", {})
            self.x_vars = space.get("x_vars") or [f"x{i}" for i in range(1, nx + 1)]
            self.w_dim = nw
        elif self.kind == "gl_conjugation":
            self.n = n = int(group["n"])
            labels = "abcdefghijklmnopqrstuvwxyz"[:int(group.get("x_copies", 1))]
            self.x_vars = [f"{c}{i}{j}" for c in labels
                           for i in range(1, n + 1) for j in range(1, n + 1)]
            self.w_dim = n * n
        elif self.kind == "scalar":
            self.x_vars = raw["space"]["x_vars"]
            self.w_dim = int(group.get("w_copies", 1))
        else:
            raise ValueError(f"oracle has no model of template {self.kind!r}")
        self.syms = {v: sympy.Symbol(v) for v in self.x_vars}
        if "family" in raw:
            self.covs = self._family(raw["family"])
        else:
            self.covs = [[self.expr(c) for c in F] for F in raw.get("covariants", [])]

    def expr(self, text: str):
        return to_sympy(text, self.syms)

    def _family(self, block: dict):
        if block["name"] != "matrix_words":
            raise ValueError(f"oracle has no model of family {block['name']!r}")
        n = self.n
        words = block.get("words") or [[i, j] for i in range(n) for j in range(n)]
        A, B = self.matrices({v: self.syms[v] for v in self.x_vars})
        return [list(A ** i * B ** j) for i, j in words]

    def matrices(self, point: dict):
        """The two n x n matrices A, B of a gl_conjugation point."""
        n = self.n
        vals = [point[v] for v in self.x_vars]
        return (sympy.Matrix(n, n, vals[:n * n]), sympy.Matrix(n, n, vals[n * n:]))

    # -- evaluation --------------------------------------------------------

    def random_point(self, rng: random.Random) -> dict:
        return {v: sympy.Integer(rng.randint(-9, 9)) for v in self.x_vars}

    def frame_at(self, covs, point: dict):
        """e x d matrix of covariant values at a point (None at a pole)."""
        sub = {self.syms[v]: point[v] for v in self.x_vars}
        rows = []
        for F in covs:
            row = []
            for c in F:
                val = sympy.sympify(c).xreplace(sub)
                if val.has(sympy.zoo, sympy.nan) or not val.is_Rational:
                    return None
                row.append(Fraction(int(val.p), int(val.q)))
            rows.append(row)
        return rows

    def independent(self, covs, rng: random.Random) -> bool:
        e = len(covs)
        if e > self.w_dim:
            return False
        for _ in range(8):
            rows = self.frame_at(covs, self.random_point(rng))
            if rows is not None and frac_rank(rows) == e:
                return True
        return sympy.Matrix(covs).rank(simplify=True) == e

    def equivariant(self, F, rng: random.Random) -> bool:
        if self.kind == "finite":
            return all(self._fixed_by(F, X, W) for X, W in self.gens)
        if self.kind == "scalar":
            t = sympy.Symbol("t_oracle")
            moved = [sympy.sympify(c).xreplace({s: t * s for s in self.syms.values()})
                     for c in F]
            return all(sympy.cancel(m - t * sympy.sympify(c)) == 0 for m, c in zip(moved, F))
        # generic GL_n by conjugation: F(g.A, g.B) = g F(A, B) g^-1 at a seeded
        # invertible rational g and integer point
        n = self.n
        while True:
            g = sympy.Matrix(n, n, [rng.randint(-5, 5) for _ in range(n * n)])
            if g.det() != 0:
                break
        point = self.random_point(rng)
        A, B = self.matrices(point)
        gi = g.inv()
        moved_pt = dict(zip(self.x_vars, list(g * A * gi) + list(g * B * gi)))
        sub = {self.syms[v]: point[v] for v in self.x_vars}
        moved_sub = {self.syms[v]: moved_pt[v] for v in self.x_vars}
        value = sympy.Matrix(n, n, [sympy.sympify(c).xreplace(sub) for c in F])
        moved = sympy.Matrix(n, n, [sympy.sympify(c).xreplace(moved_sub) for c in F])
        return (g * value * gi - moved).is_zero_matrix

    def _fixed_by(self, F, X, W) -> bool:
        xs = [self.syms[v] for v in self.x_vars]
        image = {xs[k]: sum(X[k][l] * xs[l] for l in range(len(xs))) for k in range(len(xs))}
        lhs = [sympy.sympify(c).xreplace(image) for c in F]
        rhs = [sum(W[i][j] * F[j] for j in range(len(F))) for i in range(len(F))]
        return all(sympy.cancel(a - b) == 0 for a, b in zip(lhs, rhs))

    def frame_matrix(self, covs):
        """d x e matrix with the covariants as columns."""
        return sympy.Matrix(covs).T


def _fmat(rows):
    return [[Fraction(str(x)) for x in r] for r in rows]


def to_sympy(text: str, syms: dict):
    """Parse the canonical grammar (x1^2, 1/2*x1, (p)/(q)) into sympy."""
    if not re.fullmatch(r"[\w\s+\-*/^()]*", text):
        raise ValueError(f"unexpected characters in {text!r}")
    return sympy.sympify(text.replace("^", "**"), locals=syms)


def frac_rank(rows) -> int:
    m = [list(r) for r in rows]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                factor = m[r][c] / m[rank][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _zero(expr) -> bool:
    return sympy.cancel(sympy.sympify(expr)) == 0


def _same_up_to_sign(a, b) -> bool:
    return _zero(a - b) or _zero(a + b)


def _same_up_to_constant(a, b) -> bool:
    if _zero(b):
        return False
    ratio = sympy.cancel(a / b)
    return ratio != 0 and not ratio.free_symbols


def _row_denominator(row):
    return sympy.lcm([sympy.fraction(sympy.cancel(e))[1] for e in row])


def _annihilates(prob: Problem, coeffs, covs) -> bool:
    return all(_zero(sum(h * F[c] for h, F in zip(coeffs, covs)))
               for c in range(prob.w_dim))


def _is_poly(expr) -> bool:
    return sympy.fraction(sympy.cancel(expr))[1].free_symbols == set()


def _degree(prob: Problem, expr) -> int:
    expr = sympy.expand(expr)
    if expr == 0:
        return -1
    return sympy.Poly(expr, *prob.syms.values()).total_degree()


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------


def _report(stdout: str) -> dict:
    return json.loads(stdout)["report"]


def _text_checks(stdout: str) -> tuple[list[tuple[str, str]], str | None]:
    checks = re.findall(r"^\[(PASS|FAIL)\] ([\w]+)", stdout, re.M)
    result = re.findall(r"^result: (ok|FAILED)", stdout, re.M)
    return checks, (result[-1] if result else None)


def _exit_and_stderr(expect: int, code: int, stderr: str) -> str | None:
    if code != expect:
        return f"exit {code}, expected {expect}"
    bad = [ln for ln in stderr.splitlines() if ln.strip()
           and not (expect == 1 and ln.startswith("failed:"))]
    if bad:
        return f"unexpected stderr: {bad[0][:120]}"
    return None


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def check_verify(prob, rng, code, out, err):
    verdicts = [prob.equivariant(F, rng) for F in prob.covs]
    why = _exit_and_stderr(0 if all(verdicts) else 1, code, err)
    if why:
        return why
    checks, result = _text_checks(out)
    want = [("PASS" if ok else "FAIL", f"covariant_{i + 1}_equivariant")
            for i, ok in enumerate(verdicts)]
    if checks != want or result != ("ok" if all(verdicts) else "FAILED"):
        return "per-covariant verdict lines disagree with the oracle"
    return None


def check_independence(prob, rng, code, out, err):
    indep = prob.independent(prob.covs, rng)
    why = _exit_and_stderr(0 if indep else 1, code, err)
    if why:
        return why
    data = _report(out)["data"]
    if data.get("verdict") != ("independent" if indep else "dependent"):
        return f"verdict {data.get('verdict')!r} disagrees with the oracle"
    if indep and "witness_point" in data:
        point = {v: sympy.Rational(x) for v, x in data["witness_point"].items()}
        rows = prob.frame_at(prob.covs, point)
        if rows is None or frac_rank(rows) != len(prob.covs):
            return "reported witness point does not give full rank"
        if "witness_minor" in data:
            det = sympy.Matrix(rows).det()
            if det != sympy.Rational(data["witness_minor"]):
                return "reported witness minor is not the determinant at the point"
    return None


def check_relation(prob, rng, code, out, err):
    why = _exit_and_stderr(0, code, err)
    if why:
        return why
    data = _report(out)["data"]
    indep = prob.independent(prob.covs, rng)
    if data.get("outcome") != ("independent" if indep else "relation"):
        return f"outcome {data.get('outcome')!r} disagrees with the oracle"
    if indep:
        # the program clears each row of the frame over its common
        # denominator before taking the minor; so does the oracle
        frame = prob.frame_matrix(prob.covs)
        cleared = sympy.Matrix([[sympy.cancel(e * _row_denominator(frame.row(i)))
                                 for e in frame.row(i)] for i in range(frame.rows)])
        minor = prob.expr(data["certificate_minor"])
        e = len(prob.covs)
        minors = (cleared.extract(list(rows), list(range(e))).det(method="berkowitz")
                  for rows in combinations(range(frame.rows), e))
        if _zero(minor) or not any(_same_up_to_constant(minor, m) for m in minors):
            return "certificate minor is not a nonzero maximal minor of the frame"
        return None
    coeffs = [prob.expr(h) for h in data["coefficients"]]
    if all(_zero(h) for h in coeffs) or not _annihilates(prob, coeffs, prob.covs):
        return "relation coefficients do not annihilate the family"
    if "invariant_coefficients" in data:
        inv = [prob.expr(h) for h in data["invariant_coefficients"]]
        if not all(_is_poly(h) for h in inv) or not _annihilates(prob, inv, prob.covs):
            return "relative-invariant coefficients are not a polynomial relation"
        if not _common_character(prob, inv):
            return "relative-invariant coefficients do not share one weight"
    return None


def _common_character(prob: Problem, coeffs) -> bool:
    xs = [prob.syms[v] for v in prob.x_vars]
    for X, _W in prob.gens:
        image = {xs[k]: sum(X[k][l] * xs[l] for l in range(len(xs))) for k in range(len(xs))}
        ratios = {sympy.cancel(sympy.sympify(h).xreplace(image) / h)
                  for h in coeffs if not _zero(h)}
        if len(ratios) != 1 or next(iter(ratios)).free_symbols:
            return False
    return True


def check_lower(prob, rng, code, out, err):
    why = _exit_and_stderr(0, code, err)
    if why:
        return why
    data = _report(out)["data"]
    coeffs = [prob.expr(h) for h in data["coefficients"]]
    before = [prob.expr(h) for h in prob.raw["relation"]]
    if not _annihilates(prob, coeffs, prob.covs):
        return "lowered coefficients do not annihilate the family"
    if all(_zero(h) for h in coeffs):
        return None if data.get("zero_relation") else "zero relation not reported"
    if max(_degree(prob, h) for h in coeffs) >= max(_degree(prob, h) for h in before):
        return "descent step did not lower the degree"
    return None


def check_generate(prob, rng, code, out, err):
    why = _exit_and_stderr(0, code, err)
    if why:
        return why
    covs = [[prob.expr(c) for c in F] for F in _report(out)["data"]["covariants"]]
    if len(covs) != prob.w_dim:
        return f"{len(covs)} covariants generated, expected {prob.w_dim}"
    if not all(prob.equivariant(F, rng) for F in covs):
        return "a generated covariant is not equivariant"
    if not prob.independent(covs, rng):
        return "generated family is dependent"
    return None


def check_clear(prob, rng, code, out, err):
    why = _exit_and_stderr(0, code, err)
    if why:
        return why
    data = _report(out)["data"]
    f = prob.expr(data["f"])
    cleared = [[prob.expr(c) for c in F] for F in data["covariants"]]
    if not all(prob._fixed_by([f], X, [[1]]) for X, _W in prob.gens):
        return "clearing factor is not an absolute invariant"
    if not all(_is_poly(c) for F in cleared for c in F):
        return "cleared covariants are not polynomial"
    powers = [f ** k for k in range(4)]
    for G, F in zip(cleared, prob.covs):
        if not any(all(_zero(g - p * c) for g, c in zip(G, F)) for p in powers):
            return "cleared covariant is not a power of f times the input"
    if not all(prob.equivariant(F, rng) for F in cleared):
        return "cleared covariant is not equivariant"
    if prob.independent(cleared, rng) != prob.independent(prob.covs, rng):
        return "clearing changed the independence verdict"
    return None


def check_module_verdict(prob, rng, code, out, err):
    indep = prob.independent(prob.covs, rng)
    bridge = bool(prob.hyp.get("fraction_field") or prob.hyp.get("reflection"))
    verdict = "independent" if indep else ("dependent" if bridge else "abstain")
    why = _exit_and_stderr(0 if indep else 1, code, err)
    if why:
        return why
    got = _report(out)["data"].get("verdict")
    return None if got == verdict else f"module verdict {got!r}, expected {verdict!r}"


def check_certificate(prob: Problem, cert: dict, rng: random.Random) -> str | None:
    """f = det(frame) and phi . frame = I at seeded points with f != 0."""
    covs = [[prob.expr(c) for c in F] for F in cert["covariants"]]
    if len(covs) != len(prob.covs) or not all(
            _zero(a - b) for F, G in zip(covs, prob.covs) for a, b in zip(F, G)):
        return "certificate covariants differ from the problem's"
    frame = prob.frame_matrix(prob.covs)
    det = frame.det(method="berkowitz")
    f = prob.expr(cert["f"])
    if not _zero(f - det):
        return "f is not the determinant of the frame"
    if prob.kind == "finite" and _is_power_maps(prob):
        xs = [prob.syms[v] for v in prob.x_vars]
        vander = sympy.prod(xs) * sympy.prod(xs[j] - xs[i] for i in range(len(xs))
                                             for j in range(i + 1, len(xs)))
        if not _same_up_to_sign(f, vander):
            return "power-map determinant is not +-x1...xn * Vandermonde"
    return _phi_inverts_frame(prob, cert["phi"], prob.covs, f, rng)


def _phi_inverts_frame(prob, phi_text, covs, f, rng) -> str | None:
    phi = [[prob.expr(e) for e in row] for row in phi_text]
    d = prob.w_dim
    checked = 0
    for _ in range(20):
        point = prob.random_point(rng)
        sub = {prob.syms[v]: point[v] for v in prob.x_vars}
        if f.xreplace(sub) == 0:
            continue
        P = sympy.Matrix(d, d, [e.xreplace(sub) for row in phi for e in row])
        M = prob.frame_matrix(covs).xreplace(sub)
        if not (P * M - sympy.eye(d)).is_zero_matrix:
            return "phi . frame is not the identity at a point where f != 0"
        checked += 1
        if checked == 2:
            return None
    return "no point with f != 0 found"


def _is_power_maps(prob: Problem) -> bool:
    xs = [prob.syms[v] for v in prob.x_vars]
    return len(prob.covs) == len(xs) and all(
        _zero(c - x ** (k + 1)) for k, F in enumerate(prob.covs) for c, x in zip(F, xs))


def check_noname_build(prob, rng, code, out, err, cert: dict | None):
    indep = len(prob.covs) == prob.w_dim and prob.independent(prob.covs, rng)
    why = _exit_and_stderr(0 if indep else 1, code, err)
    if why or not indep:
        return why
    checks, result = _text_checks(out)
    if result != "ok" or not checks or any(s != "PASS" for s, _ in checks):
        return "build report is not all PASS"
    if cert is None:
        return "no certificate written"
    return check_certificate(prob, cert, rng)


def check_noname_verify(cert: dict, rng, code, out, err):
    """The certificate's own problem is rebuilt from its group, space and
    covariants; it is good when f is the determinant of that frame and phi
    inverts it."""
    prob = Problem({"group": cert["group"], "space": cert["space"],
                    "covariants": cert["covariants"]})
    f = prob.expr(cert["f"])
    frame = prob.frame_matrix(prob.covs)
    f_ok = _zero(f - frame.det(method="berkowitz"))
    phi_ok = _phi_inverts_frame(prob, cert["phi"], prob.covs, f, rng) is None
    good = f_ok and phi_ok
    why = _exit_and_stderr(0 if good else 1, code, err)
    if why:
        return why
    checks, result = _text_checks(out)
    if result != ("ok" if good else "FAILED"):
        return f"verification result {result!r} disagrees with the oracle"
    if not f_ok and ("FAIL", "f_equals_det_of_frame") not in checks:
        return "wrong f not caught by the determinant check"
    if not phi_ok and ("FAIL", "phi_times_frame_is_identity") not in checks:
        return "wrong phi not caught by the inverse check"
    return None


def check_example_list(presets: list[str], code, out, err):
    why = _exit_and_stderr(0, code, err)
    if why:
        return why
    listed = [ln.strip() for ln in out.splitlines()[1:] if ln.strip()]
    return None if listed == sorted(presets) else "preset listing differs from the shipped files"
