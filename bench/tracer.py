"""Span tracing around the public functions of each covar module.

The benchmark installs these wrappers inside a child process before it calls
``covar.cli.main``; no file of the library changes.  Every wrapped call
records one span (name, start, end, parent span).  Spans stay in memory in
flat arrays and are summarised when the child ends:

* ``<layer>.<fn>.calls``  -- number of calls;
* ``<layer>.<fn>.s``      -- inclusive time of the outermost calls only, so a
  recursive function is not counted twice;
* ``<layer>.<fn>.self_s`` -- span time minus the time of its direct child
  spans, summed over every call.

plus a few counts and sizes taken at the same boundaries (see ``EXTRAS``).
"""

from __future__ import annotations

import sys
import time
from array import array

# (metric stem, module, owner, attribute); owner None means a module-level
# function, otherwise a class in that module whose method is wrapped.
TARGETS = [
    ("exactalg.poly_mul", "exactalg", "Poly", "__mul__"),
    ("exactalg.poly_add", "exactalg", "Poly", "__add__"),
    ("exactalg.exact_div", "exactalg", "Poly", "exact_div"),
    ("exactalg.subs", "exactalg", "Poly", "subs"),
    ("exactalg.poly_gcd", "exactalg", None, "poly_gcd"),
    ("exactalg.det", "exactalg", "Matrix", "det"),
    ("exactalg.rank", "exactalg", "Matrix", "rank"),
    ("exactalg.adjugate", "exactalg", "Matrix", "adjugate"),
    ("exactalg.qmat_mul", "exactalg", None, "qmat_mul"),
    ("exactalg.parse", "exactalg", "Poly", "parse"),
    ("action.closure", "action", None, "make_finite_group"),
    ("action.act_cleared", "action", "SymbolicGroupAction", "act_cleared"),
    ("action.act_on_poly", "action", "FiniteGroupAction", "act_on_poly"),
    ("action.act_on_poly", "action", "SymbolicGroupAction", "act_on_poly"),
    ("action.x_substitution", "action", "FiniteGroupAction", "x_substitution"),
    ("covariant.verify_equivariance", "covariant", None, "verify_equivariance"),
    ("covariant.generic_independence", "covariant", None, "generic_independence"),
    ("covariant.det_relative_invariant", "covariant", None, "det_relative_invariant"),
    ("forge.example_family", "forge", None, "example_family"),
    ("forge.generate_covariants", "forge", None, "generate_covariants"),
    ("forge.reynolds_project", "forge", None, "reynolds_project"),
    ("forge.clear_denominators", "forge", None, "clear_denominators"),
    ("noname.build_isomorphism", "noname", None, "build_isomorphism"),
    ("noname.verify_isomorphism", "noname", None, "verify_isomorphism"),
    ("reflect.relation_over_function_field", "reflect", None, "relation_over_function_field"),
    ("reflect.relative_invariant_relation", "reflect", None, "relative_invariant_relation"),
    ("reflect.lower_relation", "reflect", None, "lower_relation"),
    ("reflect.find_reflections", "reflect", None, "find_reflections"),
    ("reflect.module_independence_verdict", "reflect", None, "module_independence_verdict"),
    ("cli.parse_problem", "cli", None, "parse_problem"),
    ("cli.load_certificate", "cli", None, "load_certificate"),
    ("cli.certificate_payload", "cli", None, "certificate_payload"),
    ("report.render_text", "report", "Report", "render_text"),
    ("report.to_dict", "report", "Report", "to_dict"),
]

STEMS = list(dict.fromkeys(t[0] for t in TARGETS))

# counts and sizes recorded at the wrapped boundaries: name -> (unit, better, how
# a pass combines the per-operation values)
EXTRAS = {
    "exactalg.poly_mul.terms": ("count", "lower", "sum"),
    "action.group_order": ("count", "lower", "max"),
    "covariant.verify_equivariance.recertified": ("count", "lower", "sum"),
    "covariant.verify_equivariance.useful_ratio": ("ratio", "higher", "ratio"),
    "forge.generate_covariants.seed_yield": ("ratio", "higher", "ratio"),
    "noname.f_terms": ("count", "lower", "max"),
    "noname.f_degree": ("count", "lower", "max"),
}

# ratio metrics are carried as (numerator, denominator) count pairs
RATIO_PARTS = {
    "covariant.verify_equivariance.useful_ratio": ("covariant.verify_equivariance.useful",
                                                   "covariant.verify_equivariance.calls"),
    "forge.generate_covariants.seed_yield": ("forge.generate_covariants.kept",
                                             "forge.generate_covariants.projected"),
}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for stem in STEMS:
        out += [(f"{stem}.calls", "count", "lower"), (f"{stem}.s", "s", "lower"),
                (f"{stem}.self_s", "s", "lower")]
    out += [(name, unit, better) for name, (unit, better, _) in EXTRAS.items()]
    return out


class Tracer:
    """Holds the spans of one process and the wrappers that record them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _id(self, stem: str) -> int:
        if stem not in self._name_ids:
            self._name_ids[stem] = len(self.names)
            self.names.append(stem)
        return self._name_ids[stem]

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def note_max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, stem: str, fn, before=None, after=None):
        nid = self._id(stem)
        stack, name_id, parent, start, end = (self._stack, self.name_id, self.parent,
                                              self.start, self.end)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", stem)
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; module-level functions are replaced in every
        covar module (and the package) that holds a reference to them, so
        callers that imported them by name are traced as well."""
        import covar
        import covar.cli  # noqa: F401  (loads every module the CLI uses)
        from covar import covariant, exactalg

        modules = {name: sys.modules[f"covar.{name}"]
                   for name in ("exactalg", "action", "covariant", "forge", "noname",
                                "reflect", "cli", "report")}
        holders = [covar] + list(modules.values())
        hooks = self._hooks(exactalg, covariant)
        for stem, mod_name, owner, attr in TARGETS:
            before, after = hooks.get(stem, (None, None))
            module = modules[mod_name]
            if owner is None:
                original = getattr(module, attr)
                wrapped = self.wrap(stem, original, before, after)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                continue
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(stem, raw.__func__, before, after)))
                continue
            wrapped = self.wrap(stem, raw, before, after)
            for key, value in list(cls.__dict__.items()):
                if value is raw:        # e.g. Poly.__rmul__ is Poly.__mul__
                    setattr(cls, key, wrapped)

    def _hooks(self, exactalg, covariant):
        Poly = exactalg.Poly
        certified = covariant.EQUIVARIANT

        def mul_after(args, result):
            if isinstance(result, Poly):
                self.bump("exactalg.poly_mul.terms", len(result.terms))

        def closure_after(args, result):
            self.note_max("action.group_order", result.order)

        def verify_before(args):
            if args and getattr(args[0], "status", None) == certified:
                self.bump("covariant.verify_equivariance.recertified")
            else:
                self.bump("covariant.verify_equivariance.useful")

        def reynolds_after(args, result):
            if any(s == "forge.generate_covariants" for s in self._open_names()):
                self.bump("forge.generate_covariants.projected")

        def generate_after(args, result):
            self.bump("forge.generate_covariants.kept", len(result))

        def build_after(args, result):
            f = result.f
            poly = f if isinstance(f, Poly) else f.num
            self.note_max("noname.f_terms", len(poly.terms))
            self.note_max("noname.f_degree", poly.total_degree())

        return {
            "exactalg.poly_mul": (None, mul_after),
            "action.closure": (None, closure_after),
            "covariant.verify_equivariance": (verify_before, None),
            "forge.reynolds_project": (None, reynolds_after),
            "forge.generate_covariants": (None, generate_after),
            "noname.build_isomorphism": (None, build_after),
        }

    def _open_names(self):
        return (self.names[self.name_id[i]] for i in self._stack)

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-stem calls, outermost inclusive time and self time, plus the
        extra counts.  Self time never exceeds inclusive time: self intervals
        of one stem are disjoint and lie inside its outermost spans."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_t = [0.0] * len(self.names)
        # spans are numbered in start order; an ancestor with the same stem
        # makes a span non-outermost
        outermost = [True] * n
        for i in range(n):
            nid = self.name_id[i]
            p = self.parent[i]
            while p >= 0:
                if self.name_id[p] == nid:
                    outermost[i] = False
                    break
                p = self.parent[p]
        for i in range(n):
            nid = self.name_id[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            self_t[nid] += dur - child_time[i]
            if outermost[i]:
                incl[nid] += dur
        out: dict[str, float] = {}
        for nid, stem in enumerate(self.names):
            out[f"{stem}.calls"] = calls[nid]
            out[f"{stem}.s"] = incl[nid]
            out[f"{stem}.self_s"] = self_t[nid]
        out.update(self.counts)
        return out

    def spans(self) -> dict:
        """All spans in column form: names, name index, parent, start, end."""
        return {"names": self.names, "name": self.name_id.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist()}
