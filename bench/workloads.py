"""The three benchmark workloads: their inputs, operations and oracles.

An operation is one CLI invocation ``covar <command> <problem> --seed S
[...]``.  Each workload lists its operations for one pass; the runner repeats
whole passes.  Every operation carries the oracle check that decides whether
its output is right (see oracle.py) and the wall-clock cap after which the
runner kills it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracle

# Any operation still running after this many seconds is killed and counted as
# failed.  No operation of this commit comes near it except the one below.
CAP_SECONDS = 60.0
# `independence matrix_words_gl3` re-verifies product-certified words and then
# runs a symbolic 9x9 rank in 18 variables, which does not finish in minutes.
# It fails at this cap until the command is fixed.  Family construction takes
# about 0.7 s of it and the exact witness point 0.01 s, so a fixed command
# passes with room to spare; the cap is spent in full on every pass until then.
GL3_INDEPENDENCE_CAP = 4.0

PRESET_DIR = os.path.join("src", "covar", "presets")

# Commands that apply to each preset of the sweep.  The others exit 2 by
# design: s3_permutation has no covariants, noname-build needs exactly dim W
# covariants, generate/clear/lower need a finite group, and lower needs the
# `relation` and `reflection` blocks only powers_s2_cubic carries.
SWEEP = {
    "vandermonde_s2": ["verify", "independence", "noname-build", "noname-verify",
                       "generate", "clear", "relation", "module-verdict"],
    "s3_permutation": ["generate"],
    "scalar_counterexample": ["verify", "independence", "relation", "module-verdict"],
    "projections_v3_m4": ["verify", "independence", "noname-build", "noname-verify",
                          "generate", "clear", "relation", "module-verdict"],
    "powers_s2_cubic": ["verify", "independence", "generate", "clear", "relation",
                        "lower", "module-verdict"],
    "rational_swap": ["verify", "independence", "generate", "clear", "relation",
                      "module-verdict"],
}


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    seconds: float          # scaled to the machine's full speed (run.CAL_REFERENCE_S)
    timed_out: bool
    rss_kib: int
    layers: dict = field(default_factory=dict)
    wall_seconds: float = 0.0   # as the clock read it


@dataclass
class Op:
    label: str
    command: str
    args: list[str]
    # returns None when the output is right, else the reason it is wrong
    check: Callable[[Result], str | None]
    cap: float = CAP_SECONDS
    prepare: Callable[[], None] | None = None
    # files whose contents the check reads, part of its cache key
    reads: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    problems: list[str]     # distinct problems, parsed once each by set-up
    ops: list[Op]


def _read_json(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class _Oracles:
    """Lazily built oracle problems, one per problem file."""

    def __init__(self, seed: int):
        self.seed = seed
        self._problems: dict[str, oracle.Problem] = {}

    def problem(self, path: str) -> oracle.Problem:
        if path not in self._problems:
            self._problems[path] = oracle.Problem(_read_json(path))
        return self._problems[path]

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{label}")


def _op_for(command: str, problem_arg: str, problem_path: str, seed: int,
            work: str, orc: _Oracles, tag: str, extra: list[str] | None = None,
            cap: float = CAP_SECONDS) -> Op:
    """One operation on a problem; noname-build writes work/<tag>.cert.json,
    which noname-verify with the same tag reads."""
    label = f"{command} {tag}"
    base = [problem_arg, "--seed", str(seed)] + (extra or [])
    prob = lambda: orc.problem(problem_path)  # noqa: E731
    simple = {
        "verify": oracle.check_verify,
        "independence": oracle.check_independence,
        "relation": oracle.check_relation,
        "lower": oracle.check_lower,
        "generate": oracle.check_generate,
        "clear": oracle.check_clear,
        "module-verdict": oracle.check_module_verdict,
    }
    machine = command not in ("verify",)
    if command in simple:
        fn = simple[command]
        args = [command] + base + (["--format", "machine"] if machine else [])
        return Op(label, command, args,
                  lambda r: fn(prob(), orc.rng(label), r.code, r.stdout, r.stderr), cap=cap)
    cert = os.path.join(work, f"{tag}.cert.json")
    if command == "noname-build":
        def check_build(r):
            return oracle.check_noname_build(prob(), orc.rng(label), r.code, r.stdout,
                                             r.stderr, _read_json(cert))
        return Op(label, command, [command] + base + ["--out", cert], check_build,
                  cap=cap, prepare=lambda: _remove(cert), reads=[cert])
    if command == "noname-verify":
        return _verify_op(label, cert, seed, orc)
    raise ValueError(f"no operation for command {command!r}")


def _verify_op(label: str, cert: str, seed: int, orc: _Oracles,
               prepare: Callable[[], None] | None = None) -> Op:
    def check(r):
        payload = _read_json(cert)
        if payload is None:
            return "certificate missing"
        return oracle.check_noname_verify(payload, orc.rng(label), r.code, r.stdout,
                                          r.stderr)
    return Op(label, "noname-verify", ["noname-verify", cert, "--seed", str(seed)],
              check, prepare=prepare, reads=[cert])


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


# ---------------------------------------------------------------------------
# gl_words
# ---------------------------------------------------------------------------


def gl_words(seed: int, work: str) -> Workload:
    orc = _Oracles(seed)
    gl2, gl3 = "matrix_words_gl2", "matrix_words_gl3"
    gl2_path = os.path.join(PRESET_DIR, f"{gl2}.json")
    gl3_path = os.path.join(PRESET_DIR, f"{gl3}.json")
    ops = [_op_for(cmd, gl2, gl2_path, seed, work, orc, gl2)
           for cmd in ("verify", "independence", "relation", "module-verdict",
                       "noname-build", "noname-verify")]
    ops.append(_op_for("verify", gl3, gl3_path, seed, work, orc, gl3))
    ops.append(_op_for("independence", gl3, gl3_path, seed, work, orc, gl3,
                       cap=GL3_INDEPENDENCE_CAP))
    return Workload("gl_words", [gl2, gl3], ops)


# ---------------------------------------------------------------------------
# perm_groups
# ---------------------------------------------------------------------------


def _perm_matrix(images: list[int]) -> list[list[str]]:
    """Matrix sending basis vector e_j to e_{images[j]}."""
    n = len(images)
    return [["1" if images[j] == i else "0" for j in range(n)] for i in range(n)]


def symmetric_group_problem(n: int, rng: random.Random) -> dict:
    """S_n permuting X = W = k^n with the power maps x^1..x^n.

    The generators are an n-cycle and an adjacent transposition, relabelled
    by a seeded permutation sigma (g -> sigma g sigma^-1), so each seed
    closes the same group in a different element order.
    """
    sigma = list(range(n))
    rng.shuffle(sigma)
    inv = [0] * n
    for i, s in enumerate(sigma):
        inv[s] = i

    def relabel(perm):
        return [sigma[perm[inv[i]]] for i in range(n)]

    cycle = relabel([(i + 1) % n for i in range(n)])
    swap = relabel([1, 0] + list(range(2, n)))
    x_vars = [f"x{i}" for i in range(1, n + 1)]
    return {
        "space": {"x_vars": x_vars, "w_vars": [f"w{i}" for i in range(1, n + 1)]},
        "group": {"type": "finite",
                  "generators": [{"x": _perm_matrix(g), "w": _perm_matrix(g)}
                                 for g in (cycle, swap)]},
        "covariants": [[x if k == 1 else f"{x}^{k}" for x in x_vars]
                       for k in range(1, n + 1)],
    }


def perm_groups(seed: int, work: str) -> Workload:
    orc = _Oracles(seed)
    rng = random.Random(seed)
    paths = {}
    for n in (4, 5):
        path = os.path.join(work, f"s{n}_power_maps.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(symmetric_group_problem(n, rng), fh, indent=2)
        paths[n] = path
    s4, s5 = paths[4], paths[5]
    ops = [_op_for(cmd, s4, s4, seed, work, orc, "s4_power_maps")
           for cmd in ("verify", "independence", "noname-build", "noname-verify", "relation")]
    ops.append(_op_for("generate", s4, s4, seed, work, orc, "s4_power_maps",
                       extra=["--degree-bound", "4"]))
    ops += [_op_for(cmd, s5, s5, seed, work, orc, "s5_power_maps")
            for cmd in ("verify", "independence")]
    return Workload("perm_groups", [s4, s5], ops)


# ---------------------------------------------------------------------------
# preset_sweep
# ---------------------------------------------------------------------------


def shipped_presets() -> list[str]:
    return sorted(f[:-5] for f in os.listdir(PRESET_DIR) if f.endswith(".json"))


def preset_sweep(seed: int, work: str) -> Workload:
    orc = _Oracles(seed)
    ops = [_op_for(cmd, name, os.path.join(PRESET_DIR, f"{name}.json"), seed, work, orc, name)
           for name, commands in SWEEP.items() for cmd in commands]
    presets = shipped_presets()
    ops.append(Op("example", "example", ["example"],
                  lambda r: oracle.check_example_list(presets, r.code, r.stdout, r.stderr)))
    good = os.path.join(work, "vandermonde_s2.cert.json")
    tampered = os.path.join(work, "vandermonde_s2.tampered.json")

    def tamper():
        # swap the rows of phi: phi . frame is no longer the identity
        cert = _read_json(good)
        _remove(tampered)
        if cert is not None:
            cert["phi"] = cert["phi"][::-1]
            with open(tampered, "w", encoding="utf-8") as fh:
                json.dump(cert, fh, indent=2)
    ops.append(_verify_op("noname-verify vandermonde_s2_tampered", tampered, seed, orc,
                          prepare=tamper))
    return Workload("preset_sweep", list(SWEEP), ops)


WORKLOADS = {"gl_words": gl_words, "perm_groups": perm_groups, "preset_sweep": preset_sweep}
