"""`relation` and `module-verdict` agree with the benchmark's oracle.

bench/oracle.py recomputes every verdict with sympy, independently of covar;
bench/workloads.py names the problems the benchmark runs.  Both are loaded
read-only from their files, so the benchmark stays the judge of its own
runs and this test only reads the same answers earlier.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from test_cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ROOT / "src" / "covar" / "presets"
COMMANDS = ("relation", "module-verdict")


def _load(name):
    """The bench module ``name``, imported from its file under that name,
    which is how the workloads module imports the oracle."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


oracle = _load("oracle")
workloads = _load("workloads")
CHECKS = {"relation": oracle.check_relation, "module-verdict": oracle.check_module_verdict}

CASES = [(name, command) for name, commands in workloads.SWEEP.items()
         for command in commands if command in COMMANDS]
CASES += [("matrix_words_gl2", command) for command in COMMANDS]
CASES += [(f"s{n}_power_maps", command) for n in (4, 5) for command in COMMANDS]


def _problem(name: str, tmp_path) -> tuple[str, dict]:
    """The path the command reads and the raw problem the oracle reads."""
    if name.endswith("_power_maps"):
        n = int(name[1])
        raw = workloads.symmetric_group_problem(n, random.Random(0))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        return str(path), raw
    path = PRESETS / f"{name}.json"
    return str(path), json.loads(path.read_text())


@pytest.mark.parametrize("name,command", CASES, ids=[f"{c}-{n}" for n, c in CASES])
def test_command_agrees_with_the_bench_oracle(tmp_path, name, command):
    path, raw = _problem(name, tmp_path)
    code, out, err = run_cli([command, path, "--seed", "0", "--format", "machine"])
    why = CHECKS[command](oracle.Problem(raw), random.Random(f"0:{command} {name}"),
                          code, out, err)
    assert why is None
