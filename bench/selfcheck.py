"""Quick self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload once, briefly (two passes), from the root of the checkout,
with tracing off and then on.  Fails when any operation's output disagrees
with the oracle, when a run prints a metric that BENCHMARK.json does not
list (or misses one it lists), or when the only expected failure, the
capped `independence matrix_words_gl3`, is not the only failed operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# share of failed operations on this commit: the capped gl3 independence,
# one of the 8 operations of a gl_words pass
EXPECTED_FAILED_SHARE = {"gl_words": Fraction(1, 8)}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    problems = []
    for trace in (0, 1):
        want = {m["name"]: m["unit"] for m in cfg["per_layer" if trace else "end_to_end"]}
        for name in (w["name"] for w in cfg["workloads"]):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True)
            tag = f"{name} (trace {trace})"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if not result["correct"]:
                problems.append(f"{tag}: oracle mismatch: {proc.stderr.strip()}")
            expected = EXPECTED_FAILED_SHARE.get(name, Fraction(0))
            if Fraction(result["failed"], result["attempted"]) != expected:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed, "
                                f"expected a share of {expected}")
            print(f"{tag}: {result['attempted']} attempted, {result['failed']} failed, "
                  f"correct={result['correct']}")
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
