"""Collect sets of benchmark runs and compare them.

    python3 bench/compare.py collect DIR [--seeds 1-10]
    python3 bench/compare.py report DIR [DIR_B]

``collect`` runs bench/run.py untraced, for run_seconds, once per workload
and seed from the root of the checkout and keeps each run's result line in
DIR/<workload>/seed<N>.json.
``report`` prints, per workload and metric, the median and quartiles of a set
and the spread (q3 - q1) / median.  Given a second set it prints the change
of the median and flags every end-to-end metric whose median got worse by
more than its bound in BENCHMARK.json, every spread wider than the bound, and
any difference in the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _config() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args) -> int:
    cfg = _config()
    names = [w["name"] for w in cfg["workloads"]]
    seconds = cfg["run_seconds"]
    status = 0
    for name in names:
        os.makedirs(os.path.join(args.dir, name), exist_ok=True)
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            base = os.path.join(args.dir, name, f"seed{seed}")
            with open(base + ".log", "w", encoding="utf-8") as fh:
                fh.write(proc.stdout + proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(base + ".json", "w", encoding="utf-8") as fh:
                fh.write(lines[-1] + "\n")
            summary_line = next((line for line in lines if " passes of " in line), "")
            print(f"{name} seed {seed}: {summary_line}")
    return status


def load(dir_: str) -> dict[str, list[dict]]:
    sets: dict[str, list[dict]] = {}
    for name in sorted(os.listdir(dir_)):
        sub = os.path.join(dir_, name)
        if not os.path.isdir(sub):
            continue
        runs = []
        for fname in sorted(os.listdir(sub)):
            if fname.endswith(".json"):
                with open(os.path.join(sub, fname), encoding="utf-8") as fh:
                    runs.append(json.load(fh))
        if runs:
            sets[name] = runs
    return sets


def summary(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def report(args) -> int:
    cfg = _config()
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    better = {m["name"]: m["better"] for m in cfg["end_to_end"] + cfg["per_layer"]}
    a = load(args.dir)
    b = load(args.dir_b) if args.dir_b else {}
    flagged = 0
    for name, runs in a.items():
        share_a = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"== {name}: {len(runs)} runs, failed share {share_a}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        if name in b:
            share_b = sorted({r["failed"] / r["attempted"] for r in b[name]})
            if share_a != share_b:
                print(f"   FLAG failed share differs: {share_a} vs {share_b}")
                flagged += 1
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            med, q1, q3 = summary(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            line = (f"   {metric:45s} {med:12.5g} {unit:6s} q1 {q1:.5g} q3 {q3:.5g} "
                    f"spread {spread:6.1%}")
            if bound is not None and spread > bound:
                line += f"  FLAG spread > bound {bound:.0%}"
                flagged += 1
            if name in b:
                vals_b = [r["metrics"][metric]["value"] for r in b[name]]
                med_b = summary(vals_b)[0]
                change = (med_b - med) / med if med else 0.0
                worse = change if better.get(metric) == "lower" else -change
                line += f" | B {med_b:.5g} ({change:+.1%})"
                if bound is not None and worse > bound:
                    line += f"  FLAG worse than bound {bound:.0%}"
                    flagged += 1
            print(line)
    print(f"{flagged} flag(s)")
    return 1 if flagged else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--seeds", default="1-10")
    r = sub.add_parser("report")
    r.add_argument("dir")
    r.add_argument("dir_b", nargs="?")
    args = ap.parse_args()
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
