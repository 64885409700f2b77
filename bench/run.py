"""covar benchmark: CLI command times on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a covar checkout.  Each operation is one
``covar <command> ...`` in a fresh Python process, one at a time (a closed
loop with one client); its time is measured inside that process around
``covar.cli.main`` and scaled to the machine's full speed (CAL_REFERENCE_S).
The run repeats whole rounds for about S seconds, and at least MIN_ROUNDS
times.  A round times set-up once (a fresh process importing covar and
parsing every distinct problem of the workload), then makes one pass over
the workload's operations and checks every output against the oracle.
`setup_s` is the median set-up over the rounds; each operation's time is its
median over the passes, and the other metrics sum those medians.  The
metrics are printed as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
operation runs under the span tracer (tracer.py), set-up is not timed, and
the metrics are the per-layer ones.  The traced run writes the spans of its
last pass to bench/out/spans-<workload>-seed<N>.json.gz when it ends.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 2
# per-command sums reported as end-to-end metrics
COMMAND_METRICS = {"verify": "verify_s", "independence": "independence_s",
                   "noname-build": "noname_build_s", "noname-verify": "noname_verify_s"}
# Seconds that one child.calibrate loop takes at full speed: the fastest
# loops seen on the 2-CPU machine of the reference figures in README.md.
# That machine's speed swings by up to a factor of two over seconds to
# minutes (other tenants share its cores), so every time the runner reports
# is a measured time scaled by CAL_REFERENCE_S over the mean calibration loop
# timed in the same process around and during it: the time the command would
# take at full speed.
CAL_REFERENCE_S = 0.0037
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "verify_s": "s", "independence_s": "s",
                    "noname_build_s": "s", "noname_verify_s": "s", "peak_rss_mb": "MiB"}


def run_child(argv: list[str], cap: float, work: str) -> workloads.Result:
    """Run bench/child.py with a wall-clock cap and collect its result."""
    result_path = os.path.join(work, "child-result.json")
    out_path = os.path.join(work, "child-stdout.txt")
    err_path = os.path.join(work, "child-stderr.txt")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path] + argv
    with open(out_path, "w+", encoding="utf-8") as out, \
            open(err_path, "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timed_out = False
        try:
            proc.wait(timeout=cap)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if timed_out:
        # a capped process is cut off wherever the cap finds it, so its size
        # says nothing about the command: it enters the peak as 0
        return workloads.Result(-9, stdout, stderr, cap, True, 0, {}, cap)
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        # the command died before the child could record it (a traceback)
        return workloads.Result(proc.returncode, stdout, stderr, 0.0, False, 0)
    scale = CAL_REFERENCE_S / res["cal_s"]
    layers = {key: value * scale if key.endswith((".s", ".self_s")) else value
              for key, value in res.get("layers", {}).items()}
    return workloads.Result(proc.returncode, stdout, stderr, res["seconds"] * scale, False,
                            res["rss_kib"], layers, res["seconds"])


class Checker:
    """Applies each operation's oracle, caching verdicts by exact output:
    a pass that prints the same bytes as an earlier pass gets the same
    verdict without recomputing it."""

    def __init__(self):
        self._cache: dict[tuple, str | None] = {}

    def __call__(self, op: workloads.Op, res: workloads.Result) -> str | None:
        if res.timed_out:
            return None
        files = []
        for path in op.reads:
            try:
                with open(path, encoding="utf-8") as fh:
                    files.append(fh.read())
            except OSError:
                files.append(None)
        key = (op.label, res.code, res.stdout, res.stderr, tuple(files))
        if key not in self._cache:
            try:
                self._cache[key] = op.check(res)
            except Exception as exc:  # a malformed output is a wrong output
                self._cache[key] = f"output could not be checked: {exc!r}"
        return self._cache[key]


def run_pass(wl: workloads.Workload, work: str, trace: bool, check: Checker) -> list:
    """One pass over the workload's operations; a traced pass leaves each
    operation's spans in work/spans-<k>.json.gz."""
    results = []
    for k, op in enumerate(wl.ops):
        if op.prepare is not None:
            op.prepare()
        spans = os.path.join(work, f"spans-{k}.json.gz")
        argv = (["--trace", spans] if trace else []) + ["--"] + op.args
        res = run_child(argv, op.cap, work)
        wrong = check(op, res)
        if wrong:
            print(f"WRONG  {op.label}: {wrong}", file=sys.stderr)
        elif res.timed_out:
            print(f"CAPPED {op.label}: killed after {op.cap:g} s", file=sys.stderr)
        results.append((op, res, wrong))
    return results


def time_setup(wl: workloads.Workload, work: str) -> float:
    """One set-up in a fresh process: import covar, parse every problem."""
    res = run_child(["--setup"] + wl.problems, workloads.CAP_SECONDS, work)
    if res.code != 0 or res.timed_out:
        sys.exit(f"bench: set-up failed (exit {res.code}): {res.stderr[-500:]}")
    return res.seconds


def end_to_end(passes: list[list], setup: list[float]) -> dict:
    """Each operation's time is its median over the run's passes; a pass's
    time is the sum of those medians (per command for the command sums)."""
    out = {"setup_s": statistics.median(setup), "pass_s": 0.0}
    out.update({name: 0.0 for name in COMMAND_METRICS.values()})
    for i, (op, _res, _wrong) in enumerate(passes[0]):
        seconds = statistics.median(p[i][1].seconds for p in passes)
        out["pass_s"] += seconds
        if op.command in COMMAND_METRICS:
            out[COMMAND_METRICS[op.command]] += seconds
    out["peak_rss_mb"] = statistics.median(
        max(res.rss_kib for _op, res, _wrong in p) for p in passes) / 1024.0
    return {name: {"value": out[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(passes: list[list]) -> dict:
    specs = tracer.layer_metric_specs()
    per_pass = []
    for p in passes:
        totals: dict[str, float] = {}
        for _op, res, _wrong in p:
            for key, value in res.layers.items():
                how = tracer.EXTRAS.get(key, ("", "", "sum"))[2]
                totals[key] = max(totals.get(key, 0), value) if how == "max" \
                    else totals.get(key, 0) + value
        for name, (num, den) in tracer.RATIO_PARTS.items():
            totals[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        for stem in tracer.STEMS:
            if totals.get(f"{stem}.self_s", 0.0) > totals.get(f"{stem}.s", 0.0) + 1e-9:
                raise AssertionError(f"{stem}: self time exceeds inclusive time")
        per_pass.append(totals)
    return {name: {"value": statistics.median(t.get(name, 0) for t in per_pass),
                   "unit": unit} for name, unit, _better in specs}


def write_spans(path: str, work: str, count: int) -> None:
    """Concatenate the last pass's per-operation span files (gzip members)
    into one gzip file of JSON lines, one line per operation."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as out:
        for k in range(count):
            part = os.path.join(work, f"spans-{k}.json.gz")
            if os.path.exists(part):
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out)


def prepare_checkout(root: str) -> None:
    """Fail fast outside a covar checkout, then byte-compile the sources so
    no timed process pays for compilation."""
    if not os.path.isfile(os.path.join(root, "src", "covar", "cli.py")):
        sys.exit("bench: src/covar not found; run from the root of a covar checkout")
    if not compileall.compile_dir(os.path.join(root, "src", "covar"), quiet=1):
        sys.exit("bench: src/covar does not compile")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    prepare_checkout(root)
    # stop the running operation too when the run itself is terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.relpath(os.path.join(HERE, ".work",
                                        f"{args.workload}-{args.seed}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        check = Checker()
        setup, passes = [], []
        start = now = time.perf_counter()
        last_round = 0.0
        # whole rounds only, so `failed` is always the same share of
        # `attempted`; at least MIN_ROUNDS, so every median has two samples,
        # and more only while the next is expected to end within the run,
        # judged by the round before it
        while len(passes) < MIN_ROUNDS or now - start + last_round <= args.seconds:
            if not args.trace:
                setup.append(time_setup(wl, work))
            passes.append(run_pass(wl, work, bool(args.trace), check))
            last_round, now = time.perf_counter() - now, time.perf_counter()
        if args.trace:
            write_spans(os.path.join(HERE, "out",
                                     f"spans-{args.workload}-seed{args.seed}.json.gz"),
                        work, len(wl.ops))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for _op, res, wrong in p if wrong or res.timed_out)
    correct = not any(wrong for p in passes for _op, _res, wrong in p)
    pass_s = [sum(res.seconds for _op, res, _w in p) for p in passes]
    wall_s = [sum(res.wall_seconds for _op, res, _w in p) for p in passes]
    for i, (op, _res, _wrong) in enumerate(passes[0]):
        samples = [p[i][1].seconds for p in passes]
        wall = [p[i][1].wall_seconds for p in passes]
        print(f"  {op.label:50s} median {statistics.median(samples):9.4f} s  "
              f"samples {' '.join(f'{t:.4f}' for t in samples)}  "
              f"wall {' '.join(f'{t:.4f}' for t in wall)}")
    print(f"{args.workload}: {len(passes)} passes of {len(wl.ops)} operations, "
          f"{attempted} attempted, {failed} failed, pass_s median "
          f"{statistics.median(pass_s):.4f} s (wall {statistics.median(wall_s):.4f} s)"
          f"{' (traced)' if args.trace else ''}")
    if setup:
        print(f"setup_s samples {' '.join(f'{t:.4f}' for t in setup)}")
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setup)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
