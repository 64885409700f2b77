"""One benchmark operation, run in a fresh Python process.

    python3 bench/child.py --result FILE [--trace SPANS] -- <covar arguments>
    python3 bench/child.py --result FILE --setup PROBLEM...

The first form times ``covar.cli.main(<covar arguments>)`` inside this
process, so interpreter start-up and the import of covar are left out.  The
second form times the import of covar plus one ``cli.parse_problem`` on each
problem.  Calibration loops timed before, during and after the timed part
gauge how fast the machine runs meanwhile; the time the loops take during
it is taken out.  Either form writes a JSON result (exit code, seconds, the
mean calibration loop's seconds, peak resident set size and, with
``--trace``, the span summary) to FILE, and ``--trace`` also writes every
span, gzip-compressed, to SPANS.  The covar command itself writes to this
process's stdout and stderr.
"""

from __future__ import annotations

import gzip
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
# calibration loops timed just before and just after the timed part; during
# it, one more every SAMPLE_SECONDS
CAL_LOOPS = 8
SAMPLE_SECONDS = 0.1
_POLY = {(i % 6, i // 6): Fraction(i + 1, i % 7 + 2) for i in range(36)}


def peak_rss_kib() -> int | None:
    """VmHWM of this process: the peak resident set of its current image only
    (getrusage would also count the pre-exec image of the parent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def calibrate() -> float:
    """Seconds taken by one calibration loop: a fixed piece of the arithmetic
    covar spends its time on, the product of two sparse bivariate
    polynomials with Fraction coefficients kept as dicts from exponents."""
    t0 = time.perf_counter()
    prod: dict[tuple[int, int], Fraction] = {}
    for (a1, a2), ca in _POLY.items():
        for (b1, b2), cb in _POLY.items():
            key = (a1 + b1, a2 + b2)
            prod[key] = prod.get(key, 0) + ca * cb
    return time.perf_counter() - t0


class SpeedGauge:
    """Gauges how fast the machine runs while a part of this process is
    timed: CAL_LOOPS calibration loops just before and just after it and,
    when `sample` is set, one loop every SAMPLE_SECONDS during it, run from a
    timer signal.  `paused` is the time those loops took out of the timed
    part.  `after` returns the mean loop: the timed part runs through the
    same mix of fast and slow moments that the loops sample, so it is the
    mean, not the median, that its time follows."""

    def __init__(self, sample: bool):
        self.sample = sample
        self.loops: list[float] = []
        self.paused = 0.0

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.loops.append(calibrate())
        self.paused += time.perf_counter() - t0

    def before(self) -> None:
        self.loops += [calibrate() for _ in range(CAL_LOOPS)]
        if self.sample:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)

    def stop(self) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def after(self) -> float:
        self.loops += [calibrate() for _ in range(CAL_LOOPS)]
        return statistics.fmean(self.loops)


def _write(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    result_path = argv[argv.index("--result") + 1]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    if "--setup" in argv:
        problems = argv[argv.index("--setup") + 1:]
        gauge = SpeedGauge(sample=True)
        gauge.before()
        t0 = time.perf_counter()
        from covar import cli
        for path in problems:
            cli.parse_problem(path)
        gauge.stop()
        seconds = time.perf_counter() - t0 - gauge.paused
        _write(result_path, {"exit": 0, "seconds": seconds, "cal_s": gauge.after(),
                             "rss_kib": peak_rss_kib()})
        return 0

    covar_args = argv[argv.index("--") + 1:]
    from covar import cli
    tracer = None
    if "--trace" in argv:
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # timer ticks would land inside traced spans, so a traced run gauges
    # the speed only before and after the command
    gauge = SpeedGauge(sample=tracer is None)
    gauge.before()
    t0 = time.perf_counter()
    try:
        code = cli.main(covar_args)
    finally:
        gauge.stop()
        seconds = time.perf_counter() - t0 - gauge.paused
        sys.stdout.flush()
    payload = {"exit": code, "seconds": seconds, "cal_s": gauge.after(),
               "rss_kib": peak_rss_kib()
               or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        payload["layers"] = tracer.summary()
        with gzip.open(argv[argv.index("--trace") + 1], "wt", encoding="utf-8",
                       compresslevel=1) as fh:
            fh.write(json.dumps({"argv": covar_args, "spans": tracer.spans()}) + "\n")
    _write(result_path, payload)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
