"""Benchmark of smoothgen: exact- and float-lane rates, and constructions.

    python3 perfbench/run.py --workload exact-rates --seed 1 --seconds 35 --trace 0

Runs from one process and one thread against the sources under ``src/``
of the checkout this file sits in.  It repeats whole passes over the
workload's fixed job list until ``--seconds`` have gone by, checks every
output against ``reference.py``, and prints one JSON object as the last
line of standard output.  With ``--trace 0`` the metrics are the
end-to-end ones: ``setup_s`` (median of fresh interpreters that import
smoothgen and build the workload's inputs), ``wall_s`` (one pass, each
job at its median over the passes, scaled to the reference machine's
speed; see ``SpeedProbe``) and ``peak_rss_mb``.  With
``--trace 1`` every public smoothgen function
is wrapped in a span and the metrics are per layer, medians over
passes; the spans go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
# Mean seconds of one kernel run on the reference machine (2 vCPU Xeon,
# Python 3.11.7); wall_s is given at that speed.
KERNEL_REF_S = 0.008


def _import_smoothgen():
    pkg = SRC / "smoothgen"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no smoothgen sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import smoothgen

    if Path(smoothgen.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported smoothgen from {smoothgen.__file__}, not {pkg}")
    return smoothgen


def _setup_only(name: str, seed: int) -> int:
    _import_smoothgen()
    OUT.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workloads.build(name, seed, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 0


def _time_setup(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports smoothgen and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls every 50 ms and rounds the
    # measurement up to that grid.
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _kernel() -> float:
    """Fixed pure-Python work, timed between jobs to follow the machine's speed.

    One part for each kind of work the workloads do: Fraction sums over
    growing integers (exact lane), dict counting with float logarithms
    (constructions), lgamma and exp sums (float lane), and a sort of
    (float, big integer) pairs (level tables).
    """
    acc = Fraction(0)
    for i in range(1, 350):
        acc += Fraction(i, i * i + 7)
    counts: dict[int, int] = {}
    x = 0.0
    for i in range(8000):
        k = (i * 7919) % 257
        counts[k] = counts.get(k, 0) + 1
        x += math.log1p(k)
    x += math.fsum(math.exp(-math.lgamma(i + 1.5) / 1000) for i in range(6000))
    pairs = sorted(((i * 7919) % 10007 / 3.0, math.comb(300, i % 300)) for i in range(600))
    return acc.numerator.bit_length() + len(counts) + x + pairs[0][0]


class SpeedProbe:
    """Kernel times taken between jobs, and the machine's speed read from them.

    On the shared 2-vCPU host the benchmark was tuned on, speed shifts by
    up to 30% for seconds to minutes at a time, on the wall clock and the
    CPU clock alike, and from one millisecond to the next a kernel run
    takes anywhere from 1 to 2 times its fastest time.  A job's time divided by the mean kernel time within
    ``WINDOW_S`` of it is the job's cost in kernel units, which such
    shifts leave alone.  The mean, not the median, because a job that
    runs for many milliseconds pays the mean slowdown.
    """

    REPEAT = 2
    WINDOW_S = 3.0

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        # With the collector off, the kernel's time does not depend on how
        # many objects the jobs before it left alive.
        gc.disable()
        try:
            for _ in range(self.REPEAT):
                t0 = time.perf_counter()
                _kernel()
                t1 = time.perf_counter()
                self.at.append((t0 + t1) / 2)
                self.seconds.append(t1 - t0)
        finally:
            gc.enable()

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time from ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after ``end``."""
        lo = bisect.bisect_left(self.at, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, end + self.WINDOW_S)
        return statistics.fmean(self.seconds[lo:hi])


def _run_pass(jobs, probe: SpeedProbe, seen_errors: set) -> tuple[list[tuple[float, float]], int, list[str]]:
    """One pass over the job list: (start and end of each job, failed operations, problems).

    The kernel is sampled before the first job and after every job.
    """
    outputs: dict = {}
    spans: list[tuple[float, float]] = []
    failed = 0
    problems: list[str] = []
    probe.sample()
    for job in jobs:
        t0 = None
        try:
            prepared = job.prepare(outputs)
            t0 = time.perf_counter()
            result = job.call(prepared)
        except Exception as exc:  # a failed operation is counted, not fatal
            t1 = time.perf_counter()
            spans.append((t1 if t0 is None else t0, t1))
            probe.sample()
            failed += 1
            if job.name not in seen_errors:
                seen_errors.add(job.name)
                print(f"failed: {job.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        spans.append((t0, time.perf_counter()))
        probe.sample()
        outputs[job.name] = result
        try:
            found = job.check(result)
        except Exception as exc:  # an output the check cannot read is wrong
            found = [f"check raised {type(exc).__name__}: {exc}"]
        problems += [f"{job.name}: {p}" for p in found]
    return spans, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        return _setup_only(args.workload, args.seed)

    sg = _import_smoothgen()
    setup = [_time_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    reference.self_check()

    OUT.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = None
    passes: list[list[tuple[float, float]]] = []
    probe = SpeedProbe()
    attempted = failed = 0
    problems: list[str] = []
    try:
        jobs = workloads.build(args.workload, args.seed, out)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(sg)
        seen_errors: set = set()
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            gc.collect()
            if tracer:
                tracer.start_pass()
            spans, bad, found = _run_pass(jobs, probe, seen_errors)
            if tracer:
                tracer.end_pass()
            passes.append(spans)
            attempted += len(jobs)
            failed += bad
            problems += found
    finally:
        shutil.rmtree(out, ignore_errors=True)

    # One pass over the job list, each job at its median over the passes,
    # so that a slow moment of the machine moves one job, not the pass.
    # Each job is first taken in kernel units (see SpeedProbe) and then
    # scaled to seconds at the reference machine's speed.
    units = [[(b - a) / probe.kernel_s(a, b) for a, b in spans] for spans in passes]
    wall = KERNEL_REF_S * sum(statistics.median(job) for job in zip(*units))
    unscaled = sum(statistics.median(b - a for a, b in job) for job in zip(*passes))
    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, "
        f"pass seconds {[round(sum(b - a for a, b in p), 3) for p in passes]}, "
        f"unscaled wall {unscaled:.3f} s, kernel mean {statistics.fmean(probe.seconds):.5f} s, "
        f"setup {[round(x, 3) for x in setup]}",
        file=sys.stderr,
    )
    if tracer:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(str(spans_path), {"workload": args.workload, "seed": args.seed, "passes": len(passes)})
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
