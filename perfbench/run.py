"""Seeded closed-loop benchmark of delpezzo.

    python3 perfbench/run.py --workload defect-build --seed 1 --seconds 20 --trace 0

Runs one workload (defect-build, defect-verify, proofs or quivers) in one
process and one thread, one job at a time, each job starting when the
previous one ends.  One untimed pass checks every job's output against
independent computations; timed passes then repeat the whole job list
until --seconds have passed and at least MIN_SAMPLES jobs have run, and
any output that differs from the one already checked is checked again.

The host's speed drifts by up to 2x over seconds to minutes, so a fixed
stdlib loop is timed every REF_EVERY_S, also in the middle of jobs
(HostClock), and every time is scaled by REF_NOMINAL_MS over the loop's
time around it: times read as wall time on a host where the loop takes
REF_NOMINAL_MS.  The unscaled figures are printed too.

With --trace 0 the end-to-end metrics are reported; with --trace 1 the
program's modules are wrapped (layers.py) and the per-layer metrics are
reported instead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Results and trace files go
to .perfbench-out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from layers import Tracer
from workloads import WORKLOADS, WrongAnswer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_SAMPLES = 100   # job_p90_ms needs at least ten samples above it
SETUP_PROBES = 7    # fresh processes timed for setup_s; the median is reported
REF_NOMINAL_MS = 1.0   # the reference loop's time that scaled times assume
REF_EVERY_S = 0.1      # wall time between two reference samples

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
                    "job_p90_ms": "ms", "peak_rss_mib": "MiB"}


def import_program():
    """Import delpezzo from this checkout's src/, and nowhere else."""
    package = SRC / "delpezzo"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no delpezzo sources at {package}")
    sys.path.insert(0, str(SRC))
    import delpezzo
    if Path(delpezzo.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported delpezzo from {delpezzo.__file__}")
    return delpezzo


def ref_loop_ms() -> float:
    """A fixed stdlib loop of Fraction arithmetic, the program's main cost.
    It moves with the host's speed and with nothing in the program."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(1, k)
    return 1000.0 * (time.perf_counter() - start)


class HostClock:
    """Reference samples (median of three loops), taken every REF_EVERY_S
    of wall time by a timer signal while jobs run, so long jobs are
    sampled in their middle too.  A sample's own time is taken out of the
    job it interrupted."""

    def __init__(self):
        self.begin: list[float] = []
        self.end: list[float] = []
        self.ms: list[float] = []

    def sample(self, *_signal) -> None:
        begin = time.perf_counter()
        self.ms.append(statistics.median(ref_loop_ms() for _ in range(3)))
        self.begin.append(begin)
        self.end.append(time.perf_counter())

    def __enter__(self):
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def scaled(self, start: float, stop: float) -> float:
        """Seconds from start to stop without the samples inside, times
        REF_NOMINAL_MS over the mean of those samples and of the nearest
        sample on either side."""
        lo = bisect.bisect_left(self.begin, start)
        hi = bisect.bisect_left(self.begin, stop)
        own = stop - start - sum(self.end[i] - self.begin[i] for i in range(lo, hi))
        around = self.ms[max(lo - 1, 0):hi + 1]
        return own * REF_NOMINAL_MS * len(around) / sum(around)


def probe_setup(args) -> float:
    """Median scaled wall time from spawning a fresh process to its report
    that delpezzo is imported and the workload's inputs are made."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    clock, times = HostClock(), []
    for _ in range(SETUP_PROBES):
        clock.sample()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            stop = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: setup probe failed with exit {code}")
        clock.sample()
        times.append(clock.scaled(start, stop))
    return statistics.median(times)


class Tally:
    """Attempted and failed operations; a wrong answer is a failure."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.verified: dict[str, object] = {}

    def judge(self, job, output, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"perfbench: {job.name} raised {error!r}", file=sys.stderr)
            return
        if job.name in self.verified and self.verified[job.name] == output:
            return
        try:
            job.check(output)
        except WrongAnswer as exc:
            self.failed += 1
            self.wrong += 1
            print(f"perfbench: wrong answer from {job.name}: {exc}", file=sys.stderr)
            return
        self.verified[job.name] = output


def run_job(job):
    """(start, seconds, output, error) of one call of the job."""
    start = time.perf_counter()
    try:
        output, error = job.run(), None
    except Exception as exc:   # a crash of the program is a failed operation
        output, error = None, exc
    return start, time.perf_counter() - start, output, error


def execute(jobs, seconds: float, tally: Tally, clock: HostClock,
            tracer=None) -> tuple[list[tuple[float, float]], float]:
    """One checked pass, then timed whole passes; returns the (start,
    stop) of every timed job and the wall time of the timed passes."""
    for job in jobs:
        _, _, output, error = run_job(job)
        tally.judge(job, output, error)
    if tracer is not None:
        tracer.install()
    runs: list[tuple[float, float]] = []
    begin = time.perf_counter()
    try:
        with clock:
            while True:
                for job in jobs:
                    start, elapsed, output, error = run_job(job)
                    runs.append((start, start + elapsed))
                    if tracer is not None:
                        tracer.end_job()
                    tally.judge(job, output, error)
                wall = time.perf_counter() - begin
                if wall >= seconds and len(runs) >= MIN_SAMPLES:
                    return runs, wall
    finally:
        if tracer is not None:
            tracer.uninstall()


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "bits" if name.endswith("_bits_max") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, make the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)

    import_program()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else probe_setup(args)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        clock, tally = HostClock(), Tally()
        runs, wall = execute(workload.jobs, args.seconds, tally, clock, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [clock.scaled(start, stop) for start, stop in runs]
    scales = [t / (stop - start) for t, (start, stop) in zip(times, runs)]
    scaled = sorted(times)
    if tracer is not None:
        values = dict(tracer.metrics(scales), **{"host.ref_ms": statistics.median(clock.ms)})
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": setup_s,
            "jobs_per_s": len(scaled) / sum(scaled),
            "job_p50_ms": 1000.0 * nearest_rank(scaled, 0.5),
            "job_p90_ms": 1000.0 * nearest_rank(scaled, 0.9),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    raw = sorted(stop - start for start, stop in runs)
    print(f"{'jobs/s scaled, unscaled':34s} {len(scaled) / sum(scaled):.4g}, "
          f"{len(raw) / sum(raw):.4g} 1/s")
    print(f"{'unscaled p50, p90':34s} {1000 * nearest_rank(raw, 0.5):.4g}, "
          f"{1000 * nearest_rank(raw, 0.9):.4g} ms")
    print(f"{'samples':34s} {len(runs)} jobs in {len(runs) // len(workload.jobs)} "
          f"passes of {len(workload.jobs)} over {wall:.1f} s")
    print(f"{'host.ref_ms first, median, last':34s} {clock.ms[0]:.4g}, "
          f"{statistics.median(clock.ms):.4g}, {clock.ms[-1]:.4g} ms")
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.kept,
             "jobs": len(tracer.job_times)}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
