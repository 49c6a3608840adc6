"""Closed-loop measurement, set-up probes, traced runs and the report.

Imported by run.py after the BLAS threads are pinned and src/ is on the
path.
"""

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

import bootstrap
import gate
import tracing
from workloads import WORKLOADS

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

# The speed of a shared host drifts: a kernel's time can double for
# seconds at a time and differ by 1.5x between runs minutes apart, which
# swamps run-to-run comparisons of raw wall times.  So a fixed calibration
# kernel of the same kind of work as the package (small LAPACK calls in
# Python loops over blocks, plus a 120x120 Cholesky) is timed between jobs,
# and each job's time is scaled by CAL_NOMINAL_S / (geometric mean of the
# kernel's times just before and just after the job).  A scaled time reads
# as seconds on the reference machine, a 2-CPU host on which the kernel
# takes 3.2 ms.  The summary prints raw wall times next to the scaled ones.
CAL_NOMINAL_S = 3.2e-3
CAL_REPS = 5
CAL_EVERY_S = 0.2
_cal_rng = np.random.default_rng(0)
_CAL_BLOCKS = _cal_rng.standard_normal((60, 4, 4))
_CAL_BLOCKS = _CAL_BLOCKS @ _CAL_BLOCKS.transpose(0, 2, 1) + 4.0 * np.eye(4)
_CAL_DENSE = _cal_rng.standard_normal((120, 120))
_CAL_DENSE = _CAL_DENSE @ _CAL_DENSE.T + 120.0 * np.eye(120)


def _cal_kernel():
    acc = 0.0
    for _ in range(3):
        L = np.linalg.cholesky(_CAL_DENSE)
        acc += float(np.linalg.solve(L, _CAL_DENSE[:, 0]).sum())
        for G in _CAL_BLOCKS:
            acc += float(np.linalg.solve(G, G[:, 0]).sum())
            acc += float(np.linalg.eigvalsh(G)[0])
    return acc


def calibrate():
    """Median seconds of the calibration kernel over CAL_REPS runs."""
    times = []
    for _ in range(CAL_REPS):
        t0 = perf_counter()
        _cal_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


# End-to-end metrics of a single-workload run.  The three case metrics
# follow the workload's CASES order; what one job is depends on the
# workload (see perfbench/README.md).
CASE_METRICS = ("ex1_job_s", "ex3_job_s", "aux_job_s")
END_TO_END = (("setup_s", "s"),) + tuple((m, "s") for m in CASE_METRICS) + (
    ("peak_rss_mb", "MB"),)

# The same cases under their full names, printed in the summary and by
# `--workload all`.  A rate is work items per second at the median job time.
NAMED = {
    "design": (("synth_ex1_s", "s"), ("synth_ex3_s", "s"), ("synth_infeasible_s", "s")),
    "verify": (("verify_ex1_s", "s"), ("verify_ex3_s", "s"),
               ("verify_random_points_per_s", "1/s")),
    "simulate": (("sim_ex1_samples_per_s", "1/s"), ("sim_ex3_samples_per_s", "1/s"),
                 ("sim_ex2_samples_per_s", "1/s")),
}


def time_setup(name):
    """Seconds for the program's set-up of a workload: config load and lift."""
    names = WORKLOADS if name == "all" else (name,)
    t0 = perf_counter()
    for n in names:
        WORKLOADS[n].setup()
    return perf_counter() - t0


def probe_setup(name):
    """Median set-up time of fresh processes, import included: (scaled, raw)."""
    raw, cal = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(bootstrap.ROOT / "perfbench" / "run.py"),
             "--setup-probe", name],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        raw.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
        cal.append(calibrate())
    scaled = [t * CAL_NOMINAL_S / math.sqrt(a * b) for t, a, b in zip(raw, cal, cal[1:])]
    return statistics.median(scaled), statistics.median(raw)


class Loop:
    """Runs passes of jobs one after another and gates every answer."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.gate = gate.Gate(workload.name, reference)
        self.jobs = []      # (case, raw seconds per key, index of the calibration before it)
        self.cal = []       # (perf_counter when taken, kernel seconds)
        self.points = {}
        self.attempted = 0
        self.failed = 0

    def _calibrate(self):
        seconds = calibrate()
        self.cal.append((perf_counter(), seconds))

    def run_pass(self):
        t_pass = perf_counter()
        for job in self.workload.next_pass():
            if not self.cal or perf_counter() - self.cal[-1][0] > CAL_EVERY_S:
                self._calibrate()
            self.attempted += 1
            t0 = perf_counter()
            try:
                answers = job.run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            dt = perf_counter() - t0
            problems = self.gate.check(answers)
            if problems:
                self.failed += 1
                print(f"perfbench: {job.case} failed the gate: " + "; ".join(problems[:3]),
                      file=sys.stderr)
            self.jobs.append((job.case, dt / len(job.keys), len(self.cal) - 1))
            self.points[job.case] = job.points / len(job.keys)
        return perf_counter() - t_pass

    def finish(self):
        """Calibrate once more, so that the last jobs have a time after them."""
        self._calibrate()

    def times(self, case, scaled=True):
        out = []
        for c, dt, i in self.jobs:
            if c == case:
                after = self.cal[min(i + 1, len(self.cal) - 1)][1]
                out.append(dt * CAL_NOMINAL_S / math.sqrt(self.cal[i][1] * after)
                           if scaled else dt)
        return out

    def median(self, case, scaled=True):
        times = self.times(case, scaled)
        return statistics.median(times) if times else float("nan")

    def named(self, scaled=True):
        out = {}
        for case, (name, unit) in zip(self.workload.CASES, NAMED[self.workload.name]):
            med = self.median(case, scaled)
            out[name] = (self.points.get(case, 0.0) / med if unit == "1/s" else med, unit)
        return out


def closed_loop(loop, seconds):
    """Whole passes until the next one would end past `seconds`."""
    start = perf_counter()
    while True:
        last = loop.run_pass()
        if perf_counter() - start + last > seconds:
            loop.finish()
            return


def traced_loop(loop, seconds):
    """Alternate untraced and traced passes; returns (tracer, both pass times)."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(loop.run_pass())
        tracer.install()
        try:
            traced.append(loop.run_pass())
        finally:
            tracer.uninstall()
        if perf_counter() - start + plain[-1] + traced[-1] > seconds:
            return tracer, plain, traced


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def context(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        **{k: os.environ.get(k) for k in bootstrap.PINNED_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": bootstrap.src_line_count(),
    }


def _tail(values):
    """Highest of p99/p90 with at least ten samples beyond it, or None."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None


def print_cases(loop):
    scaled, raw = loop.named(), loop.named(scaled=False)
    for case, (name, unit) in zip(loop.workload.CASES, NAMED[loop.workload.name]):
        times = loop.times(case, scaled=False)
        line = (f"# {name:<28} {scaled[name][0]:<12.6g} {unit:<4} "
                f"(raw {raw[name][0]:.6g}) median of {len(times)} jobs")
        tail = _tail(times)
        if tail:
            line += f", raw p{tail[0]} {tail[1]:.6g} s per job"
        print(line)
    cal = [c for _, c in loop.cal]
    print(f"# calibration kernel: median {statistics.median(cal) * 1e3:.4g} ms "
          f"over {len(cal)} probes, nominal {CAL_NOMINAL_S * 1e3:.4g} ms")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_untraced(args, names, reference):
    setup_s, setup_raw = probe_setup(args.workload)
    loops = []
    for name in names:
        loop = Loop(WORKLOADS[name](args.seed), reference)
        loop.workload.warmup()
        closed_loop(loop, args.seconds)
        loops.append(loop)
        print_cases(loop)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    metrics = {"setup_s": (setup_s, "s")}
    if len(loops) == 1:
        loop = loops[0]
        metrics.update((m, (loop.median(c), "s"))
                       for m, c in zip(CASE_METRICS, loop.workload.CASES))
    else:
        for lp in loops:
            metrics.update(lp.named())
        metrics["failed_frac"] = (failed / attempted, "1")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    print(f"# setup_s {setup_s:.6g} s (raw {setup_raw:.6g}) "
          f"median of {SETUP_PROBES} fresh processes")
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(f"# peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB")
    return failed == 0, attempted, failed, metrics


def run_traced(args, reference, import_s):
    W = WORKLOADS[args.workload]
    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        state = W.setup()
    finally:
        setup_tracer.uninstall()
    loop = Loop(W(args.seed, state), reference)
    loop.workload.warmup()
    tracer, plain, traced = traced_loop(loop, args.seconds)
    setup, run = setup_tracer.summary(), tracer.summary()
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = tracing.layer_metrics(setup, run, len(traced), import_s, overhead)
    for name, (value, unit) in metrics.items():
        print(f"# {name:<28} {value:<12.6g} {unit}")
    print(f"# {len(traced)} traced and {len(plain)} untraced passes; median pass "
          f"{statistics.median(plain):.6g} s untraced, {statistics.median(traced):.6g} s traced")
    problems = tracing.self_test(args.workload, setup, run)
    for p in problems:
        print(f"perfbench: trace self-test: {p}", file=sys.stderr)
    print(f"# trace self-test {'passed' if not problems else 'FAILED'}")
    correct = loop.failed == 0 and not problems
    return correct, loop.attempted, loop.failed, metrics


def main(args, import_s):
    print("# context: " + json.dumps(context(args)))
    reference = gate.load_reference()
    if args.trace:
        outcome = run_traced(args, reference, import_s)
    else:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        outcome = run_untraced(args, names, reference)
    print(result_line(*outcome))
    return 0
