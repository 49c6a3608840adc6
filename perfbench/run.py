"""minjump benchmark: design, verify and simulate workloads.

Run from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

--workload  design | verify | simulate, or `all` to run the three in turn
            and print the twelve per-case metrics by their full names
--seed      draws the run's inputs; the same seed gives the same inputs
--seconds   how long the closed loop of jobs runs
--trace     0: end-to-end metrics, untraced; 1: per-layer metrics from a
            traced run (single workload only)

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary.
The package is imported from src/ next to this directory; without it the
run exits with code 2 and prints no result.
"""

import bootstrap

bootstrap.pin_threads()

import argparse  # noqa: E402  (threads are pinned before anything loads numpy)
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

WORKLOAD_NAMES = ("design", "verify", "simulate")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time a fresh process's import and set-up, then exit
    p.add_argument("--setup-probe", choices=WORKLOAD_NAMES + ("all",),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all" and args.trace:
        p.error("--trace 1 needs a single workload")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        bootstrap.add_src_path()
        t0 = perf_counter()
        minjump = importlib.import_module("minjump")
        import_s = perf_counter() - t0
        bootstrap.check_loaded_from_src(minjump)
    except (bootstrap.SourceMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness

    if args.setup_probe:
        print(json.dumps({"import_s": import_s,
                          "setup_s": import_s + harness.time_setup(args.setup_probe)}))
        return 0
    return harness.main(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
