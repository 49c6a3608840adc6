#!/usr/bin/env python3
"""Check every benchmark pool answer against perfbench/reference.json.

A benchmark run draws a few inputs per seed from fixed pools; this script
solves every input of each pool (3 design, 98 verify, 96 simulate) once
and checks each answer with perfbench/gate.py, as a timed run would.  It
imports the package from src/ of this checkout, through perfbench's own
set-up, with the BLAS threads pinned as in a benchmark run.

Usage: python3 scripts/gate_pool.py [design|verify|simulate ...]   (default: all three)

Prints one line per workload and one per failing input.  Exits 1 when any
input fails (a wrong answer or an exception), 0 when all pass.
"""

import argparse
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bootstrap  # noqa: E402

bootstrap.pin_threads()  # before anything loads numpy
bootstrap.add_src_path()

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def failures(name):
    """Pool size and {key: problems} for every input whose answer fails."""
    workload, check = WORKLOADS[name](seed=0), gate.Gate(name)
    keys = workload.all_keys()
    found = {}
    for key in keys:
        try:
            problems = check.check({key: workload.solve(key)})
        except Exception as exc:  # a raising job fails, as in a timed run
            traceback.print_exc()
            problems = [f"{key}: {type(exc).__name__}: {exc}"]
        if problems:
            found[key] = problems
    return len(keys), found


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    # no `choices`: argparse checks an empty nargs="*" list against them
    p.add_argument("workloads", nargs="*", metavar="workload",
                   help="design, verify or simulate (default: all three)")
    names = p.parse_args(argv).workloads or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        p.error(f"unknown workload(s): {', '.join(unknown)}")
    failed = 0
    for name in names:
        count, found = failures(name)
        failed += len(found)
        print(f"{name}: {count} inputs, {len(found)} failed")
        for problems in found.values():
            print("\n".join(f"  FAIL {name} {problem}" for problem in problems))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
