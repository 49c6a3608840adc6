"""Write reference.json: the answer to every input a benchmark seed can pick.

    python3 perfbench/make_reference.py

Run it only on the baseline code whose answers the gate should hold later
changes to; the file it writes is committed with the benchmark.  Threads
are pinned as in run.py, so the answers match what a benchmark run gets.
"""

import bootstrap

bootstrap.pin_threads()
bootstrap.add_src_path()

import json  # noqa: E402
import platform  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    reference = {
        "made_with": {"python": platform.python_version(), "numpy": np.__version__,
                      **bootstrap.PINNED_ENV, "src_lines": bootstrap.src_line_count()},
    }
    for name, W in WORKLOADS.items():
        workload = W(seed=0)
        reference[name] = {key: workload.solve(key) for key in workload.all_keys()}
        print(f"{name}: {len(reference[name])} answers")
    with open(gate.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
