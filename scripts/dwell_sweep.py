#!/usr/bin/env python3
"""Map how the achievable margin degrades as the dwell range widens.

Keeps t_min from the config and sweeps t_max over a geometric range, running
the full co-design at each point.  The printed table shows where the design
stops being feasible, which is the practical robustness question for
aperiodic sampling.

Usage: python3 scripts/dwell_sweep.py CONFIG [--steps N] [--max-factor F] [--nodes M]

Exits like `minjump`: 2 on a config, model or certificate error, 3 on a
numeric or recovery error, each with a one-line message on stderr.
"""

import argparse
import sys

from minjump import DwellRange
from minjump.cli import (EXIT_CONFIG, EXIT_NUMERIC, _synth_options, build_dwell,
                         build_model, build_weights, load_config)
from minjump.errors import MinjumpError, NumericError, RecoveryError
from minjump.synth import synthesize


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--steps", type=int, default=6)
    parser.add_argument("--max-factor", type=float, default=4.0,
                        help="largest t_max as a multiple of the config value")
    parser.add_argument("--nodes", type=int,
                        help="clock nodes; default run.nodes from the config, else 6")
    args = parser.parse_args()
    try:
        sweep(args)
    except MinjumpError as exc:
        print(f"dwell_sweep: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, (NumericError, RecoveryError)) else EXIT_CONFIG
    return 0


def sweep(args):
    cfg = load_config(args.config)
    model = build_model(cfg)
    weights = build_weights(cfg)
    base = build_dwell(cfg)
    opts = _synth_options(cfg, args)

    print(f"{'t_max':>10} {'status':>16} {'margin':>12} {'post-check':>12}")
    for k in range(args.steps):
        factor = args.max_factor ** (k / max(1, args.steps - 1))
        t_max = base.t_max * factor
        result = synthesize(model, weights, DwellRange(base.t_min, t_max), opts)
        post = (f"{result.report.worst_margin:12.4e}"
                if result.report is not None else " " * 12)
        print(f"{t_max:10.4f} {result.status:>16} {result.eps:12.4e} {post}")


if __name__ == "__main__":
    sys.exit(main())
