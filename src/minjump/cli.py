"""Command-line front end: verify, synth, simulate, example.

Jobs are described by a JSON config file; see README for the schema.  The
parser is strict: unknown keys anywhere in the document are rejected so a
typo cannot silently disable an option.  Exit codes: 0 the operation
succeeded (check passed, synthesis found a design, simulation completed),
1 a well-posed run answered "no" (check failed, problem infeasible,
trajectory diverged), 2 the input was unusable, 3 numerics broke down.

The MINJUMP_LOG environment variable (quiet | info | debug) sets the
verbosity of diagnostics on stderr; reports and results go to stdout or to
the file named by --out, byte-identical across repeat runs.
"""

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from importlib import resources

import numpy as np

from . import checks, sim  # synth: imported by the three functions that design
from .errors import (
    CertificateError,
    ConfigError,
    DivergenceError,
    MinjumpError,
    NumericError,
    RecoveryError,
)
from .model import (
    MAX_ENTRIES,
    DwellRange,
    ImpulsiveSpec,
    ModeWeights,
    SwitchedSpec,
    _num,
    _numeric,
    augment_impulsive,
    augment_switched,
)
from .rules import MinJumpCertificate

log = logging.getLogger("minjump")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

# Each block of the config: the keys a reader needs, then the keys it may
# also hold.  Any other key is refused, at the top level as in a block.
_SCHEMA = {
    "system": (("A", "J"), ("type", "B", "updates")),
    "dwell": (("t_min", "t_max"), ()),
    "weights": (("pi",), ()),
    "rule": (("P",), ("eps",)),
    "gains": ((), ("K",)),
    "run": ((), ("grid", "tol", "nodes", "seed", "steps", "substeps", "period",
                 "kind", "x0", "u0", "initial_mode", "result")),
    "reference": ((), ("P", "Ptilde", "K")),
}


def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    extra = sorted(set(block) - allowed)
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(extra)}")


def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path):
    """Read and structurally validate a job config; values stay raw JSON."""
    cfg = _read_json(path, "config")
    _check_keys(cfg, {"description", *_SCHEMA}, "config")
    for name, (needs, may) in _SCHEMA.items():
        if name in cfg:
            _check_keys(cfg[name], {*needs, *may}, name)
    return cfg


def _block(cfg, name, why):
    """cfg[name], once it holds every key the schema says a reader needs."""
    if name not in cfg:
        raise ConfigError(f"config needs a '{name}' block {why}")
    for key in _SCHEMA[name][0]:
        if key not in cfg[name]:
            raise ConfigError(f"config needs {name}.{key}")
    return cfg[name]


def build_model(cfg, gains="config"):
    """Lift the configured plant.  gains: "config" | None | explicit value."""
    sysb = _block(cfg, "system", "to define the plant")
    kind = sysb.get("type")
    if kind not in ("impulsive", "switched"):
        raise ConfigError(f"system.type must be 'impulsive' or 'switched', got {kind!r}")
    if gains == "config":
        gains = cfg.get("gains", {}).get("K")
    if kind == "switched":
        spec = SwitchedSpec(A=sysb["A"], B=sysb.get("B"), J=sysb["J"],
                            updates=sysb.get("updates"))
        return augment_switched(spec, gains=gains)
    if "updates" in sysb:
        raise ConfigError("system.updates only applies to switched systems")
    return augment_impulsive(ImpulsiveSpec(A=sysb["A"], B=sysb.get("B"), J=sysb["J"]),
                             gains=gains)


def build_dwell(cfg):
    d = _block(cfg, "dwell", "to bound the sampling intervals")
    return DwellRange(d["t_min"], d["t_max"])


def build_weights(cfg):
    return ModeWeights(_block(cfg, "weights", "to weigh the candidate modes")["pi"])


def build_cert(cfg, weights):
    rule = _block(cfg, "rule", "with one matrix P per mode")
    return MinJumpCertificate(rule["P"], weights, eps=rule.get("eps", 0.0))


def _plain(obj):
    """json.dumps hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError while writing path into a ConfigError that names it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n"
    if out:
        with _writing(out), open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_value(cfg, args, key, default=None, conv=None):
    """run.<key>, a flag of that name first, default when neither is given;
    a number as conv through _num."""
    v = getattr(args, key, None)
    if v is None:
        run = cfg.get("run", {})
        if key not in run:
            return default
        v = run[key]
    return v if conv is None else _num(v, f"run.{key}", conv)


# ---------------------------------------------------------------------------
# subcommands


def _report(cfg, args, model, cert, dwell):
    """Dwell-grid check at the run block's grid and tol, flags first."""
    points = _run_value(cfg, args, "grid", checks.DEFAULT_GRID_POINTS, int)
    tol = _run_value(cfg, args, "tol", checks.STRICT_TOL, float)
    return checks.check(model, cert, dwell, grid=checks.DwellGrid.uniform(dwell, points),
                        strict_tol=tol)


def cmd_verify(args):
    cfg = load_config(args.config)
    model = build_model(cfg)
    dwell = build_dwell(cfg)
    report = _report(cfg, args, model, build_cert(cfg, build_weights(cfg)), dwell)
    _emit(report.to_dict(), args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _full_input_maps(model):
    """Rows of each assembled jump map acting on the input channels.

    These merged rows (designed feedback plus any holds) fully determine the
    input update, so a result file built from them replays the same closed
    loop without the original gain layout.
    """
    if model.m == 0:
        return None
    return model.nest([model.jump(*idx)[model.n:, :] for idx in model.gain_slots])


def _synth_payload(result, weights, model):
    out = {"status": result.status, "eps": float(result.eps)}
    if result.cert is not None:
        out["P"] = result.cert.P
        out["weights"] = weights.pi
        out["gains"] = _full_input_maps(model.with_gains(result.gains))
        out["report"] = result.report.to_dict() if result.report else None
    return out


def _load_scan(path):
    raw = _read_json(path, "scan file")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"scan file {path} must hold a JSON list of weight matrices")
    candidates = []
    for k, pi in enumerate(raw):
        try:
            candidates.append(ModeWeights(pi))
        except ConfigError as exc:
            raise ConfigError(f"scan candidate {k}: {exc}") from exc
    return candidates


def _synth_options(cfg, args):
    from . import synth
    nodes = _run_value(cfg, args, "nodes", synth.SynthesisOptions.clock_nodes, int)
    return synth.SynthesisOptions(clock_nodes=nodes)


def cmd_synth(args):
    from . import synth
    cfg = load_config(args.config)
    model = build_model(cfg)
    dwell = build_dwell(cfg)
    opts = _synth_options(cfg, args)
    if args.pi_scan:
        candidates = _load_scan(args.pi_scan)
        result, best_pi, summary = synth.scan_weights(model, candidates, dwell, opts)
        for pi, status, eps in summary:
            log.info("candidate weights %s: %s (eps = %.6g)",
                     np.array_str(pi.pi, precision=4), status, eps)
        weights = best_pi
    else:
        weights = build_weights(cfg)
        result = synth.synthesize(model, weights, dwell, opts)
    _emit(_synth_payload(result, weights, model), args.out)
    if result.success:
        return EXIT_PASS
    if result.status in ("infeasible", "relaxation_gap"):
        return EXIT_FAIL
    return EXIT_NUMERIC


def _load_result_design(cfg, path):
    """Rebuild model + certificate from a synthesis result file.

    The stored gains are full input-update maps, so a switched plant is
    re-lifted with every channel treated as designed; the hold rows are
    already baked into those maps and the closed loop comes out identical.
    """
    res = _read_json(path, "result file")
    if not (isinstance(res, dict) and res.get("status") == "success"
            and {"P", "weights"} <= set(res)):
        raise ConfigError(f"result file {path} does not hold a successful design")
    gains = res.get("gains")
    if gains is not None and "system" in cfg:
        cfg = dict(cfg, system={k: v for k, v in cfg["system"].items() if k != "updates"})
    model = build_model(cfg, gains=gains)
    weights = ModeWeights(res["weights"])
    cert = MinJumpCertificate(res["P"], weights, eps=res.get("eps", 0.0))
    return model, cert


def _trajectory(cfg, args, model, cert, dwell):
    """Closed-loop run of the config's run block, flags first."""
    run = cfg.get("run", {})
    kind = run.get("kind", "uniform_random")
    for key in ("x0", "period") if kind == "periodic" else ("x0",):
        if key not in run:
            raise ConfigError(f"config needs run.{key}")
    steps = _run_value(cfg, args, "steps", 100, int)
    substeps = _run_value(cfg, args, "substeps", 1, int)
    if steps * substeps * model.dim > MAX_ENTRIES:  # the dense trajectory's entries
        raise ConfigError(f"run.steps x run.substeps = {steps} x {substeps} is out of range")
    seq = sim.gen_sequence(dwell, kind, count=steps,
                           seed=_run_value(cfg, args, "seed", conv=int),
                           period=_run_value(cfg, args, "period", conv=float))
    return sim.simulate(model, cert, seq, run["x0"], u0=run.get("u0"), substeps=substeps,
                        initial_mode=_run_value(cfg, args, "initial_mode", 0, int))


def _summary(traj, model):
    """Simulation summary; V is monotone when its normal values fall.

    A subnormal V has lost its precision: it repeats or rises by rounding."""
    v = traj.lyapunov
    nz = v >= np.finfo(float).tiny
    x = traj.post_states[-1]
    e = np.frexp(np.abs(x).max())[1]  # |x| = 2^e |x 2^-e|: sqrt(x'x) underflows below 1.5e-154
    return {
        "status": "completed",
        "samples": traj.samples,
        "final_time": float(traj.times[-1]),
        "final_state_norm": float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e)),
        "value_first": float(v[0]),
        "value_last": float(v[-1]),
        "value_decay": float(v[0] / v[-1]) if v[-1] > 0 else None,
        "value_monotone": bool(np.all(np.diff(v[nz]) < 0)) if nz.any() else True,
        "mode_counts": np.bincount(traj.modes, minlength=model.modes),
    }


def cmd_simulate(args):
    cfg = load_config(args.config)
    dwell = build_dwell(cfg)
    result_path = _run_value(cfg, args, "result")
    if result_path is not None and not (isinstance(result_path, str) and result_path):
        raise ConfigError(f"run.result must be a non-empty path string, got {result_path!r}")
    if result_path:
        model, cert = _load_result_design(cfg, result_path)
    else:
        model = build_model(cfg)
        cert = build_cert(cfg, build_weights(cfg))
    try:
        traj = _trajectory(cfg, args, model, cert, dwell)
    except DivergenceError as exc:
        _emit({"status": "diverged", "last_time": exc.last_time,
               "message": str(exc)})
        return EXIT_FAIL
    if args.out:
        with _writing(args.out):
            sim.write_csv(traj, args.out)
    _emit(_summary(traj, model))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# bundled examples


def _fixture(name):
    ref = resources.files("minjump.fixtures") / f"{name}.json"
    with resources.as_file(ref) as path:
        return load_config(str(path))


def _fmt_matrix(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return "; ".join(" ".join(f"{v: .4f}" for v in row) for row in M)


def _print_table(title, rows):
    width = max(len(r[0]) for r in rows)
    print(title)
    for label, value in rows:
        print(f"  {label:<{width}}  {value}")
    print()


def _reference_design(cfg, weights):
    """Published closed loop and certificate.

    The certificate is reference.P, the inverses of reference.Ptilde, or
    else the rule block, which build_cert asks for when there is none.
    reference.K fills the open gain slots in order, or is the whole gain
    table when the config fixes no gain.
    """
    ref = cfg.get("reference", {})
    if "P" in ref or "Ptilde" in ref:
        P = ref["P"] if "P" in ref else np.linalg.inv(
            _numeric(ref["Ptilde"], "reference.Ptilde", ("N", "d", "d"), CertificateError))
        cert = MinJumpCertificate(P, weights)
    else:
        cert = build_cert(cfg, weights)
    gains = fixed = cfg.get("gains", {}).get("K")
    if "K" in ref:
        published = iter(ref["K"])
        gains = ref["K"] if fixed is None else [
            next(published, None) if slot is None else slot for slot in fixed]
    return build_model(cfg, gains=gains), cert


def cmd_example(args):
    from . import synth
    name = f"example{args.id}"
    cfg = _fixture(name)
    dwell = build_dwell(cfg)
    weights = build_weights(cfg)
    print(f"{name}: {cfg.get('description', '')}\n")
    failures = 0

    # leg 1: verify the published design
    design = _reference_design(cfg, weights)
    ref_model = design[0]
    report = _report(cfg, args, *design, dwell)
    _print_table("reference design", [
        ("check", "pass" if report.passed else "FAIL"),
        ("worst margin", f"{report.worst_margin:.6e}"),
        ("worst condition", report.worst_condition),
    ])
    failures += not report.passed

    # leg 2: synthesize from scratch; set each open gain beside the published one
    model = build_model(cfg)
    if model.m > 0 or "reference" in cfg:
        result = synth.synthesize(model, weights, dwell, _synth_options(cfg, args))
        rows = [("status", result.status), ("margin variable", f"{result.eps:.6g}")]
        if result.success:
            rows.append(("post-check worst margin", f"{result.report.worst_margin:.6e}"))
            design = model.with_gains(result.gains), result.cert
            pairs = [(ref_model.gain(*idx), design[0].gain(*idx)) for idx in model.gain_slots
                     if model.gain(*idx) is None and ref_model.gain(*idx) is not None]
            for k, (pub, new) in enumerate(pairs, 1):
                rows.append((f"gain {k} published", _fmt_matrix(pub)))
                rows.append((f"gain {k} synthesized", _fmt_matrix(new)))
        _print_table("fresh synthesis", rows)
        failures += not result.success

    # leg 3: simulate the fresh design, else the published one
    try:
        traj = _trajectory(cfg, args, *design, dwell)
    except DivergenceError as exc:
        _print_table("simulation", [("status", f"diverged at t = {exc.last_time}")])
        failures += 1
    else:
        summary = _summary(traj, design[0])
        decay = summary["value_decay"]
        _print_table("simulation", [
            ("samples", str(summary["samples"])),
            ("value decay", f"{math.inf if decay is None else decay:.3e}"),
            ("monotone decrease", str(summary["value_monotone"])),
            ("final state norm", f"{summary['final_state_norm']:.3e}"),
        ])
        if args.out:
            with _writing(args.out):
                sim.write_csv(traj, args.out)
            print(f"trajectory written to {args.out}")
    return EXIT_FAIL if failures else EXIT_PASS


# ---------------------------------------------------------------------------
# entry point


def _setup_logging():
    raw = os.environ.get("MINJUMP_LOG", "quiet").strip().lower()
    if raw not in _LOG_LEVELS:
        raise ConfigError(
            f"MINJUMP_LOG must be one of quiet, info, debug; got {raw!r}")
    if not log.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
    log.setLevel(_LOG_LEVELS[raw])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minjump",
        description="verify, design and simulate min-jumping sampled-data rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a rule certificate on a dwell grid")
    p.add_argument("config")
    p.add_argument("--grid", type=int, help="dwell grid points")
    p.add_argument("--tol", type=float, help="strict margin tolerance")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="design rule matrices and feedback gains")
    p.add_argument("config")
    p.add_argument("--nodes", type=int, help="clock discretization nodes")
    p.add_argument("--pi-scan", help="JSON list of weight matrices to try")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run the closed loop on a sampling sequence")
    p.add_argument("config")
    p.add_argument("--seed", type=int, help="dwell sequence seed")
    p.add_argument("--steps", type=int, help="number of sampling intervals")
    p.add_argument("--substeps", type=int, help="dense output points per interval")
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("example", help="run a bundled example end to end")
    p.add_argument("id", type=int, choices=(1, 2, 3))
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None):
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at interpreter exit
        return code
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # exit flushes again
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except MinjumpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, (NumericError, RecoveryError)) else EXIT_CONFIG
    except MemoryError:
        print("error: not enough memory for the requested sizes", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
