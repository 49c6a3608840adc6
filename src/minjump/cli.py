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
import json
import logging
import os
import sys
from importlib import resources

import numpy as np

from . import checks, sim, synth
from .errors import (
    CertificateError,
    ConfigError,
    DivergenceError,
    MinjumpError,
    ModelError,
    NumericError,
    RecoveryError,
)
from .model import (
    DwellRange,
    ImpulsiveSpec,
    ModeWeights,
    SwitchedSpec,
    augment_impulsive,
    augment_switched,
    validate_weights,
)
from .rules import MinJumpCertificate

log = logging.getLogger("minjump")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

_TOP_KEYS = {"description", "system", "dwell", "weights", "rule", "gains", "run", "reference"}
_SYSTEM_KEYS = {"type", "A", "B", "J", "updates"}
_DWELL_KEYS = {"t_min", "t_max"}
_WEIGHTS_KEYS = {"pi"}
_RULE_KEYS = {"P", "eps"}
_GAINS_KEYS = {"K"}
_RUN_KEYS = {
    "grid", "tol", "nodes", "delta", "seed", "steps", "substeps", "period",
    "kind", "x0", "u0", "initial_mode", "result",
}
_REFERENCE_KEYS = {"P", "Ptilde", "K", "worst_margin"}


def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    extra = sorted(set(block) - allowed)
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(extra)}")


def load_config(path):
    """Read and structurally validate a job config; values stay raw JSON."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    for name, keys in (
        ("system", _SYSTEM_KEYS),
        ("dwell", _DWELL_KEYS),
        ("weights", _WEIGHTS_KEYS),
        ("rule", _RULE_KEYS),
        ("gains", _GAINS_KEYS),
        ("run", _RUN_KEYS),
        ("reference", _REFERENCE_KEYS),
    ):
        if name in cfg:
            _check_keys(cfg[name], keys, name)
    return cfg


def _require(cfg, block, why):
    if block not in cfg:
        raise ConfigError(f"config needs a '{block}' block {why}")
    return cfg[block]


def build_spec(cfg):
    sysb = _require(cfg, "system", "to define the plant")
    kind = sysb.get("type")
    if kind not in ("impulsive", "switched"):
        raise ConfigError(f"system.type must be 'impulsive' or 'switched', got {kind!r}")
    if "A" not in sysb or "J" not in sysb:
        raise ConfigError("system block needs A and J")
    if kind == "impulsive":
        if "updates" in sysb:
            raise ConfigError("system.updates only applies to switched systems")
        return ImpulsiveSpec(A=sysb["A"], B=sysb.get("B"), J=sysb["J"])
    updates = sysb.get("updates")
    if updates is not None:
        updates = [tuple(row) for row in updates]
    return SwitchedSpec(A=sysb["A"], B=sysb.get("B"), J=sysb["J"], updates=updates)


def build_model(cfg, gains="config"):
    """Lift the configured plant.  gains: "config" | None | explicit value."""
    spec = build_spec(cfg)
    if gains == "config":
        gains = cfg.get("gains", {}).get("K")
    if isinstance(spec, ImpulsiveSpec):
        return augment_impulsive(spec, gains=gains)
    return augment_switched(spec, gains=gains)


def build_dwell(cfg):
    d = _require(cfg, "dwell", "to bound the sampling intervals")
    if "t_min" not in d or "t_max" not in d:
        raise ConfigError("dwell block needs t_min and t_max")
    return DwellRange(d["t_min"], d["t_max"])


def build_weights(cfg):
    w = _require(cfg, "weights", "to weigh the candidate modes")
    if "pi" not in w:
        raise ConfigError("weights block needs pi")
    weights = ModeWeights(w["pi"])
    diag = validate_weights(weights)
    if not diag:
        raise ConfigError(f"weight matrix rejected: {diag.message}")
    return weights


def build_cert(cfg, weights):
    rule = cfg.get("rule")
    if rule is None or "P" not in rule:
        raise ConfigError("config needs rule.P with one matrix per mode")
    try:
        return MinJumpCertificate(rule["P"], weights, eps=float(rule.get("eps", 0.0)))
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise CertificateError(f"rule matrices rejected: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):  # before int: Python bools are ints
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(payload, out=None):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_value(cfg, args, key, default=None):
    v = getattr(args, key, None)
    if v is not None:
        return v
    return cfg.get("run", {}).get(key, default)


def _num(value, what, conv=float):
    if value is None:
        return None
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def _vec(value, what):
    if value is None:
        return None
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a numeric vector: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args):
    cfg = load_config(args.config)
    model = build_model(cfg)
    dwell = build_dwell(cfg)
    cert = build_cert(cfg, build_weights(cfg))
    points = _num(_run_value(cfg, args, "grid", checks.DEFAULT_GRID_POINTS),
                  "run.grid", int)
    tol = _num(_run_value(cfg, args, "tol", checks.STRICT_TOL), "run.tol")
    report = checks.check(model, cert, dwell, grid=checks.DwellGrid.uniform(dwell, points),
                          strict_tol=tol)
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


def _closed_model(model, result):
    return model.with_gains(result.gains) if model.m > 0 else model


def _synth_payload(result, weights, model):
    out = {"status": result.status, "eps": float(result.eps)}
    if result.cert is not None:
        out["P"] = [Pi for Pi in result.cert.P]
        out["weights"] = weights.pi
        out["gains"] = _full_input_maps(_closed_model(model, result))
        out["report"] = result.report.to_dict() if result.report else None
    return out


def _load_scan(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scan file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scan file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"scan file {path} must hold a JSON list of weight matrices")
    candidates = []
    for k, pi in enumerate(raw):
        try:
            weights = ModeWeights(pi)
        except ConfigError as exc:
            raise ConfigError(f"scan candidate {k}: {exc}") from exc
        diag = validate_weights(weights)
        if not diag:
            raise ConfigError(f"scan candidate {k} rejected: {diag.message}")
        candidates.append(weights)
    return candidates


def cmd_synth(args):
    cfg = load_config(args.config)
    model = build_model(cfg)
    dwell = build_dwell(cfg)
    opts = synth.SynthesisOptions(
        clock_nodes=_num(_run_value(cfg, args, "nodes", 6), "run.nodes", int),
        delta_pd=_num(_run_value(cfg, args, "delta", 1e-6), "run.delta"),
    )
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
    try:
        with open(path) as fh:
            res = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read result file {path}: {exc}") from exc
    if res.get("status") != "success" or "P" not in res:
        raise ConfigError(f"result file {path} does not hold a successful design")
    gains = res.get("gains")
    if gains is not None and "system" in cfg:
        cfg = dict(cfg, system={k: v for k, v in cfg["system"].items() if k != "updates"})
    model = build_model(cfg, gains=gains)
    weights = ModeWeights(res["weights"])
    cert = MinJumpCertificate(res["P"], weights, eps=float(res.get("eps", 0.0)))
    return model, cert


def cmd_simulate(args):
    cfg = load_config(args.config)
    dwell = build_dwell(cfg)
    run = cfg.get("run", {})
    result_path = _run_value(cfg, args, "result")
    if result_path:
        model, cert = _load_result_design(cfg, result_path)
    else:
        model = build_model(cfg)
        cert = build_cert(cfg, build_weights(cfg))
    if "x0" not in run:
        raise ConfigError("run block needs x0 for simulation")
    x0 = _vec(run["x0"], "run.x0")
    u0 = _vec(run.get("u0"), "run.u0")
    seq = sim.gen_sequence(
        dwell, run.get("kind", "uniform_random"),
        count=_num(_run_value(cfg, args, "steps", 100), "run.steps", int),
        seed=_num(_run_value(cfg, args, "seed"), "run.seed", int),
        period=run.get("period"),
    )
    substeps = _num(_run_value(cfg, args, "substeps", 1), "run.substeps", int)
    initial_mode = _num(run.get("initial_mode", 0), "run.initial_mode", int)
    try:
        traj = sim.simulate(model, cert, seq, x0, u0=u0, initial_mode=initial_mode,
                            substeps=substeps)
    except DivergenceError as exc:
        _emit({"status": "diverged", "last_time": exc.last_time,
               "message": str(exc)})
        return EXIT_FAIL
    if args.out:
        sim.write_csv(traj, args.out)
    v = traj.lyapunov
    nz = v > 0
    summary = {
        "status": "completed",
        "samples": traj.samples,
        "final_time": float(traj.times[-1]),
        "final_state_norm": float(np.linalg.norm(traj.post_states[-1])),
        "value_first": float(v[0]),
        "value_last": float(v[-1]),
        "value_decay": float(v[0] / v[-1]) if v[-1] > 0 else None,
        "value_monotone": bool(np.all(np.diff(v[nz]) < 0)) if nz.any() else True,
        "mode_counts": np.bincount(traj.modes, minlength=model.modes),
    }
    _emit(summary)
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


def _reference_cert(cfg, weights):
    """Certificate from the fixture's reference block (direct or inverse form)."""
    ref = cfg.get("reference", {})
    if "P" in ref:
        return MinJumpCertificate(ref["P"], weights)
    if "Ptilde" in ref:
        P = [np.linalg.inv(np.asarray(Pt, dtype=float)) for Pt in ref["Ptilde"]]
        return MinJumpCertificate(P, weights)
    return None


def _reference_gains(cfg, fixed):
    """Merge published gain rows with the fixture's fixed rows (None slots)."""
    ref_k = cfg.get("reference", {}).get("K")
    if ref_k is None:
        return None
    if fixed is None:
        return ref_k
    merged = []
    it = iter(ref_k)
    for slot in fixed:
        merged.append(next(it) if slot is None else slot)
    return merged


def cmd_example(args):
    name = f"example{args.id}"
    cfg = _fixture(name)
    dwell = build_dwell(cfg)
    weights = build_weights(cfg)
    run = cfg.get("run", {})
    print(f"{name}: {cfg.get('description', '')}\n")
    failures = 0

    # leg 1: check the reference design on a dwell grid
    ref_cert = _reference_cert(cfg, weights) or (
        build_cert(cfg, weights) if "rule" in cfg else None)
    if ref_cert is not None:
        ref_model = build_model(cfg, gains=_reference_gains(cfg, cfg.get("gains", {}).get("K")))
        ref_report = checks.check(ref_model, ref_cert, dwell)
        _print_table("reference design", [
            ("check", "pass" if ref_report.passed else "FAIL"),
            ("worst margin", f"{ref_report.worst_margin:.6e}"),
            ("worst condition", ref_report.worst_condition),
        ])
        failures += not ref_report.passed

    # leg 2: synthesize from scratch and compare
    result = None
    free_model = build_model(cfg)
    needs_synth = free_model.m > 0 or "reference" in cfg
    if needs_synth:
        opts = synth.SynthesisOptions(clock_nodes=int(run.get("nodes", 6)))
        result = synth.synthesize(free_model, weights, dwell, opts)
        rows = [("status", result.status), ("margin variable", f"{result.eps:.6g}")]
        if result.success:
            rows.append(("post-check worst margin",
                         f"{result.report.worst_margin:.6e}"))
            ref_k = cfg.get("reference", {}).get("K")
            if ref_k is not None and free_model.kind == "switched":
                ref_k = [blk for row in ref_k for blk in row if blk is not None]
            fresh = _designed_rows(free_model, result.gains)
            for label, pub, new in _gain_pairs(ref_k, fresh):
                rows.append((f"{label} published", _fmt_matrix(pub)))
                rows.append((f"{label} synthesized", _fmt_matrix(new)))
        _print_table("fresh synthesis", rows)
        failures += not result.success

    # leg 3: simulate whichever design is available
    sim_design = None
    if result is not None and result.success:
        sim_design = (_closed_model(free_model, result), result.cert)
    elif ref_cert is not None:
        sim_design = (ref_model, ref_cert)
    if sim_design is not None and "x0" in run:
        model, cert = sim_design
        seq = sim.gen_sequence(dwell, run.get("kind", "uniform_random"),
                               count=int(run.get("steps", 100)),
                               seed=run.get("seed"), period=run.get("period"))
        try:
            traj = sim.simulate(model, cert, seq, run["x0"], u0=run.get("u0"))
        except DivergenceError as exc:
            _print_table("simulation", [("status", f"diverged at t = {exc.last_time}")])
            failures += 1
        else:
            v = traj.lyapunov
            decay = v[0] / v[-1] if v[-1] > 0 else float("inf")
            _print_table("simulation", [
                ("samples", str(traj.samples)),
                ("value decay", f"{decay:.3e}"),
                ("monotone decrease", str(bool(np.all(np.diff(v) < 0)))),
                ("final state norm",
                 f"{np.linalg.norm(traj.post_states[-1]):.3e}"),
            ])
            if args.out:
                sim.write_csv(traj, args.out)
                print(f"trajectory written to {args.out}")
    return EXIT_FAIL if failures else EXIT_PASS


def _designed_rows(model, gains):
    """Gain blocks the synthesis actually designed (skips fixed slots)."""
    if gains is None or model.m == 0:
        return []
    closed = model.with_gains(gains)
    return [closed.gain(*idx) for idx in model.gain_slots if model.gain(*idx) is None]


def _gain_pairs(reference, fresh):
    if not reference or not fresh or len(reference) != len(fresh):
        return []
    return [(f"gain {k + 1}", ref, new)
            for k, (ref, new) in enumerate(zip(reference, fresh))]


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
    p.add_argument("--delta", type=float, help="definiteness floor")
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
        return args.func(args)
    except (ConfigError, ModelError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (NumericError, RecoveryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MinjumpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
