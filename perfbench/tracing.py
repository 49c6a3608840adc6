"""Traced run: spans around the public functions of the package's modules.

The tracer replaces each public module-level function of the layers below
with a wrapper at every module attribute that refers to it.  That covers
both ways callers reach a function: through the module (`linalg.expm` in
checks, sim and sdp) and through a name bound at import
(`check_impulsive` and `inv_spd` in synth, `select_*` in sim).

A span records its name, start, end and parent span.  Spans stay in memory
until the run ends; self time is a span's duration minus the time its
direct children cover.  No file of the package changes: the wrappers
are module attributes set for a traced pass and restored after it.
"""

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "model", "rules", "checks", "linalg", "sdp", "synth", "sim")


def _solve_note(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {"unknowns": problem.scalar_count, "blocks": len(problem.blocks),
            "iterations": result.iterations,
            "non_optimal": int(result.status != "optimal")}


def _check_note(args, kwargs, result):
    return {"points": len(result.grid) * len(result.mode_margins)}


def _simulate_note(args, kwargs, result):
    return {"samples": result.samples}


NOTES = {
    "sdp.solve": _solve_note,
    "checks.check_impulsive": _check_note,
    "checks.check_switched": _check_note,
    "sim.simulate_impulsive": _simulate_note,
    "sim.simulate_switched": _simulate_note,
}


class Tracer:
    """Records spans while installed; `install` and `uninstall` may repeat."""

    def __init__(self, package="minjump"):
        self.package = package
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.notes = {}
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, notes, stack = self.parents, self.notes, self._stack
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                notes[idx] = {"error": type(exc).__name__}
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patches.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def summary(self):
        return Summary(self)


class Summary:
    """Per-function totals over every span a tracer recorded."""

    def __init__(self, tracer):
        names, parents = tracer.names, tracer.parents
        dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += dur[i]
        self.spans = len(dur)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)
        self.post_verify_s = 0.0
        for i, name in enumerate(names):
            self.calls[name] += 1
            self.seconds[name] += dur[i]
            self.self_seconds[name] += dur[i] - covered[i]
            p = parents[i]
            if name.startswith("checks.") and p >= 0 and names[p] == "synth.recover_design":
                self.post_verify_s += dur[i]
        for i, note in tracer.notes.items():
            for key, value in note.items():
                if key == "error":
                    self.errors[names[i]] += 1
                else:
                    self.counts[f"{names[i]}.{key}"] += value

    def total(self, table, names):
        return sum(table[n] for n in names)

    def layer_calls(self, layer):
        return sum(c for n, c in self.calls.items() if n.startswith(layer + "."))

    def layer_names(self, layer):
        return [n for n in self.calls if n.startswith(layer + ".")]


# Per-layer metrics, in the order they are printed.  Unless the unit says
# otherwise a value is per pass: one round of the workload's jobs.
LAYER_METRICS = (
    ("sdp.solve.s", "s"),
    ("sdp.iterations", "count"),
    ("sdp.ms_per_iteration", "ms"),
    ("sdp.residuals.s", "s"),
    ("sdp.unknowns", "count"),
    ("sdp.blocks", "count"),
    ("sdp.non_optimal", "count"),
    ("synth.assemble.s", "s"),
    ("synth.recover.self_s", "s"),
    ("synth.post_verify.s", "s"),
    ("checks.calls", "count"),
    ("checks.points", "count"),
    ("checks.self_us_per_point", "us"),
    ("linalg.sym_eig_max.calls", "count"),
    ("linalg.sym_eig_max.us", "us"),
    ("linalg.expm.calls", "count"),
    ("linalg.expm.us", "us"),
    ("linalg.inv_spd.calls", "count"),
    ("rules.select.calls", "count"),
    ("rules.select.us", "us"),
    ("sim.simulate.s", "s"),
    ("sim.self_us_per_sample", "us"),
    ("sim.gen_sequence.s", "s"),
    ("sim.diverged", "count"),
    ("cli.load_config.s", "s"),
    ("model.augment.s", "s"),
    ("import.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(setup, run, passes, import_s, overhead_s):
    """Per-layer metric values from the set-up summary and the traced passes."""
    calls, secs, own, cnt = run.calls, run.seconds, run.self_seconds, run.counts
    solve_s = secs["sdp.solve"]
    iterations = cnt["sdp.solve.iterations"]
    check_names = run.layer_names("checks")
    points = run.total(cnt, [f"{n}.points" for n in check_names])
    simulate = ("sim.simulate_impulsive", "sim.simulate_switched")
    samples = run.total(cnt, [f"{n}.samples" for n in simulate])
    select = ("rules.select_impulsive", "rules.select_switched")
    select_calls = run.total(calls, select)
    values = {
        "sdp.solve.s": solve_s / passes,
        "sdp.iterations": iterations / passes,
        "sdp.ms_per_iteration": _ratio(solve_s - secs["sdp.residuals"], iterations, 1e3),
        "sdp.residuals.s": secs["sdp.residuals"] / passes,
        "sdp.unknowns": cnt["sdp.solve.unknowns"] / passes,
        "sdp.blocks": cnt["sdp.solve.blocks"] / passes,
        "sdp.non_optimal": cnt["sdp.solve.non_optimal"] / passes,
        "synth.assemble.s": run.total(
            secs, ("synth.assemble_impulsive", "synth.assemble_switched")) / passes,
        "synth.recover.self_s": own["synth.recover_design"] / passes,
        "synth.post_verify.s": run.post_verify_s / passes,
        "checks.calls": run.total(calls, check_names) / passes,
        "checks.points": points / passes,
        "checks.self_us_per_point": _ratio(run.total(own, check_names), points, 1e6),
        "linalg.sym_eig_max.calls": calls["linalg.sym_eig_max"] / passes,
        "linalg.sym_eig_max.us": _ratio(secs["linalg.sym_eig_max"],
                                        calls["linalg.sym_eig_max"], 1e6),
        "linalg.expm.calls": calls["linalg.expm"] / passes,
        "linalg.expm.us": _ratio(secs["linalg.expm"], calls["linalg.expm"], 1e6),
        "linalg.inv_spd.calls": calls["linalg.inv_spd"] / passes,
        "rules.select.calls": select_calls / passes,
        "rules.select.us": _ratio(run.total(secs, select), select_calls, 1e6),
        "sim.simulate.s": run.total(secs, simulate) / passes,
        "sim.self_us_per_sample": _ratio(run.total(own, simulate), samples, 1e6),
        "sim.gen_sequence.s": secs["sim.gen_sequence"] / passes,
        "sim.diverged": run.total(run.errors, simulate) / passes,
        "cli.load_config.s": setup.seconds["cli.load_config"],
        "model.augment.s": setup.total(
            setup.seconds, ("model.augment_impulsive", "model.augment_switched")),
        "import.s": import_s,
        "trace.overhead_s": overhead_s,
        "trace.spans": run.spans / passes,
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}


# Which layers each workload must reach; every other layer must see no
# call.  Set-up (config load, model lift) counts towards every workload.
EXERCISED = {
    "design": {"cli", "model", "checks", "linalg", "sdp", "synth"},
    "verify": {"cli", "model", "checks", "linalg"},
    "simulate": {"cli", "model", "rules", "linalg", "sim"},
}
REQUIRED = {
    "design": ("linalg.expm", "linalg.sym_eig_max", "linalg.inv_spd"),
    "verify": ("linalg.expm", "linalg.sym_eig_max"),
    "simulate": ("linalg.expm", "sim.gen_sequence"),
}
FORBIDDEN = {"design": (), "verify": ("linalg.inv_spd",), "simulate": ("linalg.sym_eig_max",)}


def self_test(workload, setup, run):
    """Problems with the workload-to-layer mapping; empty when it holds."""
    def calls(name):
        return setup.calls[name] + run.calls[name]

    problems = []
    for layer in LAYERS:
        n = setup.layer_calls(layer) + run.layer_calls(layer)
        if layer in EXERCISED[workload] and n == 0:
            problems.append(f"layer {layer} saw no call")
        elif layer not in EXERCISED[workload] and n:
            problems.append(f"layer {layer} should be bypassed, saw {n} calls")
    problems += [f"{name} saw no call" for name in REQUIRED[workload] if calls(name) == 0]
    problems += [f"{name} should be bypassed, saw {calls(name)} calls"
                 for name in FORBIDDEN[workload] if calls(name)]
    return problems
