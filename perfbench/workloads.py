"""The benchmark workloads: design, verify and simulate.

Each workload has three cases, timed separately, and is used in three steps:

- `setup()` is the program work a user pays before the first job: config
  load and model lift from the bundled fixtures.  It is timed as setup_s.
- the constructor draws the run's inputs from the seed.  That is benchmark
  work and never timed.  Seeded inputs come from a fixed pool, so that
  reference.json can hold the answer for every input a seed can pick.
- `next_pass()` returns the jobs of one closed-loop round.  A job calls
  the program and returns {reference key: answer}; gate.py checks each
  answer against reference.json.

The program is reached only through module attributes (`synth.synthesize`,
not a name bound here), so the traced run sees every call.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from minjump import checks, cli, sim, synth
from minjump import model as mjmodel
from minjump.rules import MinJumpCertificate

import bootstrap

FIXTURES = bootstrap.PACKAGE / "fixtures"


@dataclass(frozen=True)
class Job:
    """One timed call into the program.

    keys name the answers the job returns; the job's time is split evenly
    over them.  points counts the work items covered: theta-mode
    evaluations for a grid check, samples for a simulation.
    """

    case: str
    keys: tuple
    points: int
    run: Callable


def load_fixture(name):
    return cli.load_config(str(FIXTURES / f"{name}.json"))


def reference_design(cfg, weights):
    """Closed model and certificate of a fixture's published design."""
    ref = cfg["reference"]
    if "P" in ref:
        P = ref["P"]
    else:
        P = [np.linalg.inv(np.asarray(Pt, dtype=float)) for Pt in ref["Ptilde"]]
    fixed = cfg.get("gains", {}).get("K")
    gains = ref["K"]
    if fixed is not None:
        published = iter(gains)
        gains = [next(published) if slot is None else slot for slot in fixed]
    return cli.build_model(cfg, gains=gains), MinJumpCertificate(P, weights)


def random_contractive_impulsive(rng, n, modes, drift_scale=0.005):
    """Input-free impulsive loop with a certificate that passes widely.

    Same draws as the test suite's recipe, with the state dimension and
    mode count given instead of drawn, so that every seed gets the same mix
    of sizes and the run time does not depend on the seed.
    """
    A = rng.uniform(-drift_scale, drift_scale, (n, n))
    J = []
    for _ in range(modes):
        M = rng.uniform(-1.0, 1.0, (n, n))
        J.append(0.8 * M / max(1.0, np.linalg.norm(M, 2)))
    pi = rng.uniform(0.1, 1.0, (modes, modes))
    pi /= pi.sum(axis=0, keepdims=True)
    P = []
    for _ in range(modes):
        W = rng.uniform(-1.0, 1.0, (n, n))
        P.append(np.eye(n) + 0.1 * (W + W.T) / 2.0)
    model = mjmodel.augment_impulsive(mjmodel.ImpulsiveSpec(A, J=J))
    return model, MinJumpCertificate(P, mjmodel.ModeWeights(pi))


def _check(model):
    return checks.check_impulsive if model.kind == "impulsive" else checks.check_switched


class Design:
    """synth.synthesize on ex1, ex3 and the unstabilizable fixture."""

    name = "design"
    CASES = ("ex1", "ex3", "infeasible")
    FIXTURE = {"ex1": "example1", "ex3": "example3", "infeasible": "unstabilizable"}
    # the shorter jobs run twice a pass, so that each case's median rests on
    # enough samples within one run
    PASS = ("ex1", "ex1", "ex3", "infeasible", "infeasible")

    @classmethod
    def setup(cls):
        problems = {}
        for case in cls.CASES:
            cfg = load_fixture(cls.FIXTURE[case])
            nodes = int(cfg.get("run", {}).get("nodes", 6))
            problems[case] = (cli.build_model(cfg), cli.build_weights(cfg),
                              cli.build_dwell(cfg),
                              synth.SynthesisOptions(clock_nodes=nodes))
        return problems

    def __init__(self, seed, state=None):
        self.problems = state if state is not None else self.setup()
        self.rng = np.random.default_rng(seed)

    def all_keys(self):
        return list(self.CASES)

    def solve(self, key):
        model, weights, dwell, opts = self.problems[key]
        result = synth.synthesize(model, weights, dwell, opts)
        return {
            "status": result.status,
            "eps": float(result.eps),
            "iterations": int(result.solution.iterations),
            "passed": None if result.report is None else bool(result.report.passed),
        }

    def warmup(self):
        self.solve("infeasible")

    def next_pass(self):
        order = [self.PASS[i] for i in self.rng.permutation(len(self.PASS))]
        return [Job(case, (case,), 1, lambda case=case: {case: self.solve(case)})
                for case in order]


class Verify:
    """Dwell-grid checks of reference certificates and of random systems."""

    name = "verify"
    CASES = ("ex1", "ex3", "random")
    FIXTURE = {"ex1": "example1", "ex3": "example3"}
    # every case runs twice a pass, for as many samples as fit a run
    PASS = ("ex1", "ex1", "ex3", "ex3", "random", "random")
    GRID = 1000
    RANDOM_GRID = 40
    RANDOM_DIMS = (1, 2, 3, 4, 5, 6)
    RANDOM_MODES = 2
    PER_DIM = 8
    POOL = 16
    STREAM = 20170305

    @classmethod
    def setup(cls):
        designs = {}
        for case, fixture in cls.FIXTURE.items():
            cfg = load_fixture(fixture)
            dwell = cli.build_dwell(cfg)
            model, cert = reference_design(cfg, cli.build_weights(cfg))
            designs[case] = (model, cert, dwell, checks.DwellGrid.uniform(dwell, cls.GRID))
        return designs

    def __init__(self, seed, state=None):
        self.designs = state if state is not None else self.setup()
        self.rng = np.random.default_rng(seed)
        # the check's cost varies by about 20 % between systems of one size, so
        # each size takes half its pool: the batch costs nearly the same for
        # every seed
        self.batch = tuple(f"d{n}/{int(i)}" for n in self.RANDOM_DIMS
                           for i in sorted(self.rng.choice(self.POOL, self.PER_DIM,
                                                           replace=False)))
        for key in self.batch:
            self._design(key)

    def _design(self, key):
        """Model, certificate, dwell and grid of a key; random systems are made on first use."""
        if key not in self.designs:
            n, idx = (int(s) for s in key[1:].split("/"))
            rng = np.random.default_rng([self.STREAM, n, idx])
            model, cert = random_contractive_impulsive(rng, n, self.RANDOM_MODES)
            dwell = mjmodel.DwellRange(0.01, 0.05)
            self.designs[key] = (model, cert, dwell,
                                 checks.DwellGrid.uniform(dwell, self.RANDOM_GRID))
        return self.designs[key]

    def all_keys(self):
        return list(self.FIXTURE) + [f"d{n}/{i}" for n in self.RANDOM_DIMS
                                     for i in range(self.POOL)]

    def solve(self, key):
        model, cert, dwell, grid = self._design(key)
        report = _check(model)(model, cert, dwell, grid=grid)
        return {"passed": bool(report.passed), "worst_margin": float(report.worst_margin)}

    def _points(self, key):
        model, _, _, grid = self.designs[key]
        return len(grid) * model.modes

    def warmup(self):
        for key in list(self.FIXTURE) + [self.batch[-1]]:
            model, cert, dwell, _ = self.designs[key]
            _check(model)(model, cert, dwell, grid=checks.DwellGrid.uniform(dwell, 10))

    def next_pass(self):
        jobs = {
            case: Job(case, (case,), self._points(case),
                      lambda case=case: {case: self.solve(case)})
            for case in self.FIXTURE
        }
        jobs["random"] = Job("random", self.batch,
                             sum(self._points(k) for k in self.batch),
                             lambda: {k: self.solve(k) for k in self.batch})
        return [jobs[self.PASS[i]] for i in self.rng.permutation(len(self.PASS))]


class Simulate:
    """Short closed-loop runs from seeded initial states and dwell sequences."""

    name = "simulate"
    CASES = ("ex1", "ex3", "ex2")
    FIXTURE = {"ex1": "example1", "ex3": "example3", "ex2": "example2"}
    STEPS = 100
    POOL = 32
    PER_RUN = 8
    STREAM = 20170306

    @classmethod
    def setup(cls):
        loops = {}
        for case, fixture in cls.FIXTURE.items():
            cfg = load_fixture(fixture)
            weights = cli.build_weights(cfg)
            if "reference" in cfg:
                model, cert = reference_design(cfg, weights)
            else:
                model, cert = cli.build_model(cfg), cli.build_cert(cfg, weights)
            run = cfg.get("run", {})
            loops[case] = (model, cert, cli.build_dwell(cfg),
                           run.get("kind", "uniform_random"), run.get("period"))
        return loops

    def __init__(self, seed, state=None):
        self.loops = state if state is not None else self.setup()
        self.rng = np.random.default_rng(seed)
        self.keys = tuple(
            f"{case}/{int(i)}" for case in self.CASES
            for i in sorted(self.rng.choice(self.POOL, self.PER_RUN, replace=False))
        )
        self._inputs = {}
        for key in self.keys:
            self._input(key)

    def _input(self, key):
        if key not in self._inputs:
            case, idx = key.split("/")
            model = self.loops[case][0]
            rng = np.random.default_rng([self.STREAM, self.CASES.index(case), int(idx)])
            x0 = rng.uniform(-1.0, 1.0, model.n)
            u0 = rng.uniform(-1.0, 1.0, model.m) if model.m else None
            self._inputs[key] = (x0, u0, int(rng.integers(2**31)))
        return self._inputs[key]

    def all_keys(self):
        return [f"{case}/{i}" for case in self.CASES for i in range(self.POOL)]

    def _run(self, case, x0, u0, seq_seed, steps):
        model, cert, dwell, kind, period = self.loops[case]
        seq = sim.gen_sequence(dwell, kind, count=steps, seed=seq_seed, period=period)
        if model.kind == "impulsive":
            return sim.simulate_impulsive(model, cert, seq, x0, u0=u0)
        return sim.simulate_switched(model, cert, seq, x0, u0=u0)

    def solve(self, key):
        case = key.split("/")[0]
        traj = self._run(case, *self._input(key), self.STEPS)
        V = traj.lyapunov
        modes = self.loops[case][0].modes
        return {
            "samples": int(traj.samples),
            "decreasing": bool(np.all(np.diff(V) < 0.0)),
            "final_V": float(V[-1]),
            "mode_counts": np.bincount(traj.modes, minlength=modes).tolist(),
        }

    def warmup(self):
        for key in self.keys[::self.PER_RUN]:
            self._run(key.split("/")[0], *self._input(key), 5)

    def next_pass(self):
        samples = self.STEPS + 1
        return [Job(key.split("/")[0], (key,), samples, lambda key=key: {key: self.solve(key)})
                for key in (self.keys[i] for i in self.rng.permutation(len(self.keys)))]


WORKLOADS = {w.name: w for w in (Design, Verify, Simulate)}
