"""Closed-loop simulator: sequences, flows, rule firing, CSV output."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minjump import (
    DwellRange,
    ImpulsiveSpec,
    MinJumpCertificate,
    ModeWeights,
    SwitchedSpec,
    augment_impulsive,
    augment_switched,
    gen_sequence,
    select_impulsive,
    select_switched,
    simulate_impulsive,
    simulate_switched,
    write_csv,
)
from minjump import linalg, sim
from minjump.errors import ConfigError, DivergenceError, NumericError
from minjump.linalg import expm
from minjump.sim import SamplingSequence

import oracles
from conftest import EX2_PERIOD


@pytest.fixture
def ex2_loop(ex2_model, ex2_cert):
    seq = gen_sequence(DwellRange(EX2_PERIOD, EX2_PERIOD), "periodic",
                       count=100, period=EX2_PERIOD)
    return ex2_model, ex2_cert, seq


def test_gen_sequence_periodic():
    seq = gen_sequence(DwellRange(0.01, 0.05), "periodic", count=10, period=0.02)
    assert len(seq.dwells) == 10
    assert np.allclose(seq.dwells, 0.02)
    assert seq.times[0] == 0.0


def test_gen_sequence_random_reproducible():
    dwell = DwellRange(0.01, 0.05)
    a = gen_sequence(dwell, "uniform_random", count=50, seed=3)
    b = gen_sequence(dwell, "uniform_random", count=50, seed=3)
    assert np.array_equal(a.times, b.times)
    dwells = np.asarray(a.dwells)
    assert (dwells >= 0.01 - 1e-12).all() and (dwells <= 0.05 + 1e-12).all()
    c = gen_sequence(dwell, "uniform_random", count=50, seed=4)
    assert not np.array_equal(a.times, c.times)


def test_gen_sequence_validation():
    dwell = DwellRange(0.01, 0.05)
    with pytest.raises(ConfigError):
        gen_sequence(dwell, "periodic", count=5)  # period missing
    with pytest.raises(ConfigError):
        gen_sequence(dwell, "periodic", count=5, period=0.2)  # out of range
    with pytest.raises(ConfigError):
        gen_sequence(dwell, "sorted", count=5)


def test_sampling_sequence_validation():
    with pytest.raises(ConfigError):
        SamplingSequence(times=(0.5, 1.0))  # must start at zero
    with pytest.raises(ConfigError):
        SamplingSequence(times=(0.0, 0.2, 0.2))  # not strictly increasing
    for bad in ((0.0, float("nan"), 1.0), (0.0, float("inf"))):
        with pytest.raises(ConfigError):
            SamplingSequence(times=bad)
    with pytest.raises(ConfigError):
        SamplingSequence(times=(0.0, 0.2, 0.3), dwell=DwellRange(0.15, 0.18))
    # one flat list of numbers: no nesting is flattened, no string parsed
    with pytest.raises(ConfigError, match="sampling times"):
        SamplingSequence(times=[[0.0, 0.1], [0.2, 0.3]])
    with pytest.raises(ConfigError, match="dwells"):
        SamplingSequence(dwells=["0.1", "0.2"])
    # finite dwells whose sum overflows: refused, with no RuntimeWarning
    with pytest.raises(ConfigError, match="finite"):
        SamplingSequence(dwells=(1e308, 1e308))


def test_out_of_range_dwells_name_the_first():
    dwell = DwellRange(0.01, 0.1)
    with pytest.raises(ConfigError, match=r"^dwell 0\.3 outside \[0\.01, 0\.1\]$"):
        SamplingSequence(dwells=(0.02, 0.3, 0.05, 0.5), dwell=dwell)
    with pytest.raises(ConfigError, match=r"^dwell 0\.25 outside"):
        SamplingSequence(times=(0.0, 0.25, 0.3, 0.5), dwell=dwell)


def test_lyapunov_strictly_decreases(ex2_loop):
    model, cert, seq = ex2_loop
    traj = simulate_impulsive(model, cert, seq, [1.0, 1.0])
    v = traj.lyapunov
    assert (np.diff(v) < 0.0).all()
    assert v[0] / v[-1] > 1e3


def test_zero_state_stays_zero(ex2_loop):
    model, cert, seq = ex2_loop
    traj = simulate_impulsive(model, cert, seq, [0.0, 0.0])
    assert not traj.pre_states.any()
    assert not traj.post_states.any()
    assert (traj.modes == traj.modes[0]).all()


def test_dense_output_is_exact(ex2_loop):
    # every dense point must equal the matrix exponential applied directly
    model, cert, seq = ex2_loop
    traj = simulate_impulsive(model, cert, seq, [1.0, 1.0], substeps=4)
    A = model.drift()
    for k in range(min(20, traj.samples - 1)):
        t0 = traj.times[k]
        start = traj.post_states[k]
        sel = slice(k * 4, (k + 1) * 4)
        for tq, xq in zip(traj.dense_times[sel], traj.dense_states[sel]):
            want = expm(A, tq - t0) @ start
            assert np.linalg.norm(xq - want, np.inf) <= 1e-10 * max(
                1.0, np.linalg.norm(want, np.inf))


def test_substep_count_does_not_change_samples(ex2_loop):
    model, cert, seq = ex2_loop
    one = simulate_impulsive(model, cert, seq, [1.0, 1.0], substeps=1)
    eight = simulate_impulsive(model, cert, seq, [1.0, 1.0], substeps=8)
    assert np.linalg.norm(one.pre_states - eight.pre_states, np.inf) <= 1e-10
    assert np.array_equal(one.modes, eight.modes)


def test_single_mode_switched_equals_impulsive():
    """With one mode, no inputs and an identity jump the two loops coincide.

    The impulsive rule scores before jumping, the switched rule after; the
    identity jump makes those the same number, so trajectories, modes and
    stored values must agree bit for bit.
    """
    A = [[-0.3, 1.0], [0.0, -0.5]]
    imp = augment_impulsive(ImpulsiveSpec(A, J=[np.eye(2).tolist()]))
    sw = augment_switched(SwitchedSpec([A], J=[[np.eye(2).tolist()]]))
    P = [[2.0, 0.3], [0.3, 1.0]]
    cert = MinJumpCertificate([P], ModeWeights([[1.0]]))
    seq = gen_sequence(DwellRange(0.05, 0.3), "uniform_random", count=40, seed=9)
    a = simulate_impulsive(imp, cert, seq, [1.0, -2.0])
    b = simulate_switched(sw, cert, seq, [1.0, -2.0])
    assert np.array_equal(a.pre_states, b.pre_states)
    assert np.array_equal(a.post_states, b.post_states)
    assert np.array_equal(a.lyapunov, b.lyapunov)
    assert np.array_equal(a.modes, b.modes)


def test_switched_loop_flows_with_selected_mode(ex3_reference_model,
                                                ex3_reference_cert):
    seq = gen_sequence(DwellRange(0.01, 0.05), "uniform_random", count=60, seed=2)
    traj = simulate_switched(ex3_reference_model, ex3_reference_cert, seq,
                             [1.0, 1.0], substeps=3)
    v = traj.lyapunov
    assert (np.diff(v) < 0.0).all()
    # both modes should fire on this system
    assert set(np.unique(traj.modes)) == {0, 1}
    # each interval's flow is the selected mode's exponential
    for k in range(10):
        dt = traj.times[k + 1] - traj.times[k]
        E = expm(ex3_reference_model.drift(traj.modes[k]), dt)
        want = E @ traj.post_states[k]
        assert np.allclose(want, traj.pre_states[k + 1], atol=1e-9)


def test_divergence_raises():
    model = augment_impulsive(
        ImpulsiveSpec([[3.0, 0.0], [1.0, 1.0]], J=[np.eye(2).tolist()]))
    cert = MinJumpCertificate([np.eye(2)], ModeWeights([[1.0]]))
    seq = gen_sequence(DwellRange(0.5, 0.5), "periodic", count=60, period=0.5)
    with pytest.raises(DivergenceError) as err:
        simulate_impulsive(model, cert, seq, [1.0, 1.0])
    assert err.value.last_time is not None


def test_divergence_within_an_interval_is_found_at_its_substep():
    """With four substeps an interval, the state first passes the bound at
    an interior substep; the run ends there, at the loop oracle's time."""
    model = augment_impulsive(
        ImpulsiveSpec([[3.0, 0.0], [1.0, 1.0]], J=[np.eye(2).tolist()]))
    cert = MinJumpCertificate([np.eye(2)], ModeWeights([[1.0]]))
    seq = gen_sequence(DwellRange(0.5, 0.5), "periodic", count=60, period=0.5)
    args = (model, cert, seq, [1.0, 1.0], None, 0, 4)
    with pytest.raises(DivergenceError) as want:
        oracles.loop_simulate(*args)
    with pytest.raises(DivergenceError) as got:
        sim.simulate(*args)
    assert got.value.last_time == want.value.last_time
    assert want.value.last_time % 0.5 != 0.0  # not at a sampling instant


def _example_loop(request, case):
    """(model, cert, dwell) of worked example case, with its published rule."""
    prefix = {"ex1": "ex1_reference", "ex2": "ex2", "ex3": "ex3_reference"}[case]
    return (request.getfixturevalue(f"{prefix}_model"),
            request.getfixturevalue(f"{prefix}_cert"),
            request.getfixturevalue(f"{case}_dwell"))


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3"])
def test_march_picks_the_public_rules_choice(request, case):
    """Every sample's mode is the public rule's choice at that sample's
    pre-jump state, from the mode before it: the march's own selection
    cannot drift from select_impulsive/select_switched."""
    model, cert, dwell = _example_loop(request, case)
    seq = gen_sequence(dwell, "uniform_random", count=200, seed=5)
    u0 = np.full(model.m, 0.5) if model.m else None
    for initial_mode in range(model.modes if model.kind == "switched" else 1):
        traj = sim.simulate(model, cert, seq, np.ones(model.n), u0, initial_mode)
        current = initial_mode
        for chi, mode in zip(traj.pre_states, traj.modes):
            if model.kind == "impulsive":
                assert mode == select_impulsive(chi, cert)
            else:
                assert mode == select_switched(chi, current, cert, model)
                current = mode
        assert len(set(traj.modes)) == model.modes  # every mode is chosen somewhere


@pytest.mark.parametrize("scale", [400, 520, 560, 700, 1000])
@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3"])
def test_scaled_initial_state_gives_the_scaled_run(request, case, scale):
    """The loop is linear and the rule homogeneous, so x0 and u0 times 2^-s
    give the same modes and exactly the scaled states, also where the forms
    underflow (|chi| below about 2^-512) and where the states are subnormal
    (s = 1000): the kernel carries the state times a power of two and
    rounds each stored entry once."""
    model, cert, dwell = _example_loop(request, case)
    seq = gen_sequence(dwell, "uniform_random", count=100, seed=5)
    x0, u0 = np.ones(model.n), np.full(model.m, 0.5)
    base = sim.simulate(model, cert, seq, x0, u0, substeps=2)
    tiny = sim.simulate(model, cert, seq, np.ldexp(x0, -scale), np.ldexp(u0, -scale), substeps=2)
    assert np.array_equal(tiny.modes, base.modes)
    for rows in ("pre_states", "post_states", "dense_states"):
        assert np.array_equal(getattr(tiny, rows), np.ldexp(getattr(base, rows), -scale))


def test_long_run_that_rescales_matches_loop_oracle(ex3_reference_model, ex3_reference_cert,
                                                    ex3_dwell):
    """1500 intervals of ex3 from the simulate benchmark's first ex3 input:
    the state falls below 2^-250 near sample 950 and is carried scaled from
    there; modes equal the loop oracle's and every row is within 1e-12."""
    model, cert = ex3_reference_model, ex3_reference_cert
    rng = np.random.default_rng([20170306, 1, 0])  # the benchmark's input stream
    x0, u0 = rng.uniform(-1.0, 1.0, model.n), rng.uniform(-1.0, 1.0, model.m)
    seq = gen_sequence(ex3_dwell, "uniform_random", count=1500, seed=int(rng.integers(2**31)))
    traj = sim.simulate(model, cert, seq, x0, u0)
    want = oracles.loop_simulate(model, cert, seq, x0, u0)
    assert np.linalg.norm(traj.pre_states[-1]) < 2.0 ** -250
    assert np.array_equal(traj.modes, want.modes)
    _rows_close(traj.pre_states, want.pre)
    _rows_close(traj.post_states, want.post)
    _rows_close(traj.dense_states, want.dense)


@pytest.mark.parametrize("rate", [20.0, 30.0])
def test_a_carried_state_that_grows_is_judged_at_its_true_size(rate, monkeypatch):
    """From x0 = 2^-700 the state grows by e^rate per interval.  The kernel
    carries it scaled up and scales it back as it grows: at rate 20
    (about 2^29 an interval) the scaled state stays in range and the run
    ends at the true state's divergence, at rate 30 (2^43) the scaled
    guard fails at once and the run is redone unscaled.  Either way the
    rows and the divergence time are the loop oracle's."""
    marches = []
    real = sim._march
    monkeypatch.setattr(sim, "_march", lambda *args: marches.append(args) or real(*args))
    model = augment_impulsive(ImpulsiveSpec([[rate]], J=[[[1.0]]]))
    cert = MinJumpCertificate([np.eye(1)], ModeWeights([[1.0]]))
    x0 = [2.0 ** -700]
    for count in (15, 40):
        seq = gen_sequence(DwellRange(1.0, 1.0), "periodic", count=count, period=1.0)
        try:
            want = oracles.loop_simulate(model, cert, seq, x0)
        except DivergenceError as exc:
            with pytest.raises(DivergenceError) as got:
                sim.simulate(model, cert, seq, x0)
            assert got.value.last_time == exc.last_time
            continue
        traj = sim.simulate(model, cert, seq, x0)
        assert np.array_equal(traj.pre_states, want.pre)
        assert np.array_equal(traj.post_states, want.post)
    assert len(marches) == (4 if rate == 30.0 else 2)  # each run redone once at rate 30


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_pre_jump_states_are_the_flow_bitwise(modes):
    """Every stored pre-jump state is E times the post-jump state before it,
    the exponential's own gemv, bit for bit, for d = 1..12.  The guard and
    the rule read a second product on [I; Q], not rows of a taller stack
    [E; Q E]: a BLAS gemv may sum a row of a taller matrix in another order
    (OpenBLAS's Haswell and SkylakeX kernels do for d = 9..11)."""
    rng = np.random.default_rng(modes)
    for d in range(1, 13):
        A = 0.3 * rng.standard_normal((d, d))
        J = np.eye(d) + 0.2 * rng.standard_normal((modes, d, d))
        model = augment_impulsive(ImpulsiveSpec(A.tolist(), J=J.tolist()))
        W = rng.standard_normal((modes, d, d))
        cert = MinJumpCertificate(W @ np.swapaxes(W, 1, 2) + np.eye(d),
                                  ModeWeights(np.full((modes, modes), 1.0 / modes)))
        seq = gen_sequence(DwellRange(0.05, 0.4), "uniform_random", count=30, seed=d)
        traj = sim.simulate(model, cert, seq, rng.uniform(-1.0, 1.0, d))
        flows = linalg.expm(model.drift(), np.asarray(seq.dwells))
        for E, start, end in zip(flows, traj.post_states, traj.pre_states[1:]):
            assert np.array_equal(end, E.dot(start))


@pytest.mark.parametrize("case", ["ex1", "ex3"])
def test_kernel_makes_one_rule_call_and_no_einsum_per_sample(request, case, monkeypatch):
    """A run of K intervals that stays in range calls argmin_forms once, for
    the first sample (every later one reads its forms off the stacked
    product), and its einsum count does not grow with K: the only one is
    the V pass after the loop."""
    model, cert, dwell = _example_loop(request, case)
    calls = {}

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(sim, "argmin_forms", spy("argmin_forms", sim.argmin_forms))
    monkeypatch.setattr(np, "einsum", spy("einsum", np.einsum))
    einsums = []
    for K in (10, 200):
        calls.update(argmin_forms=0, einsum=0)
        seq = gen_sequence(dwell, "uniform_random", count=K, seed=3)
        sim.simulate(model, cert, seq, np.ones(model.n), substeps=2)
        assert calls["argmin_forms"] == 1
        einsums.append(calls["einsum"])
    assert einsums[0] == einsums[1]


def test_diverging_switched_run_raises_without_a_warning():
    """A switched state that overflows within one flow ends in DivergenceError
    and leaks no RuntimeWarning: the march judges it under its own errstate."""
    one = [[1.0]]
    model = augment_switched(SwitchedSpec([[[30.0]], [[20.0]]], J=[[one, one], [one, one]]))
    cert = MinJumpCertificate([np.eye(1), 2.0 * np.eye(1)], ModeWeights(np.full((2, 2), 0.5)))
    # after e^{15} the state is under the bound; after e^{30 * 20} it is
    # about 1e267, and its squared norm in the guard overflows
    seq = SamplingSequence((0.0, 0.5, 20.5), DwellRange(0.5, 20.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError) as err:
            simulate_switched(model, cert, seq, [1.0])
    assert err.value.last_time == 0.5


@pytest.mark.parametrize("name, bad", [("x0", np.nan), ("x0", -np.inf), ("u0", np.inf)])
def test_non_finite_initial_state_is_refused(ex1_reference_model, ex1_reference_cert,
                                             name, bad):
    """A NaN or infinite x0 or u0 is bad input naming its vector, not a
    divergence at t = 0."""
    seq = gen_sequence(DwellRange(0.01, 0.05), "uniform_random", count=5, seed=1)
    start = {"x0": np.ones(ex1_reference_model.n), "u0": np.zeros(ex1_reference_model.m)}
    start[name][0] = bad
    with pytest.raises(ConfigError, match=name):
        sim.simulate(ex1_reference_model, ex1_reference_cert, seq, start["x0"], start["u0"])


def test_initial_mode_validation(ex3_reference_model, ex3_reference_cert):
    from minjump.errors import ModelError
    seq = gen_sequence(DwellRange(0.01, 0.05), "uniform_random", count=5, seed=1)
    with pytest.raises(ModelError):
        simulate_switched(ex3_reference_model, ex3_reference_cert, seq,
                          [1.0, 1.0], initial_mode=7)


def test_csv_round_trip(tmp_path, ex2_loop):
    model, cert, seq = ex2_loop
    traj = simulate_impulsive(model, cert, seq, [1.0, 1.0], substeps=4)
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "sigma", "V", "post"]
    # two rows per sample plus the interior dense points
    assert len(rows) - 1 == 2 * traj.samples + (traj.samples - 1) * 3
    # float repr carries enough digits to reconstruct the state exactly
    pre0 = np.array([float(v) for v in rows[1][1:3]])
    assert np.array_equal(pre0, traj.pre_states[0][:2])
    post0 = np.array([float(v) for v in rows[2][1:3]])
    assert np.array_equal(post0, traj.post_states[0][:2])
    assert rows[1][5] == "0" and rows[2][5] == "1"
    # modes are written 1-based
    assert rows[2][3] == str(traj.modes[0] + 1)


def test_periodic_sequence_keeps_one_dwell():
    seq = gen_sequence(DwellRange(0.02, 0.02), "periodic", count=100, period=0.02)
    assert set(seq.dwells) == {0.02}
    assert seq.times == SamplingSequence(seq.times).times
    assert SamplingSequence((0.0, 0.5, 1.5)).dwells == (0.5, 1.0)


def test_periodic_run_makes_one_exponential(ex2_loop, monkeypatch):
    model, cert, seq = ex2_loop
    calls = []
    real = linalg.expm

    def spy(M, t=1.0):
        calls.append(np.size(t))
        return real(M, t)

    monkeypatch.setattr(linalg, "expm", spy)
    simulate_impulsive(model, cert, seq, [1.0, 1.0], substeps=4)
    assert calls == [1]


def test_distinct_dwell_exponentials_match_full_stack(ex1_reference_model,
                                                      ex3_reference_model):
    """Members of the stack over distinct dwells equal the per-interval stack bitwise."""
    rng = np.random.default_rng(11)
    # dwells on both sides of the first squaring threshold, with repeats
    pool = np.concatenate([rng.uniform(0.01, 0.05, 4), rng.uniform(0.5, 3.0, 4)])
    steps = rng.choice(pool, size=80)
    distinct, where = np.unique(steps, return_inverse=True)
    drifts = [ex1_reference_model.drift(), 3.0 * ex1_reference_model.drift()]
    drifts += [ex3_reference_model.drift(i) for i in range(2)]
    for A in drifts:
        assert np.array_equal(sim._exponentials(A, distinct)[where],
                              linalg.expm(A, steps))


def test_overflowing_members_are_nan_and_the_rest_exact():
    A = np.array([[30.0]])
    steps = np.array([1.0, 30.0, 2.0, 25.0, 3.0])
    stack = sim._exponentials(A, steps)
    assert np.isnan(stack[[1, 3]]).all()
    for g in (0, 2, 4):
        assert np.array_equal(stack[g], linalg.expm(A, steps[g]))


def _fast_scalar_loop():
    model = augment_impulsive(ImpulsiveSpec([[30.0]], J=[[[1.0]]]))
    return model, MinJumpCertificate([np.eye(1)], ModeWeights([[1.0]]))


def test_divergence_before_an_overflowing_dwell_is_divergence():
    # the state passes 1e12 at t = 1; e^{30 * 30} overflows on the next interval
    model, cert = _fast_scalar_loop()
    seq = SamplingSequence((0.0, 1.0, 31.0), DwellRange(1.0, 30.0))
    with pytest.raises(DivergenceError) as err:
        simulate_impulsive(model, cert, seq, [1.0])
    assert err.value.last_time == 0.0


def test_overflowing_dwell_reached_first_is_numeric():
    model, cert = _fast_scalar_loop()
    seq = SamplingSequence((0.0, 30.0, 31.0), DwellRange(1.0, 30.0))
    with pytest.raises(NumericError):
        simulate_impulsive(model, cert, seq, [1.0])


def _random_loop(seed, kind, modes, n, m):
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.3, 8.0])  # the larger drifts often diverge

    def mat(rows, cols, s=1.0):
        return (s * rng.standard_normal((rows, cols))).tolist()

    if kind == "impulsive":
        spec = ImpulsiveSpec(mat(n, n, scale), mat(n, m),
                             [mat(n, n, 0.7) for _ in range(modes)])
        model = augment_impulsive(spec, gains=[mat(m, n + m, 0.5) if m else None
                                               for _ in range(modes)])
    else:
        spec = SwitchedSpec([mat(n, n, scale) for _ in range(modes)],
                            [mat(n, m) for _ in range(modes)],
                            [[mat(n, n, 0.7) for _ in range(modes)]
                             for _ in range(modes)])
        model = augment_switched(spec, gains=[[mat(m, n + m, 0.5) if m else None
                                               for _ in range(modes)]
                                              for _ in range(modes)])
    P = []
    for _ in range(modes):
        W = rng.standard_normal((n + m, n + m))
        P.append(W @ W.T + 0.1 * np.eye(n + m))
    cert = MinJumpCertificate(P, ModeWeights(np.full((modes, modes), 1.0 / modes)))
    x0 = rng.uniform(-1.0, 1.0, n)
    u0 = rng.uniform(-1.0, 1.0, m) if m else None
    return model, cert, x0, u0, int(rng.integers(2**31))


def _rows_close(a, b, rtol=1e-12):
    """Each sample's row of a within rtol of b's, relative to b's row norm."""
    assert a.shape == b.shape
    gap = np.linalg.norm((a - b).reshape(len(b), -1), axis=1)
    assert (gap <= rtol * np.linalg.norm(b.reshape(len(b), -1), axis=1)).all()


@settings(max_examples=80, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["impulsive", "switched"]),
       modes=st.integers(1, 3), n=st.integers(1, 3), m=st.integers(0, 1),
       substeps=st.integers(1, 4), periodic=st.booleans(),
       count=st.integers(1, 40), data=st.data())
def test_kernel_matches_loop_oracle(seed, kind, modes, n, m, substeps, periodic,
                                    count, data):
    model, cert, x0, u0, seq_seed = _random_loop(seed, kind, modes, n, m)
    dwell = DwellRange(0.05, 0.4)
    seq = gen_sequence(dwell, "periodic" if periodic else "uniform_random",
                       count=count, seed=seq_seed, period=0.13)
    initial_mode = data.draw(st.integers(0, modes - 1)) if kind == "switched" else 0
    args = (model, cert, seq, x0, u0, initial_mode, substeps)
    try:
        want = oracles.loop_simulate(*args)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as got:
            sim.simulate(*args)
        assert got.value.last_time == exc.last_time
        return
    traj = sim.simulate(*args)
    assert np.array_equal(traj.modes, want.modes)
    assert np.array_equal(traj.dense_modes, np.repeat(want.modes[:-1], substeps))
    assert np.array_equal(traj.dense_times, want.dense_t)
    _rows_close(traj.pre_states, want.pre)
    _rows_close(traj.post_states, want.post)
    _rows_close(traj.dense_states, want.dense)
    _rows_close(traj.lyapunov, want.V)
