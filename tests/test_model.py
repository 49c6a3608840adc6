"""Plant specifications and the augmented-state lift."""

import numpy as np
import pytest

from minjump import (
    ClockFamily,
    DwellGrid,
    DwellRange,
    ImpulsiveSpec,
    MinJumpCertificate,
    ModeWeights,
    SamplingSequence,
    SwitchedSpec,
    SynthesisOptions,
    augment_impulsive,
    augment_switched,
    check,
    check_clock,
    exact_clock_family,
    gen_sequence,
)
from minjump.checks import _covering
from minjump.errors import CertificateError, ConfigError, ModelError
from minjump.sim import simulate
from minjump.synth import clock_node_grid

from conftest import EX1_A, EX1_B, EX1_J, EX3_A, EX3_B, EX3_J, EX3_UPDATES


def test_impulsive_lift_layout():
    model = augment_impulsive(ImpulsiveSpec(EX1_A, EX1_B, EX1_J))
    assert (model.n, model.m, model.modes, model.dim) == (2, 1, 2, 3)
    Ab = model.drift()
    assert np.allclose(Ab[:2, :2], EX1_A)
    assert np.allclose(Ab[:2, 2:], EX1_B)
    assert np.allclose(Ab[2:, :], 0.0)
    # injection reaches only the input rows
    assert np.allclose(model.injection(), [[0.0], [0.0], [1.0]])
    assert np.allclose(model.base(1)[:2, :2], EX1_J[1])
    assert np.allclose(model.base(1)[2, :], 0.0)


def test_impulsive_jump_assembly():
    K = [[-1.0, -2.0, 0.5]]
    model = augment_impulsive(ImpulsiveSpec(EX1_A, EX1_B, EX1_J),
                              gains=[K, [[0.0, 0.0, 1.0]]])
    J0 = model.jump(0)
    assert np.allclose(J0[:2, :2], np.eye(2))
    assert np.allclose(J0[2, :], K[0])
    J1 = model.jump(1)
    assert np.allclose(J1[2, :], [0.0, 0.0, 1.0])


def test_missing_gain_blocks_jump():
    model = augment_impulsive(ImpulsiveSpec(EX1_A, EX1_B, EX1_J),
                              gains=[None, [[0.0, 0.0, 1.0]]])
    with pytest.raises(ModelError):
        model.jump(0)
    model.jump(1)  # fixed row is fine


def test_inputless_jump_needs_no_gain():
    model = augment_impulsive(ImpulsiveSpec(EX1_A, J=EX1_J))
    assert model.m == 0
    assert np.allclose(model.jump(1), EX1_J[1])


def test_with_gains_shape_checks():
    model = augment_impulsive(ImpulsiveSpec(EX1_A, EX1_B, EX1_J))
    with pytest.raises(ModelError):
        model.with_gains([[[1.0, 2.0]]])  # wrong width and count
    with pytest.raises(ModelError):
        model.with_gains([[[1.0, 2.0, 3.0]], [[1.0, 2.0]]])


def test_impulsive_spec_validation():
    with pytest.raises(ModelError):
        ImpulsiveSpec([[1.0, 2.0]], J=EX1_J)  # A not square
    with pytest.raises(ModelError):
        ImpulsiveSpec(EX1_A, [[1.0]], EX1_J)  # B row count mismatch
    with pytest.raises(ModelError):
        ImpulsiveSpec(EX1_A, EX1_B, [])  # no modes
    with pytest.raises(ModelError, match="at least one jump map"):
        ImpulsiveSpec(EX1_A, EX1_B, np.zeros((0, 2, 2)))  # no modes, of the right shape
    with pytest.raises(ModelError):
        ImpulsiveSpec(EX1_A, EX1_B, [[[1.0]]])  # jump dim mismatch


def test_switched_lift_hold_rows():
    model = augment_switched(SwitchedSpec(EX3_A, EX3_B, EX3_J, updates=EX3_UPDATES))
    assert (model.n, model.m, model.modes, model.dim) == (2, 2, 2, 4)
    # jumping into mode 0 refreshes channel 0 and holds channel 1
    assert np.allclose(model.injection(0), np.eye(4)[:, [2]])
    J00 = model.jbar0[0][0]
    assert J00[3, 3] == 1.0 and J00[2, 2] == 0.0
    # jumping into mode 1 is the mirror image
    assert np.allclose(model.injection(1), np.eye(4)[:, [3]])
    J10 = model.jbar0[1][0]
    assert J10[2, 2] == 1.0 and J10[3, 3] == 0.0


def test_switched_jump_assembly():
    gains = [[[[1.0, 2.0, 3.0, 4.0]]] * 2, [[[5.0, 6.0, 7.0, 8.0]]] * 2]
    model = augment_switched(
        SwitchedSpec(EX3_A, EX3_B, EX3_J, updates=EX3_UPDATES), gains=gains)
    J01 = model.jump(0, 1)  # into mode 0 from mode 1
    assert np.allclose(J01[2, :], [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(J01[3, :], [0.0, 0.0, 0.0, 1.0])
    assert np.allclose(model.drift(1)[:2, 2:], EX3_B[1])


def test_switched_default_updates_cover_all_channels():
    model = augment_switched(SwitchedSpec(EX3_A, EX3_B, EX3_J))
    assert model.injection(0).shape == (4, 2)
    assert np.allclose(model.jbar0[0][1][2:, :], 0.0)


def test_switched_spec_validation():
    with pytest.raises(ModelError):
        SwitchedSpec(EX3_A, EX3_B, [EX3_J[0]])  # jump table not N x N
    with pytest.raises(ModelError):
        SwitchedSpec(EX3_A, EX3_B, EX3_J, updates=[(0, 0), (1,)])  # repeat
    with pytest.raises(ModelError):
        SwitchedSpec(EX3_A, EX3_B, EX3_J, updates=[(2,), (1,)])  # out of range
    with pytest.raises(ModelError):
        SwitchedSpec([EX3_A[0]], EX3_B, EX3_J)  # one drift for two modes
    with pytest.raises(ModelError, match="at least one mode"):
        SwitchedSpec(np.zeros((0, 2, 2)))  # no modes, of the right shape


@pytest.mark.parametrize("name", ["ex1_open_model", "ex1_reference_model", "ex3_reference_model"])
def test_one_table_rebuilds_from_its_slots(request, name):
    """Every jump map, injection and gain sits in one [target][source] table:
    a model rebuilt from its own gain slots has the same table bit for bit,
    and each slot's map is its base plus its target mode's injected gain."""
    model = request.getfixturevalue(name)
    rebuilt = model.with_gains(model.nest([model.gain(*s) for s in model.gain_slots]))
    for s in model.gain_slots:
        K = model.gain(*s)
        if K is None:
            assert rebuilt.gain(*s) is None
            for m in (model, rebuilt):
                with pytest.raises(ModelError, match="no gain"):
                    m.jump(*s)
            continue
        assert rebuilt.gain(*s).tobytes() == K.tobytes()
        assert np.array_equal(model.jump(*s), model.base(*s) + model.injection(s[0]) @ K)
    if all(model.gain(*s) is not None for s in model.gain_slots):
        assert rebuilt.jump_table.tobytes() == model.jump_table.tobytes()


def test_switched_gains_table_shape():
    model = augment_switched(SwitchedSpec(EX3_A, EX3_B, EX3_J, updates=EX3_UPDATES))
    with pytest.raises(ModelError):
        model.with_gains([[[[1.0, 2.0, 3.0, 4.0]]]])  # short row


def test_dwell_range_validation():
    DwellRange(0.02, 0.02)
    with pytest.raises(ConfigError):
        DwellRange(0.0, 1.0)
    with pytest.raises(ConfigError):
        DwellRange(0.5, 0.1)


def test_weight_validation():
    ModeWeights([[0.5, 1.0], [0.5, 0.0]])
    with pytest.raises(ConfigError, match="column sums"):
        ModeWeights([[0.5, 0.5], [0.6, 0.5]])
    with pytest.raises(ConfigError, match="negative"):
        ModeWeights([[1.2, 0.0], [-0.2, 1.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="non-finite"):
            ModeWeights([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(ConfigError):
        ModeWeights([[0.1, 0.9]])  # not square


def test_non_numeric_input_raises_typed_errors():
    # raw JSON values reach these constructors; strings must not leak
    # a bare ValueError past the typed error hierarchy
    with pytest.raises(ModelError):
        ImpulsiveSpec([["x", 0.0], [1.0, 1.0]], J=[np.eye(2)])
    for updates in ([["a"], [1]], [[0.9], [1]], [[True], [1]]):
        with pytest.raises(ModelError):
            SwitchedSpec(EX3_A, EX3_B, EX3_J, updates=updates)
    with pytest.raises(ConfigError):
        ModeWeights([["y", 0.0], [1.0, 1.0]])
    with pytest.raises(ConfigError):
        DwellRange("soon", 0.05)
    with pytest.raises(CertificateError):
        MinJumpCertificate([[["z", 0.0], [0.0, 1.0]]], ModeWeights([[1.0]]))


# the three outside sequences, each read by model._increasing and named in its errors
_SEQUENCES = {
    "dwell grid": DwellGrid,
    "clock nodes": lambda nodes: ClockFamily(nodes, [[np.eye(1)] * 2]),
    "sampling times": lambda times: SamplingSequence(times=times),
}


@pytest.mark.parametrize("what", _SEQUENCES)
@pytest.mark.parametrize("value", [["0.0", "0.5"], [0.0, True], [[0.0], [0.5]], 0.5,
                                   iter([0.0, 0.5]), None],
                         ids=["strings", "bool", "nested", "scalar", "iterator", "none"])
def test_sequence_reader_refuses_non_sequences(what, value):
    with pytest.raises(ConfigError, match=what):
        _SEQUENCES[what](value)


@pytest.mark.parametrize("what", _SEQUENCES)
def test_sequence_reader_refuses_non_increasing(what):
    _SEQUENCES[what]([0.0, 0.5])
    for value, message in (([], "at least one point"), ([0.0, 0.5, 0.5], "strictly increasing"),
                           ([0.0, np.inf], "non-finite")):
        with pytest.raises(ConfigError, match=f"{what} .*{message}"):
            _SEQUENCES[what](value)


def _scalar_loop():
    model = augment_impulsive(ImpulsiveSpec([[-1.0]], J=[[[0.5]]]))
    return model, MinJumpCertificate([[[1.0]]], [[1.0]])


@pytest.mark.parametrize("t_max", [0.05, 1.0, 10.0])
@pytest.mark.parametrize("rel", [1e-13, 1e-11])
def test_dwell_membership_is_one_rule(t_max, rel):
    """A dwell just past t_max is in the range or not by one rule,
    DwellRange.outside within 1e-12 max(1, t_max), on every path."""
    model, cert = _scalar_loop()
    dwell = DwellRange(t_max / 2, t_max)
    theta = t_max * (1.0 + rel)
    assert dwell.tol == 1e-12 * max(1.0, t_max)

    def accepted(run):
        try:
            run()
        except ConfigError:
            return False
        return True

    verdicts = {
        "grid": accepted(lambda: check(model, cert, dwell, grid=[t_max / 2, theta])),
        "sequence": accepted(lambda: SamplingSequence(dwells=(theta,), dwell=dwell)),
        "periodic": accepted(lambda: gen_sequence(dwell, "periodic", 2, period=theta)),
        "covering": _covering((theta,), dwell) == [0],
    }
    inside = theta - t_max <= dwell.tol
    assert verdicts == dict.fromkeys(verdicts, inside)
    assert inside == (rel == 1e-13 or t_max < 1.0)


def _scalar_probes():
    model, cert = _scalar_loop()
    dwell = DwellRange(0.01, 0.05)
    seq = gen_sequence(dwell, "periodic", 3, period=0.02)
    clock = exact_clock_family(cert, model, clock_node_grid(dwell, 4))
    return {
        "count-str": lambda: gen_sequence(dwell, "uniform_random", count="5"),
        "count-float": lambda: gen_sequence(dwell, "uniform_random", count=2.5),
        "seed-float": lambda: gen_sequence(dwell, "uniform_random", count=5, seed=1.5),
        "substeps-float": lambda: simulate(model, cert, seq, [1.0], substeps=1.5),
        "substeps-str": lambda: simulate(model, cert, seq, [1.0], substeps="2"),
        "clock_nodes-float": lambda: SynthesisOptions(clock_nodes=6.5),
        "clock_nodes-str": lambda: SynthesisOptions(clock_nodes="6"),
        "grid-count-float": lambda: DwellGrid.uniform(dwell, 2.5),
        "strict_tol-str": lambda: check(model, cert, dwell, strict_tol="1e-7"),
        "strict_tol-bool": lambda: check(model, cert, dwell, strict_tol=True),
        "eps-str": lambda: check_clock(model, clock, cert, "0.1", dwell),
        "scale-str": lambda: cert.scaled("2"),
    }


@pytest.mark.parametrize("probe", list(_scalar_probes()))
def test_library_scalars_are_read_as_numbers(probe):
    error = CertificateError if probe.startswith("scale") else ConfigError
    with pytest.raises(error, match="must be a (whole )?number"):
        _scalar_probes()[probe]()


def test_library_scalars_keep_their_bounds():
    model, cert = _scalar_loop()
    dwell = DwellRange(0.01, 0.05)
    seq = gen_sequence(dwell, "periodic", 3, period=0.02)
    assert SynthesisOptions(clock_nodes=6.0).clock_nodes == 6
    seq5 = gen_sequence(dwell, "uniform_random", count=np.int64(5), seed=np.int64(1))
    assert len(seq5.dwells) == 5
    assert check(model, cert, dwell, strict_tol=0).strict_tol == 0.0
    for run, message in ((lambda: gen_sequence(dwell, "periodic", 0, period=0.02), "at least 1"),
                         (lambda: gen_sequence(dwell, "uniform_random", 5, seed=-1),
                          "nonnegative"),
                         (lambda: simulate(model, cert, seq, [1.0], substeps=0), "at least 1"),
                         (lambda: SynthesisOptions(clock_nodes=1), "two clock nodes"),
                         (lambda: DwellGrid.uniform(dwell, 1), "two points"),
                         (lambda: check(model, cert, dwell, strict_tol=-1.0), "nonnegative"),
                         (lambda: check(model, cert, dwell, strict_tol=np.nan), "finite")):
        with pytest.raises(ConfigError, match=message):
            run()
