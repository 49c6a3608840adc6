"""Plant specifications and the augmented-state lift."""

import numpy as np
import pytest

from minjump import (
    DwellRange,
    ImpulsiveSpec,
    MinJumpCertificate,
    ModeWeights,
    SwitchedSpec,
    augment_impulsive,
    augment_switched,
)
from minjump.errors import CertificateError, ConfigError, ModelError

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
    assert np.allclose(model.jbar0[1][:2, :2], EX1_J[1])
    assert np.allclose(model.jbar0[1][2, :], 0.0)


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
