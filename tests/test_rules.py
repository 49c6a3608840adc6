"""Certificate container and mode-selection rules."""

from types import SimpleNamespace

import numpy as np
import pytest

from minjump import (
    ClockFamily,
    ImpulsiveSpec,
    MinJumpCertificate,
    ModeWeights,
    SwitchedSpec,
    augment_impulsive,
    augment_switched,
    check,
    check_clock,
    check_impulsive,
    check_switched,
    exact_clock_family,
    gen_sequence,
    select_impulsive,
    select_switched,
    simulate_impulsive,
    simulate_switched,
)
from minjump.errors import CertificateError, ModelError, NumericError
from minjump.sim import simulate
from minjump.synth import assemble_impulsive, assemble_switched

import oracles
from conftest import EX1_PI, EX3_A, EX3_B, EX3_J, EX3_K, EX3_UPDATES, EX3_PI


def _cert(P_list, N=None):
    N = N or len(P_list)
    pi = np.full((N, N), 1.0 / N)
    return MinJumpCertificate(P_list, ModeWeights(pi))


def test_certificate_validation():
    with pytest.raises(CertificateError):
        _cert([np.eye(2), np.diag([1.0, -1.0])])  # not positive definite
    with pytest.raises(CertificateError):
        MinJumpCertificate([np.eye(2)], ModeWeights(np.eye(2)))  # count mismatch
    with pytest.raises(CertificateError):
        _cert([np.eye(2), np.eye(3)])  # mixed dimensions
    for eps in (np.nan, np.inf, -1.0):
        with pytest.raises(CertificateError, match="eps"):
            MinJumpCertificate([np.eye(2)], ModeWeights([[1.0]]), eps=eps)


def test_certificate_scaling():
    cert = _cert([np.eye(2), 2.0 * np.eye(2)])
    doubled = cert.scaled(2.0)
    assert np.allclose(doubled.P[1], 4.0 * np.eye(2))
    with pytest.raises(CertificateError):
        cert.scaled(-1.0)


def test_select_impulsive_matches_brute_force():
    rng = np.random.default_rng(17)
    P = []
    for _ in range(3):
        W = rng.standard_normal((3, 3))
        P.append(W @ W.T + np.eye(3))
    cert = _cert(P)
    for _ in range(200):
        chi = rng.standard_normal(3)
        want, _ = oracles.brute_min_mode(P, chi)
        assert select_impulsive(chi, cert) == want


def test_select_impulsive_tie_goes_low():
    cert = _cert([np.eye(2), np.eye(2)])
    assert select_impulsive(np.array([1.0, -2.0]), cert) == 0
    assert select_impulsive(np.zeros(2), cert) == 0


def test_select_invariant_under_positive_scaling():
    rng = np.random.default_rng(23)
    P = [np.eye(2) + 0.5 * np.outer(v, v) for v in rng.standard_normal((3, 2))]
    cert = _cert(P)
    for _ in range(100):
        chi = rng.standard_normal(2)
        alpha = float(rng.uniform(1e-6, 1e6))
        assert select_impulsive(chi, cert) == select_impulsive(chi, cert.scaled(alpha))


def test_choice_survives_underflowing_forms(ex1_reference_cert, ex3_reference_model,
                                           ex3_reference_cert):
    """At chi 2^-600 every form underflows to 0; the rule still picks the
    unscaled state's mode, for both kinds and from either source mode."""
    rng = np.random.default_rng(41)
    picked = {"impulsive": set(), "switched": set()}
    for chi in rng.standard_normal((60, 3)):
        want = select_impulsive(chi, ex1_reference_cert)
        assert select_impulsive(np.ldexp(chi, -600), ex1_reference_cert) == want
        picked["impulsive"].add(want)
    for chi in rng.standard_normal((60, 4)):
        for i in range(2):
            want = select_switched(chi, i, ex3_reference_cert, ex3_reference_model)
            got = select_switched(np.ldexp(chi, -600), i, ex3_reference_cert,
                                  ex3_reference_model)
            assert got == want
            picked["switched"].add(want)
    assert picked == {"impulsive": {0, 1}, "switched": {0, 1}}


def test_select_switched_scores_post_jump_forms():
    model = augment_switched(
        SwitchedSpec(EX3_A, EX3_B, EX3_J, updates=EX3_UPDATES), gains=EX3_K)
    rng = np.random.default_rng(5)
    P = []
    for _ in range(2):
        W = rng.standard_normal((4, 4))
        P.append(W @ W.T + np.eye(4))
    cert = MinJumpCertificate(P, ModeWeights(EX3_PI))
    for _ in range(100):
        chi = rng.standard_normal(4)
        i = int(rng.integers(0, 2))
        scores = [oracles.quad_form(P[j], model.jump(j, i) @ chi) for j in range(2)]
        want = int(np.argmin(scores))
        # break ties the same way the rule does
        if scores[0] <= scores[1]:
            want = 0
        assert select_switched(chi, i, cert, model) == want


def test_select_switched_depends_on_current_mode():
    # jump maps differ per source mode, so the winner can too
    spec = SwitchedSpec(
        A=[[[0.0]], [[0.0]]],
        J=[[[[1.0]], [[0.1]]], [[[0.1]], [[1.0]]]],
    )
    model = augment_switched(spec)
    cert = MinJumpCertificate([np.eye(1), np.eye(1)], ModeWeights([[0.5, 0.5], [0.5, 0.5]]))
    chi = np.array([1.0])
    # from mode 0, staying costs 1.0 but jumping to 1 costs 0.01
    assert select_switched(chi, 0, cert, model) == 1
    assert select_switched(chi, 1, cert, model) == 0


def _three_mode_switched(rng, n=2, same=False):
    """Three modes, one input; same=True gives every target the same jump data."""
    def mat(rows, cols):
        return rng.standard_normal((rows, cols)).tolist()

    J = [[mat(n, n) for i in range(3)] for j in range(3)]
    K = [[mat(1, n + 1) for i in range(3)] for j in range(3)]
    if same:
        J, K = [J[0]] * 3, [K[0]] * 3
    spec = SwitchedSpec([mat(n, n)] * 3, [mat(n, 1)] * 3, J)
    return augment_switched(spec, gains=K)


def test_select_switched_three_modes_matches_brute_force():
    rng = np.random.default_rng(31)
    model = _three_mode_switched(rng)
    P = []
    for _ in range(3):
        W = rng.standard_normal((3, 3))
        P.append(W @ W.T + np.eye(3))
    cert = _cert(P)
    hits = set()
    for _ in range(300):
        chi = rng.standard_normal(3)
        i = int(rng.integers(0, 3))
        want, _ = oracles.brute_min_mode_each(P, [model.jump(j, i) @ chi for j in range(3)])
        assert select_switched(chi, i, cert, model) == want
        hits.add(want)
    assert hits == {0, 1, 2}


def test_select_switched_three_way_tie_goes_low():
    rng = np.random.default_rng(37)
    model = _three_mode_switched(rng, same=True)
    W = rng.standard_normal((3, 3))
    cert = _cert([W @ W.T + np.eye(3)] * 3)
    for i in range(3):
        for chi in rng.standard_normal((20, 3)):
            assert select_switched(chi, i, cert, model) == 0


def _zero_column_switched():
    """Two 2-d modes; the jump into mode 0 drops the first coordinate, so
    an inf there meets a zero column (0 inf = nan)."""
    drop, keep = [[0.0, 0.0], [0.0, 1.0]], np.eye(2).tolist()
    spec = SwitchedSpec(A=[np.zeros((2, 2)).tolist()] * 2, J=[[drop, drop], [keep, keep]])
    return augment_switched(spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_state_raises_numeric_error(bad):
    """The winning form is nan or +-inf, also through the zero column, and no
    RuntimeWarning leaks (pytest makes one an error)."""
    cert = _cert([np.eye(2), 2.0 * np.eye(2)])
    model = _zero_column_switched()
    for chi in (np.array([bad, 1.0]), np.array([1.0, bad]), np.full(2, bad)):
        with pytest.raises(NumericError):
            select_impulsive(chi, cert)
        for i in range(2):
            with pytest.raises(NumericError):
                select_switched(chi, i, cert, model)


def test_overflowing_forms_raise_numeric_error():
    """A finite state whose every form overflows raises; one that leaves the
    winner finite still selects it."""
    cert = _cert([np.eye(2), 2.0 * np.eye(2)])
    model = _zero_column_switched()
    huge = np.array([0.0, 1e200])  # forms of 1e400, but the jumps stay finite
    with pytest.raises(NumericError):
        select_impulsive(huge, cert)
    for i in range(2):
        with pytest.raises(NumericError):
            select_switched(huge, i, cert, model)
    lopsided = _cert([1e300 * np.eye(2), np.eye(2)])
    chi = np.array([0.0, 1e5])  # forms inf and 1e10, before and after either jump
    assert select_impulsive(chi, lopsided) == 1
    assert select_switched(chi, 0, lopsided, model) == 1


def _clock(modes, dim):
    return ClockFamily((0.0, 0.05), [[np.eye(dim)] * 2] * modes)


# every entry point that takes a certificate, called on ex3 with certificate c
_WITH_CERT = {
    "check": lambda ex, c: check(ex.model, c, ex.dwell),
    "check_clock": lambda ex, c: check_clock(ex.model, _clock(2, 4), c, 0.1, ex.dwell),
    "exact_clock_family": lambda ex, c: exact_clock_family(c, ex.model, (0.0, 0.05)),
    "simulate": lambda ex, c: simulate(ex.model, c, ex.seq, np.ones(ex.model.n)),
    "select_switched": lambda ex, c: select_switched(np.ones(4), 0, c, ex.model),
}

# every entry point of one kind, called on a model of the other
_OF_KIND = {
    "check_impulsive": lambda ex: check_impulsive(ex.model, ex.cert, ex.dwell),
    "check_switched": lambda ex: check_switched(ex.ex1, ex.ex1_cert, ex.dwell),
    "simulate_impulsive": lambda ex: simulate_impulsive(ex.model, ex.cert, ex.seq, np.ones(2)),
    "simulate_switched": lambda ex: simulate_switched(ex.ex1, ex.ex1_cert, ex.seq, np.ones(2)),
    "select_switched": lambda ex: select_switched(np.ones(3), 0, ex.ex1_cert, ex.ex1),
    "assemble_impulsive": lambda ex: assemble_impulsive(ex.model, EX3_PI, ex.dwell),
    "assemble_switched": lambda ex: assemble_switched(ex.ex1, EX1_PI, ex.dwell),
}

_MISFITS = [
    pytest.param(lambda ex, call=call, P=[np.eye(d)] * modes: call(ex, _cert(P)),
                 CertificateError, rf"\({modes}, {d}, {d}\).*\(2, 4, 4\)",
                 id=f"{name}-certificate{modes}x{d}")
    for name, call in _WITH_CERT.items() for modes, d in ((3, 4), (2, 3))
] + [
    pytest.param(lambda ex, clock=_clock(modes, d): check_clock(ex.model, clock, ex.cert, 0.1,
                                                                ex.dwell),
                 CertificateError, rf"clock of shape \({modes}, 2, {d}, {d}\)",
                 id=f"check_clock-clock{modes}x{d}")
    for modes, d in ((2, 5), (1, 4), (3, 4))
] + [
    pytest.param(call, ModelError, f"{name} requires a model of kind", id=f"{name}-kind")
    for name, call in _OF_KIND.items()
] + [
    pytest.param(lambda ex: select_switched(np.ones(4), 0.5, ex.cert, ex.model),
                 ModelError, "mode 0.5 out of range", id="select_switched-current_mode"),
    pytest.param(lambda ex: simulate(ex.model, ex.cert, ex.seq, np.ones(2), initial_mode=1.5),
                 ModelError, "mode 1.5 out of range", id="simulate-initial_mode"),
    pytest.param(lambda ex: select_impulsive(np.ones(5), ex.cert),
                 ModelError, "state has length 5, expected 4", id="select_impulsive-state"),
]


@pytest.mark.parametrize("call, error, message", _MISFITS)
def test_inputs_that_do_not_fit_the_model_are_refused_alike(
        call, error, message, ex1_reference_model, ex1_reference_cert,
        ex3_reference_model, ex3_reference_cert, ex3_dwell):
    """Every entry point refuses the wrong kind, a non-integer mode index or
    a state of another length with ModelError, and a certificate or clock
    of another mode count or dimension with CertificateError naming both
    shapes."""
    ex = SimpleNamespace(model=ex3_reference_model, cert=ex3_reference_cert, dwell=ex3_dwell,
                         ex1=ex1_reference_model, ex1_cert=ex1_reference_cert,
                         seq=gen_sequence(ex3_dwell, "uniform_random", count=3, seed=1))
    with pytest.raises(error, match=message):
        call(ex)
