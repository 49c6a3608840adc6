"""Min-jumping mode selection.

At each sample the controller measures chi = (x, u) and picks the next mode
as the argmin of mode-indexed quadratic forms.  For the impulsive loop the
forms are chi' P_i chi; for the switched loop each candidate's jump map is
folded in, chi' Jbar_{j,i}' P_j Jbar_{j,i} chi, so the score is the
post-jump value of the candidate's own storage function.  `argmin_forms`
scores all candidates with two dot products on their `_form_stack`, ties to
the lowest index; select_* check their arguments and build it on each call.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CertificateError, ModelError, NumericError
from .model import ModeWeights, _num, _numeric

_FORM_FLOOR = 2.0 ** -900  # the smallest winning form argmin_forms trusts unscaled


@dataclass(frozen=True, eq=False)
class MinJumpCertificate:
    """Rule data: positive definite matrices P_i plus the mode weights.

    P is one read-only (modes, d, d) array, P[i] mode i's matrix, and its
    shape is the certificate's.  eps records the margin the certificate was
    verified or synthesized with; it does not enter mode selection.
    """

    P: np.ndarray
    weights: ModeWeights
    eps: float = 0.0

    def __init__(self, P, weights, eps=0.0):
        if not isinstance(weights, ModeWeights):
            weights = ModeWeights(weights)
        P = _numeric(P, "P", (weights.modes, "d", "d"), CertificateError)
        for i, Pi in enumerate(P):
            if not linalg.is_pd(Pi):
                raise CertificateError(f"P[{i}] is not positive definite")
        eps = _num(eps, "eps", float, CertificateError)
        if not 0.0 <= eps < np.inf:
            raise CertificateError(f"eps must be a finite nonnegative number, got {eps!r}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "eps", eps)

    def scaled(self, alpha):
        """Same rule with every P_i multiplied by alpha > 0."""
        alpha = _num(alpha, "scale", float, CertificateError)
        if alpha <= 0.0:
            raise CertificateError("scale must be positive")
        return MinJumpCertificate(alpha * self.P, self.weights, self.eps * alpha)


def _fit(model, cert=None, kind=None, mode=None, what="this call"):
    """The one rule, for every entry point, on whether its inputs fit model.

    The wrong kind, or a mode that is not an integer index, is a ModelError;
    a certificate of another mode count or dimension d is a CertificateError
    naming both shapes.
    """
    if kind is not None and model.kind != kind:
        raise ModelError(f"{what} requires a model of kind {kind}, got {model.kind}")
    if cert is not None and cert.P.shape != (want := (model.modes, model.dim, model.dim)):
        raise CertificateError(f"certificate of shape {cert.P.shape}"
                               f" does not fit the model's {want}")
    if mode is not None and not (isinstance(mode, numbers.Integral) and 0 <= mode < model.modes):
        raise ModelError(f"mode {mode!r} out of range for a {model.modes}-mode model")


def _forms(W, P):
    """w' P_k w for stacked P (..., d, d); W is one state (d,) or a row per P_k."""
    return np.einsum("...d,...de,...e->...", W, P, W)


def _form_stack(P, J=None):
    """One C-contiguous ((1 + modes) d, d) array [I; Q]: the identity's rows,
    then those of the P_i, or of the J_i' P_i J_i for one jump-table source
    column's maps J (modes, d, d).  One gemv on it and one on the result give
    chi' chi and every candidate's form."""
    if J is not None:
        P = np.swapaxes(J, 1, 2) @ (P @ J)
    return np.concatenate([np.eye(P.shape[-1]), P.reshape(-1, P.shape[-1])])


def argmin_forms(Q, chi):
    """Index of the smallest form chi' Q_i chi for a `_form_stack` Q, ties to
    the lowest index; the arguments are unchecked.  Underflow cannot change
    the choice: below 2^-900 (0 included) chi is scaled by an exact power of
    two to max|chi| in [1/2, 1) and scored again.  A non-finite winner raises."""
    forms = Q.dot(chi).reshape(-1, len(chi)).dot(chi)[1:]
    best = int(forms.argmin())
    if forms[best] < _FORM_FLOOR:
        chi = np.ldexp(chi, -np.frexp(np.abs(chi).max())[1])
        forms = Q.dot(chi).reshape(-1, len(chi)).dot(chi)[1:]
        best = int(forms.argmin())
    if not math.isfinite(forms[best]):
        raise NumericError("state is not finite, or its quadratic forms overflow")
    return best


def _select(Q, chi):
    """argmin_forms(Q, chi) for a state chi of any shape, checked against Q."""
    chi = np.asarray(chi, dtype=float).reshape(-1)
    if chi.shape[0] != Q.shape[1]:
        raise ModelError(f"state has length {chi.shape[0]}, expected {Q.shape[1]}")
    with np.errstate(invalid="ignore", over="ignore"):  # judged by argmin_forms
        return argmin_forms(Q, chi)


def select_impulsive(chi, cert):
    """argmin_i chi' P_i chi, smallest index on ties."""
    return _select(_form_stack(cert.P), chi)


def select_switched(chi, current_mode, cert, model):
    """argmin_j of the post-jump forms from the current mode, ties to smallest j."""
    _fit(model, cert, "switched", current_mode, "select_switched")
    return _select(_form_stack(cert.P, model.jump_table[:, current_mode]), chi)
