"""Linear readout trained by ridge-regularized least squares.

Only the readout is ever trained; the reservoir weights stay fixed.  A
bias column is always appended to the state matrix.  The normal-equation
solution is verified by re-multiplication, and a singular system at zero
regularization is reported instead of being silently regularized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ReadoutModel", "train", "predict_all", "model_to_text"]

#: Residual bound of the verified normal-equation solve, relative to the
#: right-hand side scale.
_RESIDUAL_REL = 1e-8


@dataclass(frozen=True)
class ReadoutModel:
    """Affine readout: ``prediction = weights[:-1] @ state + weights[-1]``."""

    weights: np.ndarray  # (k + 1,), bias last
    ridge_lambda: float
    washout: int


def train(states, targets, ridge_lambda: float = 1e-8, washout: int = 100) -> ReadoutModel:
    """Fit the readout on post-washout rows.

    ``states`` is a (T, k) array or list of k-vectors, ``targets`` the
    matching scalars.  Solves ``(X^T X + lambda I) w = X^T y`` with a
    bias column in X and checks the solution residual; a singular system
    at ``ridge_lambda = 0``, a non-finite or negative ``ridge_lambda`` and
    a solution that is not finite raise instead of being patched over.
    """
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(targets, dtype=float).reshape(-1)
    if len(x) != len(y):
        raise ValueError("states and targets must have equal length")
    if not (math.isfinite(ridge_lambda) and ridge_lambda >= 0.0):
        raise ValueError("ridge_lambda must be finite and nonnegative")
    if washout < 0:
        raise ValueError("washout must be nonnegative")
    k = x.shape[1]
    if len(x) < washout + k + 1:
        raise ValueError("need at least washout + k + 1 rows")

    xw = np.column_stack([x[washout:], np.ones(len(x) - washout)])
    yw = y[washout:]
    gram = xw.T @ xw + ridge_lambda * np.eye(k + 1)
    rhs = xw.T @ yw
    try:
        weights = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular normal equations at ridge_lambda={ridge_lambda:g}") from exc

    scale = max(1.0, float(np.max(np.abs(rhs))))
    residual = float(np.max(np.abs(gram @ weights - rhs)))
    if not residual <= _RESIDUAL_REL * scale:  # NaN weights fail too
        raise ValueError(
            f"normal-equation residual {residual:.3g} exceeds {_RESIDUAL_REL:g} * scale; "
            f"system is numerically singular at ridge_lambda={ridge_lambda:g}"
        )
    return ReadoutModel(weights=weights, ridge_lambda=ridge_lambda, washout=washout)


def predict_all(model: ReadoutModel, states) -> np.ndarray:
    """Vectorized readout over a (T, k) state matrix.

    A 1-D array is read as T one-neuron states.  States of another width
    than the model's raise ``ValueError``.
    """
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    k = model.weights.size - 1
    if x.shape[-1] != k:
        raise ValueError(f"states have width {x.shape[-1]} but the readout has k={k} "
                         "(a 1-D array is read as width 1)")
    return x @ model.weights[:-1] + model.weights[-1]


def model_to_text(model: ReadoutModel) -> str:
    """Flat key-value serialization; weights as a decimal list."""
    weights = ",".join(format(w, ".17g") for w in model.weights)
    return (
        f"weights={weights}\n"
        f"ridge_lambda={format(model.ridge_lambda, '.17g')}\n"
        f"washout={model.washout}\n"
    )
