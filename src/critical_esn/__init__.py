"""Numerical laboratory for truly critical echo state networks.

Per-neuron transfer functions are morphed so that unit-slope anchor
points (epi-critical points) sit exactly at the linear responses the
network expects; the package provides the transfer constructions, the
reservoir dynamics, Lyapunov-exponent estimators, the critical-gain
solver for the tanh baseline, decay-law fitting for forgetting curves,
and a deterministic CLI for the sweep experiments.
"""

from .analysis import (
    CriticalPoint,
    DecayFit,
    DistanceSeries,
    LyapunovEstimate,
    classify_decay,
    expected_orbit_rate,
    fit_exponential,
    fit_power_law,
    loglog_bend,
    lyapunov_derivative_product,
    lyapunov_renormalized,
    solve_critical_b,
)
from .readout import ReadoutModel, train
from .reservoir import (
    Reservoir,
    StepRecord,
    anchored_orbit_state,
    anchored_reservoir,
    baseline_orbit_state,
    baseline_reservoir,
    random_orthogonal,
    run_pair,
)
from .signals import (
    InputSequence,
    alternating,
    constant,
    generate,
    iid_plus_minus,
    rng_stream,
    scaled,
)
from .transfer import (
    MorphableTransfer,
    TanhTransfer,
    ValidationReport,
    Variant,
)

__version__ = "0.1.0"

__all__ = [
    "MorphableTransfer",
    "TanhTransfer",
    "ValidationReport",
    "Variant",
    "Reservoir",
    "StepRecord",
    "random_orthogonal",
    "run_pair",
    "anchored_reservoir",
    "anchored_orbit_state",
    "baseline_reservoir",
    "baseline_orbit_state",
    "InputSequence",
    "alternating",
    "constant",
    "iid_plus_minus",
    "scaled",
    "generate",
    "rng_stream",
    "LyapunovEstimate",
    "DistanceSeries",
    "DecayFit",
    "CriticalPoint",
    "lyapunov_renormalized",
    "lyapunov_derivative_product",
    "expected_orbit_rate",
    "solve_critical_b",
    "fit_power_law",
    "fit_exponential",
    "classify_decay",
    "loglog_bend",
    "ReadoutModel",
    "train",
    "__version__",
]
