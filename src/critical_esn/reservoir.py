"""Reservoir state machines with per-neuron morphable transfer functions.

The update is the standard leakless echo-state form: the linear response
``y_lin = W y + w_in u`` goes elementwise through each neuron's transfer
function.  With orthogonal ``W`` and Lipschitz-1 transfers the map is
non-expansive for every input, which is what makes the critical tuning
safe: no input can push the network into expansion.

One-neuron presets implement the two study systems:

- :func:`anchored_reservoir`: recurrent weight ``-alpha``, input weight
  ``1 - alpha*tanh(1)``, morphable transfer anchored at (-1, 0, 1).  For
  the expected alternating +-1 input the linear response sits exactly on
  the anchors at +-1 for every alpha.
- :func:`baseline_reservoir`: recurrent weight ``-b`` with a plain tanh
  transfer, the classical near-edge-of-chaos contrast system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .analysis import DistanceSeries
from .signals import InputSequence, generate, rng_stream, STREAM_WEIGHTS
from .transfer import MorphableTransfer, TanhTransfer, Variant

__all__ = [
    "StepRecord",
    "Reservoir",
    "random_orthogonal",
    "run_pair",
    "anchored_reservoir",
    "anchored_orbit_state",
    "baseline_reservoir",
    "baseline_orbit_state",
    "config_text",
]

_ORTHO_TOL = 1e-12
_TRANSFER_CACHE = 8  # hooked transfers a reservoir keeps, most recently used

#: Predictor hook signature: (neuron index, step t, history) -> new ECP
#: list or None to keep the current transfer.  Called once per step for
#: each neuron, before the linear response is computed, so a changed
#: prediction takes effect for the very step it precedes.
PredictorHook = Callable[[int, int, list], Optional[Sequence[float]]]


@dataclass(frozen=True)
class StepRecord:
    """State of one update step; ``y = transfer(y_lin)`` holds exactly, elementwise."""

    t: int
    y_lin: np.ndarray
    y: np.ndarray


def random_orthogonal(k: int, seed: int) -> np.ndarray:
    """Random k x k orthogonal matrix, deterministic per seed.

    Built as a product of k elementary (Householder) reflections of
    seeded random unit vectors, so the result is orthogonal to machine
    precision for any k >= 1.
    """
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    rng = rng_stream(seed, STREAM_WEIGHTS)
    q = np.eye(k)
    for _ in range(k):
        v = rng.standard_normal(k)
        norm = float(np.linalg.norm(v))
        while norm < 1e-8:  # essentially impossible, but keep the contract total
            v = rng.standard_normal(k)
            norm = float(np.linalg.norm(v))
        v /= norm
        q -= 2.0 * np.outer(v, v @ q)
    defect = float(np.max(np.abs(q @ q.T - np.eye(k))))
    if defect > _ORTHO_TOL:
        raise RuntimeError(f"orthogonality defect {defect:.3g} above {_ORTHO_TOL:g}")
    return q


class Reservoir:
    """Mutable single-writer state machine; see module docstring.

    Parameters
    ----------
    weights : (k, k) array
        Recurrent weight matrix.
    input_weights : (k, n) array
        Input weight matrix.
    transfers : transfer or sequence of transfers
        One shared transfer or one per neuron.  Shared transfers use a
        vectorized evaluation path.
    state : (k,) array, optional
        Initial state; defaults to the zero vector (the origin is an
        anchor of every transfer and a fixed point under zero input).
    predictor : callable, optional
        Per-step hook remapping neuron ECP lists; see ``PredictorHook``.
        The transfers built for the last few distinct lists are cached.
    require_orthogonal : bool
        Verify ``max|W W^T - I| <= 1e-12`` at construction.
    meta : dict, optional
        Configuration values carried along for serialization.
    """

    def __init__(
        self,
        weights,
        input_weights,
        transfers,
        *,
        state=None,
        predictor: Optional[PredictorHook] = None,
        require_orthogonal: bool = False,
        meta: Optional[dict] = None,
    ):
        self.W = np.atleast_2d(np.asarray(weights, dtype=float))
        if self.W.ndim != 2 or self.W.shape[0] != self.W.shape[1]:
            raise ValueError("recurrent weights must be square")
        if not np.all(np.isfinite(self.W)):
            raise ValueError("recurrent weights must be finite")
        k = self.W.shape[0]
        self.w_in = np.asarray(input_weights, dtype=float).reshape(k, -1)
        if not np.all(np.isfinite(self.w_in)):
            raise ValueError("input weights must be finite")
        if require_orthogonal:
            defect = float(np.max(np.abs(self.W @ self.W.T - np.eye(k))))
            if defect > _ORTHO_TOL:
                raise ValueError(f"weights not orthogonal (defect {defect:.3g})")

        if isinstance(transfers, (MorphableTransfer, TanhTransfer)):
            self.transfers = [transfers] * k
        else:
            self.transfers = list(transfers)
            if len(self.transfers) != k:
                raise ValueError("need one transfer per neuron")
        self._shared = all(tr is self.transfers[0] for tr in self.transfers)

        if state is None:
            self.state = np.zeros(k)
        else:
            self.state = np.asarray(state, dtype=float).reshape(k).copy()
        self.t = 0
        self.predictor = predictor
        self.meta = dict(meta or {})
        self._history: list[StepRecord] = []
        self._transfer_cache: dict = {}

    # -- basic introspection ----------------------------------------------

    @property
    def k(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.w_in.shape[1]

    def copy(self, *, state=None) -> "Reservoir":
        """Independent reservoir with the same configuration.

        Transfers are immutable and shared; the state array is copied
        (or replaced when ``state`` is given).
        """
        return Reservoir(
            self.W.copy(),
            self.w_in.copy(),
            list(self.transfers),
            state=self.state if state is None else state,
            predictor=self.predictor,
            meta=self.meta,
        )

    # -- dynamics ----------------------------------------------------------

    def _apply_predictor(self) -> None:
        changed = False
        for i in range(self.k):
            ecps = self.predictor(i, self.t, self._history)
            if ecps is None:
                continue
            current = self.transfers[i]
            variant = getattr(current, "variant", None) or Variant.BRIDGE
            key = (tuple(ecps), variant)
            # Re-inserting keeps the dict in least- to most-recently-used order.
            cached = self._transfer_cache.pop(key, None)
            if cached is None:
                cached = MorphableTransfer(ecps, variant)
            self._transfer_cache[key] = cached
            if len(self._transfer_cache) > _TRANSFER_CACHE:
                del self._transfer_cache[next(iter(self._transfer_cache))]
            if cached.ecps != getattr(current, "ecps", ()):
                self.transfers[i] = cached
                changed = True
        if changed:
            self._shared = all(tr is self.transfers[0] for tr in self.transfers)

    def step(self, u) -> StepRecord:
        """Advance one step under input ``u`` and return the step record."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.n,):
            raise ValueError(f"input shape {u.shape} does not match n={self.n}")
        if self.predictor is not None:
            self._apply_predictor()
        y_lin = self.W @ self.state + self.w_in @ u
        if self._shared:
            y = self.transfers[0].eval(y_lin)
        else:
            y = np.array([tr.eval(float(v)) for tr, v in zip(self.transfers, y_lin)])
        rec = StepRecord(t=self.t, y_lin=y_lin, y=y)
        self.state = y
        self.t += 1
        return rec

    def _stack_steps(self, stack: np.ndarray, inputs: np.ndarray):
        """Yield a ``(B, k)`` stack of trajectories after each input row.

        With one shared transfer and no predictor hook, every row takes
        ``y <- transfer(W y + w_in u)`` through one ``eval`` call per step;
        for k = 1 each row is bit-identical to :meth:`step`.
        Otherwise each row steps its own copy of this reservoir through
        :meth:`step`.  The consumer may write into the yielded stack: the
        next step starts from what it then holds.
        """
        if self._shared and self.predictor is None:
            transfer = self.transfers[0]
            w_t, win_t = self.W.T, self.w_in.T
            for u in inputs:
                stack = transfer.eval((stack @ w_t + u @ win_t).ravel()).reshape(stack.shape)
                yield stack
        else:
            copies = [self.copy() for _ in stack]
            for u in inputs:
                for res, row in zip(copies, stack):
                    res.state = row
                    res.step(u)
                stack = np.stack([res.state for res in copies])
                yield stack

    def run(self, inputs, record: bool = True):
        """Drive the reservoir through a whole input sequence.

        ``inputs`` is an :class:`InputSequence` spec or an array of
        inputs (length T, each a scalar for n=1 or an n-vector).  With
        ``record`` the full trajectory is returned as a list of
        :class:`StepRecord`; without it only the final record, which
        keeps long runs memory-light.
        """
        if isinstance(inputs, InputSequence):
            inputs = generate(inputs)
        inputs = np.asarray(inputs, dtype=float)
        if len(inputs) < 1:
            raise ValueError("input sequence must have at least one element")
        records: list[StepRecord] = []
        if record:
            self._history = records  # predictor hooks see the steps so far
        rec = None
        for u in inputs:
            rec = self.step(u)
            if record:
                records.append(rec)
        self._history = []
        return records if record else rec


def run_pair(template: Reservoir, x0, y0, inputs) -> DistanceSeries:
    """Euclidean distance between two trajectories under identical input.

    Both trajectories run on independent copies of ``template`` started
    from ``x0`` and ``y0``.  Row ``t=0`` is the initial separation; row
    ``t`` the separation after consuming input element ``t-1``.  The run
    stops as soon as the distance reaches exactly zero (the states are
    then identical and stay identical forever).  Non-finite start states
    and inputs are rejected.
    """
    if isinstance(inputs, InputSequence):
        inputs = generate(inputs)
    inputs = np.asarray(inputs, dtype=float)
    if not np.all(np.isfinite(inputs)):
        raise ValueError("input must be finite")
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    first = np.asarray(x0, dtype=float).reshape(template.k)
    second = np.asarray(y0, dtype=float).reshape(template.k)
    if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
        raise ValueError("start states must be finite")

    ts = [0]
    ds = [float(np.linalg.norm(second - first))]
    truncated = 0 if ds[0] == 0.0 else None
    if truncated is None:
        steps = template._stack_steps(np.stack([first, second]), inputs)
        for t, pair in enumerate(steps, start=1):
            d = float(np.linalg.norm(pair[1] - pair[0]))
            ts.append(t)
            ds.append(d)
            if d == 0.0:
                truncated = t
                break
    return DistanceSeries(
        t=np.asarray(ts, dtype=int), d=np.asarray(ds), truncated_at=truncated
    )


# -- presets ----------------------------------------------------------------


def anchored_reservoir(
    alpha: float,
    ecps: Sequence[float] = (-1.0, 1.0),
    variant: Variant | str = Variant.BRIDGE,
    predictor: Optional[PredictorHook] = None,
) -> Reservoir:
    """One-neuron network that expects the alternating +-1 input.

    The recurrent weight is ``-alpha`` and the input weight
    ``1 - alpha*tanh(1)``, so on the expected orbit the linear response
    is exactly +-1 for every alpha; the default anchors (-1, 0, 1) place
    unit slope exactly there.
    """
    if not (alpha > 0.0):
        raise ValueError("alpha must be positive")
    transfer = MorphableTransfer(ecps, variant)
    meta = {
        "kind": "anchored",
        "alpha": alpha,
        "ecps": ",".join(format(p, ".17g") for p in transfer.ecps),
        "variant": transfer.variant.value,
        "k": 1,
    }
    return Reservoir(
        [[-alpha]],
        [[1.0 - alpha * math.tanh(1.0)]],
        transfer,
        predictor=predictor,
        meta=meta,
    )


def anchored_orbit_state() -> np.ndarray:
    """State that puts the next linear response exactly at +1.

    Pairs with an alternating input whose first element is +1: from
    ``y = -tanh(1)`` the linear response is ``alpha*tanh(1) +
    (1 - alpha*tanh(1))`` which collapses to 1 in exact arithmetic and to
    within one rounding otherwise.
    """
    return np.array([-math.tanh(1.0)])


def baseline_reservoir(b: float, amplitude: float = math.pi / 4.0) -> Reservoir:
    """One-neuron tanh baseline with recurrent weight ``-b``.

    ``amplitude`` is the expected input amplitude the gain was tuned for;
    it is carried in the configuration so runs are self-describing.
    """
    if not (b > 0.0):
        raise ValueError("b must be positive")
    meta = {"kind": "baseline", "b": b, "amplitude": amplitude, "k": 1}
    return Reservoir([[-b]], [[1.0]], TanhTransfer(), meta=meta)


def baseline_orbit_state(s_star: float) -> np.ndarray:
    """State on the period-2 orbit of the tanh baseline.

    Pairs with an alternating input whose first element is +amplitude;
    the orbit then proceeds as ``x_t = -(-1)**t * s_star``.
    """
    return np.array([float(s_star)])


def config_text(meta: dict) -> str:
    """Flat key-value serialization of a reservoir configuration.

    Documented keys: kind, alpha, b, amplitude, ecps, variant, seed, k.
    Values are written with 17 significant digits where they are floats.
    """
    known = ("kind", "alpha", "b", "amplitude", "ecps", "variant", "seed", "k")
    lines = []
    for key in known:
        if key not in meta:
            continue
        value = meta[key]
        if isinstance(value, float):
            value = format(value, ".17g")
        lines.append(f"{key}={value}")
    for key in sorted(set(meta) - set(known)):
        lines.append(f"{key}={meta[key]}")
    return "\n".join(lines) + "\n"
