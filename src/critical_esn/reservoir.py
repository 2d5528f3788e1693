"""Reservoir state machines with per-neuron morphable transfer functions.

The update is the standard leakless echo-state form: the linear response
``y_lin = W y + w_in u`` goes elementwise through each neuron's transfer
function.  :meth:`Reservoir.step` is the only code that advances a
reservoir, a ``(k,)`` state or every row of a ``(B, k)`` stack: the
predictor hook, then the step.  Beyond that arithmetic a step pays for
one check of its input's width, its new arrays and one record; the
linear response is two ``np.dot`` products, and a ``(1,)`` state of one
neuron with one input takes the float step of the engine's float lanes,
with the bits of the ``np.dot`` path.  Every stacked run steps
through it, in the blocks of :func:`~critical_esn.analysis._step_blocks`;
:func:`run_pair` runs a one-neuron pair with no predictor hook as two
lanes of the blocked one-neuron engine of :mod:`~critical_esn.analysis`
instead.  With orthogonal ``W`` and Lipschitz-1 transfers the map is
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

import functools
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .analysis import (DistanceSeries, _CycleTail, _lane_blocks, _one_lane, _run_rows,
                       _step_blocks)
from .signals import rng_stream, STREAM_WEIGHTS
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

#: Expected input amplitude the tanh baseline's critical gain is tuned for.
_BASELINE_AMPLITUDE = math.pi / 4.0

#: Predictor hook signature: (neuron index, step t, state) -> new ECP list
#: or None to keep the current transfer.  Called once per step for each
#: neuron, before the linear response, with a copy of the (k,) state (row 0
#: of a (B, k) stack); the transfers it sets apply to every row that step.
PredictorHook = Callable[[int, int, np.ndarray], Optional[Sequence[float]]]


class StepRecord(NamedTuple):
    """State of one update step; ``y = transfer(y_lin)`` holds exactly, elementwise.

    An immutable ``(t, y_lin, y)`` tuple.  ``y`` is the reservoir's own
    ``state`` array after the step, not a copy: a write into ``state``
    before the next step shows in ``y``.  Each step makes a new ``state``
    array, so the records of a :meth:`Reservoir.run` hold distinct arrays.
    :meth:`Reservoir.step` builds it with ``tuple.__new__``: the same
    tuple, without the named tuple's Python-level ``__new__`` (0.16
    against 0.28 µs).
    """

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
        One shared transfer, evaluated in one call per step, or one per
        neuron, evaluated one state column per call.
    state : (k,) or (B, k) array, optional
        Initial state; defaults to the zero vector (the origin is an
        anchor of every transfer and a fixed point under zero input).  A
        ``(B, k)`` stack advances ``B`` trajectories under the same input.
        A non-finite start state is rejected.
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
            state = np.asarray(state, dtype=float)
            if not np.all(np.isfinite(state)):
                raise ValueError("start states must be finite")
            self.state = state.reshape((k,) if state.ndim < 2 else (len(state), k)).copy()
        self.t = 0
        self.predictor = predictor
        self.meta = dict(meta or {})
        # Hooked transfers, most recently used kept; MorphableTransfer is looked up per build.
        self._hooked_transfer = functools.lru_cache(maxsize=_TRANSFER_CACHE)(
            lambda ecps, variant: MorphableTransfer(ecps, variant))

    # -- basic introspection ----------------------------------------------

    @property
    def k(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.w_in.shape[1]

    def copy(self, *, state=None) -> "Reservoir":
        """Independent reservoir with the same configuration, at the start of a new run.

        Transfers are immutable and shared; the state array is copied
        (or replaced when ``state`` is given).  The copy's ``t`` restarts
        at 0, so a predictor hook's ``t`` counts the input rows of the
        copy's own run.  It starts from the current transfers, which a
        hook may have set, and its cache of hooked transfers starts empty.
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

    def step(self, u) -> StepRecord:
        """Advance the held ``(k,)`` state or ``(B, k)`` stack one step under input ``u``.

        The one code that advances a reservoir.  ``u`` is a scalar (for
        n = 1) or an ``(n,)`` row, shared by every row of a stack.  Only
        the row's width is checked, on every call: float64 reach is
        checked by the run gate, once per run (:meth:`run`,
        :func:`run_pair`, the estimators), not per step.  A predictor hook
        runs first and may swap transfers; whether every neuron shares one
        transfer is worked out again only after a swap.  A ``(1,)`` state
        of one neuron with one input then steps as Python floats,
        ``x = w*y + w_in*u`` and then ``_eval_float(x)``: the float step of
        the engine's float lanes (:func:`~critical_esn.analysis._float_rows`),
        each result filled into a new ``(1,)`` array.  Beyond that
        arithmetic such a step pays for the width check, the two arrays and
        the record.  Its bits are those of the array path: on one element
        ``np.dot`` is one IEEE product, signed zero included, the sum is one
        add, and ``_eval_float`` is ``eval`` bit for bit.  Every other state
        takes two ``np.dot`` products, which round as
        ``state @ W.T + u @ w_in.T`` does (a test pins it bit for bit) at a
        lower cost per call.  A lone step whose linear response overflows
        is not rejected: on a one-neuron state it gives ``inf`` silently,
        where the array path warns.  The record's ``y`` is the live
        ``state`` array, and a caller may write into it between steps (see
        :class:`StepRecord`).
        """
        w_in, state, t = self.w_in, self.state, self.t
        u = np.array(u, dtype=float, ndmin=1, copy=None)
        if u.ndim != 1 or len(u) != w_in.shape[1]:
            raise ValueError(f"input shape {u.shape} does not match n={self.n}")
        if self.predictor is not None:
            reference = state.reshape(-1, self.k)[0].copy()
            changed = False
            for i, current in enumerate(self.transfers):
                ecps = self.predictor(i, t, reference)
                if ecps is not None:
                    cached = self._hooked_transfer(tuple(ecps), current.variant or Variant.BRIDGE)
                    if cached.ecps != current.ecps:
                        self.transfers[i], changed = cached, True
            if changed:
                self._shared = all(tr is self.transfers[0] for tr in self.transfers)
        if state.shape == (1,) and w_in.shape == (1, 1):
            x = self.W.item() * state.item() + w_in.item() * u.item()
            y_lin, y = np.empty(1), np.empty(1)
            y_lin[0], y[0] = x, self.transfers[0]._eval_float(x)
        else:
            y_lin = np.dot(state, self.W.T) + np.dot(u, w_in.T)
            if self._shared:
                y = self.transfers[0].eval(y_lin)
            else:
                y = np.empty_like(y_lin)
                for i, tr in enumerate(self.transfers):
                    y[..., i] = tr.eval(y_lin[..., i])
        self.state = y
        self.t = t + 1
        return tuple.__new__(StepRecord, (t, y_lin, y))

    def run(self, inputs) -> list[StepRecord]:
        """Drive the reservoir through a whole input sequence.

        ``inputs`` is a spec, or T scalars for n=1, or T n-vectors.  The
        run gate (:func:`~critical_esn.analysis._run_rows`) rejects a bad
        or empty input, a non-finite state and a run whose linear response
        can overflow before the first step.  Returns the trajectory as one
        :class:`StepRecord` per input row; no two records share an array.
        """
        return [self.step(u) for u in _run_rows(inputs, self.W, self.w_in, self.state)]


def run_pair(template: Reservoir, x0, y0, inputs) -> DistanceSeries:
    """Euclidean distance between two trajectories under identical input.

    Both trajectories start from ``x0`` and ``y0`` as the two rows of one
    ``(2, k)`` stack on a copy of ``template``, so a predictor hook sees
    the ``x0`` trajectory.  Row ``t=0`` is the initial separation; row
    ``t`` the separation after consuming input element ``t-1``.  The run
    stops as soon as the distance reaches exactly zero (the states are
    then identical and stay identical forever).  The input, the template's
    weights and both start states pass the run gate
    (:func:`~critical_esn.analysis._run_rows`) before the first step, so
    a bad or empty input, a non-finite start state and a run whose linear
    response can overflow are rejected.

    A one-neuron pair with no predictor hook runs as two lanes of the
    blocked one-neuron engine in :mod:`~critical_esn.analysis`, whose
    blocks grow from one row, so a pair that reaches zero at step ``s``
    computes at most ``2*s`` steps.
    The engine takes the distance of each block's rows as its per-block
    consumer.  A lane that has closed an exact 2-cycle is filled from it
    and no longer stepped, so a pair whose reference starts on the
    expected orbit (``forgetting``'s default) steps its twin alone; once
    both lanes have closed, the distances of the next two rows are taken
    from the cycle and the rest of the series repeats them
    (:func:`~critical_esn.analysis._lane_blocks`).
    Each distance is ``sqrt(diff*diff)``, which is what
    ``np.linalg.norm`` computes for one element, so with one input
    (n = 1) the series is bit-identical to stepping the stack.  With
    n > 1 the drive is ``u @ w_in[0]``, as in
    :func:`~critical_esn.analysis.lyapunov_renormalized`, which may round
    differently from the stack's per-row product.  Every other pair steps
    the stack through :meth:`Reservoir.step`, in the blocks of
    :func:`~critical_esn.analysis._step_blocks`, with each step's distance
    as its value, so a block ends right after the pair has met and a
    predictor hook never sees a step after that.
    """
    starts = [np.reshape(x0, template.k), np.reshape(y0, template.k)]
    rows = _run_rows(inputs, template.W, template.w_in, starts)
    pair = template.copy(state=starts)
    start = np.linalg.norm(pair.state[1] - pair.state[0])
    parts = [np.array([start])]
    if start > 0.0:
        steps = (_lane_distances(pair, rows) if _one_lane(pair) else
                 _step_blocks(pair, rows, lambda rec: np.linalg.norm(rec.y[1] - rec.y[0])))
        for d in steps:
            parts.append(d)
            if not d.all():
                break
    d = np.concatenate(parts)
    zeros = np.flatnonzero(d == 0.0)
    truncated = int(zeros[0]) if zeros.size else None
    if truncated is not None:
        d = d[:truncated + 1]
    return DistanceSeries(t=np.arange(d.size), d=d, truncated_at=truncated)


def _lane_distances(pair: Reservoir, rows: np.ndarray):
    """Distances of a one-lane pair, one array per block of the blocked engine.

    A closed cycle's tail comes as one array of every later distance.
    """
    def distances(drive, states):
        diff = states[1:, 1] - states[1:, 0]
        return np.sqrt(diff * diff)

    for block in _lane_blocks(np.repeat(pair.W[0], 2), np.ones(2), (rows @ pair.w_in[0])[:, None],
                              pair.state[:, 0], pair.transfers[0], distances):
        yield block.rows(block.t, len(rows)) if isinstance(block, _CycleTail) else block


# -- presets ----------------------------------------------------------------


def anchored_reservoir(
    alpha: float,
    variant: Variant | str = Variant.BRIDGE,
    predictor: Optional[PredictorHook] = None,
) -> Reservoir:
    """One-neuron network that expects the alternating +-1 input.

    The recurrent weight is ``-alpha`` and the input weight
    ``1 - alpha*tanh(1)``, so on the expected orbit the linear response
    is exactly +-1 for every alpha; the anchors, fixed at (-1, 0, 1),
    place unit slope exactly there.  Only a ``predictor`` hook moves them.
    """
    if not (alpha > 0.0):
        raise ValueError("alpha must be positive")
    transfer = MorphableTransfer((-1.0, 1.0), variant)
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


def baseline_reservoir(b: float) -> Reservoir:
    """One-neuron tanh baseline with recurrent weight ``-b``.

    Its configuration carries ``amplitude`` = pi/4, the expected input
    amplitude the critical gain is tuned for, so runs are self-describing.
    """
    if not (b > 0.0):
        raise ValueError("b must be positive")
    meta = {"kind": "baseline", "b": b, "amplitude": _BASELINE_AMPLITUDE, "k": 1}
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
