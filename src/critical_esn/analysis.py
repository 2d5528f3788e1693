"""Lyapunov estimation, critical-parameter solving, and decay-law fitting.

The central quantity is the input-conditioned Lyapunov exponent: the
asymptotic log-rate at which two trajectories with infinitesimally close
initial states separate under one and the same input sequence.  Negative
means the input is forgotten exponentially, zero marks critical dynamics
with power-law forgetting, positive means the echo-state property is lost
for that input.

Estimators
----------
- :func:`lyapunov_renormalized`: Benettin-style two-trajectory method; a
  companion trajectory is kept at separation ``d0`` by renormalizing it
  onto the current difference direction after every step, and the
  exponent is the mean per-step log growth.  A one-neuron reservoir with
  one shared transfer and no predictor hook runs on the blocked
  one-neuron engine below.  Every other reservoir advances reference and
  companion as one ``(2, k)`` state stack through the reservoir's one
  step kernel; a predictor hook runs once per step, sees the reference
  state, and sets the transfers of both rows.
- :func:`lyapunov_derivative_product`: exact tangent-dynamics average for
  one-neuron systems, ``mean log |W * slope(y_lin_t)|``; serves as the
  independent cross-check oracle for the renormalized method.  It steps
  the reservoir through ``Reservoir.step``, so it shares no code with the
  blocked engine and honours a predictor hook's transfer at every step.
- :func:`expected_orbit_rate`: tangent growth rate of the tanh baseline
  when the state is held on the expected critical orbit while the input
  amplitude is scaled; this is the quantity that turns positive the
  moment the input is louder than expected.  (The free-running exponent
  cannot show this: off the expected orbit the baseline falls onto a
  strongly contracting large-amplitude orbit and the asymptotic rate is
  dominated by that attractor.)

Batched variants of the one-neuron estimators evaluate whole parameter
grids in one vectorized run on one blocked engine.  For one neuron and a
nondecreasing transfer the renormalized companion is always
``ref +- d0``, its sign set by the previous step's separation, so only
the reference recurrence ``y <- transfer(w*y + w_in*u)`` is sequential:
the engine runs it for a block of rows, one ``eval`` per row, and then
evaluates every companion of the block in one wide ``eval`` (or, for the
derivative product, every slope in one ``slope`` call).  A block of at
most ``_FLOAT_LANES`` (m* = 6) lanes, such as a ``forgetting`` pair or
one renormalized ``lyapunov`` estimate, steps its lanes as Python floats
instead, through the same piece table and bit for bit what ``eval``
returns, because one small ``eval`` costs more than six float steps.
Once the lanes close an exact 1- or 2-cycle under input that repeats
with that period (every state equal, bit for bit, to the one p rows
earlier), the reference recurrence is replayed from the cycle instead of
stepped; ``eval`` is pure, so the replayed states are the stepped ones.
Blocks start at one row and double up to ``2**13`` cells (rows x lanes),
so a consumer that stops early has computed at most about twice the rows
it read;
:func:`~critical_esn.reservoir.run_pair` runs a one-neuron pair as two
lanes of the same recurrence and stops at an exact-zero distance.  Every
estimator is a stream of log blocks, ``(rows, m)`` from the engine or
``(rows,)`` from a per-step estimator, read by one reducer, :func:`_rate`.
It keeps 20 running batch sums per lane and folds each block into them
in row order, by one carry-in ``cumsum`` or, for a block wider than
``_CUMSUM_LANES``, row by row, so the sums are bit for bit those of
adding the rows one at a time.  Beyond its input an estimate's memory
does not grow with the horizon, and a lane's result is identical whether
it runs alone or in any split of a grid, whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .signals import input_rows, rng_stream, STREAM_DIRECTION

__all__ = [
    "LyapunovEstimate",
    "DistanceSeries",
    "DecayFit",
    "CriticalPoint",
    "lyapunov_renormalized",
    "lyapunov_derivative_product",
    "renormalized_scalar_batch",
    "derivative_product_scalar_batch",
    "expected_orbit_rate",
    "solve_critical_b",
    "fit_power_law",
    "fit_exponential",
    "classify_decay",
    "loglog_bend",
]

_BATCHES = 20  # batch-mean count for the standard error
_FLOOR = 1e-13  # distances below this are floating-point noise for fits
_MIN_FIT_POINTS = 30  # a decay fit needs at least this many points in its window
_BEND_POINTS = 25  # geometric resampling size of loglog_bend


@dataclass(frozen=True)
class LyapunovEstimate:
    """Estimated exponent (nats per step) plus estimation diagnostics."""

    lam: float
    method: str
    steps_used: int
    washout: int
    d0: Optional[float]
    stderr: float


@dataclass
class DistanceSeries:
    """Distance between two trajectories, per step.

    ``truncated_at`` is the step at which the distance reached exactly
    zero, after which the trajectories are identical and recording stops.
    """

    t: np.ndarray
    d: np.ndarray
    truncated_at: Optional[int] = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=int)
        self.d = np.asarray(self.d, dtype=float)
        if self.t.shape != self.d.shape:
            raise ValueError("t and d must have matching shapes")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("step indices must increase strictly")
        if np.any(self.d < 0.0):
            raise ValueError("distances must be nonnegative")


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay law of a distance series.

    Exactly one of ``c_a`` (power-law exponent) and ``c_b`` (per-step
    exponential base) is set unless the classification is inconclusive.
    """

    law: str  # "power_law" | "exponential" | "inconclusive"
    c_a: Optional[float]
    c_b: Optional[float]
    r2_loglog: float
    r2_semilog: float
    window: tuple[int, int]
    truncated_at: Optional[int] = None


@dataclass(frozen=True)
class CriticalPoint:
    """Solution of the period-2 criticality system of the tanh baseline.

    ``b_star`` is the recurrent gain at which the orbit of amplitude
    ``s_star`` has per-step tangent magnitude exactly 1; ``residuals``
    are the absolute defects of the two defining equations.
    """

    b_star: float
    s_star: float
    residuals: tuple[float, float]


# -- estimators as streamed reductions ----------------------------------------


def _run_rows(inputs, w, w_in, starts, washout: Optional[int] = None) -> np.ndarray:
    """The checked ``(T, width)`` input rows of a run, before its first step.

    The one gate of every stepping run: ``Reservoir.run``, ``run_pair``,
    both Lyapunov estimators and both batched one-neuron engines.  ``w``
    and ``w_in`` are a reservoir's ``(k, k)`` and ``(k, n)`` weights, or
    the ``(m,)`` gains of ``m`` one-neuron lanes, which read shared input
    as ``(T,)`` or ``(T, 1)`` rows and per-lane input as ``(T, m)``.
    ``starts`` holds every start row of the run, neurons or lanes on its
    last axis.  Rejected, in this order:

    - a bad input, by :func:`~critical_esn.signals.input_rows`;
    - an empty input, or with a ``washout``, a negative one or fewer than
      ``washout + 1000`` rows;
    - a non-finite gain or start state;
    - a linear response that can overflow float64.  Every transfer stays
      within +-2 and a renormalized companion within ``d0 <= 1e-6`` of
      its reference, so each neuron's or lane's ``|y_lin|`` is at most
      ``|w| @ (max(2, |s|) + 1e-6) + |w_in| @ max|u|`` (elementwise for
      lanes), with ``|s|`` the largest start row and ``max|u|`` the
      largest input of each column; the run is rejected unless that is
      finite.
    """
    lanes = w.ndim == 1
    width = (1 if np.shape(inputs)[1:] in ((), (1,)) else w.size) if lanes else w_in.shape[1]
    rows = input_rows(inputs, width)
    if washout is None:
        if len(rows) < 1:
            raise ValueError("input sequence must have at least one element")
    elif washout < 0:
        raise ValueError("washout must be nonnegative")
    elif len(rows) < washout + 1000:
        raise ValueError("input too short: need at least washout + 1000 steps")
    starts = np.asarray(starts, dtype=float)
    if not all(np.all(np.isfinite(x)) for x in (w, w_in, starts)):
        raise ValueError("gains and start states must be finite")
    y = np.maximum(2.0, np.abs(starts)).reshape(-1, len(w)).max(axis=0) + 1e-6
    u = np.abs(rows).max(axis=0)
    with np.errstate(over="ignore"):
        reach = np.abs(w) * y + np.abs(w_in) * u if lanes else np.abs(w) @ y + np.abs(w_in) @ u
    if not np.all(np.isfinite(reach)):
        raise ValueError("linear response overflows float64")
    return rows


def _check_d0(d0: float) -> None:
    if not (1e-12 <= d0 <= 1e-6):
        raise ValueError("d0 must lie in [1e-12, 1e-6]")


#: Most lanes of a log segment that :func:`_rate` folds with one ``cumsum``;
#: wider segments are added row by row.  ``cumsum`` along rows pays per lane,
#: the row loop per row.  Measured on full engine blocks (8,192 cells;
#: CPython 3.11, numpy 2.4.6, 2 vCPUs), rows x lanes: cumsum / row loop:
#: 273 x 30: 33 / 226 us; 85 x 96: 34 / 67 us; 64 x 128: 32-37 / 30-52 us;
#: 51 x 160: 30 / 26 us; 32 x 256: 37 / 17 us; 2 x 3000: 53 / 4 us.
_CUMSUM_LANES = 128


def _fold(acc, seg):
    """``((acc + seg[0]) + seg[1]) + ...`` along the rows, or from ``seg[0]`` when ``acc`` is None.

    A narrow segment takes one ``cumsum``, which adds along its rows in
    order, lane by lane, with the carry written into a copy of its first
    row (``acc + seg[0]`` equals ``seg[0] + acc``: IEEE addition
    commutes).  ``np.add.reduce`` would not do: it sums a contiguous axis
    pairwise.  A segment of more than ``_CUMSUM_LANES`` lanes is added row
    by row, because ``cumsum`` pays per lane.
    """
    if seg.ndim > 1 and seg.shape[1] > _CUMSUM_LANES:
        if acc is None:
            acc, seg = seg[0], seg[1:]
        for row in seg:
            acc = acc + row
        return acc
    if acc is not None:
        seg = seg.copy()
        seg[0] = acc + seg[0]
    return np.cumsum(seg, axis=0)[-1]


def _rate(blocks, steps: int, washout: int):
    """Mean rate and batch-mean standard error of a stream of log blocks.

    ``blocks`` yields the per-step logs of ``steps`` consecutive steps as
    blocks of rows: a ``(rows,)`` array of scalar logs, or a ``(rows, m)``
    array with one value per lane.  The first ``washout`` rows are skipped
    and the next ``used`` (the largest multiple of 20 within ``steps -
    washout``) are summed into 20 batch sums as they arrive; the blocks
    are split at the washout and batch edges, and each segment is folded
    into its batch's running sum in row order (:func:`_fold`), so each sum
    is bit for bit that of adding its rows one at a time, whatever the
    blocks.  No block is drawn after the one that holds the last used
    row.  Each lane's batch means form one contiguous row, so a lane's
    result depends only on its own logs.  A lane with a log of 0
    (``-inf``) gets ``lam = -inf`` and ``stderr = nan``, without a warning.

    Returns ``(lam, stderr, used)``.
    """
    per = (steps - washout) // _BATCHES
    end = washout + per * _BATCHES
    sums, acc = [], None
    t0, edge = 0, washout + per  # the first row of the block, the end of the open batch
    with np.errstate(divide="ignore"):  # the stream's log 0 = -inf is a result
        for block in blocks:
            t1 = t0 + len(block)
            lo = max(t0, washout)
            while lo < min(t1, end):
                hi = min(t1, edge)
                acc = _fold(acc, block[lo - t0:hi - t0])
                if hi == edge:
                    sums.append(acc.copy())  # not a view that keeps its block alive
                    acc, edge = None, edge + per
                lo = hi
            if t1 >= end:
                break
            t0 = t1
    batches = np.stack(sums, axis=-1) / per
    lam = batches.mean(axis=-1)
    # A -inf lane's spread is -inf - -inf: the documented NaN, not a warning.
    with np.errstate(invalid="ignore"):
        stderr = batches.std(axis=-1, ddof=1) / math.sqrt(_BATCHES)
    return lam, stderr, per * _BATCHES


def _doubling_blocks(logs):
    """The scalar logs of a per-step stream, as ``(rows,)`` blocks of 1, 2, 4, ... rows.

    Blocks grow up to ``_BLOCK_CELLS`` rows, as in :func:`_reference_blocks`,
    so a reducer that stops early has drawn at most about twice the steps
    it reads.
    """
    rows = 1
    while len(block := np.fromiter(islice(logs, rows), dtype=float)):
        yield block
        rows = min(2 * rows, _BLOCK_CELLS)


def lyapunov_renormalized(
    reservoir,
    inputs,
    d0: float = 1e-9,
    washout: int = 1000,
    seed: int = 0,
) -> LyapunovEstimate:
    """Renormalized two-trajectory exponent for an arbitrary reservoir.

    A companion trajectory starts at separation ``d0`` along a seeded
    random unit direction; after every step the log of the separation
    ratio is taken and the companion is pulled back to distance ``d0``
    along the current difference direction.  The estimate is the mean
    post-washout log rate; the standard error comes from 20 batch means.
    ``inputs`` is a spec or ``T`` rows of width ``reservoir.n``; a
    stacked ``reservoir.state`` is rejected, and so is whatever the run
    gate :func:`_run_rows` rejects, before the first step.

    A one-neuron reservoir with one shared transfer and no predictor hook
    runs as a one-lane batch of the blocked one-neuron engine (see
    :func:`renormalized_scalar_batch`): its drive is ``u @ w_in[0]`` and
    its direction, the seeded unit vector of length 1, is exactly +-1.
    :func:`lyapunov_derivative_product`, the oracle this estimate is
    checked against, keeps stepping through :meth:`Reservoir.step`, so
    the two share no code.  Every other reservoir steps a copy of itself
    holding both trajectories as one ``(2, k)`` stack; a predictor hook
    sees row 0, the reference, as the oracle's hook sees its trajectory.
    For k > 1 the stacked product rounds differently from :meth:`Reservoir.step`.

    When the separation reaches exactly 0 after a post-washout step, that
    step's log is ``-inf``: the estimate is ``lam = -inf`` with
    ``stderr = nan``, and the companion restarts at ``d0`` along the
    initial direction.
    """
    _check_d0(d0)
    start = np.asarray(reservoir.state, dtype=float)
    if start.shape != (reservoir.k,):
        raise ValueError(f"reservoir state must have shape ({reservoir.k},), not {start.shape}")
    u = _run_rows(inputs, reservoir.W, reservoir.w_in, start, washout)

    direction = rng_stream(seed, STREAM_DIRECTION).standard_normal(reservoir.k)
    direction /= np.linalg.norm(direction)

    def stacked():
        # Row 0 is the reference trajectory, row 1 the companion.
        pair = reservoir.copy(state=np.stack([start, start + d0 * direction]))
        for row in u:
            pair._advance(row)
            state = pair.state
            delta = state[1] - state[0]
            dist = float(np.linalg.norm(delta))
            if dist > 0.0:
                state[1] = state[0] + delta * (d0 / dist)
            else:
                state[1] = state[0] + d0 * direction
            yield np.log(dist / d0)

    if _one_lane(reservoir):
        blocks = _renormalized_logs(reservoir.W[0], np.ones(1), (u @ reservoir.w_in[0])[:, None],
                                    start, reservoir.transfers[0], d0, float(direction[0]))
    else:
        blocks = _doubling_blocks(stacked())
    lam, stderr, used = _rate(blocks, len(u), washout)
    return LyapunovEstimate(lam=lam.item(), method="renormalized", steps_used=used,
                            washout=washout, d0=d0, stderr=stderr.item())


def lyapunov_derivative_product(reservoir, inputs, washout: int = 1000) -> LyapunovEstimate:
    """Exact tangent average ``mean log |W * slope(y_lin_t)|`` for k = 1.

    Runs the single trajectory and averages the log tangent factor; for
    one-neuron systems this is the exponent without any finite-separation
    approximation, which makes it the oracle the renormalized estimator
    is checked against.  Each step's slope is taken from the transfer
    that step used, so a predictor hook's choice is honoured.  Inputs and
    the start state are checked as in :func:`lyapunov_renormalized`.

    When the slope is exactly 0 at a post-washout step (a plateau of the
    transfer), that step's log is ``-inf``: the estimate is
    ``lam = -inf`` with ``stderr = nan``.
    """
    if reservoir.k != 1:
        raise ValueError("derivative-product estimation requires a one-neuron reservoir")
    start = np.asarray(reservoir.state, dtype=float)
    if start.shape != (reservoir.k,):
        raise ValueError(f"reservoir state must have shape ({reservoir.k},), not {start.shape}")
    u = _run_rows(inputs, reservoir.W, reservoir.w_in, start, washout)
    work = reservoir.copy()
    gain = abs(float(work.W[0, 0]))

    def logs():
        for row in u:
            rec = work.step(row)
            yield np.log(gain * float(work.transfers[0].slope(rec.y_lin)[0]))

    lam, stderr, used = _rate(_doubling_blocks(logs()), len(u), washout)
    return LyapunovEstimate(lam=float(lam), method="derivative_product", steps_used=used,
                            washout=washout, d0=None, stderr=float(stderr))


# -- blocked one-neuron engine ------------------------------------------------

#: Cells (rows x lanes) of the largest reference block: max(1, cells // m) rows.
_BLOCK_CELLS = 1 << 13


def _one_lane(reservoir) -> bool:
    """Whether ``reservoir`` runs on the blocked engine, one lane per trajectory.

    That takes one neuron, one shared transfer and no predictor hook.
    """
    return reservoir.k == 1 and reservoir._shared and reservoir.predictor is None


def _lanes(w, w_in, y0):
    """Gains, input gains and start states of a batch of one-neuron lanes."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    win = np.broadcast_to(np.asarray(w_in, dtype=float), w.shape)
    return w, win, np.broadcast_to(np.asarray(y0, dtype=float), w.shape).astype(float)


#: Periods of the constant and the alternating input, the ones a replay detects.
_PERIODS = (1, 2)


def _period_starts(u) -> list[int]:
    """Per period p, the first row ``s`` with ``u[r+p] == u[r]``, bit for bit, for all ``r >= s``.

    Raw bits, so -0.0 and 0.0 differ.
    """
    bits = u.view(np.uint64)
    starts = []
    for p in _PERIODS:
        moved = (bits[p:] != bits[:-p]).any(axis=1)[::-1]  # newest row first
        starts.append(len(moved) - int(moved.argmax()) if moved.any() else 0)
    return starts


def _closed_cycle(recent, starts, t_next: int):
    """The closed p-cycle ``c``, with ``s[r] = c[r % p]`` for every row ``r >= t_next``, or None.

    ``recent`` holds the last states, the newest ``s[t]`` (after row
    ``t = t_next - 1``) last.  If ``s[t] == s[t-p]`` bit for bit and the
    input repeats with period p from row ``t+1-p``, each next state is
    the pure ``eval`` of the same bits as the state p rows before it.
    """
    for p, start in zip(_PERIODS, starts):
        if (len(recent) > p and start <= t_next - p
                and np.array_equal(recent[-1].view(np.uint64), recent[-1 - p].view(np.uint64))):
            return np.roll(recent[-p:], t_next, axis=0)  # s[t_next - p] lands at t_next % p
    return None


#: Most lanes whose reference recurrence steps Python floats, one
#: ``_eval_float`` per lane and row; more lanes take one ``eval`` per row.
#: Measured crossover (CPython 3.11, numpy 2.4.6, 2 vCPUs, iid input, per
#: row): 1.4 us per float lane plus about 1.3 us, against 10-11 us for one
#: ``eval`` of up to 8 lanes; at 6 lanes floats won 33 of 36 paired runs,
#: at 7 lanes 14 of 36.
_FLOAT_LANES = 6


def _float_rows(step, w, y, drive) -> list:
    """States after each row of ``drive``, the lanes stepped as Python floats by ``step``."""
    ws, ys, rows = w.tolist(), y.tolist(), []
    for row in drive.tolist():
        ys = [step(a * b + d) for a, b, d in zip(ws, ys, row)]
        rows.append(ys)
    return rows


def _reference_blocks(w, win, u, y, transfer):
    """The reference recurrence ``y <- transfer(w*y + win*u[t])`` of ``m`` lanes, by blocks.

    Each input row is the only sequential work of the one-neuron engine.
    With at most ``_FLOAT_LANES`` (m*) lanes it costs one ``_eval_float``
    per lane, the lanes stepped as Python floats through the transfer's
    piece table, bit for bit what ``eval`` returns at a fraction of its
    per-call cost; with more it costs one ``eval`` of the ``m`` lanes.
    Either way rows are stepped until the lanes close an exact cycle: after each block ending at row ``t``, if every state
    after row ``t`` equals, bit for bit, the one p = 1 or 2 rows earlier
    and the input rows repeat with period p from row ``t+1-p``, every
    later state is that p-cycle (``eval`` is pure), and later blocks are
    filled from it without an ``eval``.  The first block has one row and
    each next one twice as many, up to ``max(1, _BLOCK_CELLS // m)``, so
    a consumer that stops early (a pair whose distance reached zero) has
    computed at most about twice the rows it read.  Yields ``(drive,
    states)`` per block: the drives ``win*u[t]`` of its rows, and the
    states before (``states[:-1]``) and after (``states[1:]``) each row.
    Every row is computed alike whatever block holds it.
    """
    starts = _period_starts(u)
    cap = max(1, _BLOCK_CELLS // w.size)
    rows, t0 = 1, 0
    recent, cycle = y[None], None  # the last three states, newest last
    while t0 < len(u):
        drive = win * u[t0:t0 + rows]
        t1 = t0 + len(drive)
        states = np.empty((len(drive) + 1, w.size))
        states[0] = y
        if cycle is None:
            if w.size <= _FLOAT_LANES:
                states[1:] = _float_rows(transfer._eval_float, w, y, drive)
                y = states[-1]
            else:
                for i, d in enumerate(drive, start=1):
                    y = states[i] = transfer.eval(w * y + d)
            recent = np.concatenate((recent[:-1], states[-3:]))[-3:]
            cycle = _closed_cycle(recent, starts, t1)
        else:
            states[1:] = cycle[np.arange(t0, t1) % len(cycle)]
            y = states[-1]
        yield drive, states
        t0 = t1
        rows = min(2 * rows, cap)


def _renormalized_logs(w, win, u, y, transfer, d0: float, direction: float):
    """Renormalized logs of one-neuron lanes, one ``(rows, m)`` block per reference block.

    With a nondecreasing transfer the companion of a reference state
    ``ref`` is always ``ref + sign*d0``: a step maps it to a separation
    ``delta`` of sign ``sign*sign(w)``, or exactly 0, after which the
    companion restarts at ``ref + direction*d0``.  So each block predicts
    every row's sign from the block's first and evaluates all companions
    in one wide ``eval``.  From the first row whose ``delta`` is 0 or
    has another sign, the block's remaining rows evaluate both companions,
    ``ref + d0`` and ``ref - d0``, in one ``eval`` and the signs follow
    ``delta`` row by row.  The stored reference states are reused.
    """
    flip = np.sign(w)
    both = np.array([1.0, -1.0])[:, None, None]
    sign = np.full(w.size, direction)  # of the next step's companion offset
    for drive, states in _reference_blocks(w, win, u, y, transfer):
        prev, ref = states[:-1], states[1:]
        # Row i's offset sign is sign * flip**i while every delta keeps
        # the sign it predicts, signs[i + 1].
        signs = np.empty_like(states)
        signs[0::2] = sign
        signs[1::2] = sign * flip
        delta = transfer.eval(w * (prev + d0 * signs[:-1]) + drive) - ref
        held = delta * signs[1:] > 0.0
        sign = signs[-1]
        if not held.all():
            r = int(held.all(axis=1).argmin()) + 1  # first row that follows a miss
            up, down = transfer.eval(w * (prev[r:] + d0 * both) + drive[r:]) - ref[r:]
            # The next offset is + after a positive delta, - after a
            # negative one, and the restart direction's after 0.
            up_next, down_next, pos = ((x > 0.0) | ((direction > 0.0) & ~(x < 0.0))
                                       for x in (up, down, delta[r - 1]))
            chosen = np.empty(up.shape, dtype=bool)
            for i in range(len(chosen)):
                chosen[i] = pos
                pos = np.where(pos, up_next[i], down_next[i])
            delta[r:] = np.where(chosen, up, down)
            sign = np.where(pos, 1.0, -1.0)
        yield np.log(np.abs(delta) / d0)


def renormalized_scalar_batch(
    w,
    w_in,
    u,
    transfer,
    *,
    d0: float = 1e-9,
    washout: int = 1000,
    y0=0.0,
    direction: float = 1.0,
):
    """Vectorized renormalized estimation for a batch of one-neuron systems.

    ``w`` and ``w_in`` are the recurrent and input gains per batch
    element; ``u`` is the shared input, a spec or a (T,) or (T, 1) array,
    or the per-element input (T, m), checked with the gains and ``y0`` by
    the run gate :func:`_run_rows`; all elements share
    ``transfer``, a :class:`~critical_esn.transfer.MorphableTransfer` or
    :class:`~critical_esn.transfer.TanhTransfer`, which must be
    nondecreasing and whose ``eval`` must be a pure function: the reference
    recurrence is replayed once it closes an exact cycle, and up to
    ``_FLOAT_LANES`` lanes step it through ``_eval_float`` (see
    :func:`_reference_blocks`).  The companion starts
    at ``y0 + direction*d0`` with ``direction`` +1 or -1, and restarts
    there after an exact-zero separation.  Returns (lambda, stderr) arrays.
    Elements evolve independently and elementwise, so results do not
    depend on how a grid is split into batches, nor on the engine's block
    size.
    """
    _check_d0(d0)
    if direction not in (1.0, -1.0):
        raise ValueError("direction must be +1 or -1")
    w, win, start = _lanes(w, w_in, y0)
    u = _run_rows(u, w, win, start, washout)
    lam, stderr, _ = _rate(_renormalized_logs(w, win, u, start, transfer, d0, direction),
                           len(u), washout)
    return lam, stderr


def derivative_product_scalar_batch(
    w,
    w_in,
    u,
    transfer,
    *,
    washout: int = 1000,
    y0=0.0,
):
    """Vectorized tangent-average estimation for one-neuron batches.

    The logs ``log(|w| * slope(lin))`` of a block of the reference
    recurrence take one ``slope`` call over its linear responses.  Inputs
    and gains are as in :func:`renormalized_scalar_batch`; ``transfer.eval``
    must be a pure function, because the reference recurrence is replayed
    once it closes an exact cycle.
    """
    w, win, start = _lanes(w, w_in, y0)
    u = _run_rows(u, w, win, start, washout)
    gain = np.abs(w)

    blocks = (np.log(gain * transfer.slope(w * states[:-1] + drive))
              for drive, states in _reference_blocks(w, win, u, start, transfer))
    lam, stderr, _ = _rate(blocks, len(u), washout)
    return lam, stderr


# -- critical point of the tanh baseline --------------------------------------


def solve_critical_b(amplitude: float) -> CriticalPoint:
    """Critical recurrent gain of the tanh baseline for a given amplitude.

    Solves the period-2 orbit system ``s = tanh(b*s - amplitude)`` and
    ``b*(1 - s**2) = 1`` (unit per-step tangent magnitude) by bisection
    on ``s`` with ``b = 1/(1 - s**2)`` eliminated.  Residuals of both
    equations are below 1e-12.
    """
    if not (amplitude > 0.0):
        raise ValueError("amplitude must be positive")

    def residual(s: float) -> float:
        b = 1.0 / (1.0 - s * s)
        return math.tanh(b * s - amplitude) - s

    lo, hi = 1e-9, 1.0 - 1e-12
    if not (residual(lo) < 0.0 < residual(hi)):
        raise ValueError(f"no critical orbit bracket for amplitude {amplitude:g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    b_star = 1.0 / (1.0 - s_star * s_star)
    res_orbit = abs(math.tanh(b_star * s_star - amplitude) - s_star)
    res_tangent = abs(b_star * (1.0 - s_star * s_star) - 1.0)
    if max(res_orbit, res_tangent) >= 1e-12:
        raise RuntimeError("critical-point residuals did not reach 1e-12")
    return CriticalPoint(b_star=b_star, s_star=s_star, residuals=(res_orbit, res_tangent))


def expected_orbit_rate(critical: CriticalPoint, amplitude: float, gamma: float) -> float:
    """Tangent growth rate of the tanh baseline on its expected orbit.

    The state is held on the critical period-2 orbit (the one the gain
    was tuned for) while the input runs at ``gamma`` times the expected
    amplitude; both phases of the orbit see the same linear-response
    magnitude ``|b*s - gamma*amplitude|``, so the per-step rate is
    ``log(b * sech^2(b*s - gamma*amplitude))``.  Zero exactly at
    ``gamma = 1``, positive for louder-than-expected input.
    """
    x = critical.b_star * critical.s_star - gamma * amplitude
    return math.log(critical.b_star * (1.0 - math.tanh(x) ** 2))


# -- decay-law fitting ---------------------------------------------------------


def _window_points(series: DistanceSeries, window):
    t_lo, t_hi = window
    mask = (
        (series.t >= t_lo)
        & (series.t <= t_hi)
        & (series.t >= 1)
        & (series.d > _FLOOR)
    )
    if int(mask.sum()) < _MIN_FIT_POINTS:
        raise ValueError(
            f"insufficient valid points in window [{t_lo}, {t_hi}]: "
            f"{int(mask.sum())} < {_MIN_FIT_POINTS}"
        )
    return series.t[mask].astype(float), series.d[mask]


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    resid = y - (ym + slope * (x - xm))
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, max(0.0, min(1.0, r2))


def fit_power_law(series: DistanceSeries, window) -> tuple[float, float]:
    """Least-squares slope of log d against log t; returns (c_a, r2)."""
    t, d = _window_points(series, window)
    slope, r2 = _ols(np.log(t), np.log(d))
    return -slope, r2


def fit_exponential(series: DistanceSeries, window) -> tuple[float, float]:
    """Least-squares slope of log d against t; returns (c_b, r2)."""
    t, d = _window_points(series, window)
    slope, r2 = _ols(t, np.log(d))
    return math.exp(slope), r2


def classify_decay(series: DistanceSeries) -> DecayFit:
    """Fit both laws on an automatic window and pick the straighter one.

    The window drops the first 10 steps (transient) and everything at or
    below the floating-point floor.  The law with the higher coefficient
    of determination wins when the margin exceeds 0.02; otherwise the
    result is inconclusive.  Raises only for an empty series.
    """
    if series.t.size == 0:
        raise ValueError("empty distance series")
    valid = (series.t > 10) & (series.d > _FLOOR)
    # With no valid point the window is (11, 11), which no fit accepts.
    window = (11, int(series.t[valid].max(initial=11)))
    try:
        c_a, r2_ll = fit_power_law(series, window)
        c_b, r2_sl = fit_exponential(series, window)
    except ValueError:
        return DecayFit(
            law="inconclusive",
            c_a=None,
            c_b=None,
            r2_loglog=0.0,
            r2_semilog=0.0,
            window=window,
            truncated_at=series.truncated_at,
        )
    margin = r2_ll - r2_sl
    if margin > 0.02:
        return DecayFit("power_law", c_a, None, r2_ll, r2_sl, window, series.truncated_at)
    if margin < -0.02:
        return DecayFit("exponential", None, c_b, r2_ll, r2_sl, window, series.truncated_at)
    return DecayFit("inconclusive", None, None, r2_ll, r2_sl, window, series.truncated_at)


def loglog_bend(series: DistanceSeries) -> float:
    """Mean second difference of log d versus log t.

    Computed on a geometric resampling of the series, so it measures the
    curvature of the log-log plot: negative means the decay bends down,
    i.e. is faster than any power law fitted to its early part.
    """
    valid = (series.t >= 1) & (series.d > _FLOOR)
    t = series.t[valid].astype(float)
    d = series.d[valid]
    if t.size < 3:
        raise ValueError("need at least three valid points for a bend estimate")
    targets = np.unique(
        np.rint(10 ** np.linspace(math.log10(t[0]), math.log10(t[-1]), _BEND_POINTS))
    )
    idx = np.unique(np.searchsorted(t, targets).clip(0, t.size - 1))
    x = np.log(t[idx])
    y = np.log(d[idx])
    if x.size < 3:
        raise ValueError("resampled series too short for a bend estimate")
    left = (y[1:-1] - y[:-2]) / (x[1:-1] - x[:-2])
    right = (y[2:] - y[1:-1]) / (x[2:] - x[1:-1])
    curvature = 2.0 * (right - left) / (x[2:] - x[:-2])
    return float(curvature.mean())

