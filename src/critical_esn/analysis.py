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
  no predictor hook runs on the blocked one-neuron engine below.  Every
  other reservoir advances reference and companion as one ``(2, k)``
  state stack through the reservoir's one step kernel; a predictor hook
  runs once per step, sees the reference state, and sets the transfers
  of both rows.
- :func:`lyapunov_derivative_product`: exact tangent-dynamics average for
  one-neuron systems, ``mean log |W * slope(y_lin_t)|``; serves as the
  independent cross-check oracle for the renormalized method.  It steps
  the reservoir through ``Reservoir.step``, one step per input row, so it
  honours a predictor hook's transfer at every step.  It shares exactly
  one thing with the blocked engine: a one-neuron, one-input step is the
  engine's float step ``_eval_float``, which a test pins bit for bit to
  ``eval``; it has no cycle closure or tail.  Slopes and logs are read
  per block of rows: one ``slope`` call for each run of rows that used
  one transfer, and one ``log`` per block.
- :func:`expected_orbit_rate`: tangent growth rate of the tanh baseline
  when the state is held on the expected critical orbit while the input
  amplitude is scaled; this is the quantity that turns positive the
  moment the input is louder than expected.  (The free-running exponent
  cannot show this: off the expected orbit the baseline falls onto a
  strongly contracting large-amplitude orbit and the asymptotic rate is
  dominated by that attractor.)

Batched variants of the one-neuron estimators evaluate whole parameter
grids in one vectorized run on one blocked engine.  For one neuron the
renormalized companion is always ``ref +- d0``, its sign set by the
previous step's separation, so only the reference recurrence
``y <- transfer(w*y + w_in*u)`` is sequential: the engine runs it for a
block of rows, one ``eval`` per row, and then evaluates both companions
of every row of the block in one wide ``eval`` (or, for the derivative
product, every slope in one ``slope`` call).  One function,
:func:`_lane_blocks`, owns the stepping: it hands each block's drives and
states to a per-block consumer (the renormalized logs, the
derivative-product logs, or a pair's distances) and yields what the
consumer returns.  A lane that has closed an exact 2-cycle under its own
2-periodic input (its state equal, bit for bit, to the one two rows
earlier; a fixed point under constant input is such a cycle) is no
longer stepped but filled from its last two states; ``eval`` is pure, so
the result is what stepping would give.  While at most ``_FLOAT_LANES``
(m* = 12) lanes are open, such as a ``forgetting`` pair, whose reference
closes at once, or one renormalized ``lyapunov`` estimate, each open
lane steps through the block's rows as Python floats, through the same
piece table and bit for bit what ``eval`` returns, because one small
``eval`` costs more than twelve float steps; with more open, each row
takes one ``eval`` of every lane.  Once every lane has closed, the engine
calls the consumer once more, on the next two rows taken from the
cycle, and hands on the rest of the run as one value, those two rows and
the row where their repetition starts (:class:`_CycleTail`), without a
further ``eval`` or ``slope``.  Blocks start at one row and double up to
``2**13`` cells (rows x lanes), so a consumer that stops early has
computed at most about twice the rows it read;
:func:`~critical_esn.reservoir.run_pair` runs a one-neuron pair as two
lanes of the same recurrence, expands a tail into its distances and
stops at an exact-zero distance.  Every estimator is a stream of log
blocks, ``(rows, m)`` from the engine or ``(rows,)`` from a per-step
estimator, read by one reducer, :func:`_rate`.  It keeps 20 running
batch sums per lane and folds each block into them in row order, by one
carry-in ``cumsum`` or, for a block wider than ``_CUMSUM_LANES``, row by
row, so the sums are bit for bit those of adding the rows one at a
time.  Two whole batches of a tail that start at the same phase of its
two rows therefore have the same sum: the reducer folds one whole batch
per phase and reuses its sum for every later one, so a closed run's
reduction costs about two batches, whatever the horizon.  Beyond its
input an estimate's memory does not grow with the horizon, and a lane's
result is identical whether it runs alone or in any split of a grid,
whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Optional

import numpy as np

from .signals import input_rows, rng_stream, STREAM_DIRECTION
from .transfer import _bisect_root

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
_FLOOR = 1e-13  # distances at or below this are floating-point noise for fits
_TRANSIENT = 10  # steps that classify_decay drops before its window
_MARGIN = 0.02  # r2 lead by which classify_decay picks a law
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


def _start_rows(reservoir, inputs, washout: int):
    """A Lyapunov estimate's ``(k,)`` start state and checked input rows, before its first step."""
    start = np.asarray(reservoir.state, dtype=float)
    if start.shape != (reservoir.k,):
        raise ValueError(f"reservoir state must have shape ({reservoir.k},), not {start.shape}")
    return start, _run_rows(inputs, reservoir.W, reservoir.w_in, start, washout)


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
    order, lane by lane, in place in a copy of the segment, with the carry
    added into its first row (``acc + seg[0]`` equals ``seg[0] + acc``:
    IEEE addition commutes), so a fold holds one array the size of its
    segment.  ``np.add.reduce`` would not do: it sums a contiguous axis
    pairwise.  A segment of more than ``_CUMSUM_LANES`` lanes is added row
    by row, because ``cumsum`` pays per lane.
    """
    if seg.ndim > 1 and seg.shape[1] > _CUMSUM_LANES:
        if acc is None:
            acc, seg = seg[0], seg[1:]
        for row in seg:
            acc = acc + row
        return acc
    seg = seg.copy()
    if acc is not None:
        seg[0] += acc
    return np.cumsum(seg, axis=0, out=seg)[-1]


def _rate(blocks, steps: int, washout: int):
    """Mean rate and batch-mean standard error of a stream of log blocks.

    ``blocks`` yields the per-step logs of ``steps`` consecutive steps as
    blocks of rows: a ``(rows,)`` array of scalar logs, or a ``(rows, m)``
    array with one value per lane; the last may be a :class:`_CycleTail`
    that holds every later row.  The first ``washout`` rows are skipped
    and the next ``used`` (the largest multiple of 20 within ``steps -
    washout``) are summed into 20 batch sums as they arrive; the blocks
    are split at the washout and batch edges, and each segment is folded
    into its batch's running sum in row order (:func:`_fold`), so each sum
    is bit for bit that of adding its rows one at a time, whatever the
    blocks.  So the whole batches of a tail that start at one phase
    ``(r - t) % 2`` have the same sum: the first of each phase is folded,
    and every later one reuses its sum.  No block is drawn after the one
    that holds the last used row.  Each lane's batch means form one
    contiguous row, so a lane's result depends only on its own logs.  A
    lane with a log of 0 (``-inf``) gets ``lam = -inf`` and ``stderr =
    nan``, without a warning.

    Returns ``(lam, stderr, used)``.
    """
    per = (steps - washout) // _BATCHES
    end = washout + per * _BATCHES
    sums, acc, whole = [], None, {}  # whole: a tail's batch sums by phase
    t0, edge = 0, washout + per  # the first row of the block, the end of the open batch
    with np.errstate(divide="ignore"):  # the stream's log 0 = -inf is a result
        for block in blocks:
            tail = isinstance(block, _CycleTail)
            t1 = end if tail else t0 + len(block)
            lo = max(t0, washout)
            while lo < min(t1, end):
                hi = min(t1, edge)
                if not tail:
                    acc = _fold(acc, block[lo - t0:hi - t0])
                elif acc is not None:  # the open batch
                    acc = block.fold(acc, lo, hi)
                elif (phase := (lo - block.t) % 2) in whole:
                    acc = whole[phase]
                else:
                    acc = whole[phase] = block.fold(None, lo, hi)
                if hi == edge:
                    sums.append(acc.copy())  # not a view that keeps its block alive
                    acc, edge = None, edge + per
                lo = hi
            if t1 >= end:
                break
            t0 = t1
    batches = np.stack(sums, axis=-1)
    batches /= per  # in place: one (m, 20) array less at a wide grid's peak memory
    lam = batches.mean(axis=-1)
    # A -inf lane's spread is -inf - -inf: the documented NaN, not a warning.
    with np.errstate(invalid="ignore"):
        stderr = batches.std(axis=-1, ddof=1) / math.sqrt(_BATCHES)
    return lam, stderr, per * _BATCHES


def _doubling_blocks(u, logs_of):
    """``logs_of(rows)``, the ``(rows,)`` logs of each block of the input rows ``u``, in order.

    The blocks hold 1, 2, 4, ... rows, up to ``_BLOCK_CELLS``, as the
    one-neuron engine's do (:func:`_lane_blocks`), so a reducer that stops
    early has stepped at most about twice the rows it reads.
    """
    t0, rows = 0, 1
    while t0 < len(u):
        yield logs_of(u[t0:t0 + rows])
        t0 += rows
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

    A one-neuron reservoir with no predictor hook runs as a one-lane
    batch of the blocked one-neuron engine (see
    :func:`renormalized_scalar_batch`): its drive is ``u @ w_in[0]`` and
    its direction, the seeded unit vector of length 1, is exactly +-1.
    :func:`lyapunov_derivative_product`, the oracle this estimate is
    checked against, keeps stepping through :meth:`Reservoir.step`; the
    two share exactly one thing, the float step ``_eval_float``, which is
    pinned bit for bit to ``eval``.  Every other reservoir steps a copy
    of itself holding both trajectories as one ``(2, k)`` stack; a
    predictor hook sees row 0, the reference, as the oracle's hook sees
    its trajectory.
    For k > 1 the stacked product rounds differently from :meth:`Reservoir.step`.

    When the separation reaches exactly 0 after a post-washout step, that
    step's log is ``-inf``: the estimate is ``lam = -inf`` with
    ``stderr = nan``, and the companion restarts at ``d0`` along the
    initial direction.
    """
    _check_d0(d0)
    start, u = _start_rows(reservoir, inputs, washout)

    direction = rng_stream(seed, STREAM_DIRECTION).standard_normal(reservoir.k)
    direction /= np.linalg.norm(direction)

    if _one_lane(reservoir):
        w, transfer = reservoir.W[0], reservoir.transfers[0]
        blocks = _lane_blocks(w, np.ones(1), (u @ reservoir.w_in[0])[:, None], start, transfer,
                              _renormalized_rows(w, transfer, d0, float(direction[0])))
    else:
        # Row 0 is the reference trajectory, row 1 the companion.
        pair = reservoir.copy(state=np.stack([start, start + d0 * direction]))

        def stacked(rows):
            logs = np.empty(len(rows))
            for i, row in enumerate(rows):
                pair._advance(row)
                state = pair.state
                delta = state[1] - state[0]
                dist = float(np.linalg.norm(delta))
                if dist > 0.0:
                    state[1] = state[0] + delta * (d0 / dist)
                else:
                    state[1] = state[0] + d0 * direction
                logs[i] = np.log(dist / d0)
            return logs

        blocks = _doubling_blocks(u, stacked)
    lam, stderr, used = _rate(blocks, len(u), washout)
    return LyapunovEstimate(lam=lam.item(), method="renormalized", steps_used=used,
                            washout=washout, d0=d0, stderr=stderr.item())


def lyapunov_derivative_product(reservoir, inputs, washout: int = 1000) -> LyapunovEstimate:
    """Exact tangent average ``mean log |W * slope(y_lin_t)|`` for k = 1.

    Runs the single trajectory and averages the log tangent factor; for
    one-neuron systems this is the exponent without any finite-separation
    approximation, which makes it the oracle the renormalized estimator
    is checked against.  Inputs and the start state are checked as in
    :func:`lyapunov_renormalized`.

    The trajectory takes one :meth:`Reservoir.step` per input row, in
    the blocks of :func:`_doubling_blocks`.  With one input each step is
    the float step of the blocked engine's float lanes, so with no hook
    the estimate is bit for bit that of
    :func:`derivative_product_scalar_batch` on one lane (a test pins it),
    though the two share no code but ``_eval_float``.  Each step's
    ``y_lin`` and the transfer the step used are kept; at the end of a
    block, each run of rows that used one transfer takes one ``slope``
    call, and the block one ``log``.  So a predictor hook's choice is
    honoured at every step, and a log is the one a per-row ``slope`` and
    ``log`` would give (both are elementwise).

    When the slope is exactly 0 at a post-washout step (a plateau of the
    transfer, or saturation), that step's log is ``-inf``: the estimate
    is ``lam = -inf`` with ``stderr = nan``.
    """
    if reservoir.k != 1:
        raise ValueError("derivative-product estimation requires a one-neuron reservoir")
    _, u = _start_rows(reservoir, inputs, washout)
    work = reservoir.copy()
    gain = abs(float(work.W[0, 0]))

    def logs_of(rows):
        lin, used = np.empty(len(rows)), []
        for i, row in enumerate(rows):
            lin[i] = work.step(row).y_lin[0]
            used.append(work.transfers[0])
        slopes, lo = np.empty(len(rows)), 0
        for transfer, run in groupby(used):
            hi = lo + len(list(run))
            slopes[lo:hi] = transfer.slope(lin[lo:hi])
            lo = hi
        return np.log(gain * slopes)

    lam, stderr, used = _rate(_doubling_blocks(u, logs_of), len(u), washout)
    return LyapunovEstimate(lam=float(lam), method="derivative_product", steps_used=used,
                            washout=washout, d0=None, stderr=float(stderr))


# -- blocked one-neuron engine ------------------------------------------------

#: Cells (rows x lanes) of the largest reference block: max(1, cells // m) rows.
_BLOCK_CELLS = 1 << 13


def _one_lane(reservoir) -> bool:
    """Whether ``reservoir`` runs on the blocked engine, one lane per trajectory.

    That takes one neuron and no predictor hook.
    """
    return reservoir.k == 1 and reservoir.predictor is None


def _lanes(w, w_in, y0):
    """Gains, input gains and start states of a batch of one-neuron lanes."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    win = np.broadcast_to(np.asarray(w_in, dtype=float), w.shape)
    return w, win, np.broadcast_to(np.asarray(y0, dtype=float), w.shape).astype(float)


def _period_start(u) -> np.ndarray:
    """Per column of ``u``, the first row ``s`` with ``u[r+2] == u[r]`` for all ``r >= s``.

    Bit for bit, so -0.0 and 0.0 differ.
    """
    if len(u) < 3:
        return np.zeros(u.shape[1], dtype=int)
    moved = (u.view(np.uint64)[2:] != u.view(np.uint64)[:-2])[::-1]  # newest first
    return np.where(moved.any(axis=0), len(moved) - moved.argmax(axis=0), 0)


#: Most open lanes that the engine steps as Python floats, each lane one
#: ``_eval_float`` per row; with more open, a row takes one ``eval`` of
#: every lane.  Measured crossover (CPython 3.11, numpy 2.4.6, 2 vCPUs, iid
#: input on the ``(-1, 1)`` bridge, per row, the faster of 3 runs in each
#: of 12 pairs): about 0.52 us per float lane against 7.0-7.5 us for one
#: ``eval`` of 9-14 lanes; in three sets of pairs floats won 11-12 of 12 at
#: 12 lanes, and 4, 8 and 12 of 12 at 14.
_FLOAT_LANES = 12


def _float_rows(step, w, y, drive) -> np.ndarray:
    """States after each row of ``drive``, ``(rows, lanes)``: one float loop of ``step`` per lane."""
    cols = []
    for a, b, col in zip(w.tolist(), y.tolist(), drive.T.tolist()):
        cols.append([b := step(a * b + d) for d in col])  # b: the lane's state
    return np.array(cols).T


def _lane_blocks(w, win, u, y, transfer, rows_of):
    """``rows_of(drive, states)`` per block of the recurrence ``y <- transfer(w*y + win*u[t])`` of ``m`` lanes.

    The one owner of the engine's stepping, its cycle closure and its
    tail.  ``rows_of`` maps a block's drives ``win*u[t]`` and its states
    before (``states[:-1]``) and after (``states[1:]``) each row to one
    value per row, such as the block's logs; it is called on the blocks
    in row order, so it may carry state from block to block.

    A lane has closed its 2-cycle after a block ending at row ``R-1`` if
    its state equals, bit for bit, its state two rows earlier and its own
    input column is 2-periodic from row ``R-2`` (:func:`_period_start`).
    Each next state of that lane is then the pure ``eval`` of the same
    bits as the state two rows before it, so from then on the lane is
    filled from its last two states and no longer stepped.  A fixed point
    is a 2-cycle, and constant input is 2-periodic.

    Each input row of the open lanes is the only sequential work of the
    engine.  With at most ``_FLOAT_LANES`` (m*) lanes open, each open lane
    is stepped through its rows as Python floats, one ``_eval_float`` per
    row, through the transfer's piece table, bit for bit what ``eval``
    returns at a fraction of its per-call cost; with more, a row costs one
    ``eval`` of all ``m`` lanes, which gives a closed lane the bits of its
    cycle.  The first block has one row and each next one twice as many,
    up to ``max(1, _BLOCK_CELLS // m)``, so a consumer that stops early (a
    pair whose distance reached zero) has computed at most about twice
    the rows it read.  Every row is computed alike whatever block holds
    it.

    Once every lane has closed, after a block ending at row ``R-1``,
    ``rows_of`` is called once more, on rows R and R+1 taken from the
    cycle, and every later row repeats those two, without a further step:
    the last item is one :class:`_CycleTail` of those two rows from row
    ``R+2`` on, not a stream of rows.  Proof: the value of row r is a
    pure function of its previous state, drive and reference, 2-periodic
    from row R-2 (``eval`` is pure), and, for the renormalized logs, of
    its offset sign s, which the row keeps, flips or sets
    (:func:`_renormalized_rows`).
    With a nondecreasing transfer a row never flips when w > 0 and never
    keeps when w < 0 (if w = 0, every row sets and every log is -inf).  So
    the map of ``tau = s*sign(w)**r`` at row r is the identity (a keep for
    w > 0, a flip for w < 0) or a constant (a set), and it is 2-periodic
    from row R-2.  With A the map of rows R-2 and R and B that of rows
    R+-1, ``tau[R+2] = BA tau[R]`` and ``tau[R] = BA tau[R-2]``; BA is the
    identity or a constant, so BA BA = BA and ``tau[R+2] = tau[R]``.  So
    the values repeat every two rows from R on.  One cycle row is not
    enough: row R+1 need not repeat row R-1, as ``tau[R+1] = A tau[R]``
    and ``tau[R-1] = A tau[R-2]`` differ when A is the identity and B a
    constant other than ``tau[R-2]``.
    """
    start = _period_start(u)
    cap = max(1, _BLOCK_CELLS // w.size)
    rows, t0 = 1, 0
    recent = y[None]  # the last three states, newest last
    closed = np.zeros(w.size, dtype=bool)
    while t0 < len(u):
        drive = win * u[t0:t0 + rows]
        states = np.empty((len(drive) + 1, w.size))
        states[0] = y
        lanes = np.flatnonzero(~closed)
        if len(lanes) > _FLOAT_LANES:
            for i, d in enumerate(drive, start=1):
                states[i] = transfer.eval(w * states[i - 1] + d)
        else:
            if closed.any():  # a closed lane repeats its last two states
                states[1::2, closed] = recent[-2, closed]
                states[2::2, closed] = y[closed]
            states[1:, lanes] = _float_rows(transfer._eval_float, w[lanes], y[lanes],
                                            drive[:, lanes])
        y = states[-1]
        yield rows_of(drive, states)
        t0 += len(drive)
        recent = np.concatenate((recent[:-1], states[-3:]))[-3:]
        if len(recent) == 3:
            closed |= (start <= t0 - 2) & (recent[-1].view(np.uint64) == recent[0].view(np.uint64))
        if t0 < len(u) and closed.all():
            # recent, s[R-3:R], equals s[R-1:R+2] bit for bit: the states of rows R and R+1.
            drive = win * u[t0:t0 + 2]
            yield (last := rows_of(drive, recent[:len(drive) + 1]))
            if len(last) == 2:
                yield _CycleTail(last, t0 + 2)
            return
        rows = min(2 * rows, cap)


class _CycleTail:
    """Rows ``t`` on of a run whose values repeat two rows: row ``r`` is ``last[(r - t) % 2]``.

    The last item of :func:`_lane_blocks` once every lane has closed:
    ``last`` holds the consumer's values of rows ``t-2`` and ``t-1``.
    :func:`_rate` folds it in place; any other reader expands the rows it
    needs.  A plain class: a dataclass would add 1 ms to every import.
    """

    def __init__(self, last: np.ndarray, t: int):
        self.last, self.t = last, t

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo`` to ``hi - 1`` (``t <= lo``) as one array."""
        return self.last[np.arange(lo - self.t, hi - self.t) % 2]

    def fold(self, acc, lo: int, hi: int):
        """:func:`_fold` of rows ``lo`` to ``hi - 1``, expanded one chunk at a time.

        A chunk holds about ``_BLOCK_CELLS`` cells.  :func:`_fold` adds
        more than ``_CUMSUM_LANES`` lanes row by row, at a cost per chunk,
        so such a chunk holds about ``8 * _BLOCK_CELLS`` (512 KiB): 21 rows
        of a 3,000-lane grid, not 2, which cut the grid's whole estimate
        (horizon 10,000) from 7.4 to 5.8 ms (CPython 3.11, numpy 2.4.6,
        2 vCPUs).
        """
        m = self.last[0].size
        size = max(1, (_BLOCK_CELLS if m <= _CUMSUM_LANES else 8 * _BLOCK_CELLS) // m)
        for r in range(lo, hi, size):
            acc = _fold(acc, self.rows(r, min(r + size, hi)))
        return acc


def _renormalized_rows(w, transfer, d0: float, direction: float):
    """The ``rows_of`` of :func:`_lane_blocks` that gives a block's renormalized logs.

    The companion of a reference state ``ref`` is ``ref + sign*d0``, with
    the sign of the last separation ``delta``, or after an exact 0 the
    restart ``direction``.  One ``eval`` of ``2 * rows * m`` values gives
    both companions of every row, ``ref +- d0``, and each row keeps the
    sign (the up delta gives +, the down delta -), flips it (the reverse)
    or sets it (both give one sign: a restart, or saturation).  A prefix
    scan chains the rows, whatever the transfer's shape, and the next
    block's first sign is carried from call to call.
    """
    both = np.array([d0, -d0])[:, None, None]
    pos = np.full(w.size, direction > 0.0)  # whether the next step's companion offset is +d0

    def rows_of(drive, states):
        nonlocal pos
        prev, ref = states[:-1], states[1:]
        up, down = transfer.eval(w * (prev + both) + drive) - ref
        # The next offset is + after a positive delta, - after a negative
        # one, and the restart direction's after 0.
        up_next, down_next = (~(x < 0.0) if direction > 0.0 else x > 0.0 for x in (up, down))
        # Row k's sign (k = rows: the next block's first) is the one the last
        # set row before it chose, or pos, flipped once per flip row since,
        # so sign ^ parity[k] changes only at a set.  Keyed 2k + that bit at
        # row 0 and after each set row, and 0 elsewhere, a running maximum
        # keeps the last one.
        none = np.zeros((1, w.size), dtype=bool)
        parity = np.vstack((none, np.logical_xor.accumulate(down_next & ~up_next)))
        keys = np.arange(0, 2 * len(states), 2)[:, None] + (np.vstack((pos, up_next)) ^ parity)
        keys *= np.vstack((~none, up_next == down_next))
        signs = (np.maximum.accumulate(keys) & 1).astype(bool) ^ parity
        pos = signs[-1]
        return np.log(np.abs(np.where(signs[:-1], up, down)) / d0)

    return rows_of


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
    :class:`~critical_esn.transfer.TanhTransfer`, whose ``eval`` must be
    a pure function: while at most ``_FLOAT_LANES`` lanes are open they
    step it through ``_eval_float``, a lane whose reference closes an
    exact 2-cycle is filled from it, and once every lane has closed, the
    logs of the next two rows are computed from the cycle and every later
    log copies one of them, restarts or not, which alone needs a
    nondecreasing transfer (see :func:`_lane_blocks`).  The companion
    starts at ``y0 + direction*d0`` with ``direction`` +1 or -1, and
    restarts there after an exact-zero separation.  Returns (lambda,
    stderr) arrays.  Elements evolve independently and elementwise, so
    results do not depend on how a grid is split into batches, nor on the
    engine's block size.
    """
    _check_d0(d0)
    if direction not in (1.0, -1.0):
        raise ValueError("direction must be +1 or -1")
    w, win, start = _lanes(w, w_in, y0)
    u = _run_rows(u, w, win, start, washout)
    logs = _lane_blocks(w, win, u, start, transfer, _renormalized_rows(w, transfer, d0, direction))
    lam, stderr, _ = _rate(logs, len(u), washout)
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
    and gains are as in :func:`renormalized_scalar_batch`.  Both
    ``transfer.eval`` and ``transfer.slope`` must be pure functions: once
    every lane of the reference recurrence has closed an exact 2-cycle,
    the logs of the next two rows are computed from the cycle and every
    later log copies one of them (see :func:`_lane_blocks`).
    """
    w, win, start = _lanes(w, w_in, y0)
    u = _run_rows(u, w, win, start, washout)
    gain = np.abs(w)
    logs = _lane_blocks(w, win, u, start, transfer,
                        lambda drive, states: np.log(gain * transfer.slope(w * states[:-1] + drive)))
    lam, stderr, _ = _rate(logs, len(u), washout)
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
    s_star = _bisect_root(residual, lo, hi)
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


def _valid(series: DistanceSeries, lo=1) -> np.ndarray:
    """Mask of the points a fit may use: step >= max(lo, 1) and distance above ``_FLOOR``."""
    return (series.t >= max(lo, 1)) & (series.d > _FLOOR)


def _window_points(series: DistanceSeries, window):
    t_lo, t_hi = window
    mask = _valid(series, t_lo) & (series.t <= t_hi)
    if int(mask.sum()) < _MIN_FIT_POINTS:
        raise ValueError(
            f"insufficient valid points in window [{t_lo}, {t_hi}]: "
            f"{int(mask.sum())} < {_MIN_FIT_POINTS}"
        )
    return series.t[mask].astype(float), series.d[mask]


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares ``(slope, r2)`` of ``y`` on ``x``, r2 clipped to [0, 1].

    An exactly constant ``y`` has no variance to explain: its slope and
    r2 are both 0.  Its floating-point mean need not equal the constant,
    so this is tested on the values, not on the sum of squares.
    """
    if np.all(y == y[0]):
        return 0.0, 0.0
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    resid = y - (ym + slope * (x - xm))
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    return slope, max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


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

    The window drops the first ``_TRANSIENT`` steps and ends at the last
    distance above the floating-point floor ``_FLOOR``.  The law with the
    higher coefficient of determination wins when it leads by more than
    ``_MARGIN``; otherwise the result is inconclusive.  A window with
    fewer than ``_MIN_FIT_POINTS`` valid points, or whose distances are
    all equal, gives r2 = 0 for both laws, so it is inconclusive.  Raises
    only for an empty series.
    """
    if series.t.size == 0:
        raise ValueError("empty distance series")
    lo = _TRANSIENT + 1
    # With no valid point the window is (lo, lo), which no fit accepts.
    window = (lo, int(series.t[_valid(series, lo)].max(initial=lo)))
    try:
        c_a, r2_ll = fit_power_law(series, window)
        c_b, r2_sl = fit_exponential(series, window)
    except ValueError:
        c_a = c_b = None
        r2_ll = r2_sl = 0.0
    lead = r2_ll - r2_sl
    law = "power_law" if lead > _MARGIN else "exponential" if lead < -_MARGIN else "inconclusive"
    return DecayFit(law, c_a if law == "power_law" else None, c_b if law == "exponential" else None,
                    r2_ll, r2_sl, window, series.truncated_at)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a nondecreasing array, in order: ``np.unique`` of it.

    ``np.unique`` would import ``numpy.ma`` on its first call, which costs
    a one-shot ``forgetting`` run 14-25 ms.
    """
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def loglog_bend(series: DistanceSeries) -> float:
    """Mean second difference of log d versus log t.

    Computed on a geometric resampling of the series, so it measures the
    curvature of the log-log plot: negative means the decay bends down,
    i.e. is faster than any power law fitted to its early part.
    """
    valid = _valid(series)
    t = series.t[valid].astype(float)
    d = series.d[valid]
    if t.size < 3:
        raise ValueError("need at least three valid points for a bend estimate")
    targets = _distinct(
        np.rint(10 ** np.linspace(math.log10(t[0]), math.log10(t[-1]), _BEND_POINTS))
    )
    idx = _distinct(np.searchsorted(t, targets).clip(0, t.size - 1))
    x = np.log(t[idx])
    y = np.log(d[idx])
    if x.size < 3:
        raise ValueError("resampled series too short for a bend estimate")
    left = (y[1:-1] - y[:-2]) / (x[1:-1] - x[:-2])
    right = (y[2:] - y[1:-1]) / (x[2:] - x[1:-1])
    curvature = 2.0 * (right - left) / (x[2:] - x[:-2])
    return float(curvature.mean())

