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
  one-neuron engine below.  Other reservoirs with one shared transfer
  and no hook advance reference and companion as one ``(2, k)`` state
  stack with one transfer ``eval`` per step; the rest step two copies
  through ``Reservoir.step``.
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
derivative product, every slope in one ``slope`` call).  Every estimator
is a stream of per-step logs read by one reducer, which keeps 20 running
batch sums per lane, so beyond its input an estimate's memory does not
grow with the horizon, and a lane's result is identical whether it runs
alone or in any split of a grid, whatever the block size.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import Optional

import numpy as np

from .signals import InputSequence, generate, rng_stream, STREAM_DIRECTION

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


def _check_input(u: np.ndarray, washout: int) -> None:
    """Reject a negative washout, fewer than 1000 post-washout steps or non-finite input."""
    if washout < 0:
        raise ValueError("washout must be nonnegative")
    if len(u) < washout + 1000:
        raise ValueError("input too short: need at least washout + 1000 steps")
    if not np.all(np.isfinite(u)):
        raise ValueError("input must be finite")


def _check_d0(d0: float) -> None:
    if not (1e-12 <= d0 <= 1e-6):
        raise ValueError("d0 must lie in [1e-12, 1e-6]")


def _rate(logs, steps: int, washout: int):
    """Mean rate and batch-mean standard error of a stream of per-step logs.

    ``logs`` yields one log per step: a scalar, or an array with one value
    per lane.  The first ``washout`` are skipped and the next ``used`` (the
    largest multiple of 20 within ``steps - washout``) are summed into 20
    batch sums as they arrive; nothing after them is drawn.  Each lane's
    batch means form one contiguous row, so a lane's result depends only
    on its own logs.  A lane with a log of 0 (``-inf``) gets
    ``lam = -inf`` and ``stderr = nan``, without a warning.

    Returns ``(lam, stderr, used)``.
    """
    per = (steps - washout) // _BATCHES
    with np.errstate(divide="ignore"):  # the stream's log 0 = -inf is a result
        for _ in islice(logs, washout):
            pass
        sums = [reduce(operator.add, islice(logs, per)) for _ in range(_BATCHES)]
    batches = np.stack(sums, axis=-1) / per
    lam = batches.mean(axis=-1)
    # A -inf lane's spread is -inf - -inf: the documented NaN, not a warning.
    with np.errstate(invalid="ignore"):
        stderr = batches.std(axis=-1, ddof=1) / math.sqrt(_BATCHES)
    return lam, stderr, per * _BATCHES


def _sequence(inputs, washout: int) -> np.ndarray:
    """Input rows of a generic estimator, generated from a spec if need be."""
    if isinstance(inputs, InputSequence):
        inputs = generate(inputs)
    inputs = np.asarray(inputs, dtype=float)
    _check_input(inputs, washout)
    return inputs


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

    A one-neuron reservoir with one shared transfer and no predictor hook
    runs as a one-lane batch of the blocked one-neuron engine (see
    :func:`renormalized_scalar_batch`): its drive is ``u @ w_in[0]`` and
    its direction, the seeded unit vector of length 1, is exactly +-1.
    :func:`lyapunov_derivative_product`, the oracle this estimate is
    checked against, keeps stepping through :meth:`Reservoir.step`, so
    the two share no code.  Other reservoirs with one shared transfer and
    no hook advance both trajectories as one ``(2, k)`` stack
    (``Reservoir._stack_steps``), one transfer ``eval`` per step; the
    stacked matrix product rounds differently from :meth:`Reservoir.step`,
    which moves k > 1 estimates by up to about 1e-6.  Per-neuron
    transfers and predictor hooks step two reservoir copies.

    When the separation reaches exactly 0 after a post-washout step, that
    step's log is ``-inf``: the estimate is ``lam = -inf`` with
    ``stderr = nan``, and the companion restarts at ``d0`` along the
    initial direction.
    """
    _check_d0(d0)
    u = _sequence(inputs, washout)
    u = u.reshape(len(u), -1)
    if u.shape[1] != reservoir.n:
        raise ValueError(f"input width {u.shape[1]} does not match n={reservoir.n}")

    direction = rng_stream(seed, STREAM_DIRECTION).standard_normal(reservoir.k)
    direction /= np.linalg.norm(direction)
    start = np.asarray(reservoir.state, dtype=float).reshape(reservoir.k)

    def stacked():
        # Row 0 is the reference trajectory, row 1 the companion.
        for pair in reservoir._stack_steps(np.stack([start, start + d0 * direction]), u):
            delta = pair[1] - pair[0]
            dist = float(np.linalg.norm(delta))
            if dist > 0.0:
                pair[1] = pair[0] + delta * (d0 / dist)
            else:
                pair[1] = pair[0] + d0 * direction
            yield np.log(dist / d0)

    if reservoir.k == 1 and reservoir._shared and reservoir.predictor is None:
        logs = _renormalized_logs(reservoir.W[0], np.ones(1), (u @ reservoir.w_in[0])[:, None],
                                  start, reservoir.transfers[0], d0, float(direction[0]))
    else:
        logs = stacked()
    lam, stderr, used = _rate(logs, len(u), washout)
    return LyapunovEstimate(lam=lam.item(), method="renormalized", steps_used=used,
                            washout=washout, d0=d0, stderr=stderr.item())


def lyapunov_derivative_product(reservoir, inputs, washout: int = 1000) -> LyapunovEstimate:
    """Exact tangent average ``mean log |W * slope(y_lin_t)|`` for k = 1.

    Runs the single trajectory and averages the log tangent factor; for
    one-neuron systems this is the exponent without any finite-separation
    approximation, which makes it the oracle the renormalized estimator
    is checked against.  Each step's slope is taken from the transfer
    that step used, so a predictor hook's choice is honoured.

    When the slope is exactly 0 at a post-washout step (a plateau of the
    transfer), that step's log is ``-inf``: the estimate is
    ``lam = -inf`` with ``stderr = nan``.
    """
    if reservoir.k != 1:
        raise ValueError("derivative-product estimation requires a one-neuron reservoir")
    u = _sequence(inputs, washout)
    work = reservoir.copy()
    gain = abs(float(work.W[0, 0]))

    def logs():
        for row in u:
            rec = work.step(row)
            yield np.log(gain * float(work.transfers[0].slope(rec.y_lin)[0]))

    lam, stderr, used = _rate(logs(), len(u), washout)
    return LyapunovEstimate(lam=float(lam), method="derivative_product", steps_used=used,
                            washout=washout, d0=None, stderr=float(stderr))


# -- blocked one-neuron engine ------------------------------------------------

#: Cells (rows x lanes) of one reference block; a block has max(1, cells // m) rows.
_BLOCK_CELLS = 1 << 13


def _lanes(w, w_in, u, y0, washout: int):
    """Gains, input rows and start states of a batch of one-neuron lanes."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    m = w.size
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    elif u.shape[1] not in (1, m):
        raise ValueError("per-element input width must be 1 or match the batch")
    _check_input(u, washout)
    win = np.broadcast_to(np.asarray(w_in, dtype=float), (m,))
    state = np.broadcast_to(np.asarray(y0, dtype=float), (m,)).astype(float)
    return w, win, u, state


def _reference_blocks(w, win, u, y, transfer):
    """The reference recurrence ``y <- transfer(w*y + win*u[t])`` of ``m`` lanes, by blocks.

    Each block of ``max(1, _BLOCK_CELLS // m)`` input rows costs one
    ``eval`` of the ``m`` lanes per row, the only sequential work of the
    one-neuron estimators.  Yields ``(drive, states)`` per block: the
    drives ``win*u[t]`` of its rows, and the states before
    (``states[:-1]``) and after (``states[1:]``) each row.
    """
    rows = max(1, _BLOCK_CELLS // w.size)
    for t0 in range(0, len(u), rows):
        drive = win * u[t0:t0 + rows]
        states = np.empty((len(drive) + 1, w.size))
        states[0] = y
        for i, d in enumerate(drive, start=1):
            y = states[i] = transfer.eval(w * y + d)
        yield drive, states


def _renormalized_logs(w, win, u, y, transfer, d0: float, direction: float):
    """Per-step renormalized logs of one-neuron lanes, one row of ``m`` per step.

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
        yield from np.log(np.abs(delta) / d0)


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
    element; ``u`` is the shared input (T,) or per-element input (T, m);
    all elements share ``transfer``, which must be nondecreasing.  The
    companion starts at ``y0 + direction*d0`` with ``direction`` +1 or
    -1, and restarts there after an exact-zero separation.  Returns
    (lambda, stderr) arrays.  Elements evolve independently and
    elementwise, so results do not depend on how a grid is split into
    batches, nor on the engine's block size.
    """
    _check_d0(d0)
    if direction not in (1.0, -1.0):
        raise ValueError("direction must be +1 or -1")
    w, win, u, start = _lanes(w, w_in, u, y0, washout)
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
    recurrence take one ``slope`` call over its linear responses.
    """
    w, win, u, start = _lanes(w, w_in, u, y0, washout)
    gain = np.abs(w)

    def logs():
        for drive, states in _reference_blocks(w, win, u, start, transfer):
            yield from np.log(gain * transfer.slope(w * states[:-1] + drive))

    lam, stderr, _ = _rate(logs(), len(u), washout)
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


def _window_points(series: DistanceSeries, window, minimum: int = 30):
    t_lo, t_hi = window
    mask = (
        (series.t >= t_lo)
        & (series.t <= t_hi)
        & (series.t >= 1)
        & (series.d > _FLOOR)
    )
    if int(mask.sum()) < minimum:
        raise ValueError(
            f"insufficient valid points in window [{t_lo}, {t_hi}]: "
            f"{int(mask.sum())} < {minimum}"
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
    result is inconclusive.  Never raises.
    """
    if series.t.size == 0:
        raise ValueError("empty distance series")
    valid = (series.t > 10) & (series.d > _FLOOR)
    if not valid.any():
        return DecayFit(
            law="inconclusive",
            c_a=None,
            c_b=None,
            r2_loglog=0.0,
            r2_semilog=0.0,
            window=(11, 11),
            truncated_at=series.truncated_at,
        )
    window = (11, int(series.t[valid].max()))
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


def loglog_bend(series: DistanceSeries, points: int = 25) -> float:
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
        np.rint(10 ** np.linspace(math.log10(t[0]), math.log10(t[-1]), points))
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


# -- serialization -------------------------------------------------------------


def lyapunov_csv_header() -> list[str]:
    return ["lambda", "stderr", "method", "steps_used", "washout", "d0"]


def lyapunov_csv_row(est: LyapunovEstimate) -> list:
    return [est.lam, est.stderr, est.method, est.steps_used, est.washout,
            "" if est.d0 is None else est.d0]


def decay_csv_header() -> list[str]:
    return ["law", "c_a", "c_b", "r2_loglog", "r2_semilog",
            "window_lo", "window_hi", "truncated_at"]


def decay_csv_row(fit: DecayFit) -> list:
    return [
        fit.law,
        "" if fit.c_a is None else fit.c_a,
        "" if fit.c_b is None else fit.c_b,
        fit.r2_loglog,
        fit.r2_semilog,
        fit.window[0],
        fit.window[1],
        "" if fit.truncated_at is None else fit.truncated_at,
    ]


def render_decay(fit: DecayFit) -> str:
    lines = [f"decay law: {fit.law}"]
    if fit.c_a is not None:
        lines.append(f"power-law exponent c_a = {fit.c_a:.6g}")
    if fit.c_b is not None:
        lines.append(f"exponential base c_b = {fit.c_b:.6g} per step")
    lines.append(f"r2 log-log  = {fit.r2_loglog:.6f}")
    lines.append(f"r2 semi-log = {fit.r2_semilog:.6f}")
    lines.append(f"fit window  = [{fit.window[0]}, {fit.window[1]}]")
    if fit.truncated_at is not None:
        lines.append(f"distance reached exact zero at step {fit.truncated_at}")
    return "\n".join(lines)


def render_lyapunov(est: LyapunovEstimate) -> str:
    lines = [
        f"lambda = {est.lam:.9g} nats/step (stderr {est.stderr:.3g})",
        f"method = {est.method}",
        f"steps used = {est.steps_used} after washout {est.washout}",
    ]
    if est.d0 is not None:
        lines.append(f"initial separation d0 = {est.d0:g}")
    return "\n".join(lines)
