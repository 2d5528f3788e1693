"""Morphable transfer functions anchored on the tanh curve.

A morphable transfer function is a continuous, nondecreasing, Lipschitz-1
curve assembled from shifted tanh branches.  Each anchor abscissa (an
"epi-critical point", ECP) sits exactly on the underlying tanh curve and
carries slope exactly 1; everywhere else the slope stays strictly below 1.
Placing the ECPs at the linear responses a neuron expects makes the unit
contraction rate available exactly at the expected states while every
other state is contracted.

Around an ECP ``p`` the curve is the branch ``B_p(x) = tanh(x - p) +
tanh(p)``.  The point 0 is always a member of the ECP list (inserted if
missing), which makes plain tanh the single-anchor special case.  Between
two adjacent anchors the left branch overshoots the right anchor, so the
two branches have to be glued; two gluing variants are provided:

``plateau``
    Follow the left branch up to the mid level between the two anchor
    values, hold that level, and rejoin the right branch where it reaches
    the same level.  The flat part has slope exactly 0.

``bridge`` (default)
    Replace the flat part by a straight segment of strictly positive
    slope through the segment midpoint, so the slope is positive
    everywhere strictly between the extreme anchors.  The bridge slope is
    half the anchor-to-anchor chord slope, which keeps it in (0, 1/2) and
    leaves a nonempty unit-slope branch piece around every anchor.

Outside the extreme anchors the curve follows the outermost branch, so
the tails saturate at ``tanh(p_extreme) +- 1``.

The pieces are stored as one table of four arrays, ``a``, ``s``, ``b``
and ``c``, with one entry per piece (kept as Python lists too, for the
one-neuron engine's float step).  Every piece is evaluated by one
formula, ``a * tanh(x - s) + b + c * (x - s)``, with slope
``a * (1 - tanh(x - s)**2) + c``:

==============  ===  ================  ========  ============
piece           a    s                 b         c
==============  ===  ================  ========  ============
branch          1    anchor ``p``      tanh(p)   0
bridge line     0    segment midpoint  level     bridge slope
plateau         0    segment midpoint  level     0
==============  ===  ================  ========  ============

Every value of a transfer comes from ``np.tanh`` through that formula
(``MorphableTransfer._value``); ``math.tanh`` only finds the scalar
junction roots at build time, whose residuals are checked through ``_value``.

Instances are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Variant",
    "MorphableTransfer",
    "TanhTransfer",
    "ValidationIssue",
    "ValidationReport",
    "MIN_ECP_SPACING",
]

#: Minimum spacing between adjacent ECPs; below this the junction solves
#: are ill-conditioned and the builder rejects the list.
MIN_ECP_SPACING = 1e-6

#: Junction equations are solved until the defining residual is below this.
_RESIDUAL_TOL = 1e-14

#: Inputs are clamped this far beyond the extreme anchors, where
#: ``tanh(x - p)`` is already exactly +-1 (it is from |x - p| > 19.1 on).
_TAIL_CLAMP = 40.0


class Variant(str, Enum):
    """Gluing rule used between adjacent anchors."""

    PLATEAU = "plateau"
    BRIDGE = "bridge"


def _bisect_root(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] by bisection; the caller ensures f(lo) < 0 <= f(hi).

    A midpoint with ``f(mid) < 0`` becomes ``lo`` and any other becomes
    ``hi``, until the bracket closes to adjacent floats; the result is its
    midpoint, accurate to 1 ulp.  There is no early exit on an exact-zero
    residual, so the result depends only on the sign of ``f``.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _normalize_ecps(points) -> np.ndarray:
    """Sort, insert 0 if absent, and enforce the ECP list invariants."""
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 1:
        raise ValueError("ECP list must be one-dimensional")
    if pts.size and not np.all(np.isfinite(pts)):
        raise ValueError("ECP values must be finite")
    if not np.any(pts == 0.0):
        pts = np.append(pts, 0.0)
    pts = np.sort(pts)
    gaps = np.diff(pts)
    if gaps.size and gaps.min() < MIN_ECP_SPACING:
        raise ValueError(
            f"adjacent ECP spacing {gaps.min():.3g} below the "
            f"{MIN_ECP_SPACING:.0e} floor (0 is auto-inserted)"
        )
    return pts


def _nearest_distance(xs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from each of ``xs`` to the nearest of the sorted ``pts``, inf if none.

    Only the two neighbours ``searchsorted`` brackets a point with can be nearest."""
    fence = np.concatenate(([-np.inf], pts, [np.inf]))
    i = fence.searchsorted(xs)
    return np.minimum(np.abs(xs - fence[i - 1]), np.abs(xs - fence[i]))


@dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation found by :meth:`MorphableTransfer.validate`."""

    x: float
    check: str
    magnitude: float

    def __str__(self) -> str:
        return f"{self.check} at x={self.x:.9g} (magnitude {self.magnitude:.3g})"


@dataclass
class ValidationReport:
    """Outcome of a dense-grid invariant check."""

    grid_step: float
    points_checked: int
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        head = (
            f"validated {self.points_checked} grid points "
            f"(step {self.grid_step:g}): "
        )
        if self.ok:
            return head + "no violations"
        lines = [head + f"{len(self.issues)} violation(s)"]
        lines += [f"  - {issue}" for issue in self.issues[:20]]
        if len(self.issues) > 20:
            lines.append(f"  ... and {len(self.issues) - 20} more")
        return "\n".join(lines)


class MorphableTransfer:
    """Piecewise transfer function with exact unit-slope anchors.

    Parameters
    ----------
    ecps : sequence of float
        Anchor abscissae.  Sorted internally; 0 is inserted if absent.
        Adjacent anchors must be at least ``MIN_ECP_SPACING`` apart.
    variant : Variant or str
        Gluing rule between adjacent anchors (default ``bridge``).

    Notes
    -----
    At a kink abscissa :meth:`slope` returns the right-sided value, so
    validators see a deterministic answer.  Junction positions are solved
    at build time, by bisection on ``math.tanh``, to residuals below 1e-14
    measured through ``_value``.  Evaluation is one
    ``searchsorted`` on the kinks, a gather from each array of the piece
    table (``a``, ``s``, ``b``, ``c``; see the module docstring) and one
    formula, ``_value``, so a call costs a fixed handful of numpy operations
    at any batch size.  The build's residual check and :meth:`validate` read
    the junction gaps through ``_value`` too.  ``eval(+-inf)`` is the
    saturated tail value, ``slope(+-inf)`` is 0 and NaN maps to NaN.
    """

    def __init__(self, ecps, variant: Variant | str = Variant.BRIDGE):
        self._ecps = _normalize_ecps(ecps)
        self._variant = Variant(variant)
        self._compile()

    # -- construction -----------------------------------------------------

    def _compile(self) -> None:
        pts = self._ecps
        anchors = np.tanh(pts)
        breaks: list[float] = []
        # Pieces as (a, s, b, c); piece j is active on
        # [breaks[j-1], breaks[j]) with the right piece owning the break.
        pieces: list[tuple[float, float, float, float]] = [
            (1.0, float(pts[0]), float(anchors[0]), 0.0)
        ]

        for i in range(len(pts) - 1):
            left, right = float(pts[i]), float(pts[i + 1])
            h_lo, h_hi = float(anchors[i]), float(anchors[i + 1])
            width = right - left
            dh = h_hi - h_lo
            # 0 is an anchor, so tanh's subadditivity keeps the left branch on top.
            level = 0.5 * (h_lo + h_hi)
            mid = left + 0.5 * width
            if self._variant is Variant.PLATEAU:
                # math.atanh is exact here: dh/2 <= tanh(width)/2 < 1/2.
                off = math.atanh(0.5 * dh)
                slope = 0.0
            else:
                slope = dh / (2.0 * width)

                def junction(s, _m=slope, _w=width, _dh=dh):
                    return math.tanh(s) + _m * (0.5 * _w - s) - 0.5 * _dh

                # junction(0) = -dh/4 < 0 and junction(w/2) > 0, so the
                # offset is strictly inside (0, w/2) and the branch piece
                # around each anchor keeps nonzero width.
                off = _bisect_root(junction, 0.0, 0.5 * width)
            depart, arrive = left + off, right - off
            if not (left < depart < arrive < right):
                # The offset scales with tanh(right) - tanh(left), which
                # vanishes below float64 spacing once tanh saturates.
                raise ValueError(
                    f"anchors {left:.17g} and {right:.17g} cannot be glued: tanh "
                    f"saturates there (tanh difference {dh:.3g}), so the junctions "
                    "cannot be separated in float64"
                )
            breaks += [depart, arrive]
            pieces += [(0.0, mid, level, slope), (1.0, right, h_hi, 0.0)]

        # Strictly increasing: each segment's kinks lie inside its (left, right).
        self._breaks = np.asarray(breaks)
        self._a, self._s, self._b, self._c = np.array(pieces).T.copy()
        # The same table as Python lists, read by _eval_float.
        self._rows = tuple(t.tolist() for t in (self._breaks, self._a, self._s, self._b, self._c))
        self._lo = float(pts[0]) - _TAIL_CLAMP
        self._hi = float(pts[-1]) + _TAIL_CLAMP

        mismatch = self._junction_gaps().max(initial=0.0)
        if mismatch > _RESIDUAL_TOL:
            raise RuntimeError(f"junction residual {mismatch:.3g} above tolerance")

    def _value(self, j, x):
        """Piece ``j`` of the table at ``x``, the one formula every value comes from."""
        d = x - self._s[j]
        return self._a[j] * np.tanh(d) + self._b[j] + self._c[j] * d

    def _junction_gaps(self) -> np.ndarray:
        """``|left piece - right piece|`` at every kink."""
        j = np.arange(self._breaks.size)
        return np.abs(self._value(j, self._breaks) - self._value(j + 1, self._breaks))

    # -- queries ----------------------------------------------------------

    @property
    def ecps(self) -> tuple[float, ...]:
        """Anchor abscissae after sorting and 0-insertion."""
        return tuple(self._ecps)

    @property
    def variant(self) -> Variant:
        return self._variant

    @property
    def kinks(self) -> tuple[float, ...]:
        """Abscissae where the slope jumps (piece junctions)."""
        return tuple(self._breaks)

    def eval(self, x):
        """Transfer value; arrays map elementwise, scalars return float."""
        arr = np.asarray(x, dtype=float)
        # Past the clamp the tails are flat to the last bit; clamping keeps
        # x = +-inf from reaching c * (x - s) as 0 * inf = NaN.
        xc = np.minimum(np.maximum(arr, self._lo), self._hi)
        out = self._value(self._breaks.searchsorted(xc, side="right"), xc)
        return out if arr.ndim else float(out)

    __call__ = eval

    def _eval_float(self, x: float) -> float:
        """``eval`` of one Python float, bit for bit, without numpy's per-call cost.

        The same clamp, the same piece (``bisect_right`` finds what
        ``searchsorted(side="right")`` finds, NaN included) and ``_value``'s
        operations in its order.  The tanh is ``np.tanh`` of a float, never
        ``math.tanh``, which differs from numpy's SIMD kernels in the last
        bit on a sizable share of points.
        """
        breaks, a, s, b, c = self._rows
        x = min(max(x, self._lo), self._hi)
        j = bisect_right(breaks, x)
        d = x - s[j]
        return a[j] * float(np.tanh(d)) + b[j] + c[j] * d

    def slope(self, x):
        """Analytic slope of the active piece (right-sided at kinks)."""
        arr = np.asarray(x, dtype=float)
        j = self._breaks.searchsorted(arr, side="right")
        t = np.tanh(arr - self._s[j])
        out = self._a[j] * (1.0 - t * t) + self._c[j]
        return out if arr.ndim else float(out)

    def sample(self, lo: float, hi: float, n: int) -> np.ndarray:
        """Evenly spaced table of (x, value, slope), endpoints included.

        Returns an (n, 3) array; used by the CLI curve dump.  Both bounds
        must be finite.
        """
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("sample range requires finite bounds")
        if not (lo < hi):
            raise ValueError("sample range requires lo < hi")
        if n < 2:
            raise ValueError("sample needs at least two rows")
        xs = np.linspace(lo, hi, n)
        return np.column_stack([xs, self.eval(xs), self.slope(xs)])

    # -- validation -------------------------------------------------------

    def validate(self, grid_step: float) -> ValidationReport:
        """Dense-grid check of every invariant over the anchor span +- 5.

        Checks exact anchor values, the slope range, slope-1-only-at-ECPs,
        monotonicity with the Lipschitz-1 increment bound, the amplitude
        bound, junction continuity within 1e-12, agreement between the
        analytic slope and a central finite difference away from kinks,
        and (bridge variant) strictly positive slope between the extreme
        anchors.  Violations are reported, never raised, grouped by check in
        ascending ``x``.  It is one vectorized pass: junction gaps come from
        ``eval``'s piece formula, nearest anchors and kinks from ``searchsorted``.
        """
        if not (0.0 < grid_step <= 1e-2):
            raise ValueError("grid_step must be in (0, 1e-2]")
        issues: list[ValidationIssue] = []

        def flag(check, where, mask, size):
            issues.extend(ValidationIssue(float(x), check, float(m))
                          for x, m in zip(where[mask], size[mask]))

        pts = self._ecps
        lo, hi = pts[0] - 5.0, pts[-1] + 5.0
        count = int(round((hi - lo) / grid_step)) + 1
        xs = np.linspace(lo, hi, count)

        got, anchors = self.eval(pts), np.tanh(pts)
        flag("anchor value", pts, got != anchors, np.abs(got - anchors))
        got = self.slope(pts)
        flag("anchor slope", pts, got != 1.0, np.abs(got - 1.0))

        vals = self.eval(xs)
        slopes = self.slope(xs)
        flag("slope range", xs, (slopes < 0.0) | (slopes > 1.0),
             np.maximum(-slopes, slopes - 1.0))
        # Slope 1 is allowed only within one grid step of an anchor.
        dist = _nearest_distance(xs, pts)
        flag("unit slope off anchor", xs, (slopes >= 1.0) & (dist > grid_step), dist)

        dv = np.diff(vals)
        flag("monotonicity", xs[:-1], dv < 0.0, -dv)
        over = dv - np.diff(xs)
        flag("Lipschitz-1 increment", xs[:-1], over > 0.0, over)

        bound = 1.0 + max(abs(np.tanh(pts[0])), abs(np.tanh(pts[-1])))
        excess = np.abs(vals) - bound
        flag("amplitude bound", xs, excess > 0.0, excess)

        if self._variant is Variant.BRIDGE:
            flat = (xs > pts[0]) & (xs < pts[-1]) & (slopes <= 0.0)
            flag("bridge slope positivity", xs, flat, np.zeros_like(xs))

        gaps = self._junction_gaps()
        flag("junction continuity", self._breaks, gaps > 1e-12, gaps)

        # Central finite difference vs analytic slope, away from kinks.
        h = 1e-7
        smooth = _nearest_distance(xs, self._breaks) > 2.0 * h
        fd = (self.eval(xs[smooth] + h) - self.eval(xs[smooth] - h)) / (2.0 * h)
        err = np.abs(fd - slopes[smooth])
        flag("finite-difference slope", xs[smooth], err > 1e-6, err)

        return ValidationReport(grid_step=grid_step, points_checked=count, issues=issues)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p:g}" for p in self._ecps)
        return f"MorphableTransfer([{inner}], variant={self._variant.value})"


class TanhTransfer:
    """Plain tanh with the same query interface as :class:`MorphableTransfer`.

    Used as the contrast baseline system; identical to a single-anchor
    morphable transfer but kept as its own type to make the baseline
    explicit in configurations.
    """

    ecps: tuple[float, ...] = (0.0,)
    variant = None
    kinks: tuple[float, ...] = ()

    def eval(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.tanh(arr)
        return out if arr.ndim else float(out)

    __call__ = eval

    def _eval_float(self, x: float) -> float:
        """``eval`` of one Python float, as in :meth:`MorphableTransfer._eval_float`."""
        return float(np.tanh(x))

    def slope(self, x):
        arr = np.asarray(x, dtype=float)
        out = 1.0 - np.tanh(arr) ** 2
        return out if arr.ndim else float(out)

    def __repr__(self) -> str:
        return "TanhTransfer()"
