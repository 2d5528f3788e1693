import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ecp_list
from critical_esn.signals import rng_stream
from critical_esn.transfer import (
    MIN_ECP_SPACING,
    MorphableTransfer,
    TanhTransfer,
    ValidationIssue,
    Variant,
    _nearest_distance,
)

TANH1 = float(np.tanh(1.0))


def masked_reference(f, x, slope=False):
    """Per-kind masked evaluation, the form the piece table replaced.

    Each piece of ``f``'s table is read back as one of three kinds, and
    each kind gets its own mask pass and its own formula: a branch
    ``tanh(x - p) + tanh(p)`` (a = 1), a bridge line ``level + c * (x - mid)``
    (a = 0, c != 0) or a plateau ``level``.
    """
    a, s, b, c = f._a, f._s, f._b, f._c
    arr = np.asarray(x, dtype=float)
    idx = np.searchsorted(f._breaks, arr, side="right")
    out = np.empty_like(arr, dtype=float)
    branch = a[idx] == 1.0
    line = ~branch & (c[idx] != 0.0)
    flat = ~branch & ~line
    if slope:
        out[branch] = 1.0 - np.tanh(arr[branch] - s[idx[branch]]) ** 2
        out[line] = c[idx[line]]
        out[flat] = 0.0
    else:
        out[branch] = np.tanh(arr[branch] - s[idx[branch]]) + b[idx[branch]]
        out[line] = b[idx[line]] + c[idx[line]] * (arr[line] - s[idx[line]])
        out[flat] = b[idx[flat]]
    return out


def reference_validate(f, grid_step):
    """Issues of ``f.validate(grid_step)`` by the loop form the one-pass check replaced.

    Anchors and kinks are checked one at a time, the kink pieces through a
    scalar evaluator, each check appends its issues in its own loop, and
    the nearest anchor and kink come from ``(n, P)`` broadcast matrices.
    """

    def piece_value(j, x):
        s = f._s[j]
        return f._a[j] * float(np.tanh(x - s)) + f._b[j] + f._c[j] * (x - s)

    issues = []
    pts = f._ecps
    lo, hi = pts[0] - 5.0, pts[-1] + 5.0
    count = int(round((hi - lo) / grid_step)) + 1
    xs = np.linspace(lo, hi, count)

    for p, anchor in zip(pts, np.tanh(pts)):
        got = f.eval(float(p))
        if got != anchor:
            issues.append(ValidationIssue(float(p), "anchor value", abs(got - anchor)))
        if f.slope(float(p)) != 1.0:
            issues.append(ValidationIssue(float(p), "anchor slope", abs(f.slope(float(p)) - 1.0)))

    vals = f.eval(xs)
    slopes = f.slope(xs)

    bad = (slopes < 0.0) | (slopes > 1.0)
    for x, s in zip(xs[bad], slopes[bad]):
        issues.append(ValidationIssue(float(x), "slope range", float(max(-s, s - 1.0))))

    at_one = slopes >= 1.0
    if at_one.any():
        dist = np.min(np.abs(xs[at_one, None] - pts[None, :]), axis=1)
        for x, d in zip(xs[at_one][dist > grid_step], dist[dist > grid_step]):
            issues.append(ValidationIssue(float(x), "unit slope off anchor", float(d)))

    dv = np.diff(vals)
    dx = np.diff(xs)
    for x, m in zip(xs[:-1][dv < 0.0], -dv[dv < 0.0]):
        issues.append(ValidationIssue(float(x), "monotonicity", float(m)))
    over = dv - dx
    for x, m in zip(xs[:-1][over > 0.0], over[over > 0.0]):
        issues.append(ValidationIssue(float(x), "Lipschitz-1 increment", float(m)))

    bound = 1.0 + max(abs(np.tanh(pts[0])), abs(np.tanh(pts[-1])))
    big = np.abs(vals) > bound
    for x, v in zip(xs[big], np.abs(vals[big]) - bound):
        issues.append(ValidationIssue(float(x), "amplitude bound", float(v)))

    if f.variant is Variant.BRIDGE and len(pts) > 1:
        inside = (xs > pts[0]) & (xs < pts[-1])
        flat = inside & (slopes <= 0.0)
        for x in xs[flat]:
            issues.append(ValidationIssue(float(x), "bridge slope positivity", 0.0))

    for j, b in enumerate(f._breaks):
        gap = abs(piece_value(j, float(b)) - piece_value(j + 1, float(b)))
        if gap > 1e-12:
            issues.append(ValidationIssue(float(b), "junction continuity", gap))

    h = 1e-7
    if f._breaks.size:
        kink_dist = np.min(np.abs(xs[:, None] - f._breaks[None, :]), axis=1)
        smooth = kink_dist > 2.0 * h
    else:
        smooth = np.ones_like(xs, dtype=bool)
    fd = (f.eval(xs[smooth] + h) - f.eval(xs[smooth] - h)) / (2.0 * h)
    err = np.abs(fd - slopes[smooth])
    for x, e in zip(xs[smooth][err > 1e-6], err[err > 1e-6]):
        issues.append(ValidationIssue(float(x), "finite-difference slope", float(e)))
    return issues


def issue_bits(issues):
    """Issues as sorted ``(check, x, magnitude)`` tuples, floats by their exact bits."""
    return sorted((i.check, float(i.x).hex(), float(i.magnitude).hex()) for i in issues)


class TestBuild:
    def test_single_anchor_is_plain_tanh(self):
        f = MorphableTransfer([0.0], Variant.BRIDGE)
        xs = np.linspace(-6.0, 6.0, 301)
        assert np.array_equal(f.eval(xs), np.tanh(xs))
        assert np.array_equal(f.slope(xs), 1.0 - np.tanh(xs) ** 2)

    def test_zero_auto_inserted(self):
        f = MorphableTransfer([-1.0, 1.0])
        assert f.ecps == (-1.0, 0.0, 1.0)

    def test_zero_not_duplicated(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0])
        assert f.ecps == (-1.0, 0.0, 1.0)

    def test_input_order_irrelevant(self):
        assert MorphableTransfer([2.0, -1.0, 0.5]).ecps == (-1.0, 0.0, 0.5, 2.0)

    def test_outer_branches_cross_at_origin(self):
        # The +-1 branches tanh(x+1)-tanh(1) and tanh(x-1)+tanh(1) meet
        # exactly at x = 0, the auto-inserted anchor.
        gap = (math.tanh(0.0 + 1.0) - math.tanh(1.0)) - (math.tanh(0.0 - 1.0) + math.tanh(1.0))
        assert gap == 0.0

    def test_empty_list_becomes_plain_tanh(self):
        f = MorphableTransfer([])
        assert f.ecps == (0.0,)

    @pytest.mark.parametrize("bad", [[0.0, 5e-7], [1e-9], [-3e-7, 4e-7]])
    def test_spacing_violation_rejected(self, bad):
        with pytest.raises(ValueError, match="spacing"):
            MorphableTransfer(bad)

    @pytest.mark.parametrize("bad", [[float("nan")], [1.0, float("inf")]])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MorphableTransfer(bad)

    def test_spacing_floor_constant(self):
        assert MIN_ECP_SPACING == 1e-6

    @pytest.mark.parametrize("variant", [Variant.PLATEAU, Variant.BRIDGE])
    @pytest.mark.parametrize("ecps, left, right", [
        ([20.0, 21.0], "20", "21"),  # tanh(20) == tanh(21) in float64
        ([-21.0, -20.0], "-21", "-20"),
        ([18.0, 19.0], "18", "19"),  # differ by one ulp of 1: offset < ulp(18)
    ])
    def test_saturated_anchor_pair_named(self, variant, ecps, left, right):
        with pytest.raises(ValueError, match=f"anchors {left} and {right} .*saturates"):
            MorphableTransfer(ecps, variant)

    @pytest.mark.parametrize("variant", [Variant.PLATEAU, Variant.BRIDGE])
    def test_deep_but_separable_anchors_build(self, variant):
        f = MorphableTransfer([15.0, 16.0], variant)
        assert f.eval(16.0) == np.tanh(16.0)


class TestEval:
    @pytest.mark.parametrize("variant", [Variant.PLATEAU, Variant.BRIDGE])
    @pytest.mark.parametrize(
        "ecps", [(-1.0, 0.0, 1.0), (0.5,), (-2.5, -0.3, 0.8, 2.0)]
    )
    def test_anchor_values_exact(self, ecps, variant):
        f = MorphableTransfer(ecps, variant)
        for p in f.ecps:
            assert f.eval(p) == float(np.tanh(p))

    def test_plain_tanh_value(self):
        f = MorphableTransfer([0.0])
        assert f.eval(2.0) == float(np.tanh(2.0))
        assert f.eval(2.0) == pytest.approx(0.964028, abs=1e-6)

    def test_plateau_level_between_anchors(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.PLATEAU)
        val = f.eval(0.5)
        assert val == TANH1 / 2.0
        assert math.tanh(0.4) <= val < math.tanh(0.5)

    def test_bridge_midpoint_sits_at_mid_level(self):
        # The bridge line passes through the segment midpoint by symmetry.
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.BRIDGE)
        assert f.eval(0.5) == pytest.approx(TANH1 / 2.0, abs=1e-14)

    def test_tails_follow_outermost_branch(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.BRIDGE)
        xs = np.array([3.0, 7.5])
        assert np.array_equal(f.eval(xs), np.tanh(xs - 1.0) + np.tanh(1.0))
        xs = np.array([-9.0, -2.5])
        assert np.array_equal(f.eval(xs), np.tanh(xs + 1.0) + np.tanh(-1.0))

    def test_amplitude_bound(self):
        f = MorphableTransfer([-2.0, 1.5], Variant.BRIDGE)
        xs = np.linspace(-40.0, 40.0, 801)
        assert np.all(np.abs(f.eval(xs)) <= 1.0 + abs(np.tanh(-2.0)))

    def test_scalar_and_array_paths_agree(self):
        f = MorphableTransfer([-1.0, 0.3, 1.7], Variant.PLATEAU)
        xs = np.linspace(-4.0, 4.0, 97)
        vec = f.eval(xs)
        assert all(f.eval(float(x)) == v for x, v in zip(xs, vec))
        svec = f.slope(xs)
        assert all(f.slope(float(x)) == s for x, s in zip(xs, svec))


class TestPieceTable:
    def test_matches_masked_reference_bit_for_bit(self):
        rng = rng_stream(2024, 5)
        for _ in range(100):
            ecps = random_ecp_list(rng)
            for variant in (Variant.PLATEAU, Variant.BRIDGE):
                f = MorphableTransfer(ecps, variant)
                kinks = np.array(f.kinks)
                xs = np.concatenate([
                    np.linspace(f.ecps[0] - 6.0, f.ecps[-1] + 6.0, 4001),
                    f.ecps,
                    kinks,
                    np.nextafter(kinks, -np.inf),
                    np.nextafter(kinks, np.inf),
                    [-50.0, 50.0],
                ])
                assert np.array_equal(f.eval(xs), masked_reference(f, xs)), (ecps, variant)
                assert np.array_equal(f.slope(xs), masked_reference(f, xs, slope=True)), (
                    ecps, variant)

    def test_rows_per_piece_kind(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.BRIDGE)
        a, s, b, c = f._a, f._s, f._b, f._c
        assert a.tolist() == [1.0, 0.0, 1.0, 0.0, 1.0]
        assert s[::2].tolist() == [-1.0, 0.0, 1.0]
        assert np.array_equal(b[::2], np.tanh(s[::2]))
        assert c[0] == c[2] == c[4] == 0.0 and np.all(c[1::2] > 0.0)
        flat = MorphableTransfer([-1.0, 0.0, 1.0], Variant.PLATEAU)
        assert np.all(flat._c == 0.0)


class TestNonFinite:
    @pytest.mark.parametrize("variant", [Variant.PLATEAU, Variant.BRIDGE])
    def test_infinite_inputs_hit_the_saturated_tails(self, variant):
        f = MorphableTransfer([-1.0, 0.0, 1.0], variant)
        assert f.eval(math.inf) == TANH1 + 1.0
        assert f.eval(-math.inf) == -TANH1 - 1.0
        assert f.eval(math.inf) == pytest.approx(1.7616, abs=1e-4)
        assert f.slope(math.inf) == 0.0 and f.slope(-math.inf) == 0.0
        xs = np.array([-math.inf, -60.0, 60.0, math.inf])
        assert f.eval(xs).tolist() == [-TANH1 - 1.0] * 2 + [TANH1 + 1.0] * 2
        assert f.slope(xs).tolist() == [0.0] * 4

    @pytest.mark.parametrize("variant", [Variant.PLATEAU, Variant.BRIDGE])
    def test_nan_maps_to_nan(self, variant):
        f = MorphableTransfer([-1.0, 0.0, 1.0], variant)
        assert math.isnan(f.eval(math.nan)) and math.isnan(f.slope(math.nan))
        out = f.eval(np.array([0.5, math.nan]))
        assert out[0] == f.eval(0.5) and math.isnan(out[1])
        assert math.isnan(f.slope(np.array([math.nan]))[0])

    def test_plain_tanh_tails(self):
        f = MorphableTransfer([0.0])
        assert f.eval(math.inf) == 1.0 and f.eval(-math.inf) == -1.0
        assert f.slope(math.inf) == 0.0


class TestSlope:
    @pytest.mark.parametrize("variant", [Variant.PLATEAU, Variant.BRIDGE])
    def test_unit_slope_at_anchors(self, variant):
        f = MorphableTransfer([-1.0, 0.0, 1.0], variant)
        for p in f.ecps:
            assert f.slope(p) == 1.0

    def test_plateau_interior_slope_is_zero(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.PLATEAU)
        assert f.slope(0.5) == 0.0

    def test_plain_tanh_derivative(self):
        f = MorphableTransfer([0.0])
        assert f.slope(3.0) == 1.0 - float(np.tanh(3.0)) ** 2
        assert f.slope(3.0) == pytest.approx(0.009866, abs=1e-6)

    def test_right_sided_value_at_kinks(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.PLATEAU)
        # kinks come in (branch->flat, flat->branch) pairs per segment
        depart, arrive = f.kinks[2], f.kinks[3]
        assert f.slope(depart) == 0.0  # flat piece owns its left kink
        assert 0.0 < f.slope(arrive) < 1.0  # branch piece owns the right one

    def test_bounds_and_unit_slope_only_at_anchors(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.BRIDGE)
        xs = np.linspace(-5.0, 5.0, 2001)
        s = f.slope(xs)
        assert np.all((s >= 0.0) & (s <= 1.0))
        near_anchor = np.min(np.abs(xs[:, None] - np.array(f.ecps)), axis=1) <= 5e-3
        assert np.all(s[~near_anchor] < 1.0)

    def test_bridge_positive_slope_inside(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.BRIDGE)
        xs = np.linspace(-0.999, 0.999, 999)
        assert np.all(f.slope(xs) > 0.0)


class TestMonotonicity:
    @pytest.mark.parametrize("variant", [Variant.PLATEAU, Variant.BRIDGE])
    def test_lipschitz_one(self, variant):
        f = MorphableTransfer([-1.2, 0.4, 2.0], variant)
        xs = np.linspace(-6.0, 6.0, 4001)
        dv = np.diff(f.eval(xs))
        dx = np.diff(xs)
        assert np.all(dv >= 0.0)
        assert np.all(dv <= dx)


class TestValidate:
    def test_bridge_default_clean(self):
        report = MorphableTransfer([-1.0, 0.0, 1.0], Variant.BRIDGE).validate(1e-3)
        assert report.ok, str(report)

    def test_plain_tanh_clean(self):
        report = MorphableTransfer([0.0], Variant.PLATEAU).validate(1e-3)
        assert report.ok, str(report)

    @pytest.mark.parametrize("step", [0.0, -1e-3, 0.02])
    def test_grid_step_domain(self, step):
        f = MorphableTransfer([0.0])
        with pytest.raises(ValueError):
            f.validate(step)

    def test_randomized_lists_clean(self):
        rng = rng_stream(314, 77)
        for _ in range(150):
            ecps = random_ecp_list(rng)
            for variant in (Variant.PLATEAU, Variant.BRIDGE):
                report = MorphableTransfer(ecps, variant).validate(1e-2)
                assert report.ok, f"{ecps} {variant}: {report}"

    def test_report_rendering(self):
        report = MorphableTransfer([0.0]).validate(1e-2)
        assert "no violations" in str(report)

    def test_detects_injected_anchor_corruption(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.BRIDGE)
        f._b = f._b.copy()
        f._b[0] += 1e-6  # shift the leftmost branch off the tanh curve
        report = f.validate(1e-2)
        assert not report.ok
        checks = {issue.check for issue in report.issues}
        assert "anchor value" in checks
        assert "junction continuity" in checks
        assert "violation" in str(report)

    def test_detects_injected_slope_corruption(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0], Variant.BRIDGE)
        line = np.flatnonzero(f._a == 0.0)[0]  # a bridge line in this variant
        f._c = f._c.copy()
        f._c[line] = 1.5  # illegal bridge steeper than the unit bound
        report = f.validate(1e-2)
        checks = {issue.check for issue in report.issues}
        assert "slope range" in checks
        assert "Lipschitz-1 increment" in checks


class TestValidateMatchesReference:
    """The one-pass ``validate`` reports exactly what the loop form reports."""

    def test_clean_lists(self):
        rng = rng_stream(314, 78)
        for _ in range(100):
            ecps = random_ecp_list(rng)
            for variant in (Variant.PLATEAU, Variant.BRIDGE):
                f = MorphableTransfer(ecps, variant)
                assert f.validate(1e-2).ok and reference_validate(f, 1e-2) == []

    def test_corrupted_tables(self):
        rng = rng_stream(2718, 3)
        seen = set()
        failing = 0
        for _ in range(1000):
            ecps = random_ecp_list(rng)
            for variant in (Variant.PLATEAU, Variant.BRIDGE):
                f = MorphableTransfer(ecps, variant)
                name = ("_a", "_s", "_b", "_c")[int(rng.integers(4))]
                table = getattr(f, name).copy()
                table[int(rng.integers(table.size))] += (1e-9, 1e-6, 0.3, -0.5, 1.5)[
                    int(rng.integers(5))]
                setattr(f, name, table)
                issues = f.validate(1e-2).issues
                assert issue_bits(issues) == issue_bits(reference_validate(f, 1e-2)), (
                    ecps, variant, name)
                seen |= {issue.check for issue in issues}
                failing += bool(issues)
        assert failing > 1000
        assert seen == {
            "anchor value", "anchor slope", "slope range", "unit slope off anchor",
            "monotonicity", "Lipschitz-1 increment", "amplitude bound",
            "bridge slope positivity", "junction continuity",
        }

    @pytest.mark.parametrize("variant", [Variant.PLATEAU, Variant.BRIDGE])
    def test_slope_off_the_value_curve(self, variant):
        # A slope that disagrees with the values is the one fault only the
        # finite-difference check sees; the table cannot produce it.
        f = MorphableTransfer([-1.3, 0.4, 2.2], variant)
        f.slope = lambda x, _slope=f.slope: _slope(x) * 0.999
        issues = f.validate(1e-2).issues
        assert "finite-difference slope" in {issue.check for issue in issues}
        assert issue_bits(issues) == issue_bits(reference_validate(f, 1e-2))


class TestNearestDistance:
    @pytest.mark.parametrize("pts", [
        [],
        [0.5],
        [-1.0, 0.0, 2.5],
        [-2.0, -2.0 + 1e-6, 0.0, 1e-12, 3.0],
    ], ids=["none", "one", "three", "close"])
    def test_matches_broadcast_minimum_bitwise(self, pts):
        pts = np.array(pts, dtype=float)
        xs = np.concatenate([
            np.linspace(-5.0, 5.0, 1001),  # beyond both ends of every list
            pts,  # exactly on a point
            np.nextafter(pts, -np.inf),
            np.nextafter(pts, np.inf),
            0.5 * (pts[1:] + pts[:-1]),  # halfway between neighbours
            [-1e300, 1e300],
        ])
        expected = np.min(np.abs(xs[:, None] - pts[None, :]), axis=1, initial=np.inf)
        got = _nearest_distance(xs, pts)
        assert got.tobytes() == expected.tobytes()
        if not pts.size:
            assert np.all(got == np.inf)

    def test_kinks_of_built_transfers(self):
        rng = rng_stream(2024, 6)
        for _ in range(50):
            f = MorphableTransfer(random_ecp_list(rng), Variant.BRIDGE)
            xs = np.linspace(f.ecps[0] - 5.0, f.ecps[-1] + 5.0, 2001)
            expected = np.min(np.abs(xs[:, None] - f._breaks[None, :]), axis=1, initial=np.inf)
            assert _nearest_distance(xs, f._breaks).tobytes() == expected.tobytes()


class TestSample:
    def test_plain_tanh_rows(self):
        f = MorphableTransfer([0.0])
        table = f.sample(-2.0, 2.0, 5)
        assert table.shape == (5, 3)
        assert np.array_equal(table[:, 0], np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert np.array_equal(table[:, 1], np.tanh(table[:, 0]))

    def test_endpoints_exact(self):
        f = MorphableTransfer([-1.0, 0.0, 1.0])
        table = f.sample(-3.0, 3.0, 601)
        assert table[0, 0] == -3.0
        assert table[-1, 0] == 3.0
        assert table.shape == (601, 3)

    def test_bridge_curve_monotone_with_positive_interior_slope(self):
        table = MorphableTransfer([-1.0, 0.0, 1.0], Variant.BRIDGE).sample(-3.0, 3.0, 601)
        assert np.all(np.diff(table[:, 1]) >= 0.0)
        inside = (table[:, 0] > -1.0) & (table[:, 0] < 1.0)
        assert np.all(table[inside, 2] > 0.0)

    def test_plateau_curve_has_flat_rows(self):
        table = MorphableTransfer([-1.0, 0.0, 1.0], Variant.PLATEAU).sample(-3.0, 3.0, 601)
        inside = (table[:, 0] > -1.0) & (table[:, 0] < 1.0)
        assert np.any(table[inside, 2] == 0.0)

    def test_range_errors(self):
        f = MorphableTransfer([0.0])
        with pytest.raises(ValueError):
            f.sample(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            f.sample(0.0, 1.0, 1)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite bounds"):
            MorphableTransfer([0.0]).sample(lo, hi, 10)


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    bridge=st.booleans(),
)
def test_invariants_hold_for_arbitrary_anchor_sets(raw, bridge):
    pts: list[float] = []
    for p in sorted(raw):
        if (not pts or p - pts[-1] >= 2e-6) and abs(p) >= 2e-6:
            pts.append(p)
    if not pts:
        pts = [1.0]
    variant = Variant.BRIDGE if bridge else Variant.PLATEAU
    report = MorphableTransfer(pts, variant).validate(1e-2)
    assert report.ok, f"{pts} {variant}: {report}"


class TestTanhTransfer:
    def test_matches_numpy_tanh(self):
        f = TanhTransfer()
        xs = np.linspace(-3.0, 3.0, 61)
        assert np.array_equal(f.eval(xs), np.tanh(xs))
        assert f.slope(0.0) == 1.0
        assert f.ecps == (0.0,)
