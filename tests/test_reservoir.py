import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ecp_list
from critical_esn.reservoir import (
    Reservoir,
    config_text,
    anchored_orbit_state,
    anchored_reservoir,
    baseline_orbit_state,
    baseline_reservoir,
    random_orthogonal,
    run_pair,
)
from critical_esn.analysis import solve_critical_b
from critical_esn.signals import alternating, iid_plus_minus, rng_stream
from critical_esn.transfer import MorphableTransfer, Variant

TANH1 = float(np.tanh(1.0))


class TestRandomOrthogonal:
    def test_one_dimensional_is_sign(self):
        q = random_orthogonal(1, 3)
        assert abs(q[0, 0]) == 1.0

    @pytest.mark.parametrize("k", [2, 5, 8, 16])
    def test_orthogonality_defect(self, k):
        q = random_orthogonal(k, 42)
        assert np.max(np.abs(q @ q.T - np.eye(k))) <= 1e-12

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_orthogonal(8, 42), random_orthogonal(8, 42))

    def test_distinct_across_seeds(self):
        assert not np.array_equal(random_orthogonal(8, 1), random_orthogonal(8, 2))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            random_orthogonal(0, 1)


class TestAnchoredPreset:
    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.657, 0.9, 1.0, 1.2, 1.5])
    def test_on_orbit_linear_response_is_unit(self, alpha):
        res = anchored_reservoir(alpha)
        res.state = anchored_orbit_state()
        rec = res.step(1.0)
        assert abs(rec.y_lin[0] - 1.0) <= 1e-15
        assert abs(rec.y[0] - TANH1) <= 1e-15

    def test_origin_fixed_point(self):
        res = anchored_reservoir(0.8)
        rec = res.step(0.0)
        assert rec.y[0] == 0.0
        assert rec.y_lin[0] == 0.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            anchored_reservoir(0.0)

    def test_default_anchor_set(self):
        res = anchored_reservoir(1.0)
        assert res.transfers[0].ecps == (-1.0, 0.0, 1.0)


class TestBaselinePreset:
    def test_period_two_orbit_amplitude(self):
        critical = solve_critical_b(math.pi / 4.0)
        res = baseline_reservoir(critical.b_star)
        res.state = baseline_orbit_state(critical.s_star)
        u = np.array(
            [(math.pi / 4.0) * (1.0 if t % 2 == 0 else -1.0) for t in range(200)]
        )
        for t, ut in enumerate(u):
            rec = res.step(ut)
            expect = -critical.s_star if t % 2 == 0 else critical.s_star
            assert abs(rec.y[0] - expect) <= 1e-9
        assert abs(critical.s_star) == pytest.approx(0.757, abs=1e-3)

    def test_b_must_be_positive(self):
        with pytest.raises(ValueError):
            baseline_reservoir(-1.0)


class TestStep:
    def test_record_consistency(self):
        res = anchored_reservoir(0.9)
        rec = res.step(0.33)
        assert rec.y[0] == res.transfers[0].eval(float(rec.y_lin[0]))

    def test_dimension_mismatch_rejected(self):
        res = anchored_reservoir(1.0)
        with pytest.raises(ValueError):
            res.step([1.0, 2.0])

    def test_state_advances(self):
        res = anchored_reservoir(1.0)
        r0 = res.step(1.0)
        r1 = res.step(-1.0)
        assert r0.t == 0 and r1.t == 1
        assert res.t == 2


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 8),
    n=st.integers(1, 2),
    rows=st.integers(1, 3),
    steps=st.integers(1, 30),
    bridge=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_stack_steps_match_repeated_step(k, n, rows, steps, bridge, seed):
    # The stacked kernel against one reservoir copy per row; for k > 1 the
    # (B, k) @ (k, k) product rounds differently from W @ state.
    rng = rng_stream(seed, 19)
    variant = Variant.BRIDGE if bridge else Variant.PLATEAU
    transfer = MorphableTransfer(random_ecp_list(rng), variant)
    res = Reservoir(random_orthogonal(k, seed), rng.normal(0.0, 0.5, (k, n)), transfer)
    start = rng.uniform(-1.0, 1.0, (rows, k))
    u = rng.uniform(-1.5, 1.5, (steps, n))
    stacked = [stack.copy() for stack in res._stack_steps(start.copy(), u)]
    assert len(stacked) == steps
    for r in range(rows):
        single = res.copy(state=start[r])
        for t in range(steps):
            single.step(u[t])
            if k == 1:
                assert np.array_equal(stacked[t][r], single.state)
            else:
                assert np.allclose(stacked[t][r], single.state, rtol=0.0, atol=1e-12)


class TestRun:
    def test_locked_alternating_orbit(self):
        res = anchored_reservoir(1.0)
        res.state = anchored_orbit_state()
        records = res.run(alternating(64, 1.0))
        for t, rec in enumerate(records):
            expect = TANH1 if t % 2 == 0 else -TANH1
            assert abs(rec.y[0] - expect) <= 1e-15
            assert abs(abs(rec.y_lin[0]) - 1.0) <= 1e-15

    def test_zero_input_zero_trajectory(self):
        res = anchored_reservoir(0.7)
        records = res.run(np.zeros(32))
        assert all(rec.y[0] == 0.0 for rec in records)

    def test_recording_modes_agree(self):
        res_a = anchored_reservoir(0.8)
        res_b = anchored_reservoir(0.8)
        spec = iid_plus_minus(200, 1.0, seed=4)
        full = res_a.run(spec)
        final = res_b.run(spec, record=False)
        assert np.array_equal(full[-1].y, final.y)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            anchored_reservoir(1.0).run(np.array([]))

    def test_determinism(self):
        spec = iid_plus_minus(300, 1.0, seed=11)
        a = anchored_reservoir(0.95).run(spec)
        b = anchored_reservoir(0.95).run(spec)
        assert all(np.array_equal(x.y, y.y) for x, y in zip(a, b))


class TestRunPair:
    def test_identical_starts_terminate_immediately(self):
        res = anchored_reservoir(1.0)
        series = run_pair(res, [0.1], [0.1], alternating(100, 1.0))
        assert series.truncated_at == 0
        assert series.d.tolist() == [0.0]

    def test_contraction_bound_under_half_gain(self):
        res = anchored_reservoir(0.5)
        d0 = 1e-3
        series = run_pair(
            res, anchored_orbit_state(), anchored_orbit_state() + d0, alternating(60, 1.0)
        )
        bound = d0 * 0.5 ** series.t.astype(float)
        assert np.all(series.d <= bound + 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, bad):
        res = anchored_reservoir(1.0)
        for x0, y0 in (([bad], [0.1]), ([0.1], [bad])):
            with pytest.raises(ValueError, match="start states must be finite"):
                run_pair(res, x0, y0, alternating(10, 1.0))

    def test_shared_and_per_neuron_paths_agree(self):
        # Distinct-but-equal transfer objects force the generic path.
        tr_a = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        tr_b = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        shared = Reservoir([[-1.0]], [[1.0 - TANH1]], tr_a)
        generic = Reservoir([[-1.0]], [[1.0 - TANH1]], [tr_b])
        generic.transfers = [tr_b]
        generic._shared = False
        spec = iid_plus_minus(120, 1.0, seed=8)
        a = run_pair(shared, [0.2], [0.25], spec)
        b = run_pair(generic, [0.2], [0.25], spec)
        assert np.allclose(a.d, b.d, rtol=1e-12, atol=0.0)

    def test_non_expansive_for_orthogonal_weights(self):
        rng = rng_stream(77, 13)
        for _ in range(100):
            k = int(rng.integers(1, 17))
            weights = random_orthogonal(k, int(rng.integers(0, 2**31)))
            w_in = rng.normal(0.0, 0.5, (k, 1))
            variant = Variant.BRIDGE if rng.integers(0, 2) else Variant.PLATEAU
            transfer = MorphableTransfer(random_ecp_list(rng), variant)
            res = Reservoir(weights, w_in, transfer, require_orthogonal=True)
            x0 = rng.uniform(-1.0, 1.0, k)
            y0 = rng.uniform(-1.0, 1.0, k)
            u = rng.integers(0, 2, 50) * 2.0 - 1.0
            series = run_pair(res, x0, y0, u)
            assert np.all(np.diff(series.d) <= 1e-12)


class TestPredictorHook:
    def test_static_default_never_rebuilds(self):
        res = anchored_reservoir(1.0)
        before = res.transfers[0]
        res.run(alternating(20, 1.0))
        assert res.transfers[0] is before

    def test_none_keeps_transfer(self):
        calls = []

        def hook(i, t, history):
            calls.append((i, t))
            return None

        res = anchored_reservoir(1.0, predictor=hook)
        before = res.transfers[0]
        res.run(alternating(5, 1.0))
        assert res.transfers[0] is before
        assert [t for _, t in calls] == [0, 1, 2, 3, 4]

    def test_swapping_hook_changes_dynamics(self):
        def hook(i, t, history):
            return (-0.5, 0.5) if t >= 3 else None

        res_hooked = anchored_reservoir(1.0, predictor=hook)
        res_static = anchored_reservoir(1.0)
        spec = alternating(10, 0.6)
        hooked = res_hooked.run(spec)
        static = res_static.run(spec)
        assert res_hooked.transfers[0].ecps == (-0.5, 0.0, 0.5)
        assert not np.array_equal(hooked[-1].y, static[-1].y)


class TestTransferCache:
    """Hooked transfers are cached per reservoir, a few at a time."""

    def _counting(self, monkeypatch):
        import critical_esn.reservoir as reservoir_module

        built = []

        def build(ecps, variant):
            built.append(tuple(ecps))
            return MorphableTransfer(ecps, variant)

        monkeypatch.setattr(reservoir_module, "MorphableTransfer", build)
        return built

    def test_new_anchors_every_step_stay_bounded(self, monkeypatch):
        import critical_esn.reservoir as reservoir_module

        res = anchored_reservoir(1.0, predictor=lambda i, t, history: (-1.0 - t * 1e-4, 1.0))
        built = self._counting(monkeypatch)
        res.run(alternating(5000, 1.0), record=False)
        assert len(built) == 5000
        assert len(res._transfer_cache) == reservoir_module._TRANSFER_CACHE
        assert res.transfers[0].ecps == (-1.0 - 4999e-4, 0.0, 1.0)

    def test_period_two_hook_builds_two_transfers(self, monkeypatch):
        sets = ((-1.0, 1.0), (-0.5, 0.7))
        res = anchored_reservoir(0.8, predictor=lambda i, t, history: sets[t % 2])
        built = self._counting(monkeypatch)
        res.run(iid_plus_minus(2000, 1.0, seed=3), record=False)
        assert built == list(sets)


class TestConstruction:
    def test_orthogonality_flag_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            Reservoir(
                [[1.0, 0.5], [0.0, 1.0]],
                [[1.0], [1.0]],
                MorphableTransfer([0.0]),
                require_orthogonal=True,
            )

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            Reservoir([[float("nan")]], [[1.0]], MorphableTransfer([0.0]))

    def test_transfer_count_must_match(self):
        with pytest.raises(ValueError):
            Reservoir(
                np.eye(2),
                np.ones((2, 1)),
                [MorphableTransfer([0.0])],
            )


class TestConfigText:
    def test_known_keys_in_order(self):
        text = config_text({"kind": "anchored", "alpha": 1.0, "k": 1, "variant": "bridge"})
        lines = text.strip().splitlines()
        assert lines[0] == "kind=anchored"
        assert lines[1] == "alpha=1"
        assert "variant=bridge" in lines
        assert text.endswith("\n")

    def test_float_formatting_roundtrips(self):
        text = config_text({"alpha": 0.1 + 0.2})
        value = float(text.split("=", 1)[1])
        assert value == 0.1 + 0.2
