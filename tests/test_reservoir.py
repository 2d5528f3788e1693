import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ecp_list
from critical_esn.reservoir import (
    Reservoir,
    StepRecord,
    config_text,
    anchored_orbit_state,
    anchored_reservoir,
    baseline_orbit_state,
    baseline_reservoir,
    random_orthogonal,
    run_pair,
)
from critical_esn.analysis import solve_critical_b
from critical_esn.signals import alternating, constant, iid_plus_minus, rng_stream
from critical_esn.transfer import MorphableTransfer, TanhTransfer, Variant

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

    @pytest.mark.parametrize("u", [0.3, 1, np.float64(0.3), [0.3], np.array([0.3])],
                             ids=["float", "int", "float64", "list", "array"])
    def test_accepted_inputs(self, u):
        # A scalar or a one-element row steps n = 1 as the (1,) float row does.
        expect = anchored_reservoir(0.9).step(np.asarray(u, dtype=float).reshape(1))
        rec = anchored_reservoir(0.9).step(u)
        assert rec.y_lin.shape == rec.y.shape == (1,)
        assert rec.y_lin.tobytes() == expect.y_lin.tobytes()
        assert rec.y.tobytes() == expect.y.tobytes()

    def test_accepted_row_of_width_n(self):
        res = Reservoir(random_orthogonal(2, 5), np.arange(6.0).reshape(2, 3) / 10.0,
                        MorphableTransfer((-1.0, 1.0)))
        rec = res.step(np.array([0.5, -1.0, 2.0]))
        assert rec.y_lin.shape == rec.y.shape == (2,)

    @pytest.mark.parametrize("u, shape, n", [(np.ones((1, 1)), (1, 1), 1), ([1.0, 2.0], (2,), 1),
                                             (0.5, (1,), 3)])
    def test_rejected_inputs(self, u, shape, n):
        res = Reservoir([[0.5]], np.ones((1, n)), MorphableTransfer((-1.0, 1.0)))
        with pytest.raises(ValueError, match=re.escape(f"input shape {shape} does not match n={n}")):
            res.step(u)
        assert res.t == 0

    def test_record_is_an_immutable_tuple(self):
        res = anchored_reservoir(1.0)
        rec = res.step(0.3)
        assert type(rec) is StepRecord and StepRecord._fields == ("t", "y_lin", "y")
        t, y_lin, y = rec
        assert (t, y_lin is rec.y_lin, y is rec.y) == (0, True, True)
        with pytest.raises(AttributeError):
            rec.t = 5

    def test_record_y_is_the_live_state(self):
        # The record holds the reservoir's state array, not a copy, so a
        # write into the state between steps shows in the last record.
        res = anchored_reservoir(1.0)
        rec = res.step(0.3)
        res.state[0] = 5.0
        assert rec.y.tolist() == [5.0]

    @pytest.mark.parametrize("hooked", [False, True], ids=["unhooked", "hooked"])
    @pytest.mark.parametrize("w", [-0.9, 0.9])
    @pytest.mark.parametrize("kind", ["tanh", "bridge", "plateau"])
    def test_one_neuron_step_matches_the_stack_on_edge_inputs(self, kind, w, hooked):
        # The (1,) state's float step against the same start held as a
        # (1, 1) stack, which takes np.dot, by bytes: signed zeros, +-inf
        # and nan inputs, and a row whose linear response overflows.  The
        # stack warns of the overflow; the float step is silent.
        transfer = TanhTransfer() if kind == "tanh" else MorphableTransfer((-1.0, 1.0), kind)
        hook = (lambda i, t, state: (-0.5, 0.7)) if hooked else None
        res = Reservoir([[w]], [[3.0]], transfer, predictor=hook)
        for y0, u in itertools.product([0.0, -0.0, 0.4], [0.0, -0.0, 0.3, math.inf, -math.inf,
                                                         math.nan, 1e308, -1e308]):
            rec = res.copy(state=[y0]).step(u)
            stack = res.copy(state=[[y0]])
            with np.errstate(over="ignore"):
                y_lin = stack.step(u).y_lin
            assert rec.y_lin.tobytes() == y_lin[0].tobytes()
            assert rec.y.tobytes() == stack.state[0].tobytes()

    @pytest.mark.parametrize("k, n, state", [(1, 1, [0.2]), (1, 1, [[0.2], [0.3]]),
                                             (1, 2, [0.2]), (2, 1, [0.2, 0.1])])
    def test_only_a_one_neuron_one_input_state_steps_as_floats(self, monkeypatch, k, n, state):
        calls = []
        float_step = MorphableTransfer._eval_float
        monkeypatch.setattr(MorphableTransfer, "_eval_float",
                            lambda self, x: calls.append(x) or float_step(self, x))
        res = Reservoir(np.eye(k) * 0.5, np.full((k, n), 0.5), MorphableTransfer((-1.0, 1.0)),
                        state=state)
        rec = res.step(np.full(n, 0.3))
        assert len(calls) == (np.shape(state) == (1,) and n == 1)
        assert rec.y_lin.shape == rec.y.shape == np.shape(state)

    def test_run_records_hold_distinct_arrays(self):
        records = anchored_reservoir(0.9).run(iid_plus_minus(40, 1.0, seed=4))
        arrays = [a for rec in records for a in (rec.y_lin, rec.y)]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))

    @pytest.mark.parametrize("kind", ["tanh", "bridge"])
    def test_one_neuron_step_makes_fresh_arrays(self, kind):
        # Each one-neuron step's y_lin and y are new (1,) float64 arrays of
        # their own: no view of each other, of the last step's arrays or of
        # a module-level array.
        import critical_esn.reservoir as reservoir_module

        transfer = TanhTransfer() if kind == "tanh" else MorphableTransfer((-1.0, 1.0))
        res = Reservoir([[-0.9]], [[1.0]], transfer)
        templates = [v for v in vars(reservoir_module).values() if isinstance(v, np.ndarray)]
        before = res.step(0.3)
        rec = res.step(-0.6)
        for a in (rec.y_lin, rec.y):
            assert (a.shape, a.dtype) == ((1,), np.float64)
            assert a.flags.c_contiguous and a.flags.writeable and a.flags.owndata
            for other in [before.y_lin, before.y, *templates]:
                assert not np.shares_memory(a, other)
        assert not np.shares_memory(rec.y_lin, rec.y)
        assert rec.y is res.state


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 16),
    n=st.integers(1, 3),
    rows=st.one_of(st.none(), st.integers(1, 4)),
    per_neuron=st.booleans(),
    hooked=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_linear_response_matches_matmul(k, n, rows, per_neuron, hooked, seed):
    # The kernel's ``y_lin`` against the ``@`` form, bit for bit, for a
    # (k,) state (rows None) and a (rows, k) stack.
    rng = rng_stream(seed, 23)
    transfers = [MorphableTransfer(random_ecp_list(rng)) for _ in range(k if per_neuron else 1)]
    anchor_sets = [random_ecp_list(rng) for _ in range(2)]
    hook = (lambda i, t, state: anchor_sets[(i + t) % 2]) if hooked else None
    start = rng.uniform(-1.0, 1.0, k if rows is None else (rows, k))
    res = Reservoir(rng.normal(0.0, 1.0, (k, k)), rng.normal(0.0, 0.5, (k, n)),
                    transfers if per_neuron else transfers[0], state=start, predictor=hook)
    for row in rng.uniform(-1.5, 1.5, (4, n)):
        expect = res.state @ res.W.T + row @ res.w_in.T
        y_lin = res.step(row).y_lin
        assert y_lin.shape == expect.shape and y_lin.tobytes() == expect.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 8),
    n=st.integers(1, 2),
    rows=st.integers(1, 3),
    steps=st.integers(1, 30),
    kind=st.sampled_from(["tanh", "bridge", "plateau"]),
    per_neuron=st.booleans(),
    hooked=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_stack_steps_match_repeated_step(k, n, rows, steps, kind, per_neuron, hooked, seed):
    # The kernel on a (rows, k) stack against one reservoir per row; for
    # k > 1 the (B, k) @ (k, k) product rounds differently from (k,) @ (k, k).
    # With k = n = 1 the single reservoir takes the float step, by bytes.
    rng = rng_stream(seed, 19)
    transfers = [TanhTransfer() if kind == "tanh" else MorphableTransfer(random_ecp_list(rng), kind)
                 for _ in range(k if per_neuron else 1)]
    anchor_sets = [random_ecp_list(rng) for _ in range(3)]
    hook = (lambda i, t, state: anchor_sets[(i + t) % 3]) if hooked else None
    res = Reservoir(random_orthogonal(k, seed), rng.normal(0.0, 0.5, (k, n)),
                    transfers if per_neuron else transfers[0], predictor=hook)
    start = rng.uniform(-1.0, 1.0, (rows, k))
    u = rng.uniform(-1.5, 1.5, (steps, n))
    stack = res.copy(state=start)
    stacked = []
    for row in u:
        y_lin = stack.step(row).y_lin
        stacked.append((y_lin, stack.state.copy()))
    for r in range(rows):
        single = res.copy(state=start[r])
        for t in range(steps):
            rec = single.step(u[t])
            y_lin, state = stacked[t]
            if k == 1:
                assert rec.y_lin.tobytes() == y_lin[r].tobytes()
                assert rec.y.tobytes() == state[r].tobytes()
            else:
                assert np.allclose(state[r], rec.y, rtol=0.0, atol=1e-12)


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

    def test_input_width_must_match(self):
        with pytest.raises(ValueError, match="input width 2 does not match n=1"):
            run_pair(anchored_reservoir(1.0), [0.1], [0.2], np.ones((50, 2)))

    def test_shared_and_per_neuron_paths_agree(self):
        # An unhooked one-neuron pair takes the blocked one-lane route; a
        # hook that keeps the transfer sends the same pair through the
        # stacked step kernel (the route is chosen by k and the hook alone,
        # so that is the one way to force a k = 1 pair there).  Both must agree
        # bit for bit, whether or not the distance reaches zero.  Under zero
        # input the 1e-150 pair shrinks until diff*diff underflows, where
        # norm, unlike abs, reads 0.
        truncations = []
        for alpha, variant, spec, (x0, y0) in itertools.product(
            (0.5, 1.0, 1.2),
            (Variant.BRIDGE, Variant.PLATEAU),
            (alternating(300, 1.0), iid_plus_minus(300, 1.0, seed=8), constant(300, 1.0),
             np.zeros(300)),
            (([-TANH1], [1.0 - TANH1]), ([0.2], [0.25]), ([0.0], [1e-150])),
        ):
            lane = anchored_reservoir(alpha, variant=variant)
            stacked = anchored_reservoir(alpha, variant=variant,
                                         predictor=lambda i, t, state: None)
            a = run_pair(lane, x0, y0, spec)
            b = run_pair(stacked, x0, y0, spec)
            assert np.array_equal(a.t, b.t)
            assert a.d.tobytes() == b.d.tobytes()
            assert a.truncated_at == b.truncated_at
            truncations.append(a.truncated_at)
        assert None in truncations
        assert any(t is not None for t in truncations)

    def test_stacked_pair_keeps_one_array_per_block(self, monkeypatch):
        # A hooked pair steps the stack; its distances come in blocks of
        # 1, 2, 4, ... rows up to the engine's cap, not one array per step.
        import critical_esn.reservoir as reservoir_module

        sizes = []
        original = reservoir_module._step_blocks

        def recorded(pair, rows, value_of):
            for d in original(pair, rows, value_of):
                sizes.append(d.size)
                yield d

        monkeypatch.setattr(reservoir_module, "_step_blocks", recorded)
        res = anchored_reservoir(1.0, predictor=lambda i, t, state: None)
        series = run_pair(res, anchored_orbit_state(), anchored_orbit_state() + 1.0,
                          alternating(100_000, 1.0))
        assert series.truncated_at is None and sum(sizes) == 100_000
        assert sizes[:4] == [1, 2, 4, 8] and len(sizes) <= 25

    def test_non_square_weights_rejected(self):
        with pytest.raises(ValueError, match="recurrent weights must be square"):
            Reservoir([[0.5, 0.1]], [[1.0]], MorphableTransfer((-1.0, 1.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="input weights must be finite"):
            Reservoir([[0.5]], [[bad]], MorphableTransfer((-1.0, 1.0)))

    def test_only_one_lane_pairs_skip_the_stack(self, monkeypatch):
        steps = []
        step = Reservoir.step

        def counted(self, u):
            steps.append(self.k)
            return step(self, u)

        monkeypatch.setattr(Reservoir, "step", counted)
        spec = alternating(50, 1.0)
        run_pair(anchored_reservoir(1.0), [0.1], [0.3], spec)
        assert steps == []
        hooked = run_pair(anchored_reservoir(1.0, predictor=lambda i, t, state: None),
                          [0.1], [0.3], spec)
        assert steps == [1] * (hooked.t.size - 1) and steps
        steps.clear()
        wide = Reservoir(random_orthogonal(2, 3), [[0.3], [0.2]],
                         MorphableTransfer((-1.0, 1.0)))
        stacked = run_pair(wide, [0.1, 0.2], [0.3, -0.1], spec)
        assert steps == [2] * (stacked.t.size - 1) and steps

    def test_extinct_pair_evaluates_few_steps_beyond_zero(self, monkeypatch):
        # Blocks grow from one row, so a pair that reaches zero at step s
        # has evaluated at most 2*s reference steps, not a whole block.
        res = anchored_reservoir(1.0)
        evals = []
        original = MorphableTransfer.eval

        def counted(self, x):
            evals.append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(MorphableTransfer, "eval", counted)
        for seed in range(8):
            evals.clear()
            series = run_pair(res, anchored_orbit_state(), anchored_orbit_state() + 1.0,
                              iid_plus_minus(100_000, 1.0, seed=seed))
            s = series.truncated_at
            assert s is not None and s < 1000
            assert len(evals) <= 2 * s + 2

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

        def hook(i, t, state):
            calls.append((i, t))
            return None

        res = anchored_reservoir(1.0, predictor=hook)
        before = res.transfers[0]
        res.run(alternating(5, 1.0))
        assert res.transfers[0] is before
        assert [t for _, t in calls] == [0, 1, 2, 3, 4]

    def test_swapping_hook_changes_dynamics(self):
        def hook(i, t, state):
            return (-0.5, 0.5) if t >= 3 else None

        res_hooked = anchored_reservoir(1.0, predictor=hook)
        res_static = anchored_reservoir(1.0)
        spec = alternating(10, 0.6)
        hooked = res_hooked.run(spec)
        static = res_static.run(spec)
        assert res_hooked.transfers[0].ecps == (-0.5, 0.0, 0.5)
        assert not np.array_equal(hooked[-1].y, static[-1].y)

    def test_one_neuron_swap_and_back_keeps_the_shared_flag(self):
        # k = 2 on one shared transfer.  The hook moves neuron 1 away and
        # back, and both neurons onto one set, so the flag goes False and
        # True again; each step's state is that of one eval per neuron.
        sets = {"A": (-1.0, 1.0), "B": (-0.5, 0.7), "C": (-0.8, 0.6)}
        schedule = [(None, "B"), (None, "A"), ("C", "C"), (None, None), (None, "B"), (None, "C")]
        res = Reservoir(random_orthogonal(2, 3), [[0.6], [0.5]], MorphableTransfer(sets["A"]),
                        state=[0.2, -0.4], predictor=lambda i, t, state: (
                            None if schedule[t][i] is None else sets[schedule[t][i]]))
        flags = []
        for row in [[0.9], [-0.3], [0.5], [-1.0], [0.2], [0.7]]:
            state = res.state
            rec = res.step(row)
            lin = state @ res.W.T + np.asarray(row) @ res.w_in.T
            expect = [tr.eval(lin[i]) for i, tr in enumerate(res.transfers)]
            assert rec.y.tobytes() == np.array(expect).tobytes()
            flags.append(res._shared)
            assert res._shared == all(tr is res.transfers[0] for tr in res.transfers)
        assert flags == [False, False, True, True, False, True]
        assert [tr.ecps for tr in res.transfers] == [(-0.8, 0.0, 0.6)] * 2


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

        res = anchored_reservoir(1.0, predictor=lambda i, t, state: (-1.0 - t * 1e-4, 1.0))
        built = self._counting(monkeypatch)
        res.run(alternating(5000, 1.0))
        assert len(built) == 5000
        assert res._hooked_transfer.cache_info().currsize == reservoir_module._TRANSFER_CACHE
        assert res.transfers[0].ecps == (-1.0 - 4999e-4, 0.0, 1.0)

    def test_period_two_hook_builds_two_transfers(self, monkeypatch):
        sets = ((-1.0, 1.0), (-0.5, 0.7))
        res = anchored_reservoir(0.8, predictor=lambda i, t, state: sets[t % 2])
        built = self._counting(monkeypatch)
        res.run(iid_plus_minus(2000, 1.0, seed=3))
        assert built == list(sets)


class TestCopy:
    """A copy starts a new run from the current transfers."""

    SETS = ((-1.0, 1.0), (-0.5, 0.7))

    def _hooked(self, seen):
        def hook(i, t, state):
            seen.append(t)
            return self.SETS[t % 2]

        res = anchored_reservoir(0.8, predictor=hook)
        res.run(alternating(2, 1.0))  # step 1 sets the (-0.5, 0.7) transfer
        return res

    def test_t_restarts_at_zero(self):
        seen = []
        res = self._hooked(seen)
        twin = res.copy()
        assert (res.t, twin.t) == (2, 0)
        twin.run(alternating(3, 1.0))
        assert seen == [0, 1, 0, 1, 2]  # the hook counts the copy's own input rows

    def test_starts_from_the_hooked_transfers(self):
        res = self._hooked([])
        assert res.transfers[0].ecps == (-0.5, 0.0, 0.7)
        assert res.copy().transfers[0] is res.transfers[0]

    def test_hooked_transfer_cache_starts_empty(self):
        res = self._hooked([])
        twin = res.copy()
        assert res._hooked_transfer.cache_info().currsize == 2
        assert twin._hooked_transfer.cache_info().currsize == 0
        twin.step(1.0)  # set 0, a miss: the copy builds its own transfer
        assert twin._hooked_transfer.cache_info()[:2] == (0, 1)
        assert twin.transfers[0] is not res.transfers[0]


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_state_rejected(self, bad):
        res = anchored_reservoir(1.0)
        with pytest.raises(ValueError, match="start states must be finite"):
            Reservoir(res.W, res.w_in, res.transfers, state=[bad])
        with pytest.raises(ValueError, match="start states must be finite"):
            res.copy(state=[[0.1], [bad]])

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
