import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critical_esn.analysis as analysis
from conftest import random_ecp_list
from critical_esn.analysis import (
    DistanceSeries,
    _rate,
    classify_decay,
    derivative_product_scalar_batch,
    expected_orbit_rate,
    fit_exponential,
    fit_power_law,
    loglog_bend,
    lyapunov_derivative_product,
    lyapunov_renormalized,
    renormalized_scalar_batch,
    solve_critical_b,
)
from critical_esn.reservoir import (
    Reservoir,
    anchored_orbit_state,
    anchored_reservoir,
    baseline_orbit_state,
    baseline_reservoir,
    random_orthogonal,
    run_pair,
)
from critical_esn.signals import alternating, generate, iid_plus_minus, rng_stream, scaled
from critical_esn.transfer import MorphableTransfer, Variant

TANH1 = float(np.tanh(1.0))
QPI = math.pi / 4.0


class TestSolveCriticalB:
    def test_quarter_pi_constants(self):
        critical = solve_critical_b(QPI)
        assert 2.343 <= critical.b_star <= 2.345
        assert 0.756 <= critical.s_star <= 0.758
        assert max(critical.residuals) < 1e-12

    def test_tangency_identity_by_construction(self):
        critical = solve_critical_b(QPI)
        assert abs(critical.b_star * (1.0 - critical.s_star**2) - 1.0) <= 1e-15

    def test_forward_orbit_stays_put(self):
        critical = solve_critical_b(QPI)
        b, s = critical.b_star, critical.s_star
        x = s
        for t in range(1000):
            u = QPI if t % 2 == 0 else -QPI
            x = math.tanh(-b * x + u)
            expect = -s if t % 2 == 0 else s
            assert abs(x - expect) <= 1e-9

    def test_other_amplitude_satisfies_both_equations(self):
        critical = solve_critical_b(0.5)
        b, s = critical.b_star, critical.s_star
        assert abs(math.tanh(b * s - 0.5) - s) <= 1e-10
        assert abs(b * (1.0 - s * s) - 1.0) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_amplitude_domain(self, bad):
        with pytest.raises(ValueError):
            solve_critical_b(bad)


class TestExpectedOrbitRate:
    def test_zero_at_expected_amplitude(self):
        critical = solve_critical_b(QPI)
        assert abs(expected_orbit_rate(critical, QPI, 1.0)) <= 1e-12

    def test_sign_structure(self):
        critical = solve_critical_b(QPI)
        assert expected_orbit_rate(critical, QPI, 0.8) < 0.0
        assert expected_orbit_rate(critical, QPI, 1.2) > 0.0

    def test_monotone_in_gamma(self):
        critical = solve_critical_b(QPI)
        rates = [expected_orbit_rate(critical, QPI, g) for g in np.linspace(0.5, 1.5, 11)]
        assert np.all(np.diff(rates) > 0.0)

    def test_first_step_divergence_oracle(self):
        # Twin trajectories launched on the expected orbit separate at the
        # predicted rate for the very first step, before the reference
        # drifts off the (ghost) orbit.
        critical = solve_critical_b(QPI)
        gamma = 1.2
        res = baseline_reservoir(critical.b_star)
        u = gamma * generate(alternating(6, QPI))
        series = run_pair(
            res,
            baseline_orbit_state(critical.s_star),
            baseline_orbit_state(critical.s_star) + 1e-9,
            u,
        )
        first = float(np.log(series.d[1] / series.d[0]))
        assert first == pytest.approx(expected_orbit_rate(critical, QPI, gamma), abs=0.01)


class TestRenormalized:
    def test_critical_point_is_flat(self):
        res = anchored_reservoir(1.0)
        res.state = anchored_orbit_state()
        est = lyapunov_renormalized(res, alternating(3000, 1.0), washout=1000)
        assert abs(est.lam) <= 0.01
        assert est.method == "renormalized"
        assert est.steps_used >= 1000

    def test_under_critical_rate_is_log_alpha(self):
        res = anchored_reservoir(0.5)
        res.state = anchored_orbit_state()
        est = lyapunov_renormalized(res, alternating(3000, 1.0), washout=1000)
        assert est.lam == pytest.approx(math.log(0.5), abs=0.01)

    def test_d0_domain(self):
        res = anchored_reservoir(1.0)
        with pytest.raises(ValueError):
            lyapunov_renormalized(res, alternating(3000, 1.0), d0=1e-3)

    def test_input_length_guard(self):
        res = anchored_reservoir(1.0)
        with pytest.raises(ValueError, match="short"):
            lyapunov_renormalized(res, alternating(1500, 1.0), washout=1000)

    def test_negative_washout_rejected(self):
        res = anchored_reservoir(1.0)
        with pytest.raises(ValueError, match="washout must be nonnegative"):
            lyapunov_renormalized(res, alternating(3000, 1.0), washout=-3)

    def test_input_width_must_match(self):
        res = anchored_reservoir(1.0)
        with pytest.raises(ValueError, match="does not match n=1"):
            lyapunov_renormalized(res, np.ones((3000, 2)))

    def test_exact_zero_separation_is_minus_inf(self):
        # Both trajectories land on one plateau: the separation is exactly 0.
        res = anchored_reservoir(1.0, variant="plateau")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = lyapunov_renormalized(res, iid_plus_minus(5000, 1.0, seed=1))
        assert est.lam == -math.inf
        assert math.isnan(est.stderr)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _two_copy_twin(res: Reservoir) -> Reservoir:
    """Same reservoir with distinct-but-equal per-neuron transfers.

    The copy fails the shared-transfer test, so the estimator steps two
    reservoir copies instead of the stacked path.
    """
    tr = res.transfers[0]
    twin = Reservoir(res.W, res.w_in, [MorphableTransfer(tr.ecps, tr.variant)
                                       for _ in range(res.k)], state=res.state)
    twin._shared = False
    return twin


class TestStackedRenormalized:
    def test_one_neuron_matches_two_copy_path_exactly(self):
        rng = rng_stream(31, 17)
        for _ in range(5):
            ecps = random_ecp_list(rng)
            alpha = float(rng.uniform(0.5, 1.2))
            for variant in (Variant.BRIDGE, Variant.PLATEAU):
                transfer = MorphableTransfer(ecps, variant)
                res = Reservoir([[-alpha]], [[1.0 - alpha * TANH1]], transfer,
                                state=[float(rng.uniform(-1.0, 1.0))])
                for spec in (alternating(1500, 1.0), iid_plus_minus(1500, 1.0, seed=5)):
                    a = lyapunov_renormalized(res, spec, washout=500, seed=3)
                    b = lyapunov_renormalized(_two_copy_twin(res), spec, washout=500, seed=3)
                    assert a.lam == b.lam
                    assert _same(a.stderr, b.stderr)

    def test_multi_neuron_within_rounding(self):
        # (2, k) @ (k, k) rounds differently from W @ state for k > 1.
        rng = rng_stream(32, 17)
        for k in range(2, 9):
            w_in = rng.normal(0.0, 0.5, (k, 1))
            transfer = MorphableTransfer(random_ecp_list(rng), Variant.BRIDGE)
            res = Reservoir(random_orthogonal(k, k), w_in, transfer)
            u = rng.integers(0, 2, 1500) * 2.0 - 1.0
            a = lyapunov_renormalized(res, u, washout=500, seed=k)
            b = lyapunov_renormalized(_two_copy_twin(res), u, washout=500, seed=k)
            assert abs(a.lam - b.lam) <= 1e-5

    def test_predictor_hook_is_still_called(self):
        calls = []

        def hook(i, t, history):
            calls.append(t)
            return None

        spec = alternating(1500, 1.0)
        hooked = lyapunov_renormalized(anchored_reservoir(0.9, predictor=hook), spec,
                                       washout=500)
        plain = lyapunov_renormalized(anchored_reservoir(0.9), spec, washout=500)
        assert calls == [t for t in range(1500) for _ in range(2)]  # reference, companion
        assert hooked.lam == plain.lam


class TestDerivativeProduct:
    def test_exactly_zero_on_anchored_orbit(self):
        res = anchored_reservoir(1.0)
        res.state = anchored_orbit_state()
        est = lyapunov_derivative_product(res, alternating(3000, 1.0), washout=1000)
        assert abs(est.lam) <= 1e-15

    def test_critical_tanh_baseline_is_flat(self):
        critical = solve_critical_b(QPI)
        res = baseline_reservoir(critical.b_star)
        res.state = baseline_orbit_state(critical.s_star)
        est = lyapunov_derivative_product(res, alternating(3000, QPI), washout=1000)
        assert abs(est.lam) <= 1e-3

    def test_zero_slope_is_minus_inf(self):
        # The plateau variant has slope exactly 0 between its anchors.
        res = anchored_reservoir(1.0, variant="plateau")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = lyapunov_derivative_product(res, iid_plus_minus(5000, 1.0, seed=1))
        assert est.lam == -math.inf
        assert math.isnan(est.stderr)

    def test_slope_comes_from_the_hooked_transfer(self):
        # The hook swaps anchor sets every step; each log must use the
        # slope of the transfer that step ran on.
        sets = ((-1.0, 1.0), (-0.5, 0.7))
        res = anchored_reservoir(0.8, predictor=lambda i, t, history: sets[t % 2])
        u = generate(iid_plus_minus(2000, 1.0, seed=3))
        est = lyapunov_derivative_product(res, u, washout=1000)

        transfers = [MorphableTransfer(ecps) for ecps in sets]
        w, win, y = float(res.W[0, 0]), float(res.w_in[0, 0]), 0.0
        logs = []
        for t, x in enumerate(u):
            lin = w * y + win * x
            logs.append(math.log(abs(w) * transfers[t % 2].slope(lin)))
            y = transfers[t % 2].eval(lin)
        assert est.lam == pytest.approx(np.mean(logs[1000:]), rel=1e-12)

    def test_negative_washout_rejected(self):
        with pytest.raises(ValueError, match="washout must be nonnegative"):
            lyapunov_derivative_product(anchored_reservoir(1.0), alternating(3000, 1.0),
                                        washout=-3)

    def test_requires_single_neuron(self):
        from critical_esn.reservoir import Reservoir, random_orthogonal

        res = Reservoir(
            random_orthogonal(2, 1), np.ones((2, 1)), MorphableTransfer([0.0])
        )
        with pytest.raises(ValueError):
            lyapunov_derivative_product(res, alternating(3000, 1.0))


class TestNeverExpanding:
    @pytest.mark.parametrize("kind", ["alternating", "constant", "iid", "loud"])
    def test_anchored_network_never_expands(self, kind):
        # The headline property: whatever the input, the anchored network
        # at unit gain stays at or below the critical rate.
        res = anchored_reservoir(1.0)
        if kind == "alternating":
            spec = alternating(4000, 1.0)
        elif kind == "constant":
            from critical_esn.signals import constant

            spec = constant(4000, 1.0)
        elif kind == "iid":
            spec = iid_plus_minus(4000, 1.0, seed=13)
        else:
            spec = scaled(alternating(4000, 1.0), 1.5)
        est = lyapunov_renormalized(res, spec, washout=1000, seed=1)
        assert est.lam <= 1e-3


class TestBatchedEngineInputs:
    """Bad settings fail before a grid of non-finite rows is computed."""

    def _args(self):
        transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        return np.array([-0.5, -1.0]), 1.0 - TANH1, generate(alternating(3000, 1.0)), transfer

    @pytest.mark.parametrize("d0", [0.0, math.nan, math.inf, 1e-3])
    def test_renormalized_d0_domain(self, d0):
        with pytest.raises(ValueError, match=r"d0 must lie in \[1e-12, 1e-6\]"):
            renormalized_scalar_batch(*self._args(), d0=d0)

    def test_negative_washout_rejected(self):
        for engine in (renormalized_scalar_batch, derivative_product_scalar_batch):
            with pytest.raises(ValueError, match="washout must be nonnegative"):
                engine(*self._args(), washout=-5)

    def test_short_input_rejected(self):
        for engine in (renormalized_scalar_batch, derivative_product_scalar_batch):
            with pytest.raises(ValueError, match="short"):
                engine(*self._args(), washout=2001)


class TestLaneIndependence:
    """A grid point's result is the same alone, in the grid or in a split grid."""

    GRID = np.array([i / 20 for i in range(1, 31)])

    def _run(self, engine, alpha):
        transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        u = generate(iid_plus_minus(1400, 1.0, seed=4))
        if engine == "renormalized":
            return renormalized_scalar_batch(-alpha, 1.0 - alpha * TANH1, u, transfer,
                                             washout=300, y0=-TANH1, direction=-1.0)
        return derivative_product_scalar_batch(-alpha, 1.0 - alpha * TANH1, u, transfer,
                                               washout=300, y0=-TANH1)

    @pytest.mark.parametrize("engine", ["renormalized", "derivative_product"])
    def test_alone_in_grid_and_in_split_grid(self, engine):
        lam, err = self._run(engine, self.GRID)
        parts = [self._run(engine, part) for part in np.split(self.GRID, [7, 19])]
        assert np.array_equal(lam, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(err, np.concatenate([p[1] for p in parts]))
        for i, alpha in enumerate(self.GRID):
            alone = self._run(engine, alpha)
            assert alone[0][0] == lam[i]
            assert alone[1][0] == err[i]


def per_step_renormalized(w, w_in, u, transfer, d0, y0, direction, *, exact=False):
    """Per-step reference loop of the renormalized one-neuron estimator.

    Reference and companion advance together, one ``eval`` per step.  The
    renormalized companion is ``ref + copysign(d0, delta)``, or with
    ``exact`` the ``ref + delta * (d0 / |delta|)`` it equals up to a
    rounding of ``d0``; an exact-zero separation restarts it at
    ``ref + direction * d0``.  Returns the (T, m) matrix of per-step logs.
    """
    m = w.size
    rows = u[:, None] if u.ndim == 1 else u
    ref = np.full(m, y0)
    twin = ref + d0 * direction
    logs = np.empty((len(rows), m))
    with np.errstate(divide="ignore"):
        for t, row in enumerate(rows):
            drive = w_in * row
            vals = transfer.eval(np.concatenate([w * ref + drive, w * twin + drive]))
            ref = vals[:m]
            delta = vals[m:] - ref
            dist = np.abs(delta)
            good = dist > 0.0
            step = delta * (d0 / np.where(good, dist, 1.0)) if exact else np.copysign(d0, delta)
            twin = np.where(good, ref + step, ref + d0 * direction)
            logs[t] = np.log(dist / d0)
    return logs


class TestBlockedEngine:
    """The blocked one-neuron engine against the per-step loop it replaces."""

    def _plateau_case(self):
        alphas = np.array([0.3, 0.7, 1.0, 1.2])
        transfer = MorphableTransfer((-1.0, 1.0), Variant.PLATEAU)
        u = generate(iid_plus_minus(1500, 1.0, seed=9))
        return -alphas, 1.0 - alphas * TANH1, u, transfer

    def _both(self, w, w_in, u, transfer):
        renorm = renormalized_scalar_batch(w, w_in, u, transfer, washout=300, y0=-TANH1,
                                           direction=-1.0)
        deriv = derivative_product_scalar_batch(w, w_in, u, transfer, washout=300, y0=-TANH1)
        return renorm + deriv

    def test_block_size_does_not_change_results(self, monkeypatch):
        bridge = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        alphas = np.array([0.2, 0.9, 1.0, 1.1, 1.4])
        cases = [
            (-alphas, 1.0 - alphas * TANH1, generate(alternating(1500, 1.0)), bridge),
            (alphas, 0.5, generate(iid_plus_minus(1500, 1.0, seed=2)), bridge),
            self._plateau_case(),
        ]
        # The plateau case restarts its companion at a row that ends a
        # 7-row block, so the next block starts from a restart.
        w, w_in, u, transfer = self._plateau_case()
        logs = per_step_renormalized(w, w_in, u, transfer, 1e-9, -TANH1, -1.0)
        restarts = np.flatnonzero(np.isneginf(logs).any(axis=1))
        assert np.any(restarts % 7 == 6)

        default = analysis._BLOCK_CELLS
        for w, w_in, u, transfer in cases:
            results = []
            for cells in (1, 7 * w.size, default):
                monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
                results.append(self._both(w, w_in, u, transfer))
            for other in results[1:]:
                for a, b in zip(results[0], other):
                    assert np.array_equal(a, b, equal_nan=True)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(list(Variant)),
           kind=st.sampled_from(["alternating", "iid", "iid washout"]),
           rows=st.integers(1, 400), direction=st.sampled_from([1.0, -1.0]))
    def test_matches_per_step_loop(self, seed, variant, kind, rows, direction):
        rng = rng_stream(seed, 17)
        transfer = MorphableTransfer(random_ecp_list(rng), variant)
        m = 5
        w = rng.uniform(-1.3, 1.3, m)  # mixed signs
        w_in = rng.uniform(-1.0, 1.0, m)
        y0 = float(rng.uniform(-1.0, 1.0))
        u = generate(alternating(1300, 1.0))
        if kind != "alternating":
            end = 300 if kind == "iid washout" else 1300
            u[:end] = generate(iid_plus_minus(end, 1.0, seed=seed))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_BLOCK_CELLS", rows * m)
            lam, err = renormalized_scalar_batch(w, w_in, u, transfer, washout=300, y0=y0,
                                                 direction=direction)
        logs = per_step_renormalized(w, w_in, u, transfer, 1e-9, y0, direction)
        ref_lam, ref_err, _ = _rate(iter(logs), len(u), 300)
        assert np.array_equal(lam, ref_lam)
        assert np.array_equal(err, ref_err, equal_nan=True)

        exact = per_step_renormalized(w, w_in, u, transfer, 1e-9, y0, direction, exact=True)
        exact_lam, _, _ = _rate(iter(exact), len(u), 300)
        np.testing.assert_allclose(lam, exact_lam, rtol=1e-12, atol=1e-15)

    def test_restarts_in_the_washout_leave_a_finite_estimate(self, monkeypatch):
        # Random input lands the plateau lanes on flat pieces during the
        # washout; the expected alternating input after it never does, so
        # the estimate is finite and every restart's follow-up counts.
        w, w_in, _, transfer = self._plateau_case()
        w, w_in = w[:3], w_in[:3]  # at alpha = 1.2 the plateau keeps catching the orbit
        u = np.concatenate([generate(iid_plus_minus(300, 1.0, seed=9)),
                            generate(alternating(1200, 1.0))])
        logs = per_step_renormalized(w, w_in, u, transfer, 1e-9, -TANH1, 1.0)
        assert np.isneginf(logs[:300]).any(axis=0).all()
        ref_lam, ref_err, _ = _rate(iter(logs), len(u), 300)
        assert np.all(np.isfinite(ref_lam))
        for rows in (1, 7, 250, 400):
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", rows * w.size)
            lam, err = renormalized_scalar_batch(w, w_in, u, transfer, washout=300, y0=-TANH1)
            assert np.array_equal(lam, ref_lam)
            assert np.array_equal(err, ref_err)

    def test_one_neuron_reservoirs_skip_the_stacked_path(self, monkeypatch):
        calls = []
        stack_steps = Reservoir._stack_steps

        def recording(self, stack, inputs):
            calls.append(self.k)
            return stack_steps(self, stack, inputs)

        monkeypatch.setattr(Reservoir, "_stack_steps", recording)
        spec = iid_plus_minus(1500, 1.0, seed=3)
        shared = anchored_reservoir(0.9)
        lyapunov_renormalized(shared, spec, washout=500)
        assert calls == []

        lyapunov_renormalized(anchored_reservoir(0.9, predictor=lambda i, t, h: None), spec,
                              washout=500)
        lyapunov_renormalized(_two_copy_twin(shared), spec, washout=500)
        res2 = Reservoir(random_orthogonal(2, 1), np.ones((2, 1)), shared.transfers[0])
        lyapunov_renormalized(res2, spec, washout=500)
        assert calls == [1, 1, 2]

    def test_direction_must_be_a_unit_sign(self):
        w, w_in, u, transfer = self._plateau_case()
        with pytest.raises(ValueError, match=r"direction must be \+1 or -1"):
            renormalized_scalar_batch(w, w_in, u, transfer, direction=0.5)


class TestNonFiniteInput:
    """A NaN or infinite input row fails before any estimate or series is made."""

    def _rows(self, bad):
        u = generate(iid_plus_minus(3000, 1.0, seed=1))
        u[1500] = bad
        return u

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_generic_estimators(self, bad):
        for estimator in (lyapunov_renormalized, lyapunov_derivative_product):
            with pytest.raises(ValueError, match="input must be finite"):
                estimator(anchored_reservoir(1.0), self._rows(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_batched_engines(self, bad):
        transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        w = np.array([-0.5, -1.0])
        for u in (self._rows(bad), np.column_stack([self._rows(0.0), self._rows(bad)])):
            for engine in (renormalized_scalar_batch, derivative_product_scalar_batch):
                with pytest.raises(ValueError, match="input must be finite"):
                    engine(w, 1.0 - TANH1, u, transfer)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_run_pair(self, bad):
        with pytest.raises(ValueError, match="input must be finite"):
            run_pair(anchored_reservoir(1.0), [0.1], [0.2], self._rows(bad))


class TestRate:
    """The streamed reducer against a two-pass reference that keeps every log."""

    STEPS, WASHOUT, LANES = 2357, 111, 6

    def _values(self):
        x = rng_stream(41, 17).uniform(0.2, 3.0, (self.STEPS, self.LANES))
        x[5, 2] = 0.0  # log 0 inside the washout
        x[1500, 4] = 0.0  # log 0 after it: lane 4 is -inf
        return x

    def test_matches_two_pass_reference(self):
        x = self._values()
        drawn = []

        def stream():
            for row in x:
                drawn.append(row)
                yield np.log(row)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, stderr, used = _rate(stream(), self.STEPS, self.WASHOUT)
        assert used == (self.STEPS - self.WASHOUT) // 20 * 20
        assert len(drawn) == self.WASHOUT + used

        with np.errstate(divide="ignore", invalid="ignore"):
            post = np.log(x)[self.WASHOUT:self.WASHOUT + used]
            batches = post.reshape(20, used // 20, self.LANES).mean(axis=1)
            ref_err = batches.std(axis=0, ddof=1) / math.sqrt(20)
        np.testing.assert_allclose(lam, batches.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(stderr, ref_err, rtol=1e-12)
        assert lam[4] == -math.inf and math.isnan(stderr[4])
        assert np.all(np.isfinite(np.delete(lam, 4)))

    def test_scalar_stream_equals_its_lane(self):
        with np.errstate(divide="ignore"):
            logs = np.log(self._values())
        lam, stderr, used = _rate(iter(logs), self.STEPS, self.WASHOUT)
        for j in range(self.LANES):
            lane = _rate(iter(logs[:, j]), self.STEPS, self.WASHOUT)
            assert lane[0] == lam[j]
            assert _same(lane[1], stderr[j])
            assert lane[2] == used


class TestOracleEquivalence:
    def test_matches_fixed_point_jacobian_spectrum_k2(self):
        # Independent multi-dimensional oracle: under constant input the
        # contracted system settles on a fixed point whose Jacobian
        # spectral radius gives the exact exponent.
        from critical_esn.reservoir import Reservoir, random_orthogonal
        from critical_esn.signals import constant
        from critical_esn.transfer import TanhTransfer

        weights = random_orthogonal(2, 3) * 0.9
        w_in = np.array([[0.3], [0.2]])
        res = Reservoir(weights, w_in, TanhTransfer())
        est = lyapunov_renormalized(res, constant(12000, 0.7), washout=2000)

        y = np.zeros(2)
        for _ in range(20000):
            y = np.tanh(weights @ y + (w_in @ [0.7]))
        lin = weights @ y + (w_in @ [0.7])
        jac = np.diag(1.0 - np.tanh(lin) ** 2) @ weights
        rho = float(np.max(np.abs(np.linalg.eigvals(jac))))
        assert est.lam == pytest.approx(math.log(rho), abs=1e-4)

    def test_generic_estimators_agree(self):
        for alpha, gamma in [(0.4, 0.7), (0.9, 1.3), (1.1, 0.6)]:
            spec = scaled(alternating(6000, 1.0), gamma)
            res = anchored_reservoir(alpha)
            renorm = lyapunov_renormalized(res, spec, washout=1000, seed=2)
            deriv = lyapunov_derivative_product(res, spec, washout=1000)
            assert abs(renorm.lam - deriv.lam) <= 1e-3

    def test_batched_engines_match_generic(self):
        alpha, gamma = 0.8, 1.1
        spec = scaled(alternating(6000, 1.0), gamma)
        res = anchored_reservoir(alpha)
        generic = lyapunov_derivative_product(res, spec, washout=1000)
        transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        u = generate(spec)
        lam, _ = derivative_product_scalar_batch(
            np.array([-alpha]), 1.0 - alpha * TANH1, u, transfer, washout=1000, y0=0.0
        )
        assert lam[0] == generic.lam

        renorm = lyapunov_renormalized(res, spec, washout=1000, seed=2)
        lam_r, _ = renormalized_scalar_batch(
            np.array([-alpha]),
            1.0 - alpha * TANH1,
            u,
            transfer,
            d0=1e-9,
            washout=1000,
            y0=0.0,
            direction=1.0,
        )
        assert lam_r[0] == pytest.approx(renorm.lam, abs=1e-6)


class TestPairOracle:
    def test_separation_follows_tanh_iteration(self):
        # On the anchored orbit the twin separation is exactly the
        # iterated tanh map; the simulated distance must track it.
        res = anchored_reservoir(1.0)
        series = run_pair(
            res,
            anchored_orbit_state(),
            anchored_orbit_state() + 1e-3,
            alternating(2000, 1.0),
        )
        delta = 1e-3
        for t in range(1, len(series.d)):
            delta = math.tanh(delta)
            assert series.d[t] == pytest.approx(delta, rel=1e-9)


class TestFits:
    def _series(self, d):
        t = np.arange(len(d))
        return DistanceSeries(t=t, d=np.asarray(d))

    def test_exact_power_law(self):
        t = np.arange(1, 2001)
        series = DistanceSeries(t=t, d=t**-0.5)
        c_a, r2 = fit_power_law(series, (1, 2000))
        assert c_a == pytest.approx(0.5, abs=1e-9)
        assert r2 >= 1.0 - 1e-12

    def test_exact_exponential(self):
        t = np.arange(0, 300)
        series = DistanceSeries(t=t, d=0.9**t)
        c_b, r2 = fit_exponential(series, (1, 299))
        assert c_b == pytest.approx(0.9, abs=1e-9)
        assert r2 >= 1.0 - 1e-12

    def test_model_mismatch_shows_in_r2(self):
        t = np.arange(0, 300)
        series = DistanceSeries(t=t, d=0.9**t)
        _, r2_ll = fit_power_law(series, (1, 299))
        _, r2_sl = fit_exponential(series, (1, 299))
        assert r2_sl - r2_ll > 0.02

    def test_insufficient_points_rejected(self):
        series = self._series(np.linspace(1.0, 0.5, 20))
        with pytest.raises(ValueError, match="insufficient"):
            fit_power_law(series, (1, 19))

    def test_floor_points_excluded(self):
        t = np.arange(1, 200)
        d = t**-0.5
        d[50:] = 1e-15  # below the floor, must be ignored
        series = DistanceSeries(t=t, d=d)
        c_a, _ = fit_power_law(series, (1, 199))
        assert c_a == pytest.approx(0.5, abs=1e-6)


class TestClassify:
    def test_power_law_detected(self):
        t = np.arange(1, 2001)
        fit = classify_decay(DistanceSeries(t=t, d=(t + 5.0) ** -0.7))
        assert fit.law == "power_law"
        assert fit.c_b is None and fit.c_a is not None

    def test_exponential_detected(self):
        t = np.arange(0, 400)
        fit = classify_decay(DistanceSeries(t=t, d=2.0 * 0.9**t))
        assert fit.law == "exponential"
        assert fit.c_a is None
        assert fit.c_b == pytest.approx(0.9, abs=1e-6)

    def test_constant_series_inconclusive(self):
        t = np.arange(0, 200)
        fit = classify_decay(DistanceSeries(t=t, d=np.full(200, 0.5)))
        assert fit.law == "inconclusive"

    def test_truncation_recorded(self):
        t = np.arange(0, 100)
        d = 0.8**t
        fit = classify_decay(DistanceSeries(t=t, d=d, truncated_at=99))
        assert fit.truncated_at == 99

    def test_short_series_inconclusive(self):
        fit = classify_decay(DistanceSeries(t=np.arange(5), d=np.ones(5)))
        assert fit.law == "inconclusive"


class TestLoglogBend:
    def test_exponential_bends_down(self):
        t = np.arange(1, 3000)
        assert loglog_bend(DistanceSeries(t=t, d=0.99**t)) < 0.0

    def test_power_law_is_straight(self):
        t = np.arange(1, 3000)
        assert abs(loglog_bend(DistanceSeries(t=t, d=t**-0.5))) < 1e-6


class TestForgettingProtocols:
    def test_alternating_orbit_forgets_as_power_law(self):
        res = anchored_reservoir(1.0)
        series = run_pair(
            res, anchored_orbit_state(), anchored_orbit_state() + 1.0, alternating(20000, 1.0)
        )
        c_a, r2 = fit_power_law(series, (100, 20000))
        assert c_a == pytest.approx(0.5, abs=0.05)
        assert r2 >= 0.99

    def test_random_input_forgets_exponentially_and_dies(self):
        res = anchored_reservoir(1.0)
        from critical_esn.signals import rng_stream, STREAM_INIT

        for rep in range(2):
            rng = rng_stream(rep, STREAM_INIT)
            draw = rng.integers(0, 2, size=2) * 2.0 - 1.0
            ref = np.array([draw[0] * TANH1])
            series = run_pair(
                res, ref, ref + draw[1] * TANH1, iid_plus_minus(2000, 1.0, seed=rep)
            )
            assert series.truncated_at is not None
            assert 40 <= series.truncated_at <= 400
            assert classify_decay(series).law == "exponential"

    def test_constant_input_bends_down(self):
        res = anchored_reservoir(1.0)
        series = run_pair(
            res, anchored_orbit_state(), anchored_orbit_state() + 1.0, constant_input(4000)
        )
        assert loglog_bend(series) < 0.0


def constant_input(length):
    from critical_esn.signals import constant

    return constant(length, 1.0)


class TestDistanceSeriesInvariants:
    def test_monotone_time_required(self):
        with pytest.raises(ValueError):
            DistanceSeries(t=np.array([0, 0, 1]), d=np.zeros(3))

    def test_nonnegative_distance_required(self):
        with pytest.raises(ValueError):
            DistanceSeries(t=np.arange(3), d=np.array([1.0, -0.5, 0.1]))
