import math
import operator
import warnings
from functools import reduce
from itertools import islice

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
from critical_esn.cli import main as cli_main
from critical_esn.reservoir import (
    Reservoir,
    anchored_orbit_state,
    anchored_reservoir,
    baseline_orbit_state,
    baseline_reservoir,
    random_orthogonal,
    run_pair,
)
from critical_esn.signals import (
    alternating,
    constant,
    generate,
    iid_plus_minus,
    rng_stream,
    scaled,
)
from critical_esn.transfer import MorphableTransfer, TanhTransfer, Variant

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
        for estimator in (lyapunov_renormalized, lyapunov_derivative_product):
            with pytest.raises(ValueError, match="^input width 2 does not match n=1$"):
                estimator(res, np.ones((3000, 2)))

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


def _per_neuron_twin(res: Reservoir) -> Reservoir:
    """Same reservoir with distinct-but-equal per-neuron transfers.

    The copy fails the shared-transfer test, so the estimator takes the
    stacked route with one ``eval`` per neuron instead of the blocked
    engine or one shared ``eval``.
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
                    b = lyapunov_renormalized(_per_neuron_twin(res), spec, washout=500, seed=3)
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
            b = lyapunov_renormalized(_per_neuron_twin(res), u, washout=500, seed=k)
            assert abs(a.lam - b.lam) <= 1e-5

    def test_predictor_hook_is_still_called(self):
        calls = []

        def hook(i, t, state):
            calls.append(t)
            return None

        spec = alternating(1500, 1.0)
        hooked = lyapunov_renormalized(anchored_reservoir(0.9, predictor=hook), spec,
                                       washout=500)
        plain = lyapunov_renormalized(anchored_reservoir(0.9), spec, washout=500)
        assert calls == list(range(1500))  # once per step, for both rows
        assert hooked.lam == plain.lam


    def test_estimators_reject_a_stacked_state(self):
        # A (2, 1) stack would otherwise be estimated silently from row 0.
        res = anchored_reservoir(0.9)
        res.state = np.zeros((2, 1))
        for estimator in (lyapunov_renormalized, lyapunov_derivative_product):
            with pytest.raises(ValueError, match=r"state must have shape \(1,\), not \(2, 1\)"):
                estimator(res, alternating(1500, 1.0), washout=500)


class TestHookSeesState:
    """A predictor hook gets a copy of the reference state before each step."""

    def _recording(self, seen):
        def hook(i, t, state):
            seen.append((t, state.copy()))
            state[:] = math.nan  # a copy: the trajectories must not see this
            return None

        return hook

    def _states(self, start, u):
        # Pre-step states of an unhooked run from ``start``.
        res = anchored_reservoir(0.9)
        res.state = np.asarray(start, dtype=float)
        return [np.array(start, dtype=float)] + [rec.y.copy() for rec in res.run(u)[:-1]]

    def _check(self, seen, expected):
        assert [t for t, _ in seen] == list(range(len(expected)))
        for (_, state), want in zip(seen, expected):
            assert state.shape == (1,)
            assert np.array_equal(state, want)

    def test_every_driver_passes_the_pre_step_state(self):
        u = generate(iid_plus_minus(1500, 1.0, seed=4))
        start = [0.3]
        expected = self._states(start, u)
        runs = {
            "run": lambda res: res.run(u),
            "run_pair": lambda res: run_pair(res, start, [0.35], u[:200]),
            "renormalized": lambda res: lyapunov_renormalized(res, u, washout=500),
            "derivative_product": lambda res: lyapunov_derivative_product(res, u, washout=500),
        }
        for name, drive in runs.items():
            seen = []
            res = anchored_reservoir(0.9, predictor=self._recording(seen))
            res.state = np.array(start)
            result = drive(res)
            if name == "run_pair":
                self._check(seen, expected[:len(result.t) - 1])
            else:
                self._check(seen, expected)


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
        res = anchored_reservoir(0.8, predictor=lambda i, t, state: sets[t % 2])
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

    def test_per_lane_input_width_must_match(self):
        w, w_in, u, transfer = self._args()
        for engine in (renormalized_scalar_batch, derivative_product_scalar_batch):
            with pytest.raises(ValueError, match="input width 3 does not match n=2"):
                engine(w, w_in, np.column_stack([u, u, u]), transfer)


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


def row_fold_rate(logs, steps: int, washout: int):
    """Reference reducer: ``_rate`` on a stream of single rows, each batch folded one row at a time.

    ``logs`` yields one log per step: a scalar, or an array with one value
    per lane.  The first ``washout`` are skipped, the next ``used`` are
    added left to right into 20 batch sums, and nothing after them is
    drawn.  Returns ``(lam, stderr, used)`` as ``_rate`` does.
    """
    per = (steps - washout) // 20
    with np.errstate(divide="ignore"):
        for _ in islice(logs, washout):
            pass
        sums = [reduce(operator.add, islice(logs, per)) for _ in range(20)]
    batches = np.stack(sums, axis=-1) / per
    with np.errstate(invalid="ignore"):
        stderr = batches.std(axis=-1, ddof=1) / math.sqrt(20)
    return batches.mean(axis=-1), stderr, per * 20


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

        # A one-neuron pair runs as two lanes of the same engine.
        pairs = [(anchored_reservoir(alpha, variant=variant), spec)
                 for alpha in (0.5, 1.0, 1.2) for variant in Variant
                 for spec in (alternating(1500, 1.0), iid_plus_minus(1500, 1.0, seed=2))]
        start = anchored_orbit_state()
        for res, spec in pairs:
            series = []
            for cells in (1, 14, default):
                monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
                series.append(run_pair(res, start, start + 1.0, spec))
            for other in series[1:]:
                assert np.array_equal(series[0].t, other.t)
                assert series[0].d.tobytes() == other.d.tobytes()
                assert series[0].truncated_at == other.truncated_at

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
        ref_lam, ref_err, _ = row_fold_rate(iter(logs), len(u), 300)
        assert np.array_equal(lam, ref_lam)
        assert np.array_equal(err, ref_err, equal_nan=True)

        exact = per_step_renormalized(w, w_in, u, transfer, 1e-9, y0, direction, exact=True)
        exact_lam, _, _ = row_fold_rate(iter(exact), len(u), 300)
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
        ref_lam, ref_err, _ = row_fold_rate(iter(logs), len(u), 300)
        assert np.all(np.isfinite(ref_lam))
        for rows in (1, 7, 250, 400):
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", rows * w.size)
            lam, err = renormalized_scalar_batch(w, w_in, u, transfer, washout=300, y0=-TANH1)
            assert np.array_equal(lam, ref_lam)
            assert np.array_equal(err, ref_err)

    def test_one_neuron_reservoirs_skip_the_stacked_path(self, monkeypatch):
        calls = []
        advance = Reservoir._advance

        def recording(self, u):
            calls.append(self.state.shape)
            return advance(self, u)

        monkeypatch.setattr(Reservoir, "_advance", recording)
        spec = iid_plus_minus(1500, 1.0, seed=3)
        shared = anchored_reservoir(0.9)
        lyapunov_renormalized(shared, spec, washout=500)
        assert calls == []

        lyapunov_renormalized(anchored_reservoir(0.9, predictor=lambda i, t, s: None), spec,
                              washout=500)
        lyapunov_renormalized(_per_neuron_twin(shared), spec, washout=500)
        res2 = Reservoir(random_orthogonal(2, 1), np.ones((2, 1)), shared.transfers[0])
        lyapunov_renormalized(res2, spec, washout=500)
        assert calls == [(2, 1)] * 3000 + [(2, 2)] * 1500  # one call per step

    def test_direction_must_be_a_unit_sign(self):
        w, w_in, u, transfer = self._plateau_case()
        with pytest.raises(ValueError, match=r"direction must be \+1 or -1"):
            renormalized_scalar_batch(w, w_in, u, transfer, direction=0.5)


def per_row_states(w, w_in, u, y0, transfer):
    """States after each input row of ``y <- transfer(w*y + w_in*u[t])``, one ``eval`` per row."""
    rows = u[:, None] if u.ndim == 1 else u
    y = np.broadcast_to(np.asarray(y0, dtype=float), w.shape)
    states = np.empty((len(rows), w.size))
    for t, row in enumerate(rows):
        y = states[t] = transfer.eval(w * y + w_in * row)
    return states


@pytest.fixture
def eval_calls(monkeypatch):
    """A list that grows by one for every ``MorphableTransfer.eval`` call and every float row.

    A reference block of at most ``_FLOAT_LANES`` lanes steps its rows as
    Python floats instead of one ``eval`` per row, so each row it steps
    counts as one call too, of its lane count.
    """
    calls = []
    original, float_rows = MorphableTransfer.eval, analysis._float_rows

    def counted(self, x):
        calls.append(np.size(x))
        return original(self, x)

    def counted_rows(step, w, y, drive):
        calls.extend([w.size] * len(drive))
        return float_rows(step, w, y, drive)

    monkeypatch.setattr(MorphableTransfer, "eval", counted)
    monkeypatch.setattr(analysis, "_float_rows", counted_rows)
    return calls


class TestCycleReplay:
    """A reference recurrence that closes an exact cycle is replayed with the per-row bytes."""

    T = 1100
    WASHOUT = 100
    KINDS = ["constant", "alternating", "iid", "prefix", "per-lane"]

    def _inputs(self, kind, m, rng):
        u = generate(alternating(self.T, 1.0))
        if kind == "constant":
            u = generate(constant(self.T, 0.7))
        elif kind == "iid":
            u = generate(iid_plus_minus(self.T, 1.0, seed=int(rng.integers(2**31))))
        elif kind == "prefix":  # random, then alternating
            u[:37] = rng.standard_normal(37)
        elif kind == "per-lane":
            u = u[:, None] * rng.uniform(0.5, 1.5, m)
        return u

    def _check_engine(self, eval_calls, w, w_in, u, y0, transfer):
        """Check each engine output against its per-row loop; return the reference's evals."""
        states = per_row_states(w, w_in, u, y0, transfer)
        before = np.vstack([np.broadcast_to(y0, w.shape), states[:-1]])
        lane_w, lane_w_in, start = analysis._lanes(w, w_in, y0)
        rows = analysis._run_rows(u, lane_w, lane_w_in, start, self.WASHOUT)
        eval_calls.clear()
        blocks = list(analysis._reference_blocks(lane_w, lane_w_in, rows, start, transfer))
        evals = len(eval_calls)
        assert np.concatenate([s[1:] for _, s in blocks]).tobytes() == states.tobytes()
        assert np.concatenate([s[:-1] for _, s in blocks]).tobytes() == before.tobytes()

        lam, err = renormalized_scalar_batch(w, w_in, u, transfer, washout=self.WASHOUT, y0=y0)
        logs = per_step_renormalized(w, w_in, u, transfer, 1e-9, y0, 1.0)
        ref_lam, ref_err, _ = row_fold_rate(iter(logs), len(u), self.WASHOUT)
        assert lam.tobytes() == ref_lam.tobytes() and err.tobytes() == ref_err.tobytes()

        lam, err = derivative_product_scalar_batch(w, w_in, u, transfer, washout=self.WASHOUT,
                                                   y0=y0)
        rows = u[:, None] if u.ndim == 1 else u
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(w) * transfer.slope(w * before + w_in * rows))
        ref_lam, ref_err, _ = row_fold_rate(iter(logs), len(u), self.WASHOUT)
        assert lam.tobytes() == ref_lam.tobytes() and err.tobytes() == ref_err.tobytes()
        return evals

    def _anchored_case(self, variant, kind, m):
        rng = rng_stream(m, 23)
        alphas = rng.uniform(0.3, 0.8, m)
        y0 = -TANH1 if kind == "iid" else rng.uniform(-1.0, 1.0, m)
        return (-alphas, 1.0 - alphas * TANH1, self._inputs(kind, m, rng), y0,
                MorphableTransfer((-1.0, 1.0), variant))

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("kind", KINDS)
    # Both sides of the float-lane crossover m*.
    @pytest.mark.parametrize("m", sorted({1, 5, analysis._FLOAT_LANES, analysis._FLOAT_LANES + 1}))
    def test_matches_per_row_loop(self, monkeypatch, eval_calls, variant, kind, m):
        case = self._anchored_case(variant, kind, m)
        for cells in (1, 14, analysis._BLOCK_CELLS):
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
            evals = self._check_engine(eval_calls, *case)
            assert (evals == self.T) == (kind == "iid")  # the replay fired

    @pytest.mark.parametrize("kind", KINDS)
    def test_wide_batch_matches_per_row_loop(self, eval_calls, kind):
        # 2800 lanes: the default blocks hold at most 2 rows.
        assert analysis._BLOCK_CELLS // 2800 == 2
        case = self._anchored_case(Variant.BRIDGE, kind, 2800)
        evals = self._check_engine(eval_calls, *case)
        assert (evals == self.T) == (kind == "iid")

    def test_random_anchors_match_per_row_loop(self, monkeypatch, eval_calls):
        rng = rng_stream(4, 23)
        for variant in Variant:
            transfer = MorphableTransfer(random_ecp_list(rng), variant)
            w, w_in = rng.uniform(-1.3, 1.3, 4), rng.uniform(-1.0, 1.0, 4)
            for kind in ("constant", "alternating", "prefix", "per-lane"):
                u = self._inputs(kind, 4, rng)
                for cells in (14, analysis._BLOCK_CELLS):
                    monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
                    self._check_engine(eval_calls, w, w_in, u, 0.25, transfer)

    def test_no_replay_once_the_input_stops_repeating(self, monkeypatch, eval_calls):
        # On the expected orbit the state repeats from the first rows of
        # the alternating prefix, but the input turns iid at row 700.
        alphas = np.array([0.5, 1.0, 1.2])
        u = generate(alternating(self.T, 1.0))
        u[700:] = generate(iid_plus_minus(self.T - 700, 1.0, seed=4))
        transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        states = per_row_states(-alphas, 1.0 - alphas * TANH1, u, -TANH1, transfer)
        assert np.array_equal(states[2], states[0])
        for cells in (1, 14, analysis._BLOCK_CELLS):
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
            evals = self._check_engine(eval_calls, -alphas, 1.0 - alphas * TANH1, u, -TANH1,
                                       transfer)
            assert evals == self.T

    def test_signed_zero_breaks_the_input_period(self):
        # 0.0 == -0.0, but tanh keeps the sign: the state after row 900 is -0.0.
        u = np.zeros(self.T)
        u[900] = -0.0
        w, w_in, start = analysis._lanes(-0.5, 1.0, 0.0)
        u = analysis._run_rows(u, w, w_in, start, self.WASHOUT)
        blocks = analysis._reference_blocks(w, w_in, u, start, TanhTransfer())
        states = np.concatenate([s[1:] for _, s in blocks])
        assert states.tobytes() == per_row_states(w, w_in, u, 0.0, TanhTransfer()).tobytes()
        assert np.signbit(states[900, 0])

    def test_cycle_closes_across_one_row_blocks(self, monkeypatch, eval_calls):
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 1)
        w, w_in, start = analysis._lanes(-1.0, 1.0 - TANH1, -TANH1)
        u = analysis._run_rows(alternating(self.T, 1.0), w, w_in, start, self.WASHOUT)
        for _ in analysis._reference_blocks(w, w_in, u, start,
                                            MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)):
            pass
        assert len(eval_calls) == 2  # s[1] == s[-1]: the 2-cycle closes after row 1

    @pytest.mark.parametrize("start", [(0.0, 1.0), (-TANH1, TANH1), (-TANH1, -TANH1 + 1e-3)])
    @pytest.mark.parametrize("kind", ["constant", "alternating", "iid", "prefix"])
    def test_run_pair_matches_per_row_loop(self, monkeypatch, kind, start):
        rng = rng_stream(6, 23)
        u = self._inputs(kind, 1, rng)
        for alpha in (0.5, 1.0, 1.2):
            res = anchored_reservoir(alpha)
            states = per_row_states(np.repeat(res.W[0], 2), np.ones(2), u * res.w_in[0, 0],
                                    np.array(start), res.transfers[0])
            diff = np.concatenate([[start[1] - start[0]], states[:, 1] - states[:, 0]])
            d = np.sqrt(diff * diff)
            zeros = np.flatnonzero(d == 0.0)
            if zeros.size:
                d = d[:zeros[0] + 1]
            for cells in (1, 14, analysis._BLOCK_CELLS):
                monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
                series = run_pair(res, start[0], start[1], u)
                assert series.d.tobytes() == d.tobytes()
                assert series.truncated_at == (int(zeros[0]) if zeros.size else None)

    @pytest.mark.parametrize("argv", [["sweep-alpha"], ["lyapunov", "--preset", "anchored"]])
    def test_default_commands_replay(self, tmp_path, eval_calls, argv):
        assert cli_main(["--out", str(tmp_path), *argv]) == 0
        assert len(eval_calls) <= 1000

    @pytest.mark.parametrize("m", [1, 2, analysis._FLOAT_LANES, analysis._FLOAT_LANES + 1])
    def test_only_wide_blocks_step_through_eval(self, monkeypatch, m):
        sizes = []
        original = MorphableTransfer.eval
        monkeypatch.setattr(MorphableTransfer, "eval",
                            lambda self, x: sizes.append(np.size(x)) or original(self, x))
        w, w_in, start = analysis._lanes(-np.linspace(0.3, 0.8, m), 0.5, 0.0)
        u = analysis._run_rows(iid_plus_minus(self.T, 1.0, seed=8), w, w_in, start,
                               self.WASHOUT)
        for _ in analysis._reference_blocks(w, w_in, u, start, MorphableTransfer((-1.0, 1.0))):
            pass
        assert sizes == ([] if m <= analysis._FLOAT_LANES else [m] * self.T)

    def test_iid_input_steps_every_row(self, eval_calls):
        u = generate(iid_plus_minus(self.T, 1.0, seed=8))
        alphas = np.array([0.5, 0.9])
        renormalized_scalar_batch(-alphas, 1.0 - alphas * TANH1, u,
                                  MorphableTransfer((-1.0, 1.0)), washout=self.WASHOUT)
        assert len(eval_calls) >= self.T

    @pytest.mark.parametrize("spec", [alternating(6000, 1.0), constant(6000, 1.0),
                                      constant(6000, -0.5)], ids=["alternating", "+1", "-0.5"])
    @pytest.mark.parametrize("alpha", [0.5, 1.2])
    def test_replayed_estimate_matches_stepped_oracle(self, eval_calls, spec, alpha):
        # The oracle steps through Reservoir.step and never replays.
        res = anchored_reservoir(alpha)
        renorm = lyapunov_renormalized(res, spec, washout=1000)
        assert len(eval_calls) < 200  # replayed
        deriv = lyapunov_derivative_product(res, spec, washout=1000)
        assert abs(renorm.lam - deriv.lam) <= 1e-3

    def test_overflowing_linear_response_is_rejected(self, eval_calls):
        transfer = MorphableTransfer((-1.0, 1.0))
        u = generate(alternating(1200, 2.0))
        for w, w_in, y0 in [(1e308, 0.5, 0.0), (0.5, 1e308, 0.0), (-10.0, 0.5, 1e308)]:
            for engine in (renormalized_scalar_batch, derivative_product_scalar_batch):
                with pytest.raises(ValueError, match="linear response overflows float64"):
                    engine(np.array([0.5, w]), w_in, u, transfer, washout=100, y0=y0)
                assert not eval_calls  # rejected before the first row
        with pytest.raises(ValueError, match="linear response overflows float64"):
            run_pair(anchored_reservoir(1e308), [0.0], [1.0], u)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["w", "w_in", "y0"])
    def test_batched_engine_gains_and_starts(self, field, bad):
        # A NaN gain used to give a NaN row, an infinite w_in a false lam = -inf.
        transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        args = {"w": np.array([-0.5, -1.0]), "w_in": 1.0 - TANH1, "y0": 0.0}
        args[field] = np.array([args[field], bad]) if field != "w" else np.array([bad, -0.5])
        u = self._rows(1.0)
        for engine in (renormalized_scalar_batch, derivative_product_scalar_batch):
            with pytest.raises(ValueError, match="gains and start states must be finite"):
                engine(args["w"], args["w_in"], u, transfer, y0=args["y0"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_run_pair(self, bad):
        with pytest.raises(ValueError, match="input must be finite"):
            run_pair(anchored_reservoir(1.0), [0.1], [0.2], self._rows(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_run(self, bad):
        res = anchored_reservoir(1.0)
        with pytest.raises(ValueError, match="input must be finite"):
            res.run(self._rows(bad))
        assert res.t == 0 and res.state.tolist() == [0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_generic_estimators_reject_a_state_set_later(self, bad):
        # Both used to return lam = nan.
        for estimator in (lyapunov_renormalized, lyapunov_derivative_product):
            res = anchored_reservoir(1.0)
            res.state = np.array([bad])
            with pytest.raises(ValueError, match="start states must be finite"):
                estimator(res, self._rows(1.0))


class TestReachGate:
    """Every reservoir run rejects a linear response that can overflow, before its first step.

    The batched engines' cases are in ``TestCycleReplay``.
    """

    # (w, w_in, start): a gain, an input gain or a start state of 1e308.
    CASES = {"gain": (1e308, 0.5, 0.0), "input-gain": (0.5, 1e308, 0.0),
             "start": (-10.0, 0.5, 1e308)}
    RUNS = {
        "run": lambda res, u: res.run(u),
        # Only the second trajectory starts at the start state.
        "run_pair": lambda res, u: run_pair(res, np.full(res.k, 0.5), res.state, u),
        "renormalized": lambda res, u: lyapunov_renormalized(res, u, washout=100),
        "derivative_product": lambda res, u: lyapunov_derivative_product(res, u, washout=100),
    }
    # The derivative product takes one neuron only.
    RUN_ROUTES = [(run, route) for run in RUNS for route in ("one-lane", "hooked", "k2")
                  if (run, route) != ("derivative_product", "k2")]

    def _reservoir(self, route, w, w_in, start, hook_calls):
        transfer = MorphableTransfer((-1.0, 1.0))
        if route == "k2":
            return Reservoir([[w, 0.0], [0.0, 0.5]], [[w_in], [0.5]], transfer,
                             state=[start, 0.0])
        hook = (lambda i, t, state: hook_calls.append(t)) if route == "hooked" else None
        return Reservoir([[w]], [[w_in]], transfer, state=[start], predictor=hook)

    @pytest.mark.parametrize("run,route", RUN_ROUTES)
    @pytest.mark.parametrize("case", list(CASES))
    def test_reservoir_runs(self, eval_calls, case, run, route):
        hook_calls = []
        res = self._reservoir(route, *self.CASES[case], hook_calls)
        eval_calls.clear()
        with pytest.raises(ValueError, match="^linear response overflows float64$"):
            self.RUNS[run](res, generate(alternating(1200, 2.0)))
        assert res.t == 0 and not eval_calls and not hook_calls

    def test_finite_edge_still_runs(self):
        # Gain 1e307: every |y_lin| stays below 2.1e307.
        u = generate(alternating(1200, 2.0))
        for run, route in self.RUN_ROUTES:
            res = self._reservoir(route, 1e307, 0.5, 0.0, [])
            self.RUNS[run](res, u)
        for engine in (renormalized_scalar_batch, derivative_product_scalar_batch):
            lam, _ = engine(np.array([0.5, 1e307]), 0.5, u, MorphableTransfer((-1.0, 1.0)),
                            washout=100)
            assert np.isfinite(lam[0])


class TestRate:
    """The streamed reducer against a two-pass reference that keeps every log."""

    STEPS, WASHOUT, LANES = 2357, 111, 6

    def _values(self):
        x = rng_stream(41, 17).uniform(0.2, 3.0, (self.STEPS, self.LANES))
        x[5, 2] = 0.0  # log 0 inside the washout
        x[1500, 4] = 0.0  # log 0 after it: lane 4 is -inf
        return x

    def test_matches_two_pass_reference(self):
        # The reference fold reads rows, the block reducer one-row blocks.
        x = self._values()
        for reducer, shape in ((row_fold_rate, lambda r: r), (_rate, np.atleast_2d)):
            drawn = []

            def stream():
                for row in x:
                    drawn.append(row)
                    yield shape(np.log(row))

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lam, stderr, used = reducer(stream(), self.STEPS, self.WASHOUT)
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
        lam, stderr, used = _rate([logs], self.STEPS, self.WASHOUT)
        for j in range(self.LANES):
            lane = _rate([logs[:, j]], self.STEPS, self.WASHOUT)
            assert lane[0] == lam[j]
            assert _same(lane[1], stderr[j])
            assert lane[2] == used

    # None is a scalar stream of (rows,) blocks; 1, 2 and 30 lanes fold by
    # cumsum, 3000 row by row.
    @pytest.mark.parametrize("lanes", [None, 1, 2, 30, 3000])
    @pytest.mark.parametrize("split", ["1", "2", "whole", "random"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), per=st.integers(1, 5), washout=st.integers(0, 30),
           extra=st.integers(0, 19), seed=st.integers(0, 2**32 - 1))
    def test_blocks_match_the_row_fold(self, lanes, split, data, per, washout, extra, seed):
        steps = washout + 20 * per + extra  # batches of per rows
        rng = rng_stream(seed, 17)
        shape = (steps,) if lanes is None else (steps, lanes)
        logs = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        for row in data.draw(st.lists(st.integers(0, steps - 1), max_size=2), label="-inf rows"):
            logs[(row,) if lanes is None else (row, row % lanes)] = -math.inf
        if split == "random":
            cuts = sorted(data.draw(st.sets(st.integers(1, steps - 1)), label="cuts"))
        else:
            cuts = list(range(int(split), steps, int(split))) if split != "whole" else []
        blocks = np.split(logs, cuts)
        pulled = []

        def stream():
            for block in blocks:
                pulled.append(block)
                yield block

        before = logs.copy()
        ref = row_fold_rate(iter(before), steps, washout)
        lam, stderr, used = _rate(stream(), steps, washout)
        assert np.asarray(lam).tobytes() == np.asarray(ref[0]).tobytes()
        assert np.asarray(stderr).tobytes() == np.asarray(ref[1]).tobytes()
        assert used == ref[2]
        # The last block drawn holds the last used row.
        assert len(pulled) == int(np.searchsorted(cuts, washout + used - 1, side="right")) + 1
        assert logs.tobytes() == before.tobytes()  # the blocks are read, not written


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
