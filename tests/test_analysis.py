import itertools
import math
import operator
import warnings
from functools import cache, reduce
from itertools import islice
from types import SimpleNamespace
from typing import NamedTuple

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

    def test_quarter_pi_bytes(self):
        critical = solve_critical_b(QPI)
        assert critical.b_star.hex() == "0x1.2c0e48cfe233ep+1"
        assert critical.s_star.hex() == "0x1.83b4fbd2c216ap-1"

    @staticmethod
    def sign_bisection(amplitude: float) -> float:
        """``s*`` by the sign-only bisection the solver is pinned to.

        No early exit on an exact-zero residual: one moved ``s*`` at pi/4
        by 2 ulp, and ``s*`` on about one amplitude in seven.
        """
        def residual(s):
            b = 1.0 / (1.0 - s * s)
            return math.tanh(b * s - amplitude) - s

        lo, hi = 1e-9, 1.0 - 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if residual(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_matches_sign_bisection_bit_for_bit(self):
        amplitudes = np.random.default_rng(20).uniform(0.05, 3.0, 1000).tolist() + [0.05, QPI, 3.0]
        for amplitude in amplitudes:
            s_star = solve_critical_b(amplitude).s_star
            assert s_star.hex() == self.sign_bisection(amplitude).hex(), amplitude


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
    """Same reservoir with distinct-but-equal per-neuron transfers and a no-op hook.

    The hook keeps every transfer, and sends the twin, and every copy of
    it, down the stacked route instead of the blocked engine.  For k > 1
    the distinct transfers take one ``eval`` per neuron instead of one
    shared ``eval``.
    """
    tr = res.transfers[0]
    return Reservoir(res.W, res.w_in, [MorphableTransfer(tr.ecps, tr.variant)
                                       for _ in range(res.k)], state=res.state,
                     predictor=lambda i, t, state: None)


def recorded_advance(monkeypatch):
    """A list that records the state shape of every ``Reservoir._advance`` call."""
    calls, advance = [], Reservoir._advance

    def recording(self, u):
        calls.append(self.state.shape)
        return advance(self, u)

    monkeypatch.setattr(Reservoir, "_advance", recording)
    return calls


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

    def test_two_inputs_run_on_the_engine(self, monkeypatch):
        # One neuron, n = 2: the engine's drive u @ w_in[0] may round
        # differently from the stacked route's per-row product, depending
        # on the host's numpy kernels.  So lam agrees within 1e-6, and the
        # pair's distances within an absolute 1e-12 or a relative 1e-9 over
        # the steps both pairs record.  Every pair here reaches exactly 0,
        # where one rounding can move that step by one (22 against 21 and
        # 28 against 29 on one host).
        calls = recorded_advance(monkeypatch)
        rng = rng_stream(34, 17)
        for _ in range(3):
            ecps, alpha = random_ecp_list(rng), float(rng.uniform(0.5, 1.2))
            w_in = rng.uniform(0.2, 1.0, (1, 2))
            for variant in Variant:
                for kind in ("alternating", "iid"):
                    second = (rng.integers(0, 2, 1500) * 2.0 - 1.0 if kind == "iid"
                              else np.tile([-1.0, 1.0], 750))
                    u = np.column_stack([np.tile([1.0, -1.0], 750), second]) * rng.uniform(
                        0.5, 1.5, 2)
                    res = Reservoir([[-alpha]], w_in, MorphableTransfer(ecps, variant),
                                    state=[float(rng.uniform(-1.0, 1.0))])
                    start = res.state
                    calls.clear()
                    lam = lyapunov_renormalized(res, u, washout=500, seed=3).lam
                    pair = run_pair(res, start, start + 1e-3, u)
                    assert calls == []
                    twin = _per_neuron_twin(res)
                    stacked = lyapunov_renormalized(twin, u, washout=500, seed=3).lam
                    assert lam == stacked or abs(lam - stacked) <= 1e-6
                    stacked_pair = run_pair(twin, start, start + 1e-3, u)
                    n = min(pair.d.size, stacked_pair.d.size)
                    np.testing.assert_allclose(pair.d[:n], stacked_pair.d[:n], rtol=1e-9,
                                               atol=1e-12)
                    assert abs(pair.truncated_at - stacked_pair.truncated_at) <= 1


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


def per_step_derivative_product(reservoir, u, washout: int):
    """Per-row reference loop of :func:`lyapunov_derivative_product`.

    Each input row takes one ``Reservoir.step``, one 1-element ``slope``
    of the transfer that step used and one scalar ``log``; the logs are
    reduced by :func:`row_fold_rate`.  Returns ``(lam, stderr)``.
    """
    work = reservoir.copy()
    gain = abs(float(work.W[0, 0]))

    def logs():
        for row in u:
            rec = work.step(row)
            yield np.log(gain * float(work.transfers[0].slope(rec.y_lin)[0]))

    lam, stderr, _ = row_fold_rate(logs(), len(u), washout)
    return float(lam), float(stderr)


class TestDerivativeProductBlocks:
    """The derivative product's per-block slopes and logs against its per-row loop, by bits."""

    CRITICAL = solve_critical_b(QPI)
    INPUTS = {
        "alternating": alternating,
        "iid": lambda n, amplitude: iid_plus_minus(n, amplitude, seed=4),
        "constant": constant,
    }

    @staticmethod
    def _check(res, spec, washout=1000):
        u = generate(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = lyapunov_derivative_product(res, u, washout=washout)
        lam, stderr = per_step_derivative_product(res, u, washout)
        assert (est.lam.hex(), est.stderr.hex()) == (lam.hex(), stderr.hex())
        return est

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_baseline_matches_per_row_loop(self, kind):
        res = baseline_reservoir(self.CRITICAL.b_star)
        res.state = baseline_orbit_state(self.CRITICAL.s_star)
        self._check(res, self.INPUTS[kind](3000, QPI))

    @pytest.mark.parametrize("variant", ["bridge", "plateau"])
    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_anchored_matches_per_row_loop(self, kind, variant):
        res = anchored_reservoir(0.8, variant=variant)
        res.state = anchored_orbit_state()
        self._check(res, self.INPUTS[kind](3000, 1.0))

    @pytest.mark.parametrize("every", [1, 100])
    def test_hook_swapping_inside_a_block(self, monkeypatch, every):
        # Blocks of 1, 2, 4, ... rows: rows 63-126 form one block, so a swap
        # every 100 rows falls inside it; a swap every row makes each row a run.
        slopes = []
        slope = MorphableTransfer.slope
        monkeypatch.setattr(MorphableTransfer, "slope",
                            lambda self, x: slopes.append(np.size(x)) or slope(self, x))
        sets = ((-1.0, 1.0), (-0.5, 0.7))
        res = anchored_reservoir(0.8, predictor=lambda i, t, state: sets[(t // every) % 2])
        self._check(res, iid_plus_minus(1500, 1.0, seed=3), washout=200)
        if every == 1:
            assert set(slopes) == {1}
        else:  # the estimator's calls come first: block 63-126 is split at row 100
            assert slopes[:14] == [1, 2, 4, 8, 16, 32, 37, 27, 73, 55, 45, 100, 100, 11]

    def test_blocks_reach_the_cap(self, monkeypatch):
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 7)
        res = baseline_reservoir(1.5)
        self._check(res, iid_plus_minus(1100, QPI, seed=5), washout=50)

    @pytest.mark.parametrize("preset", ["baseline", "anchored"])
    def test_saturated_logs_are_minus_inf(self, preset):
        res = baseline_reservoir(30.0) if preset == "baseline" else anchored_reservoir(40.0)
        est = self._check(res, iid_plus_minus(3000, QPI if preset == "baseline" else 1.0,
                                              seed=1))
        assert est.lam == -math.inf and math.isnan(est.stderr)

    def test_one_slope_call_per_block(self, monkeypatch):
        calls = []
        slope = TanhTransfer.slope
        monkeypatch.setattr(TanhTransfer, "slope",
                            lambda self, x: calls.append(np.size(x)) or slope(self, x))
        res = baseline_reservoir(self.CRITICAL.b_star)
        lyapunov_derivative_product(res, alternating(3000, QPI), washout=1000)
        assert calls == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 953]


class TestAnticipation:
    """A hook that anchors each step's transfer at a predicted linear response (ROADMAP item 1).

    The anchors are ``{0, p}`` with ``p = w*y + w_in*e[t]`` for the
    expected input ``e``.  A ``p`` within 1e-6 of 0 has no stated rule
    yet (the build rejects it), so each run asserts that none came.
    """

    ACTUAL = generate(iid_plus_minus(3000, 1.0, seed=1))

    @staticmethod
    def _run(alpha, expected, u):
        nearest = []

        def hook(i, t, state):
            p = float(res.W[0, 0]) * float(state[0]) + float(res.w_in[0, 0]) * float(expected[t])
            nearest.append(abs(p))
            return (p,)

        res = anchored_reservoir(alpha, predictor=hook)
        est = lyapunov_derivative_product(res, u, washout=1000)
        assert len(nearest) == len(u) and min(nearest) >= 1e-6
        return est

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3])
    def test_anticipated_rate_is_log_alpha(self, alpha):
        # Each step's linear response lands on an anchor, where the slope is exactly 1.
        est = self._run(alpha, self.ACTUAL, self.ACTUAL)
        assert abs(est.lam - math.log(alpha)) <= 1e-12
        if alpha == 1.0:
            assert est.lam == 0.0

    def test_mismatched_prediction_contracts(self):
        other = generate(iid_plus_minus(3000, 1.0, seed=2))
        assert self._run(1.0, other, self.ACTUAL).lam < 0.0


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


@pytest.fixture
def engine_events(monkeypatch):
    """The engine's work in call order.

    ``("eval", n)`` for each ``MorphableTransfer.eval`` call and each row
    stepped as floats, ``("slope", n)`` for each ``slope`` call,
    ``("block", rows)`` for each block that :func:`analysis._lane_blocks`
    hands to its consumer, and ``("tail", t)`` when the closed-cycle tail
    that starts at row ``t`` is drawn.
    """
    events = []
    transfer_eval, slope, float_rows, lane_blocks = (
        MorphableTransfer.eval, MorphableTransfer.slope, analysis._float_rows,
        analysis._lane_blocks)

    def counted_eval(self, x):
        events.append(("eval", np.size(x)))
        return transfer_eval(self, x)

    def counted_slope(self, x):
        events.append(("slope", np.size(x)))
        return slope(self, x)

    def counted_rows(step, w, y, drive):
        events.extend([("eval", w.size)] * len(drive))
        return float_rows(step, w, y, drive)

    def counted_blocks(w, win, u, y, transfer, rows_of):
        def counted(drive, states):
            events.append(("block", len(drive)))
            return rows_of(drive, states)

        for block in lane_blocks(w, win, u, y, transfer, counted):
            if isinstance(block, analysis._CycleTail):
                events.append(("tail", block.t))
            yield block

    monkeypatch.setattr(MorphableTransfer, "eval", counted_eval)
    monkeypatch.setattr(MorphableTransfer, "slope", counted_slope)
    monkeypatch.setattr(analysis, "_float_rows", counted_rows)
    monkeypatch.setattr(analysis, "_lane_blocks", counted_blocks)
    return events


def expanded(blocks, steps: int):
    """The rows of a block stream of ``steps`` rows as one array, a closed-cycle tail expanded."""
    return np.concatenate([block.rows(block.t, steps) if isinstance(block, analysis._CycleTail)
                           else block for block in blocks])


def tail_start(events):
    """The row at which the closed-cycle tail started, or None.

    Once it starts, no ``eval``, ``slope`` or block follows, and it
    starts where the blocks handed to the consumer end.
    """
    tails = [i for i, (kind, _) in enumerate(events) if kind == "tail"]
    if not tails:
        return None
    assert tails == [len(events) - 1]
    t = events[-1][1]
    assert t == sum(rows for kind, rows in events if kind == "block")
    return t


def closure_rows(start, rows, states):
    """Per lane, the row ``R`` at which its 2-cycle closes, or inf.

    ``R`` is the first ``R >= 2`` with ``s[R] == s[R-2]`` bit for bit and
    the lane's input 2-periodic from row ``R-2``; ``s[R]`` is the state
    after ``R`` rows, ``s[0]`` the start.  From there on the lane repeats
    its last two states.
    """
    s = np.vstack([start, states]).view(np.uint64)
    r = np.arange(2, len(s))[:, None]
    repeats = (s[2:] == s[:-2]) & (r >= analysis._period_start(rows) + 2)
    return [int(first) + 2 if repeats[:, lane].any() else math.inf
            for lane, first in enumerate(repeats.argmax(axis=0))]


def stepped_lanes(closes, steps, cells):
    """The lane count of each row the engine steps when lane ``j`` closes at ``closes[j]``.

    ``closes`` is as :func:`closure_rows` gives it.  Blocks of 1, 2, 4,
    ... rows up to ``max(1, cells // m)``; after each, a lane whose
    closure row has passed stops.  A block steps its open lanes as
    floats, or all ``m`` lanes through ``eval`` while more than
    ``_FLOAT_LANES`` are open, and the run ends in the tail once no lane
    is open.
    """
    closes, m = np.asarray(closes), len(closes)
    cap, rows, t0, lanes = max(1, cells // m), 1, 0, []
    while t0 < steps and (n_open := np.count_nonzero(closes > t0)):
        n = min(rows, steps - t0)
        lanes += [m if n_open > analysis._FLOAT_LANES else n_open] * n
        t0, rows = t0 + n, min(2 * rows, cap)
    return lanes


#: Input rows of every engine case; ``T - washout`` is a multiple of 20 at both washouts.
T = 1100
#: An odd block cap: blocks of 1, 2, 4, 7, 7, ... rows.
ODD_ROWS = 7
#: The narrowest grid that ``_fold`` and ``_CycleTail.fold`` add row by row.
WIDE = analysis._CUMSUM_LANES + 72
INPUT_KINDS = ("constant", "alternating", "iid", "prefix", "per-lane")


def block_sizes(m: int):
    """The ``_BLOCK_CELLS`` values an engine case of ``m`` lanes runs at, one per block boundary.

    Blocks of 1 row, of at most ``ODD_ROWS`` rows, and the default cap.
    A wide grid runs at blocks of 1 and 2 rows, as the default cap gives
    4,097 and 2,800 lanes (``TestLogCycleTail.test_tail_starts_on_one_row_blocks``).
    """
    if m > analysis._CUMSUM_LANES:
        return m, 2 * m
    return 1, ODD_ROWS * m, analysis._BLOCK_CELLS


def lane_references(w, w_in, u, y0, transfer, direction=1.0, washouts=(0, 100)):
    """The per-row references of one engine case, computed once.

    The states after (``states``) and before (``before``) each row, the
    per-row logs of both estimators (renormalized first), their row folds
    at each washout of ``washouts``, the row at which each lane closes its
    2-cycle (:func:`closure_rows`), and the case itself.  The arrays are
    read-only, so a case can be shared by every test that reads it.
    """
    lane_w, lane_w_in, start = analysis._lanes(w, w_in, y0)
    rows = analysis._run_rows(u, lane_w, lane_w_in, start)
    states = per_row_states(w, w_in, u, y0, transfer)
    before = np.vstack([start, states[:-1]])
    with np.errstate(divide="ignore"):
        logs = (per_step_renormalized(w, w_in, u, transfer, 1e-9, y0, direction),
                np.log(np.abs(lane_w) * transfer.slope(lane_w * before + lane_w_in * rows)))
    for array in (u, w, states, before, *logs):
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return SimpleNamespace(
        case=(w, w_in, u, y0, transfer, direction), lane_w=lane_w, lane_w_in=lane_w_in,
        start=start, rows=rows, steps=len(rows), states=states, before=before, logs=logs,
        washouts=washouts, closes=closure_rows(start, rows, states),
        folds=[[row_fold_rate(iter(x), len(rows), washout)[:2] for washout in washouts]
               for x in logs])


def check_lane_engine(monkeypatch, events, ref, cells=None):
    """Check the one-neuron engine against the per-row references ``ref`` (:func:`lane_references`).

    At each block size in ``cells`` (default :func:`block_sizes`),
    :func:`analysis._lane_blocks` runs with three consumers, each checked
    row by row and by bytes: a states consumer, with the states before
    and after each row, whose stepped rows must have the lanes that the
    closure rows predict (:func:`stepped_lanes`), and the log consumers
    of both estimators, whose blocks are the ones the estimator's reducer
    draws.  Both estimates are checked at each washout against the row fold of
    the per-row logs: the estimator's own at the last washout, the
    reducer's on the drawn blocks at the others.  Returns, per block
    size, the rows stepped and the row at which the tail started (None if
    it never did), which every consumer must share.
    """
    w, w_in, u, y0, transfer, direction = ref.case
    washout = ref.washouts[-1]
    estimates = (
        lambda: renormalized_scalar_batch(w, w_in, u, transfer, washout=washout, y0=y0,
                                          direction=direction),
        lambda: derivative_product_scalar_batch(w, w_in, u, transfer, washout=washout, y0=y0))
    rate, drawn = analysis._rate, []
    monkeypatch.setattr(analysis, "_rate", lambda blocks, *args: rate(
        (drawn.append(block) or block for block in blocks), *args))

    def same(estimate, fold):
        return all(a.tobytes() == b.tobytes() for a, b in zip(estimate, fold))

    found = {}
    for size in cells or block_sizes(ref.lane_w.size):
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", size)
        events.clear()
        blocks = analysis._lane_blocks(ref.lane_w, ref.lane_w_in, ref.rows, ref.start, transfer,
                                       lambda drive, s: np.hstack([s[:-1], s[1:]]))
        assert (expanded(blocks, ref.steps).tobytes()
                == np.hstack([ref.before, ref.states]).tobytes())
        lanes = [n for kind, n in events if kind == "eval"]  # the consumer evaluates nothing
        assert lanes == stepped_lanes(ref.closes, ref.steps, size)
        tails = {tail_start(events)}
        for logs, folds, estimate in zip(ref.logs, ref.folds, estimates):
            events.clear()
            drawn.clear()
            assert same(estimate(), folds[-1])
            assert expanded(drawn, ref.steps).tobytes() == logs.tobytes()
            tails.add(tail_start(events))
            for other, fold in zip(ref.washouts[:-1], folds):
                assert same(rate(iter(drawn), ref.steps, other), fold)
        (tail,) = tails  # one closure row for every consumer
        found[size] = len(lanes), tail
    return found


class EngineCase(NamedTuple):
    """One row of the engine table: input kind, gain signs, lanes, transfer variant and direction.

    The gains are ``w = -alpha`` (``"negative"``) or ``+alpha`` on every
    other lane from lane 0 (``"mixed"``), with ``alpha`` in [0.3, 0.8]
    and ``w_in = 1 - alpha*tanh(1)``; the transfer is the (-1, 1) anchor
    pair.  ``direction`` is the renormalized companion's restart sign.
    """

    kind: str
    signs: str
    m: int
    variant: Variant
    direction: float

    def args(self):
        """``(w, w_in, u, y0, transfer, direction)`` of :func:`lane_references`."""
        rng = rng_stream(1000 * INPUT_KINDS.index(self.kind) + self.m, 23)
        alphas = rng.uniform(0.3, 0.8, self.m)
        w = -alphas if self.signs == "negative" else alphas * (-1.0) ** np.arange(self.m)
        y0 = -TANH1 if self.kind == "iid" else rng.uniform(-1.0, 1.0, self.m)
        return (w, 1.0 - alphas * TANH1, engine_input(self.kind, self.m, rng), y0,
                MorphableTransfer((-1.0, 1.0), self.variant), self.direction)


def engine_input(kind: str, m: int, rng):
    """``T`` input rows of a kind of :data:`INPUT_KINDS`, one column per lane for ``"per-lane"``."""
    u = generate(alternating(T, 1.0))
    if kind == "constant":
        u = generate(constant(T, 0.7))
    elif kind == "iid":
        u = generate(iid_plus_minus(T, 1.0, seed=int(rng.integers(2**31))))
    elif kind == "prefix":  # random, then alternating
        u[:37] = rng.standard_normal(37)
    elif kind == "per-lane":
        u = u[:, None] * rng.uniform(0.5, 1.5, m)
    return u


#: The engine table is the cases of the ids of ``TestCycleReplay.test_matches_per_row_loop``
#: and ``TestLogCycleTail.test_matches_per_row_loops``, each the product of its axes.
#: ``TestCycleReplay``'s lane counts: float blocks well below the float-lane
#: crossover m* (8 and 9 were its two sides when m* was 8), and both sides of m*.
REPLAY_WIDTHS = (1, 5, 8, 9, analysis._FLOAT_LANES, analysis._FLOAT_LANES + 1)
#: The lane counts and kinds of ``TestLogCycleTail``'s cases.  ``"mixed signs"`` is
#: mixed gains on constant input at odd m and on alternating input at even m.
TAIL_WIDTHS = (1, 4, 7)
TAIL_KINDS = ("constant", "alternating", "mixed signs", "prefix", "per-lane")
SIGNS = ("negative", "mixed")
DIRECTIONS = (1.0, -1.0)


def replay_case(m: int, kind: str, variant: Variant):
    """The engine case of ``TestCycleReplay``'s id ``[m-kind-variant]``.

    The axes that the id leaves free vary with it: the gain signs with
    the parity of ``m`` and the variant, the direction from -1 at m* on.
    So each input kind meets both signs and both directions, and mixed
    signs meet iid input.
    """
    return EngineCase(kind, SIGNS[(m + list(Variant).index(variant)) % 2], m, variant,
                      DIRECTIONS[m >= analysis._FLOAT_LANES])


def tail_case(direction: float, m: int, kind: str):
    """The engine case of ``TestLogCycleTail``'s id ``[direction-m-kind]``; the variant
    varies with the parity of ``m`` and the direction."""
    variant = list(Variant)[(m + DIRECTIONS.index(direction)) % 2]
    if kind == "mixed signs":
        return EngineCase("constant" if m % 2 else "alternating", "mixed", m, variant, direction)
    return EngineCase(kind, "negative", m, variant, direction)


@cache
def case_references(case: EngineCase):
    """:func:`lane_references` of a table case, computed once per session."""
    return lane_references(*case.args())


def check_case(monkeypatch, events, case: EngineCase, ref=None):
    """:func:`check_lane_engine` on a table case: at every block size the
    cycle closes and ends the run in the tail, unless the input is iid and
    every row is stepped."""
    found = check_lane_engine(monkeypatch, events, ref or case_references(case))
    for stepped, tail in found.values():
        assert (stepped == T) == (tail is None) == (case.kind == "iid")


def plateau_level_case():
    """The plateau transfer, its upper flat piece ``[d1, a1]`` and the level ``eval`` holds there."""
    transfer = MorphableTransfer((-1.0, 1.0), Variant.PLATEAU)
    d1, a1 = transfer.kinks[2:4]
    return transfer, d1, a1, transfer.eval(0.5 * (d1 + a1))


def forgetting_lanes(m):
    """The default forgetting pair (alpha = 1, on and 1e-3 off the orbit) and ``m - 2`` others."""
    rng = rng_stream(m, 31)
    alphas = np.concatenate([[1.0, 1.0], rng.uniform(0.3, 0.8, m - 2)])
    orbit = float(anchored_orbit_state()[0])
    y0 = np.concatenate([[orbit, orbit + 1e-3], rng.uniform(-1.0, 1.0, m - 2)])
    return -alphas, 1.0 - alphas * TANH1, y0, MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)


class TestCycleReplay:
    """A reference recurrence that closes an exact 2-cycle fills the rest of the run with the per-row bytes."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("m", REPLAY_WIDTHS)
    def test_matches_per_row_loop(self, monkeypatch, engine_events, variant, kind, m):
        check_case(monkeypatch, engine_events, replay_case(m, kind, variant))

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_wide_batch_matches_per_row_loop(self, monkeypatch, engine_events, kind):
        # WIDE lanes at blocks of 1 and 2 rows, as 4,097 and 2,800 lanes get
        # on the default cap (TestLogCycleTail.test_tail_starts_on_one_row_blocks).
        case = replay_case(WIDE, kind, list(Variant)[INPUT_KINDS.index(kind) % 2])
        check_case(monkeypatch, engine_events, case, lane_references(*case.args()))

    def test_random_anchors_match_per_row_loop(self, monkeypatch, engine_events):
        rng = rng_stream(4, 23)
        for variant in Variant:
            transfer = MorphableTransfer(random_ecp_list(rng), variant)
            w, w_in = rng.uniform(-1.3, 1.3, 4), rng.uniform(-1.0, 1.0, 4)
            for kind in ("constant", "alternating", "prefix", "per-lane"):
                u = engine_input(kind, 4, rng)
                check_lane_engine(monkeypatch, engine_events,
                                  lane_references(w, w_in, u, 0.25, transfer),
                                  cells=(ODD_ROWS * 4, analysis._BLOCK_CELLS))

    def test_no_replay_once_the_input_stops_repeating(self, monkeypatch, engine_events):
        # On the expected orbit the state repeats from the first rows of
        # the alternating prefix, but the input turns iid at row 700.
        alphas = np.array([0.5, 1.0, 1.2])
        u = generate(alternating(T, 1.0))
        u[700:] = generate(iid_plus_minus(T - 700, 1.0, seed=4))
        ref = lane_references(-alphas, 1.0 - alphas * TANH1, u, -TANH1,
                              MorphableTransfer((-1.0, 1.0), Variant.BRIDGE))
        assert np.array_equal(ref.states[2], ref.states[0])
        found = check_lane_engine(monkeypatch, engine_events, ref)
        assert list(found.values()) == [(T, None)] * 3

    def test_signed_zero_breaks_the_input_period(self, monkeypatch, engine_events):
        # 0.0 == -0.0, but tanh keeps the sign: the state after row 900 is
        # -0.0, and the input is 2-periodic only from row 901 on.  The
        # states after rows 902 and 900 differ in their sign bit, so the
        # cycle closes after row 903.
        u = np.zeros(T)
        u[900] = -0.0
        ref = lane_references(np.array([-0.5]), 1.0, u, 0.0, TanhTransfer())
        assert np.signbit(ref.states[900, 0]) and not np.signbit(ref.states[899:902:2, 0]).any()
        assert check_lane_engine(monkeypatch, engine_events, ref, cells=(1,)) == {1: (904, 906)}

    def test_cycle_closes_across_one_row_blocks(self, monkeypatch, engine_events):
        # s[1] == s[-1]: the 2-cycle closes after row 1.
        w, w_in, start = analysis._lanes(-1.0, 1.0 - TANH1, -TANH1)
        transfer = MorphableTransfer((-1.0, 1.0), Variant.BRIDGE)
        ref = lane_references(w, w_in, generate(alternating(T, 1.0)), start, transfer)
        assert check_lane_engine(monkeypatch, engine_events, ref, cells=(1,)) == {1: (2, 4)}
        # Runs that end as it closes, one row later and two rows later.
        for steps in (2, 3, 4):
            u = analysis._run_rows(alternating(steps, 1.0), w, w_in, start)
            blocks = analysis._lane_blocks(w, w_in, u, start, transfer, lambda d, s: s[1:])
            expected = per_row_states(w, w_in, u, start, transfer)
            assert expanded(blocks, steps).tobytes() == expected.tobytes()

    def test_fixed_point_closes_as_a_2_cycle(self, monkeypatch, engine_events):
        # A fixed point is a 2-cycle: at 1-row blocks the cycle closes once
        # three states are equal, the start state counting as the first.
        transfer, d1, a1, level = plateau_level_case()
        w = np.array([-0.5])
        u = np.full(T, 0.5 * (d1 + a1 + level))
        ref = lane_references(w, 1.0, u, level, transfer)
        assert np.all(ref.states == level)
        assert check_lane_engine(monkeypatch, engine_events, ref, cells=(1,)) == {1: (2, 4)}
        # From 0, the first row lands on the level too; constant from row 1.
        u = u.copy()
        u[0] = d1 + 2.5e-10
        ref = lane_references(w, 1.0, u, 0.0, transfer)
        assert np.all(ref.states == level)
        assert check_lane_engine(monkeypatch, engine_events, ref, cells=(1,)) == {1: (3, 5)}

    PAIR_KINDS = ["constant", "alternating", "iid", "prefix"]

    @pytest.mark.parametrize("start", [(0.0, 1.0), (-TANH1, TANH1), (-TANH1, -TANH1 + 1e-3)])
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_run_pair_matches_per_row_loop(self, monkeypatch, kind, start):
        u = engine_input(kind, 1, rng_stream(6, 23))
        for i, alpha in enumerate((0.5, 1.0, 1.2)):
            # The variant alternates with gain and kind: each kind, start and gain meets both.
            variant = list(Variant)[(i + self.PAIR_KINDS.index(kind)) % 2]
            res = anchored_reservoir(alpha, variant=variant)
            states = per_row_states(np.repeat(res.W[0], 2), np.ones(2), u * res.w_in[0, 0],
                                    np.array(start), res.transfers[0])
            diff = np.concatenate([[start[1] - start[0]], states[:, 1] - states[:, 0]])
            d = np.sqrt(diff * diff)
            zeros = np.flatnonzero(d == 0.0)
            if zeros.size:
                d = d[:zeros[0] + 1]
            for cells in block_sizes(2):
                monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
                series = run_pair(res, start[0], start[1], u)
                assert series.d.tobytes() == d.tobytes()
                assert series.truncated_at == (int(zeros[0]) if zeros.size else None)

    # Three reference rows stepped before the cycle closes (30 lanes: one
    # eval each; one lane: one float row each), then one companion eval
    # for each of the blocks of 1 and 2 rows and one for the two rows
    # taken from the cycle; the tail does the rest.
    @pytest.mark.parametrize("argv", [["sweep-alpha"], ["lyapunov", "--preset", "anchored"]])
    def test_default_commands_replay(self, tmp_path, eval_calls, argv):
        assert cli_main(["--out", str(tmp_path), *argv]) == 0
        assert len(eval_calls) == 6

    # Up to _FLOAT_LANES open lanes step as Python floats; more take one eval per row.
    @pytest.mark.parametrize("m", [1, 2, 8, 9, analysis._FLOAT_LANES, analysis._FLOAT_LANES + 1])
    def test_only_wide_blocks_step_through_eval(self, monkeypatch, m):
        sizes = []
        original = MorphableTransfer.eval
        monkeypatch.setattr(MorphableTransfer, "eval",
                            lambda self, x: sizes.append(np.size(x)) or original(self, x))
        w, w_in, start = analysis._lanes(-np.linspace(0.3, 0.8, m), 0.5, 0.0)
        u = analysis._run_rows(iid_plus_minus(T, 1.0, seed=8), w, w_in, start)
        for _ in analysis._lane_blocks(w, w_in, u, start, MorphableTransfer((-1.0, 1.0)),
                                       lambda drive, states: states[1:]):
            pass
        assert sizes == ([] if m <= analysis._FLOAT_LANES else [m] * T)

    def test_iid_input_steps_every_row(self, eval_calls):
        u = generate(iid_plus_minus(T, 1.0, seed=8))
        alphas = np.array([0.5, 0.9])
        renormalized_scalar_batch(-alphas, 1.0 - alphas * TANH1, u,
                                  MorphableTransfer((-1.0, 1.0)), washout=100)
        assert len(eval_calls) >= T

    @pytest.mark.parametrize("spec", [alternating(6000, 1.0), constant(6000, 1.0),
                                      constant(6000, -0.5)], ids=["alternating", "+1", "-0.5"])
    @pytest.mark.parametrize("alpha", [0.5, 1.2])
    def test_replayed_estimate_matches_stepped_oracle(self, eval_calls, spec, alpha):
        # The oracle steps through Reservoir.step and never closes a cycle.
        res = anchored_reservoir(alpha)
        renorm = lyapunov_renormalized(res, spec, washout=1000)
        assert len(eval_calls) < 200  # the tail filled the run
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


class TestLogCycleTail:
    """Once every lane has closed, rows R and R+1 from the cycle fill the rest of the run."""

    @pytest.mark.parametrize("kind", TAIL_KINDS)
    @pytest.mark.parametrize("m", TAIL_WIDTHS)
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_matches_per_row_loops(self, monkeypatch, engine_events, kind, m, direction):
        check_case(monkeypatch, engine_events, tail_case(direction, m, kind))

    def test_tail_starts_inside_the_washout(self, monkeypatch, engine_events):
        # Started on the expected orbit, the cycle closes after the blocks
        # of 1 and 2 rows, and the tail starts after two more.
        w, w_in, u, _, transfer, _ = EngineCase("alternating", "negative", 4, Variant.BRIDGE,
                                                1.0).args()
        ref = lane_references(w, w_in, u, -TANH1, transfer)
        found = check_lane_engine(monkeypatch, engine_events, ref, cells=(analysis._BLOCK_CELLS,))
        assert found == {analysis._BLOCK_CELLS: (3, 5)}  # within the washout of 100

    @pytest.mark.parametrize("kind", ["alternating", "mixed signs", "prefix"])
    def test_wide_batch(self, monkeypatch, engine_events, kind):
        case = tail_case(1.0, WIDE, kind)
        check_case(monkeypatch, engine_events, case, lane_references(*case.args()))

    def test_tail_starts_on_one_row_blocks(self, monkeypatch, engine_events):
        # The default blocks hold 2 rows of 2,800 lanes and 1 row of 4,097;
        # the wide cases run both at WIDE lanes.  At 4,097 lanes the
        # default blocks once never started a tail.
        assert analysis._BLOCK_CELLS // 2800 == 2 and analysis._BLOCK_CELLS // 4097 == 1
        case = EngineCase("alternating", "negative", 4097, Variant.BRIDGE, 1.0)
        found = check_lane_engine(monkeypatch, engine_events, lane_references(*case.args()),
                                  cells=(analysis._BLOCK_CELLS,))
        assert found[analysis._BLOCK_CELLS][1] is not None

    def test_iid_input_never_starts_a_tail(self, monkeypatch, engine_events):
        w, w_in, _, y0, transfer, _ = EngineCase("alternating", "negative", 4, Variant.BRIDGE,
                                                 1.0).args()
        u = generate(iid_plus_minus(T, 1.0, seed=8))
        found = check_lane_engine(monkeypatch, engine_events,
                                  lane_references(w, w_in, u, y0, transfer),
                                  cells=(analysis._BLOCK_CELLS,))
        assert found == {analysis._BLOCK_CELLS: (T, None)}

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_restarting_lanes_start_the_tail(self, monkeypatch, engine_events, direction):
        # Started at 0, the alpha = 1.2 lane lands on the plateau's flat
        # pieces: its separation is exactly 0 at every row, and its
        # companion restarts in the tail's two rows.
        alphas = np.array([0.3, 0.7, 1.2])
        ref = lane_references(-alphas, 1.0 - alphas * TANH1, generate(alternating(T, 1.0)), 0.0,
                              MorphableTransfer((-1.0, 1.0), Variant.PLATEAU), direction)
        for _, tail in check_lane_engine(monkeypatch, engine_events, ref).values():
            assert tail is not None

    def test_tail_takes_two_rows_from_the_cycle(self, monkeypatch, engine_events):
        # The state alternates between the plateau level (rows 0, 2, ...)
        # and about tanh(1) (rows 1, 3, ...), and the input is 2-periodic from
        # row 1, so the cycle closes after row 2: R = 3.  The companion's
        # offset is + at row 2 and - at row 4, from the restart at row 2.
        # Row 0 leaves the plateau below its left edge and rows 1 and 3 lie
        # on a slope, so the map of rows R-2 and R is the identity; at rows
        # R-1 and R+1 the linear response sits just inside the right edge,
        # so the + offset stays on the level (log -inf) and restarts at +
        # and the - offset leaves it: the map of rows R+-1 is the constant
        # +.  So row R+1's log is finite and row R-1's is not: a tail from
        # rows R-1 and R would copy -inf into every row R+1, R+3, ...
        transfer, d1, a1, level = plateau_level_case()
        w = np.array([-0.5])
        u = np.empty(T)
        u[0] = d1 + 2.5e-10
        u[1::2] = 1.0 + 0.5 * level
        v = transfer.eval(w * level + u[1])
        u[2::2] = a1 - 2.5e-10 + 0.5 * v
        ref = lane_references(w, 1.0, u, 0.0, transfer)
        assert np.all(ref.states[0::2] == level) and np.all(ref.states[1::2] == v)
        logs = ref.logs[0]
        assert np.isneginf(logs[2]) and np.isfinite(logs[[0, 1, 3, 4]]).all()
        assert set(check_lane_engine(monkeypatch, engine_events, ref).values()) == {(3, 5)}


class TestPerLaneClosure:
    """A lane that has closed its 2-cycle is filled from it while the open lanes are stepped on.

    ``check_lane_engine`` pins every block size to the per-row loops, and
    the lane-rows stepped to the rows at which the lanes close.
    """

    def test_lanes_close_at_different_rows(self, monkeypatch, engine_events):
        # The reference of the forgetting pair closes at once, its twin
        # decays by a power law and never closes, the others in between.
        w, w_in, y0, transfer = forgetting_lanes(5)
        ref = lane_references(w, w_in, generate(alternating(T, 1.0)), y0, transfer)
        check_lane_engine(monkeypatch, engine_events, ref)
        assert ref.closes[:2] == [2, math.inf]
        assert len(set(ref.closes[2:])) == 3 and max(ref.closes[2:]) < T

    def test_per_lane_input_turns_periodic_at_different_rows(self, monkeypatch, engine_events):
        rng = rng_stream(5, 31)
        alphas = rng.uniform(0.3, 0.8, 4)
        u = generate(alternating(T, 1.0))[:, None] * rng.uniform(0.5, 1.5, 4)
        for lane, prefix in enumerate((0, 37, 200, 555)):
            u[:prefix, lane] = rng.standard_normal(prefix)
        assert analysis._period_start(u).tolist() == [0, 37, 200, 555]
        ref = lane_references(-alphas, 1.0 - alphas * TANH1, u, 0.0,
                              MorphableTransfer((-1.0, 1.0), Variant.BRIDGE))
        check_lane_engine(monkeypatch, engine_events, ref)
        closes = ref.closes
        assert closes == sorted(closes) and all(c > p for c, p in zip(closes, (0, 37, 200, 555)))
        assert closes[-1] < T

    def test_held_lane_waits_for_its_own_input_period(self, monkeypatch, engine_events):
        # Lane 1 sits on the plateau level while its input varies inside
        # the flat piece, so its state repeats from the start; its input
        # turns 2-periodic only at row 300, when it leaves the plateau.
        # Lane 0's input is 2-periodic from row 0.
        transfer, d1, a1, level = plateau_level_case()
        rng = rng_stream(7, 31)
        u = np.column_stack([generate(alternating(T, 1.0))] * 2)
        u[:300, 1] = rng.uniform(d1, a1, 300) + 0.5 * level
        ref = lane_references(np.array([-0.5, -0.5]), 1.0, u, level, transfer)
        assert np.all(ref.states[:300, 1] == level) and ref.states[300, 1] != level
        check_lane_engine(monkeypatch, engine_events, ref)
        assert ref.closes[1] > 300

    @pytest.mark.parametrize("steps", [1, 2])
    def test_inputs_of_fewer_than_3_rows(self, steps):
        w, w_in, y0, transfer = forgetting_lanes(3)
        lane_w, lane_w_in, start = analysis._lanes(w, w_in, y0)
        for u in (generate(alternating(steps, 1.0)), np.ones((steps, 3))):
            rows = analysis._run_rows(u, lane_w, lane_w_in, start)
            assert not analysis._period_start(rows).any()
            blocks = analysis._lane_blocks(lane_w, lane_w_in, rows, start, transfer,
                                           lambda drive, states: states[1:])
            expected = per_row_states(w, w_in, u, y0, transfer)
            assert expanded(blocks, steps).tobytes() == expected.tobytes()

    def test_default_forgetting_pair_steps_only_its_twin(self, tmp_path, monkeypatch):
        # The reference lane sits on the orbit: it is stepped in the blocks
        # of 1 and 2 rows, then filled from its cycle; the twin is stepped
        # for all 100,000 rows.
        lane_rows, float_rows = [], analysis._float_rows

        def counted_rows(step, w, y, drive):
            lane_rows.append(drive.size)
            return float_rows(step, w, y, drive)

        monkeypatch.setattr(analysis, "_float_rows", counted_rows)
        assert cli_main(["--out", str(tmp_path), "forgetting", "--input", "alternating"]) == 0
        assert sum(lane_rows) == 100_000 + 3


    def test_float_path_starts_mid_run(self, monkeypatch, engine_events):
        # m* + 1 lanes step through eval until the first closures leave at
        # most m* open; those step as floats from then on.
        m = analysis._FLOAT_LANES + 1
        floats, float_rows = [], analysis._float_rows
        monkeypatch.setattr(analysis, "_float_rows",
                            lambda step, w, y, drive: floats.append(w.size) or float_rows(
                                step, w, y, drive))
        w, w_in, y0, transfer = forgetting_lanes(m)
        ref = lane_references(w, w_in, generate(alternating(T, 1.0)), y0, transfer)
        check_lane_engine(monkeypatch, engine_events, ref)  # pins each row's lanes
        for cells in block_sizes(m):
            lanes = stepped_lanes(ref.closes, ref.steps, cells)
            wide = lanes.index(next(n for n in lanes if n < m))
            assert wide > 0 and set(lanes[:wide]) == {m}
            assert all(n <= analysis._FLOAT_LANES for n in lanes[wide:]) and lanes[-1] == 1
        assert floats and max(floats) <= analysis._FLOAT_LANES


class TestBlockedEngine:
    """The keep/flip/set sign scan of ``_renormalized_rows`` against the per-step loop."""

    def _plateau_case(self):
        alphas = np.array([0.3, 0.7, 1.0, 1.2])
        transfer = MorphableTransfer((-1.0, 1.0), Variant.PLATEAU)
        u = generate(iid_plus_minus(1500, 1.0, seed=9))
        return -alphas, 1.0 - alphas * TANH1, u, transfer

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(list(Variant)),
           kind=st.sampled_from(["alternating", "iid", "iid washout"]),
           rows=st.integers(1, 400), direction=st.sampled_from([1.0, -1.0]),
           gain=st.sampled_from([1.3, 40.0]), zero=st.booleans())
    def test_matches_per_step_loop(self, seed, variant, kind, rows, direction, gain, zero):
        rng = rng_stream(seed, 17)
        transfer = MorphableTransfer(random_ecp_list(rng), variant)
        m = 5
        # Mixed signs; gains up to 40 saturate, so on most rows both
        # companions give one next sign, as a zero gain's restarts do.
        w = rng.uniform(-gain, gain, m)
        if zero:
            w[0] = 0.0
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

    def test_a_restart_ends_an_odd_block(self):
        # A plateau iid case of the table restarts its companion at a row
        # that ends a block of ODD_ROWS rows, so the next block starts from
        # a restart.  These cases also run mixed-sign gains under iid input.
        cases = [replay_case(m, "iid", Variant.PLATEAU) for m in REPLAY_WIDTHS]
        restarts = [np.flatnonzero(np.isneginf(case_references(case).logs[0]).any(axis=1))
                    for case in cases]
        assert any(np.any(rows % ODD_ROWS == ODD_ROWS - 1) for rows in restarts)
        assert {case.signs for case in cases} == set(SIGNS)

    class NegTanh:
        """``-tanh``: a decreasing transfer, so with w > 0 every nonzero separation flips sign."""

        def eval(self, x):
            return -np.tanh(x)

        def _eval_float(self, x):
            return -float(np.tanh(x))

    @pytest.mark.parametrize("m", [5, analysis._FLOAT_LANES, analysis._FLOAT_LANES + 4])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_decreasing_transfer_matches_per_step_loop(self, engine_events, m, direction):
        # Only the closed-cycle tail needs a nondecreasing transfer, and iid
        # input never closes a cycle, so the engine steps every row.
        w, w_in, u = np.linspace(0.3, 1.2, m), 0.7, generate(iid_plus_minus(1300, 1.0, seed=4))
        transfer = self.NegTanh()
        lam, err = renormalized_scalar_batch(w, w_in, u, transfer, washout=300, y0=0.2,
                                             direction=direction)
        assert tail_start(engine_events) is None
        logs = per_step_renormalized(w, w_in, u, transfer, 1e-9, 0.2, direction)
        ref_lam, ref_err, _ = row_fold_rate(iter(logs), len(u), 300)
        assert lam.tobytes() == ref_lam.tobytes()
        assert err.tobytes() == ref_err.tobytes()

    @pytest.mark.parametrize("case", ["plateau", "wide"])
    def test_one_companion_eval_per_block(self, engine_events, case):
        if case == "plateau":
            w, w_in, u, transfer = self._plateau_case()  # restarts on iid input
        else:
            alphas = np.linspace(0.2, 1.4, analysis._FLOAT_LANES + 4)
            w, w_in, transfer = -alphas, 1.0 - alphas * TANH1, MorphableTransfer((-1.0, 1.0))
            u = np.concatenate([generate(iid_plus_minus(300, 1.0, seed=5)),
                                generate(alternating(1200, 1.0))])
        renormalized_scalar_batch(w, w_in, u, transfer, washout=300, y0=-TANH1)
        # Stepping evaluates at most m values at a time; the consumer
        # evaluates both companions of every row of its block, in one call
        # right after the block is handed over.
        m = w.size
        blocks = [i for i, (kind, _) in enumerate(engine_events) if kind == "block"]
        assert [engine_events[i + 1] for i in blocks] == [
            ("eval", 2 * engine_events[i][1] * m) for i in blocks]
        assert sum(kind == "eval" and n > m for kind, n in engine_events) == len(blocks)

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

    def test_direction_must_be_a_unit_sign(self):
        w, w_in, u, transfer = self._plateau_case()
        with pytest.raises(ValueError, match=r"direction must be \+1 or -1"):
            renormalized_scalar_batch(w, w_in, u, transfer, direction=0.5)

    def test_one_neuron_reservoirs_skip_the_stacked_path(self, monkeypatch):
        calls = recorded_advance(monkeypatch)
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
    # cumsum, WIDE row by row.
    @pytest.mark.parametrize("lanes", [None, 1, 2, 30, WIDE])
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


class TestCycleTailReduction:
    """``_rate`` reduces a closed-cycle tail bit for bit as the row fold of its expanded rows."""

    WASHOUT, EXTRA = 30, 13

    # (per, t): per even and odd; the tail starts inside the washout of
    # 30, at its end, in the middle of a batch, or at a later batch edge;
    # batches of one row; a tail from row 0 with no washout.
    CASES = [(per, t) for per in (6, 7) for t in (7, 30, 30 + 2 * per + 3, 30 + 3 * per)]
    CASES += [(1, 38), (7, 0)]

    @pytest.mark.parametrize("per,t", CASES)
    @pytest.mark.parametrize("lanes", [3, WIDE])
    @pytest.mark.parametrize("chunk", [1, 5, None])  # rows per chunk; None: the default
    def test_matches_the_row_fold(self, monkeypatch, per, t, lanes, chunk):
        washout = 0 if t == 0 else self.WASHOUT
        steps = washout + 20 * per + self.EXTRA
        if chunk is not None:  # tail chunks of chunk rows, 8 * chunk on the wide grid
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", chunk * lanes)
        rng = rng_stream(per * 1000 + t, 17)
        prefix, last = (rng.standard_normal((n, lanes)) * 10.0 ** rng.integers(-3, 4, (n, lanes))
                        for n in (t, 2))
        last[1, 0] = -math.inf  # lane 0's tail logs: every other one is log 0
        tail = analysis._CycleTail(last, t)
        rows = np.concatenate([prefix, tail.rows(t, steps)])
        ref = row_fold_rate(iter(rows), steps, washout)

        folded, fold = [], analysis._fold
        monkeypatch.setattr(analysis, "_fold", lambda acc, seg: folded.append(len(seg)) or fold(
            acc, seg))
        blocks = np.split(prefix, sorted(set(rng.integers(1, max(t, 2), 3).tolist()) - {t}))
        lam, stderr, used = _rate(iter([*blocks, tail]), steps, washout)
        assert lam.tobytes() == ref[0].tobytes() and stderr.tobytes() == ref[1].tobytes()
        assert used == ref[2] == 20 * per
        assert lam[0] == -math.inf and math.isnan(stderr[0])
        assert np.isfinite(lam[1:]).all() and np.isfinite(stderr[1:]).all()
        # The tail's rows folded: the open batch's rest, then one whole
        # batch per phase; every later batch reuses a sum.
        open_rest = (washout - t) % per if t > washout else 0
        assert sum(folded) - max(0, t - washout) == open_rest + per * (1 + per % 2)


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
        # The mean of a constant array need not be the constant, so the
        # sums of squares are rounding noise that must not set r2.
        for c, n in itertools.product((0.1, 0.3, 0.5, 0.7, 1.0, 1.131), (200, 1000, 3001)):
            fit = classify_decay(DistanceSeries(t=np.arange(n), d=np.full(n, c)))
            assert fit.law == "inconclusive"
            assert (fit.r2_loglog, fit.r2_semilog) == (0.0, 0.0), (c, n)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty distance series"):
            classify_decay(DistanceSeries(t=np.arange(0), d=np.ones(0)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="t and d must have matching shapes"):
            DistanceSeries(t=np.arange(5), d=np.ones(4))

    def test_truncation_recorded(self):
        t = np.arange(0, 100)
        d = 0.8**t
        fit = classify_decay(DistanceSeries(t=t, d=d, truncated_at=99))
        assert fit.truncated_at == 99

    def test_short_series_inconclusive(self):
        fit = classify_decay(DistanceSeries(t=np.arange(5), d=np.ones(5)))
        assert fit.law == "inconclusive"

    def test_window_starts_after_ten_transient_steps(self):
        t = np.arange(0, 400)
        series = DistanceSeries(t=t, d=(t + 1.0) ** -0.5)
        fit = classify_decay(series)
        assert fit.window == (11, 399)
        assert (fit.c_a, fit.r2_loglog) == fit_power_law(series, (11, 399))

    def test_window_ends_at_the_last_distance_above_the_floor(self):
        # 2**-40 to 2**-43 lie between 1e-13 and 1e-12; 2**-44 is below 1e-13.
        t = np.arange(0, 61)
        fit = classify_decay(DistanceSeries(t=t, d=0.5**t))
        assert fit.window == (11, 43)
        assert fit.law == "exponential" and fit.c_b == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("rate, law, lo, hi", [(0.006, "power_law", 0.02, 0.05),
                                                   (0.009, "inconclusive", 0.01, 0.02),
                                                   (0.016, "inconclusive", -0.02, -0.01),
                                                   (0.024, "exponential", -0.05, -0.02)])
    def test_r2_margin_picks_the_law(self, rate, law, lo, hi):
        # t^-1 e^(-rate t): the log-log fit's lead in r2 shrinks as the rate grows.
        t = np.arange(0, 201)
        series = DistanceSeries(t=t, d=(t + 1.0) ** -1.0 * np.exp(-rate * t))
        fit = classify_decay(series)
        margin = fit_power_law(series, (11, 200))[1] - fit_exponential(series, (11, 200))[1]
        assert lo < margin < hi
        assert fit.window == (11, 200) and fit.r2_loglog - fit.r2_semilog == margin
        assert fit.law == law


class TestLoglogBend:
    def test_exponential_bends_down(self):
        t = np.arange(1, 3000)
        assert loglog_bend(DistanceSeries(t=t, d=0.99**t)) < 0.0

    def test_power_law_is_straight(self):
        t = np.arange(1, 3000)
        assert abs(loglog_bend(DistanceSeries(t=t, d=t**-0.5))) < 1e-6

    def test_fewer_than_three_valid_points_rejected(self):
        # Step 0 and a distance at the floor are not valid points.
        series = DistanceSeries(t=[0, 1, 2, 3], d=[1.0, 0.5, 0.25, 0.0])
        with pytest.raises(ValueError, match="at least three valid points"):
            loglog_bend(series)

    def test_resampling_that_keeps_two_points_rejected(self):
        # The geometric targets between steps 1 and 1e12 step by sqrt(10),
        # so none lands on step 2: the resampling keeps only both ends.
        series = DistanceSeries(t=[1, 2, 10**12], d=[1.0, 0.5, 1e-6])
        with pytest.raises(ValueError, match="resampled series too short"):
            loglog_bend(series)

    def test_matches_the_unique_resampling(self):
        # The resampling is deduplicated without np.unique, to the same values.
        def unique_bend(series):
            valid = (series.t >= 1) & (series.d > 1e-13)
            t, d = series.t[valid].astype(float), series.d[valid]
            targets = np.unique(np.rint(10 ** np.linspace(math.log10(t[0]), math.log10(t[-1]),
                                                          25)))
            idx = np.unique(np.searchsorted(t, targets).clip(0, t.size - 1))
            x, y = np.log(t[idx]), np.log(d[idx])
            left = (y[1:-1] - y[:-2]) / (x[1:-1] - x[:-2])
            right = (y[2:] - y[1:-1]) / (x[2:] - x[1:-1])
            return float((2.0 * (right - left) / (x[2:] - x[:-2])).mean())

        rng = rng_stream(5, 17)
        for n in (3, 4, 9, 30, 200, 5000):
            t = np.cumsum(rng.integers(1, 4, n))  # gaps, so targets fall between steps
            series = DistanceSeries(t=t, d=rng.uniform(0.1, 1.0, n) * t**-0.5)
            assert loglog_bend(series) == unique_bend(series)


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
