import math

import numpy as np
import pytest

from critical_esn import readout
from critical_esn.readout import ReadoutModel, predict_all, train
from critical_esn.reservoir import Reservoir, random_orthogonal
from critical_esn.signals import generate, iid_plus_minus, rng_stream
from critical_esn.transfer import MorphableTransfer, Variant


def _states(rng, rows, cols=1):
    return rng.normal(0.0, 1.0, (rows, cols))


class TestTrain:
    def test_exact_linear_map_recovered(self):
        rng = rng_stream(1, 0)
        x = _states(rng, 300)
        model = train(x, 2.0 * x[:, 0], ridge_lambda=0.0, washout=0)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
        assert model.weights[1] == pytest.approx(0.0, abs=1e-9)

    def test_constant_target_goes_to_bias(self):
        rng = rng_stream(2, 0)
        x = _states(rng, 300)
        model = train(x, np.full(300, 5.0), ridge_lambda=0.0, washout=0)
        assert model.weights[-1] == pytest.approx(5.0, abs=1e-9)
        assert model.weights[0] == pytest.approx(0.0, abs=1e-9)

    def test_one_dimensional_states_are_one_column(self):
        rng = rng_stream(4, 0)
        x = _states(rng, 300)
        y = 2.0 * x[:, 0] + 0.5
        one_d = train(x[:, 0], y, ridge_lambda=1e-8, washout=10)
        column = train(x, y, ridge_lambda=1e-8, washout=10)
        assert one_d.weights.tobytes() == column.weights.tobytes()

    def test_mismatched_lengths_rejected(self):
        rng = rng_stream(5, 0)
        with pytest.raises(ValueError, match="states and targets must have equal length"):
            train(_states(rng, 300), np.zeros(299))

    def test_washout_rows_ignored(self):
        rng = rng_stream(3, 0)
        x = _states(rng, 400)
        y = 3.0 * x[:, 0]
        y[:100] = 99.0  # garbage that must not influence the fit
        model = train(x, y, ridge_lambda=0.0, washout=100)
        assert model.weights[0] == pytest.approx(3.0, abs=1e-9)

    def test_singular_system_reported_at_zero_ridge(self):
        x = np.ones((200, 1))  # collinear with the bias column
        with pytest.raises(ValueError, match="singular"):
            train(x, np.linspace(0, 1, 200), ridge_lambda=0.0, washout=0)

    def test_ridge_resolves_singularity(self):
        x = np.ones((200, 1))
        model = train(x, np.full(200, 2.0), ridge_lambda=1e-6, washout=0)
        assert predict_all(model, [[1.0]])[0] == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        x = _states(rng_stream(4, 0), 300)
        with pytest.raises(ValueError, match="ridge_lambda must be finite and nonnegative"):
            train(x, x[:, 0], ridge_lambda=ridge, washout=0)

    def test_nan_solution_fails_the_residual_check(self):
        x = _states(rng_stream(5, 0), 300, 2)
        x[150, 1] = math.nan
        with pytest.raises(ValueError, match="residual nan"):
            train(x, x[:, 0], washout=0)

    def test_negative_washout_rejected(self):
        with pytest.raises(ValueError, match="washout must be nonnegative"):
            train(np.ones((50, 1)), np.ones(50), washout=-5)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            train(np.ones((50, 1)), np.ones(50), washout=100)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            train(np.ones((200, 1)), np.ones(200), ridge_lambda=-1.0, washout=0)


class TestRidgeProperties:
    def _data(self):
        rng = rng_stream(4, 0)
        x = rng.normal(0.0, 1.0, (500, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(0.0, 0.1, 500)
        return x, y

    def test_coefficients_shrink_with_ridge(self):
        x, y = self._data()
        norms = [
            float(np.linalg.norm(train(x, y, ridge_lambda=lam, washout=0).weights[:-1]))
            for lam in (1e-8, 1.0, 100.0)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_training_error_non_increasing_toward_zero_ridge(self):
        x, y = self._data()
        errors = []
        for lam in (100.0, 1.0, 1e-8):
            model = train(x, y, ridge_lambda=lam, washout=0)
            errors.append(float(np.mean((readout.predict_all(model, x) - y) ** 2)))
        assert errors[0] >= errors[1] >= errors[2]

    def test_fitted_values_reproduced(self):
        x, y = self._data()
        model = train(x, y, ridge_lambda=0.0, washout=0)
        direct = readout.predict_all(model, x)
        assert all(
            predict_all(model, row[None, :])[0] == pytest.approx(val, abs=1e-9)
            for row, val in zip(x[:50], direct[:50])
        )


class TestPredict:
    def test_zero_weights_return_bias(self):
        model = ReadoutModel(weights=np.array([0.0, 0.0, 7.0]), ridge_lambda=0.0, washout=0)
        assert predict_all(model, [[123.0, -5.0]])[0] == 7.0

    def test_dimension_mismatch(self):
        model = ReadoutModel(weights=np.array([1.0, 2.0]), ridge_lambda=0.0, washout=0)
        with pytest.raises(ValueError):
            predict_all(model, [[1.0, 2.0, 3.0]])

    def test_width_mismatch_names_both_widths(self):
        model = ReadoutModel(weights=np.array([1.0, 2.0, 3.0, 0.5]), ridge_lambda=0.0,
                             washout=0)
        with pytest.raises(ValueError, match=r"width 2 but the readout has k=3"):
            predict_all(model, np.ones((4, 2)))
        # One 3-state passed flat is a column of three one-neuron states.
        with pytest.raises(ValueError, match=r"width 1 but the readout has k=3"):
            predict_all(model, [0.1, 0.2, 0.3])


class TestDelayedRecall:
    def test_beats_mean_baseline_on_critical_reservoir(self):
        k, delay, length = 8, 3, 2000
        res = Reservoir(
            random_orthogonal(k, 5),
            rng_stream(5, 3).normal(0.0, 0.5, (k, 1)),
            MorphableTransfer((-1.0, 1.0), Variant.BRIDGE),
            require_orthogonal=True,
        )
        u = generate(iid_plus_minus(length, 1.0, seed=5))
        states = np.array([rec.y for rec in res.run(u)])
        xs, ys = states[delay:], u[: length - delay]
        split = int(0.7 * len(xs))
        model = train(xs[:split], ys[:split], ridge_lambda=1e-8, washout=100)
        pred = readout.predict_all(model, xs[split:])
        nrmse = float(
            np.sqrt(np.mean((pred - ys[split:]) ** 2)) / np.std(ys[split:])
        )
        assert nrmse < 1.0
