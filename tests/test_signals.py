import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critical_esn.signals import (
    KINDS,
    InputSequence,
    alternating,
    constant,
    generate,
    iid_plus_minus,
    rng_stream,
    scaled,
)


class TestAlternating:
    def test_expected_values(self):
        assert generate(alternating(4, 1.0)).tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_sign_flip_identity(self):
        u = generate(alternating(101, 0.7))
        assert np.array_equal(u[1:], -u[:-1])

    def test_first_element_is_plus_amplitude(self):
        assert generate(alternating(1, 2.5))[0] == 2.5

    @pytest.mark.parametrize("amplitude", [0.0, -0.0, math.pi / 4.0, 1e-320, -1.0, 1.0, 3, 0.7])
    @pytest.mark.parametrize("length", [1, 2, 3, 7, 1001, 101000])
    def test_bytes_of_the_arange_formula(self, length, amplitude):
        # Two strided fills give the bytes of the closed form
        # amplitude * (1 - 2 * (t & 1)), signed zeros and subnormals included.
        u = generate(alternating(length, amplitude))
        expect = amplitude * (1.0 - 2.0 * (np.arange(length) & 1))
        assert u.dtype == np.float64 and u.tobytes() == expect.tobytes()


class TestScaled:
    def test_quarter_pi_amplitude(self):
        u = generate(scaled(alternating(2, math.pi / 4.0), 1.0))
        assert u.tolist() == [math.pi / 4.0, -math.pi / 4.0]

    def test_unit_scale_is_exact_identity(self):
        base = iid_plus_minus(500, 1.3, seed=5)
        assert np.array_equal(generate(scaled(base, 1.0)), generate(base))

    def test_scale_factor_applied(self):
        u = generate(scaled(constant(3, 2.0), 0.5))
        assert u.tolist() == [1.0, 1.0, 1.0]

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            scaled(constant(3, 1.0), 0.0)


_AMPLITUDES = st.one_of(st.sampled_from([0.0, -0.0, -1.0, math.pi / 4.0]),
                        st.floats(-1e3, 1e3))
_GAMMAS = st.floats(1e-3, 1e3)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["alternating", "constant", "iid"]), length=st.integers(1, 40),
       amplitude=_AMPLITUDES, seed=st.integers(0, 2**32), gamma=_GAMMAS, outer=_GAMMAS)
def test_scaled_spec_is_flat(kind, length, amplitude, seed, gamma, outer):
    # A scaled spec is its base with a scaled amplitude, and generates
    # gamma times the base's elements byte for byte, nested or not.
    spec = InputSequence(kind=kind, length=length, amplitude=amplitude, seed=seed)
    once = scaled(spec, gamma)
    assert (once.kind, once.length, once.seed) == (kind, length, seed)
    assert generate(once).tobytes() == (gamma * generate(spec)).tobytes()
    twice = scaled(once, outer)
    assert generate(twice).tobytes() == (outer * (gamma * generate(spec))).tobytes()


class TestIidPlusMinus:
    def test_deterministic_per_seed(self):
        a = generate(iid_plus_minus(1000, 1.0, seed=9))
        b = generate(iid_plus_minus(1000, 1.0, seed=9))
        assert np.array_equal(a, b)

    def test_seeds_give_distinct_streams(self):
        a = generate(iid_plus_minus(1000, 1.0, seed=1))
        b = generate(iid_plus_minus(1000, 1.0, seed=2))
        assert not np.array_equal(a, b)

    def test_values_are_plus_minus_amplitude(self):
        u = generate(iid_plus_minus(2000, 0.25, seed=3))
        assert set(np.unique(u)) == {-0.25, 0.25}

    def test_empirical_mean_fair_coin(self):
        # 4-sigma band for 1e6 fair draws is +-0.004.
        u = generate(iid_plus_minus(10**6, 1.0, seed=42))
        assert abs(u.mean()) <= 0.004


class TestConstant:
    def test_values(self):
        assert generate(constant(3, -0.5)).tolist() == [-0.5, -0.5, -0.5]


class TestKinds:
    def test_kinds_in_order(self):
        assert list(KINDS) == ["alternating", "constant", "iid"]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32])
    def test_spec_of_each_kind_is_its_factory(self, seed):
        # A spec built from (kind, length, amplitude, seed), as the CLI builds
        # it, generates its factory's bytes; only iid reads the seed.
        factories = {"alternating": lambda: alternating(37, 0.75),
                     "constant": lambda: constant(37, 0.75),
                     "iid": lambda: iid_plus_minus(37, 0.75, seed=seed)}
        assert list(factories) == list(KINDS)
        for kind, factory in factories.items():
            spec = InputSequence(kind, 37, 0.75, seed)
            assert generate(spec).tobytes() == generate(factory()).tobytes(), kind


class TestSpecValidation:
    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            alternating(0, 1.0)

    def test_nonfinite_amplitude_rejected(self):
        with pytest.raises(ValueError):
            constant(5, float("nan"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            InputSequence(kind="sawtooth", length=3)

    def test_length_has_no_default(self):
        with pytest.raises(TypeError, match="length"):
            InputSequence(kind="iid")

    def test_scaled_kind_rejected(self):
        # scaled() returns a spec of its base's kind; there is no scaled kind.
        with pytest.raises(ValueError, match="unknown input kind 'scaled'"):
            InputSequence(kind="scaled", length=3)


class TestRngStreams:
    def test_deterministic(self):
        a = rng_stream(7, 2).standard_normal(8)
        b = rng_stream(7, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = rng_stream(7, 0).standard_normal(8)
        b = rng_stream(7, 1).standard_normal(8)
        assert not np.array_equal(a, b)
