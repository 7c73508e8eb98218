import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pbrnn import core_math
from pbrnn.errors import ShapeError


def per_sign_sigmoid(v):
    """The per-sign gather/scatter evaluation, kept as the bit-exact reference."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


# signed zeros, subnormal, tiny, exp-overflow and saturating magnitudes,
# infinities, and NaNs of both signs, one with a payload
EDGE_VALUES = np.concatenate([
    [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 709.0, -709.0, 745.2, -745.2,
     800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan],
    np.array([0x7FF8000000000123, 0xFFF8000000000001], dtype=np.uint64).view(np.float64),
])


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestSigmoid:
    def test_bit_identical_to_per_sign_on_edge_values(self):
        assert same_bits(core_math.sigmoid(EDGE_VALUES), per_sign_sigmoid(EDGE_VALUES))
        grid = EDGE_VALUES[:, None] * np.array([1.0, -0.5, 3.0])
        assert same_bits(core_math.sigmoid(grid), per_sign_sigmoid(grid))
        for v in EDGE_VALUES:
            assert same_bits(core_math.sigmoid(v), per_sign_sigmoid(v))

    def test_bit_identical_to_per_sign_on_random_bit_patterns(self):
        bits = core_math.make_rng(5).integers(0, 2 ** 64, size=500_000, dtype=np.uint64)
        v = bits.view(np.float64)  # every exponent, NaNs with random payloads included
        assert same_bits(core_math.sigmoid(v), per_sign_sigmoid(v))
        subnormal = (bits & np.uint64(0x800FFFFFFFFFFFFF)).view(np.float64)  # exponent 0
        assert same_bits(core_math.sigmoid(subnormal), per_sign_sigmoid(subnormal))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_bit_identical_to_per_sign(self, v):
        assert same_bits(core_math.sigmoid(v), per_sign_sigmoid(v))

    def test_symmetry_point(self):
        assert core_math.sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation(self):
        assert core_math.sigmoid(np.array([1e3]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_oracle(self):
        got = core_math.sigmoid(np.array([-1.0, 1.0]))
        expected = [1 / (1 + math.exp(1)), 1 / (1 + math.exp(-1))]
        assert got == pytest.approx(expected, abs=1e-15)

    @given(arrays(np.float64, st.integers(1, 64), elements=st.floats(-1e6, 1e6)))
    def test_finite_and_bounded(self, v):
        out = core_math.sigmoid(v)
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestSoftmax:
    def test_symmetry(self):
        assert core_math.softmax(np.array([0.0, 0.0])) == pytest.approx([0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-5.0, 0.0, 17.3):
            out = core_math.softmax(np.array([c, c, c]))
            assert out == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_scalar_oracle(self):
        e = [math.exp(x) for x in (1.0, 2.0, 3.0)]
        expected = [x / sum(e) for x in e]
        assert core_math.softmax(np.array([1.0, 2.0, 3.0])) == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            core_math.softmax(np.array([]))

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, st.integers(1, 1024), elements=st.floats(-700, 700)))
    def test_sums_to_one_and_preserves_argmax(self, v):
        out = core_math.softmax(v)
        assert abs(out.sum() - 1.0) <= 1e-12
        # order preservation: the input argmax position attains the output max
        assert out[np.argmax(v)] == out.max()
