import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pbrnn import core_math
from pbrnn.errors import ShapeError


class TestSigmoid:
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
