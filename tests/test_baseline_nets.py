import math

import numpy as np
import pytest

from pbrnn import baseline_nets as bn, core_math
from pbrnn.errors import ShapeError

from oracle_utils import ffn_fd_gradient, fuse_classify, max_relative_error


def tiny_ffn(activation="sigmoid"):
    """Hand-sized 2-2-2 network with unit weights and zero biases."""
    return bn.FfnParams(w1=np.ones((2, 2)), b1=np.zeros(2),
                        w2=np.ones((2, 2)), b2=np.zeros(2), activation=activation)


def forward_one(params, x):
    """One input's probability vector, through the batched forward pass."""
    _, probs = bn.ffn_forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])
    return probs[0]


class TestFfnForward:
    def test_zero_params_uniform_output(self):
        params = bn.FfnParams(w1=np.zeros((4, 3)), b1=np.zeros(4),
                              w2=np.zeros((5, 4)), b2=np.zeros(5))
        probs = forward_one(params, np.array([1.0, -2.0, 0.5]))
        assert probs == pytest.approx([0.2] * 5, abs=1e-15)

    def test_output_sums_to_one(self):
        rng = core_math.make_rng(1)
        params = bn.init_ffn_params(8, 8, rng)
        probs = forward_one(params, rng.normal(size=8))
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_hand_computation_2_2_2(self):
        # hidden pre = x1 + x2 for both units; sigmoid; both logits equal -> uniform
        params = tiny_ffn()
        x = np.array([0.5, -0.25])
        hidden = 1.0 / (1.0 + math.exp(-(0.5 - 0.25)))
        probs = forward_one(params, x)
        assert probs == pytest.approx([0.5, 0.5], abs=1e-15)
        # break the symmetry and check against the scalar chain by hand
        params.w2 = np.array([[1.0, 0.0], [0.0, 2.0]])
        logit0, logit1 = hidden, 2.0 * hidden
        e0, e1 = math.exp(logit0 - logit1), 1.0
        expected = [e0 / (e0 + e1), e1 / (e0 + e1)]
        assert forward_one(params, x) == pytest.approx(expected, abs=1e-14)

    def test_tanh_activation(self):
        params = tiny_ffn(activation="tanh")
        x = np.array([0.3, 0.1])
        hidden = math.tanh(0.4)
        params.w2 = np.array([[1.0, 0.0], [0.0, 0.0]])
        probs = forward_one(params, x)
        e0 = math.exp(hidden)
        assert probs[0] == pytest.approx(e0 / (e0 + 1.0), abs=1e-14)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            forward_one(tiny_ffn(), np.zeros(3))

    def test_gradient_matches_finite_differences(self):
        rng = core_math.make_rng(9)
        params = bn.init_ffn_params(5, 3, rng, hidden_dim=7)
        x = rng.normal(size=5)
        analytic = bn.ffn_gradient(params, x, 2).to_flat()
        numeric = ffn_fd_gradient(params, x, 2)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_patch_weights_replicating_pixel_weights(self):
        # constant 3x3 patch + pixel weights divided over the 9 positions
        # reproduces the pixel-mode prediction
        rng = core_math.make_rng(11)
        pixel = bn.init_ffn_params(8, 8, rng, hidden_dim=16)
        patch = bn.FfnParams(w1=np.tile(pixel.w1 / 9.0, (1, 9)), b1=pixel.b1.copy(),
                             w2=pixel.w2.copy(), b2=pixel.b2.copy())
        pixel_vec = rng.normal(size=8)
        patch_vec = np.tile(pixel_vec, 9)
        assert forward_one(patch, patch_vec) == pytest.approx(
            forward_one(pixel, pixel_vec), abs=1e-12)


class TestFusion:
    def make_ensemble(self, seed=3, n=4):
        rng = core_math.make_rng(seed)
        members = [bn.init_ffn_params(4, 3, rng, hidden_dim=6) for _ in range(n)]
        return bn.FusionEnsemble(members=members)

    def test_hand_arithmetic(self):
        probs = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5], [0.5, 0.5]])
        fused = bn.fuse_probabilities(probs)
        assert fused == pytest.approx([0.18 / 0.46, 0.28 / 0.46], abs=1e-12)
        assert fused == pytest.approx([0.3913, 0.6087], abs=5e-5)
        assert int(np.argmax(fused)) == 1

    def test_identical_members_sharpen(self):
        p = np.array([0.5, 0.3, 0.2])
        fused = bn.fuse_probabilities(np.tile(p, (4, 1)))
        expected = p ** 4 / np.sum(p ** 4)
        assert fused == pytest.approx(expected, abs=1e-12)
        assert int(np.argmax(fused)) == 0

    def test_zero_probability_annihilates(self):
        probs = np.array([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        fused = bn.fuse_probabilities(probs)
        assert fused[0] == 0.0
        assert fused[1] == 1.0

    def test_order_invariance(self):
        rng = core_math.make_rng(5)
        raw = rng.uniform(0.05, 1.0, size=(4, 6))
        probs = raw / raw.sum(axis=1, keepdims=True)
        fused = bn.fuse_probabilities(probs)
        shuffled = bn.fuse_probabilities(probs[[2, 0, 3, 1]])
        assert fused == pytest.approx(shuffled, abs=1e-15)

    def test_log_domain_equals_direct_product(self):
        rng = core_math.make_rng(6)
        for _ in range(50):
            raw = rng.uniform(1e-6, 1.0, size=(4, 8))
            probs = raw / raw.sum(axis=1, keepdims=True)
            direct = np.prod(probs, axis=0)
            direct = direct / direct.sum()
            assert np.max(np.abs(bn.fuse_probabilities(probs) - direct)) < 1e-10

    def test_fuse_classify_input_count(self):
        ensemble = self.make_ensemble()
        with pytest.raises(ShapeError):
            bn.fuse_classify_batch(ensemble, np.zeros((1, 3, 4)))

    def test_fuse_classify_batch_matches_single(self):
        ensemble = self.make_ensemble()
        rng = core_math.make_rng(7)
        xs = rng.normal(size=(5, 4, 4))
        batch = bn.fuse_classify_batch(ensemble, xs)
        for i in range(5):
            cls, fused = fuse_classify(ensemble, list(xs[i]))
            assert batch[i] == pytest.approx(fused, abs=1e-12)
            assert cls == int(np.argmax(batch[i]))

    def test_member_dim_mismatch_rejected(self):
        rng = core_math.make_rng(8)
        members = [bn.init_ffn_params(4, 3, rng, hidden_dim=6),
                   bn.init_ffn_params(5, 3, rng, hidden_dim=6)]
        with pytest.raises(ShapeError):
            bn.FusionEnsemble(members=members)


class TestFfnFlatRoundTrip:
    def test_round_trip(self):
        rng = core_math.make_rng(10)
        params = bn.init_ffn_params(6, 4, rng, hidden_dim=9, activation="tanh")
        flat = bn.ffn_to_flat(params)
        back = bn.ffn_from_flat(flat, 6, 9, 4, activation="tanh")
        assert np.array_equal(bn.ffn_to_flat(back), flat)
        assert back.activation == "tanh"
        flat[-1] = 7.0  # the arrays are views of flat
        assert back.b2[-1] == 7.0

    def test_wrong_size(self):
        with pytest.raises(ShapeError):
            bn.ffn_from_flat(np.zeros(7), 6, 9, 4)
