import math

import numpy as np
import pytest

from pbrnn import core_math, raster_data as rd, recurrent_nets as rn, sampling as sp
from pbrnn.errors import ShapeError

from oracle_utils import lstm_classify, lstm_fd_gradient, max_relative_error


def zero_params(input_dim=3, hidden_dim=2, num_classes=4):
    return rn.LstmParams(
        wx=np.zeros((4, hidden_dim, input_dim)),
        wh=np.zeros((4, hidden_dim, hidden_dim)),
        b=np.zeros((4, hidden_dim)),
        wy=np.zeros((num_classes, hidden_dim)),
        by=np.zeros(num_classes),
    )


def random_params(seed, input_dim=6, hidden_dim=4, num_classes=3):
    rng = core_math.make_rng(seed)
    return rn.init_lstm_params(input_dim, hidden_dim, num_classes, rng)


def step(params, x, h_prev, c_prev):
    """One `_step_kernel` call on a batch of one: (pre, gates, c, tanh_c, h) rows."""
    out = rn._step_kernel(params, x[None, :], h_prev[None, :], c_prev[None, :])
    return tuple(a[0] for a in out)


class TestLstmStep:
    def test_all_zero_params(self):
        params = zero_params()
        _, gates, c, _, h = step(params, np.array([1.0, -2.0, 3.0]), np.zeros(2), np.zeros(2))
        hd = 2
        assert np.all(gates[:3 * hd] == 0.5)          # i, f, o = sigmoid(0)
        assert np.all(gates[3 * hd:] == 0.0)          # g = tanh(0)
        assert np.all(c == 0.0)
        assert np.all(h == 0.0)

    def test_zero_input_preactivations_bitwise(self):
        # with zero biases, a zero input leaves exactly the recurrent terms
        params = random_params(3)
        h_prev = core_math.make_rng(9).normal(size=4)
        preact, *_ = step(params, np.zeros(6), h_prev, np.zeros(4))
        wh_flat = params.wh.reshape(16, 4)
        reference = (h_prev[None, :] @ wh_flat.T)[0]
        assert np.array_equal(preact, reference)

    def test_scalar_hand_computation(self):
        params = rn.LstmParams(
            wx=np.ones((4, 1, 1)), wh=np.zeros((4, 1, 1)), b=np.zeros((4, 1)),
            wy=np.ones((2, 1)), by=np.zeros(2))
        _, gates, cell, _, hidden = step(params, np.array([1.0]), np.zeros(1), np.zeros(1))
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        g = math.tanh(1.0)
        c = sig1 * g
        h = sig1 * math.tanh(c)
        assert gates[:3] == pytest.approx([sig1] * 3, abs=1e-15)
        assert gates[3] == pytest.approx(g, abs=1e-15)
        assert cell[0] == pytest.approx(c, abs=1e-15)
        assert hidden[0] == pytest.approx(h, abs=1e-15)
        # frozen oracle values: c = sigmoid(1)*tanh(1), h = sigmoid(1)*tanh(c)
        assert cell[0] == pytest.approx(0.5567699411459397, abs=1e-12)
        assert hidden[0] == pytest.approx(0.3696063529357058, abs=1e-12)

    def test_gate_ranges_random(self):
        for seed in range(5):
            params = random_params(seed)
            rng = core_math.make_rng(100 + seed)
            h_prev, c_prev = rng.normal(size=4), rng.normal(size=4)
            _, gates, _, _, h = step(params, rng.normal(size=6) * 3, h_prev, c_prev)
            hd = 4
            assert np.all((gates[:3 * hd] > 0) & (gates[:3 * hd] < 1))
            assert np.all((gates[3 * hd:] > -1) & (gates[3 * hd:] < 1))
            assert np.all(np.abs(h) <= 1.0)

    def test_dimension_mismatch(self):
        # a one-step batch whose input width differs from the parameters'
        with pytest.raises(ShapeError):
            rn.forward_batch(zero_params(), np.zeros((1, 1, 5)))


class TestForwardSequence:
    def test_single_step_equals_composition(self):
        params = random_params(11)
        rng = core_math.make_rng(12)
        x = rng.normal(size=(1, 6))
        trace = rn.forward_sequence(params, x)
        *_, h = step(params, x[0], np.zeros(4), np.zeros(4))
        logits = h[None, :] @ params.wy.T + params.by
        probs = core_math.softmax(logits, axis=1)
        assert np.array_equal(trace.hidden[0, 0], h)
        assert np.array_equal(trace.logits, logits)
        assert np.array_equal(trace.probs, probs)

    def test_zero_inputs_zero_biases_closed_form(self):
        # zero-input recurrence from h0=c0=0 stays at zero, so logits = by
        params = random_params(21)
        params.by = np.array([0.3, -0.1, 0.9])
        trace = rn.forward_sequence(params, np.zeros((7, 6)))
        assert np.all(trace.hidden == 0.0)
        assert np.all(trace.cell == 0.0)
        assert np.array_equal(trace.logits[0], params.by)
        probs = rn.forward_probs(params, np.zeros((1, 7, 6)))[0]
        assert int(np.argmax(probs)) == int(np.argmax(params.by))

    def test_order_sensitivity(self):
        params = random_params(31)
        rng = core_math.make_rng(32)
        xs = rng.normal(size=(5, 6))
        base = rn.forward_sequence(params, xs).hidden[-1, 0]
        swapped = xs.copy()
        swapped[[1, 3]] = swapped[[3, 1]]
        perm = rn.forward_sequence(params, swapped).hidden[-1, 0]
        assert not np.allclose(base, perm)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rn.forward_sequence(random_params(1), np.zeros((4, 5)))

    def test_batch_matches_single(self):
        params = random_params(41)
        rng = core_math.make_rng(42)
        xs = rng.normal(size=(3, 5, 6))
        batch = rn.forward_batch(params, xs)
        for i in range(3):
            single = rn.forward_sequence(params, xs[i])
            assert np.allclose(batch.probs[i], single.probs[0], rtol=1e-12, atol=1e-14)


class TestForwardProbs:
    @pytest.mark.parametrize("batch", [1, 7, 1029])
    def test_bitwise_equal_to_traced_forward(self, batch):
        params = random_params(51, input_dim=12, hidden_dim=5, num_classes=4)
        params.b[:] = core_math.make_rng(52).normal(size=params.b.shape)
        rng = core_math.make_rng(53)
        xs = rng.normal(size=(batch, 9, 12))
        xs[:, ::3] = 0.0                           # every sample masked at steps 0, 3, 6
        xs[rng.random((batch, 9)) < 0.2] = 0.0     # plus scattered masked steps
        probs = rn.forward_probs(params, xs)
        expected = rn.forward_batch(params, xs).probs
        assert probs.shape == (batch, 4)
        assert np.array_equal(probs.view(np.int64), expected.view(np.int64))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            rn.forward_probs(zero_params(), np.zeros((2, 3, 5)))
        with pytest.raises(ShapeError):
            rn.forward_probs(zero_params(), np.zeros((3, 3)))

    def test_classify_map_independent_of_batch_size(self, small_site):
        _, paths = small_site
        series = rd.load_series(paths.manifest)
        cfg = sp.SamplerConfig(seq_len=6)
        params = rn.init_lstm_params(cfg.input_dim, 6, 8, core_math.make_rng(61))
        # 32-row blocks of 38 interior columns: 1216 pixels, more than one 1024-batch
        maps = [sp.classify_map(series, cfg, params, batch_size=b).labels for b in (4096, 1024)]
        assert np.array_equal(maps[0], maps[1])
        assert len(np.unique(maps[0])) > 2


class TestCrossEntropy:
    def test_certain_prediction(self):
        p = np.zeros(4)
        p[2] = 1.0
        assert rn.cross_entropy_loss(p, 2) == 0.0

    def test_uniform_eight_classes(self):
        assert rn.cross_entropy_loss(np.full(8, 0.125), 5) == pytest.approx(math.log(8), abs=1e-12)

    def test_quarter_probability(self):
        p = np.array([0.25, 0.75])
        assert rn.cross_entropy_loss(p, 0) == pytest.approx(math.log(4), abs=1e-12)

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            rn.cross_entropy_loss(np.array([0.5, 0.5]), 2)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            rn.cross_entropy_loss(np.array([0.7, 0.7]), 0)


class TestBackward:
    def test_matches_finite_differences(self):
        # the independent oracle for BPTT, on a hidden=4 / input=6 / N=5 instance
        params = random_params(101)
        rng = core_math.make_rng(102)
        xs = rng.normal(size=(5, 6))
        xs[2] = 0.0  # include a zeroed (cloud-like) datum in the checked path
        label = 1
        trace = rn.forward_sequence(params, xs)
        analytic = rn.backward_sequence(params, trace, label).to_flat()
        numeric = lstm_fd_gradient(params, xs, label, eps=1e-5)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_zero_input_steps_still_reach_recurrent_weights(self):
        params = random_params(111)
        rng = core_math.make_rng(112)
        xs = rng.normal(size=(4, 6))
        xs[1:3] = 0.0
        trace = rn.forward_sequence(params, xs)
        grads = rn.backward_sequence(params, trace, 0)
        assert np.any(grads.wh != 0.0)

    def test_saturated_softmax_gradient_vanishes(self):
        params = zero_params(input_dim=3, hidden_dim=2, num_classes=4)
        params.by = np.array([60.0, 0.0, 0.0, 0.0])  # logit margin >= 50
        xs = np.zeros((2, 3))
        trace = rn.forward_sequence(params, xs)
        assert rn.cross_entropy_loss(trace.probs[0], 0) == pytest.approx(0.0, abs=1e-12)
        grads = rn.backward_sequence(params, trace, 0)
        assert np.all(np.abs(grads.wy[0]) < 1e-18)

    def test_duplicated_sample_doubles_accumulated_gradient(self):
        params = random_params(121)
        rng = core_math.make_rng(122)
        xs = rng.normal(size=(1, 4, 6))
        single = rn.backward_batch(params, rn.forward_batch(params, xs), np.array([2])).to_flat()
        doubled = rn.backward_batch(
            params, rn.forward_batch(params, np.concatenate([xs, xs])), np.array([2, 2])
        ).to_flat()
        assert np.allclose(doubled, 2.0 * single, rtol=1e-12, atol=1e-15)


def trace_bytes(trace):
    return [a.tobytes() for a in vars(trace).values()]


class TestOutArguments:
    """forward_batch and backward_batch write into the arrays they are given
    with the bytes of a fresh call."""

    def test_reused_trace_and_gradients_match_fresh_calls(self):
        params = random_params(151)
        params.b[:] = core_math.make_rng(152).normal(size=params.b.shape)
        rng = core_math.make_rng(153)
        first, second = rng.normal(size=(2, 5, 4, 6))
        labels = np.array([0, 2, 1, 2, 0])
        trace = rn.forward_batch(params, first)
        grads = rn.backward_batch(params, trace, labels)
        arrays = [id(a) for record in (trace, grads) for a in vars(record).values()]
        for xs in (second, first):  # the second pass reuses arrays that held other values
            fresh = rn.forward_batch(params, xs)
            assert rn.forward_batch(params, xs, out=trace) is trace
            assert trace_bytes(trace) == trace_bytes(fresh)
            expected = rn.backward_batch(params, fresh, labels[::-1]).to_flat()
            assert rn.backward_batch(params, trace, labels[::-1], out=grads) is grads
            assert grads.to_flat().tobytes() == expected.tobytes()
        assert [id(a) for record in (trace, grads) for a in vars(record).values()] == arrays

    def test_a_trace_of_another_shape_is_not_written_into(self):
        params = random_params(154)
        rng = core_math.make_rng(155)
        full = rn.forward_batch(params, rng.normal(size=(5, 4, 6)))
        before = trace_bytes(full)
        for xs in (rng.normal(size=(3, 4, 6)), rng.normal(size=(5, 2, 6))):
            partial = rn.forward_batch(params, xs, out=full)
            assert partial is not full
            assert trace_bytes(partial) == trace_bytes(rn.forward_batch(params, xs))
            assert trace_bytes(full) == before


class TestClassify:
    def test_zero_params_tie_breaks_to_class_zero(self):
        probs = rn.forward_probs(zero_params(), np.zeros((1, 3, 3)))[0]
        assert int(np.argmax(probs)) == 0
        assert probs == pytest.approx([0.25] * 4, abs=1e-15)

    def test_probabilities_sum_to_one(self):
        params = random_params(131)
        probs = rn.forward_probs(params, core_math.make_rng(132).normal(size=(1, 5, 6)))[0]
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_forward_probs_match_the_oracle(self):
        params = random_params(133)
        params.b[:] = core_math.make_rng(134).normal(size=params.b.shape)
        xs = core_math.make_rng(135).normal(size=(6, 5, 6))
        batch = rn.forward_probs(params, xs)
        for i in range(6):
            cls, probs = lstm_classify(params, xs[i])
            assert batch[i] == pytest.approx(probs, abs=1e-12)
            assert cls == int(np.argmax(batch[i]))


class TestFlatRoundTrip:
    def test_to_from_flat(self):
        params = random_params(141)
        params.b[:] = core_math.make_rng(142).normal(size=params.b.shape)
        flat = params.to_flat()
        back = rn.LstmParams.from_flat(flat, 6, 4, 3)
        assert np.array_equal(back.to_flat(), flat)
        assert np.array_equal(back.wx, params.wx)
        assert np.array_equal(back.wh, params.wh)
        assert np.array_equal(back.b, params.b)
        assert np.array_equal(back.wy, params.wy)
        assert np.array_equal(back.by, params.by)

    def test_wrong_size_rejected(self):
        with pytest.raises(ShapeError):
            rn.LstmParams.from_flat(np.zeros(10), 6, 4, 3)

    def test_checkpoint_order_interleaves_the_gate_blocks(self):
        params = random_params(143)
        params.b[:] = core_math.make_rng(144).normal(size=params.b.shape)
        parts = [a for g in range(4) for a in (params.wx[g].ravel(), params.wh[g].ravel(),
                                                params.b[g])]
        expected = np.concatenate(parts + [params.wy.ravel(), params.by])
        assert params.to_flat().tobytes() == expected.tobytes()
