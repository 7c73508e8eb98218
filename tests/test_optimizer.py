import numpy as np
import pytest

from pbrnn import core_math, optimizer, recurrent_nets as rn
from pbrnn.errors import ShapeError


def make_lstm(seed=0, input_dim=2, hidden_dim=4, num_classes=2):
    return rn.init_lstm_params(input_dim, hidden_dim, num_classes, core_math.make_rng(seed))


def toy_separable_dataset(n_per_class=50, seed=5):
    """Two linearly separable clusters as single-step pixel-mode sequences."""
    rng = core_math.make_rng(seed)
    a = rng.normal(loc=(-1.5, 0.0), scale=0.3, size=(n_per_class, 2))
    b = rng.normal(loc=(1.5, 0.0), scale=0.3, size=(n_per_class, 2))
    xs = np.concatenate([a, b])[:, None, :]
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return xs, labels


class TestAdamUpdate:
    def test_zero_gradient_fresh_state_is_noop(self):
        params = np.array([0.4, -0.2, 1.0])
        state = optimizer.AdamState.for_size(3)
        out = optimizer.adam_update(state, params, np.zeros(3),
                                    optimizer.TrainConfig(learning_rate=0.1))
        assert np.array_equal(out, params)
        assert state.step == 1

    def test_scalar_first_step_hand_values(self):
        # m=0.1, v=0.001, m_hat=1, v_hat=1 -> theta = -0.1/(1 + 1e-8)
        state = optimizer.AdamState.for_size(1)
        out = optimizer.adam_update(state, np.zeros(1), np.ones(1),
                                    optimizer.TrainConfig(learning_rate=0.1))
        assert out[0] == pytest.approx(-0.1 / (1.0 + 1e-8), abs=1e-15)
        assert out[0] == pytest.approx(-0.09999999, abs=1e-8)

    def test_update_magnitude_bounded(self):
        rng = core_math.make_rng(3)
        alpha = 1e-3
        state = optimizer.AdamState.for_size(16)
        cfg = optimizer.TrainConfig(learning_rate=alpha)
        params = rng.normal(size=16)
        for _ in range(200):
            new = optimizer.adam_update(state, params, rng.normal(size=16), cfg)
            assert np.all(np.abs(new - params) <= 10 * alpha)
            params = new

    def test_length_mismatch(self):
        state = optimizer.AdamState.for_size(3)
        with pytest.raises(ShapeError):
            optimizer.adam_update(state, np.zeros(3), np.zeros(4), optimizer.TrainConfig())


class TestBatchGradientLinearity:
    def test_mean_gradient_equals_average_of_per_sample(self):
        params = make_lstm(seed=7, input_dim=3, hidden_dim=4, num_classes=3)
        rng = core_math.make_rng(8)
        xs = rng.normal(size=(6, 5, 3))
        labels = rng.integers(0, 3, size=6)
        trace = rn.forward_batch(params, xs)
        batch_mean = rn.backward_batch(params, trace, labels).to_flat() / 6.0
        per_sample = np.zeros_like(batch_mean)
        for i in range(6):
            t = rn.forward_sequence(params, xs[i])
            per_sample += rn.backward_sequence(params, t, int(labels[i])).to_flat()
        per_sample /= 6.0
        denom = np.maximum(1.0, np.abs(per_sample))
        assert np.max(np.abs(batch_mean - per_sample) / denom) < 1e-12


class TestSingleStepLossDecrease:
    def test_one_adam_step_decreases_single_sample_loss(self):
        # property, not theorem: assert the success rate over 100 random trials
        wins = 0
        for seed in range(100):
            params = make_lstm(seed=seed, input_dim=4, hidden_dim=3, num_classes=4)
            rng = core_math.make_rng(10_000 + seed)
            xs = rng.normal(size=(4, 4))
            label = int(rng.integers(0, 4))
            before = rn.sequence_loss(params, xs, label)
            trace = rn.forward_sequence(params, xs)
            grads = rn.backward_sequence(params, trace, label)
            state = optimizer.AdamState.for_size(params.to_flat().size)
            new_flat = optimizer.adam_update(state, params.to_flat(), grads.to_flat(),
                                             optimizer.TrainConfig(learning_rate=1e-4))
            new_params = rn.LstmParams.from_flat(new_flat, 4, 3, 4)
            after = rn.sequence_loss(new_params, xs, label)
            if after < before:
                wins += 1
        assert wins >= 95


class TestTrain:
    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            optimizer.train_arrays(make_lstm(), np.empty((0, 1, 2)), np.empty(0),
                                   optimizer.TrainConfig())

    def test_rejects_zero_epochs(self):
        xs, labels = toy_separable_dataset()
        with pytest.raises(ValueError):
            optimizer.train_arrays(make_lstm(), xs, labels,
                                   optimizer.TrainConfig(epochs=0))

    def test_toy_separable_reaches_99_percent(self):
        xs, labels = toy_separable_dataset()
        cfg = optimizer.TrainConfig(batch_size=16, epochs=60, shuffle_seed=1, log_every=0,
                                    learning_rate=0.01)
        result = optimizer.train_arrays(make_lstm(seed=2), xs, labels, cfg)
        probs = rn.forward_batch(result.params, xs).probs
        accuracy = float(np.mean(np.argmax(probs, axis=1) == labels))
        assert accuracy >= 0.99
        assert len(result.epoch_losses) == 60

    def test_deterministic_loss_history(self):
        xs, labels = toy_separable_dataset()
        cfg = optimizer.TrainConfig(batch_size=16, epochs=5, shuffle_seed=3, log_every=0,
                                    learning_rate=0.01)
        r1 = optimizer.train_arrays(make_lstm(seed=2), xs, labels, cfg)
        r2 = optimizer.train_arrays(make_lstm(seed=2), xs, labels, cfg)
        assert r1.epoch_losses == r2.epoch_losses
        assert np.array_equal(r1.params.to_flat(), r2.params.to_flat())

    def test_loss_halves_on_easy_data(self):
        xs, labels = toy_separable_dataset()
        cfg = optimizer.TrainConfig(batch_size=16, epochs=40, shuffle_seed=4, log_every=0,
                                    learning_rate=0.01)
        result = optimizer.train_arrays(make_lstm(seed=6), xs, labels, cfg)
        smoothed = np.convolve(result.epoch_losses, np.ones(5) / 5, mode="valid")
        assert smoothed[-1] < 0.5 * smoothed[0]
        # smoothed curve may flicker slightly but must not climb
        assert np.all(np.diff(smoothed) < 0.02 * smoothed[0])

    def test_non_finite_loss_names_the_epoch(self):
        xs, labels = toy_separable_dataset()
        xs[3, 0, 0] = np.inf
        cfg = optimizer.TrainConfig(batch_size=16, epochs=3, shuffle_seed=1, log_every=0)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="epoch 1"):
            optimizer.train_arrays(make_lstm(seed=2), xs, labels, cfg)

    def test_loss_history_lines_format(self):
        text = optimizer.loss_history_lines([0.5, 0.25])
        assert text.splitlines() == ["1 0.5", "2 0.25"]
