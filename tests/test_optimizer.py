import numpy as np
import pytest

from pbrnn import baseline_nets as bn, core_math, optimizer, recurrent_nets as rn
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


def flat_reference_train(model, xs, labels, cfg):
    """The flat training loop the in-place one replaced: flatten, one ADAM
    step over the flat vector, unflatten, with frozen LSTM gate biases masked
    out of the flat gradient."""
    dims = (model.input_dim, model.hidden_dim, model.num_classes)
    mask = None
    if isinstance(model, rn.LstmParams):
        to_flat = model.to_flat

        def from_flat(flat):
            return rn.LstmParams.from_flat(flat, *dims, train_biases=model.train_biases)

        def batch_step(params, xb, yb):
            trace = rn.forward_batch(params, xb)
            return (rn.batch_losses(trace.probs, yb),
                    rn.backward_batch(params, trace, yb).to_flat())

        if not model.train_biases:
            mask = np.ones(model.to_flat().size)
            d, h = model.input_dim, model.hidden_dim
            for g in range(4):
                start = g * (h * d + h * h + h) + h * d + h * h
                mask[start:start + h] = 0.0
    else:
        def to_flat():
            return bn.ffn_to_flat(model)

        def from_flat(flat):
            return bn.ffn_from_flat(flat, *dims, activation=model.activation)

        def batch_step(params, xb, yb):
            hidden, probs = bn.ffn_forward_batch(params, xb[:, 0, :])
            grads = bn.ffn_backward_batch(params, xb[:, 0, :], hidden, probs, yb)
            return rn.batch_losses(probs, yb), grads.to_flat()

    rng = core_math.make_rng(cfg.shuffle_seed)
    flat = to_flat()
    m, v, step = np.zeros(flat.size), np.zeros(flat.size), 0
    params = from_flat(flat)
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(labels))
        total = 0.0
        for start in range(0, len(labels), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            losses, grad = batch_step(params, xs[batch], labels[batch])
            total += float(losses.sum())
            grad /= batch.size
            if mask is not None:
                grad *= mask
            step += 1
            m = optimizer.ADAM_BETA1 * m + (1.0 - optimizer.ADAM_BETA1) * grad
            v = optimizer.ADAM_BETA2 * v + (1.0 - optimizer.ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - optimizer.ADAM_BETA1 ** step)
            v_hat = v / (1.0 - optimizer.ADAM_BETA2 ** step)
            flat = flat - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + optimizer.ADAM_EPSILON)
            params = from_flat(flat)
        epoch_losses.append(total / len(labels))
    return params, epoch_losses


def param_bytes(model):
    flat = model.to_flat() if isinstance(model, rn.LstmParams) else bn.ffn_to_flat(model)
    return flat.tobytes()


def equivalence_case(kind):
    """A production-width model (3x3 patches of 8 bands, 8 classes) and data."""
    rng = core_math.make_rng(21)
    if kind.startswith("lstm"):
        xs = rng.normal(size=(150, 5, 72))
        model = rn.init_lstm_params(72, 32, 8, core_math.make_rng(22),
                                    train_biases=kind == "lstm-biases")
    else:
        xs = rng.normal(size=(150, 1, 72))
        model = bn.init_ffn_params(72, 8, core_math.make_rng(22),
                                   activation=kind.split("-")[1])
    labels = rng.integers(0, 8, size=150)
    cfg = optimizer.TrainConfig(batch_size=32, epochs=3, shuffle_seed=23, log_every=0,
                                learning_rate=0.01)
    return model, xs, labels, cfg


@pytest.mark.parametrize("kind", ["lstm-biases", "lstm-frozen", "ffn-sigmoid", "ffn-tanh"])
def test_in_place_training_matches_the_flat_loop_bitwise(kind):
    model, xs, labels, cfg = equivalence_case(kind)
    expected_params, expected_losses = flat_reference_train(model, xs, labels, cfg)
    result = optimizer.train_arrays(model, xs, labels, cfg)
    assert result.epoch_losses == expected_losses
    assert param_bytes(result.params) == param_bytes(expected_params)


@pytest.mark.parametrize("kind", ["lstm-frozen", "ffn-tanh"])
def test_train_arrays_leaves_the_input_model_unchanged(kind):
    model, xs, labels, cfg = equivalence_case(kind)
    before = param_bytes(model)
    result = optimizer.train_arrays(model, xs, labels, cfg)
    assert param_bytes(model) == before
    assert param_bytes(result.params) != before


def test_an_ffn_fit_runs_adam_on_one_flat_buffer_of_its_own(monkeypatch):
    model, xs, labels, cfg = equivalence_case("ffn-sigmoid")
    shapes = []
    adam = optimizer.adam_update

    def record(state, params, grads, cfg):
        shapes.append(([p.shape for p in params], [g.shape for g in grads]))
        adam(state, params, grads, cfg)

    monkeypatch.setattr(optimizer, "adam_update", record)
    result = optimizer.train_arrays(model, xs, labels, cfg)
    flat = (bn.ffn_to_flat(model).size,)
    assert shapes == [([flat], [flat])] * (cfg.epochs * -(-len(labels) // cfg.batch_size))
    trained = [result.params.w1, result.params.b1, result.params.w2, result.params.b2]
    given = [model.w1, model.b1, model.w2, model.b2]
    assert not any(np.shares_memory(a, b) for a in trained for b in given)


class TestAdamUpdate:
    def test_zero_gradient_fresh_state_is_noop(self):
        params = np.array([0.4, -0.2, 1.0])
        before = params.copy()
        state = optimizer.AdamState.for_arrays([params])
        optimizer.adam_update(state, [params], [np.zeros(3)],
                              optimizer.TrainConfig(learning_rate=0.1))
        assert np.array_equal(params, before)
        assert state.step == 1

    def test_scalar_first_step_hand_values(self):
        # m=0.1, v=0.001, m_hat=1, v_hat=1 -> theta = -0.1/(1 + 1e-8)
        out = np.zeros(1)
        state = optimizer.AdamState.for_arrays([out])
        optimizer.adam_update(state, [out], [np.ones(1)],
                              optimizer.TrainConfig(learning_rate=0.1))
        assert out[0] == pytest.approx(-0.1 / (1.0 + 1e-8), abs=1e-15)
        assert out[0] == pytest.approx(-0.09999999, abs=1e-8)

    def test_update_magnitude_bounded(self):
        rng = core_math.make_rng(3)
        alpha = 1e-3
        cfg = optimizer.TrainConfig(learning_rate=alpha)
        params = rng.normal(size=16)
        state = optimizer.AdamState.for_arrays([params])
        for _ in range(200):
            before = params.copy()
            optimizer.adam_update(state, [params], [rng.normal(size=16)], cfg)
            assert np.all(np.abs(params - before) <= 10 * alpha)

    def test_negative_zero_gradient_entries_update_like_positive_zero_bitwise(self):
        # the backward kernels assign their products, so a gradient entry can
        # be -0.0 where adding it into zeros gave +0.0
        cfg = optimizer.TrainConfig(learning_rate=0.01)
        rng = core_math.make_rng(4)
        start = rng.normal(size=6)
        grads = [rng.normal(size=6) for _ in range(3)]
        for g in grads:
            g[::2] = 0.0  # entries 0, 2 and 4 are zero at every step
        grads[1][1] = 0.0  # entry 1 only after a non-zero step
        outcomes = []
        for zero in (0.0, -0.0):
            params = start.copy()
            state = optimizer.AdamState.for_arrays([params])
            for g in grads:
                optimizer.adam_update(state, [params], [np.where(g == 0.0, zero, g)], cfg)
            outcomes.append([a.tobytes() for a in (params, state.m[0], state.v[0])])
        assert outcomes[0] == outcomes[1]

    def test_length_mismatch(self):
        params = np.zeros(3)
        state = optimizer.AdamState.for_arrays([params])
        with pytest.raises(ShapeError):
            optimizer.adam_update(state, [params], [np.zeros(4)], optimizer.TrainConfig())
        with pytest.raises(ShapeError):
            optimizer.adam_update(state, [params], [], optimizer.TrainConfig())


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
            arrays = [params.wx, params.wh, params.b, params.wy, params.by]
            state = optimizer.AdamState.for_arrays(arrays)
            optimizer.adam_update(state, arrays,
                                  [grads.wx, grads.wh, grads.b, grads.wy, grads.by],
                                  optimizer.TrainConfig(learning_rate=1e-4))
            after = rn.sequence_loss(params, xs, label)
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
