import numpy as np
import pytest

from xaimeta.dataio import synth_blobs
from xaimeta.errors import TrainingDivergedError
from xaimeta.net import (
    Layer,
    Net,
    accuracy,
    dense,
    get_weights,
    init_net,
    input_gradient_batch,
    logits_batch,
    make_net,
    predict_labels,
    set_weights,
    softmax,
    train_tiny,
)


def random_net(rng, input_dim=None, hidden=None, num_classes=None):
    input_dim = input_dim or int(rng.integers(2, 8))
    hidden = hidden or int(rng.integers(2, 10))
    num_classes = num_classes or int(rng.integers(2, 5))
    return make_net(
        [
            dense(rng.normal(size=(hidden, input_dim)), rng.normal(size=hidden)),
            dense(rng.normal(size=(num_classes, hidden)), rng.normal(size=num_classes)),
        ]
    )


def row_logits(net, x):
    return logits_batch(net, np.asarray(x, dtype=float)[None, :])[0]


def row_gradient(net, x, class_index):
    return input_gradient_batch(net, np.asarray(x, dtype=float)[None, :], class_index)[0]


def finite_difference_gradient(net, x, class_index, h=1e-4):
    """Central differences of the class logit, the independent oracle."""
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (row_logits(net, hi)[class_index] - row_logits(net, lo)[class_index]) / (2 * h)
    return g


class TestForward:
    def test_identity_single_layer(self):
        net = make_net([dense(np.eye(2), np.zeros(2))])
        assert row_logits(net, [1.0, 2.0]).tolist() == [1.0, 2.0]
        assert predict_labels(net, np.array([[1.0, 2.0]])).tolist() == [1]

    def test_symmetric_logits_give_half_probs(self):
        net = make_net([dense(np.zeros((2, 2)), np.zeros(2))])
        assert softmax(row_logits(net, [3.0, -1.0])).tolist() == [0.5, 0.5]

    def test_two_layer_hand_composition(self):
        # W1 = [[1,0],[0,-1]], relu, W2 = [[1,1]] on x = [2,3]:
        # hidden = [2, 0], logit = 2 ... single logit net needs >= 1 class;
        # use a 2-logit variant with second row zero to keep argmax defined
        net = make_net(
            [
                dense([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0]),
                dense([[1.0, 1.0], [0.0, 0.0]], [0.0, 0.0]),
            ]
        )
        assert row_logits(net, [2.0, 3.0])[0] == 2.0
        assert predict_labels(net, np.array([[2.0, 3.0]])).tolist() == [0]

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            net = random_net(rng)
            x = rng.normal(size=net.input_dim) * 10
            logits = row_logits(net, x)
            probs = softmax(logits)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert (probs > 0).all()
            assert predict_labels(net, x[None, :])[0] == int(np.argmax(logits))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(2)
        net = random_net(rng)
        x = rng.normal(size=net.input_dim)
        a = row_logits(net, x)
        b = row_logits(net, x)
        assert np.array_equal(a, b)
        assert np.array_equal(softmax(a), softmax(b))

    def test_shape_mismatch_raises(self):
        net = make_net([dense(np.eye(2), np.zeros(2))])
        with pytest.raises(ValueError):
            logits_batch(net, np.array([[1.0, 2.0, 3.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_raise(self, bad):
        net = make_net([dense(np.eye(2), np.zeros(2))])
        X = np.array([[1.0, 2.0], [bad, 0.0]])
        for call in (
            lambda: logits_batch(net, X),
            lambda: predict_labels(net, X),
            lambda: input_gradient_batch(net, X, 0),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_bad_chaining_rejected(self):
        with pytest.raises(ValueError):
            make_net(
                [
                    dense(np.eye(2), np.zeros(2)),
                    dense(np.zeros((2, 3)), np.zeros(2)),
                ]
            )


class TestInputGradient:
    def test_linear_model_gradient_is_weight_row(self):
        W = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, 1.0]])
        net = make_net([dense(W, np.zeros(2))])
        g = row_gradient(net, [0.3, 0.4, 0.5], 1)
        assert np.array_equal(g, W[1])

    def test_dead_relu_blocks_gradient(self):
        # first unit sees a strictly negative pre-activation
        net = make_net(
            [
                dense([[1.0, 0.0], [0.0, 1.0]], [-10.0, 0.0]),
                dense([[1.0, 1.0], [0.0, 0.0]], [0.0, 0.0]),
            ]
        )
        g = row_gradient(net, [1.0, 2.0], 0)
        assert g[0] == 0.0
        assert g[1] == 1.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            net = random_net(rng)
            x = rng.normal(size=net.input_dim)
            c = int(rng.integers(net.num_classes))
            g = row_gradient(net, x, c)
            g_fd = finite_difference_gradient(net, x, c)
            scale = max(np.linalg.norm(g_fd), 1e-8)
            if np.linalg.norm(g_fd) < 1e-6:
                continue  # skip fully dead paths, relative error meaningless
            assert np.linalg.norm(g - g_fd) / scale <= 1e-4
            checked += 1

    def test_a_rows_gradient_does_not_depend_on_its_batch(self):
        rng = np.random.default_rng(43)
        net = random_net(rng, input_dim=64, hidden=24, num_classes=6)
        X = rng.uniform(size=(40, 64))
        classes = rng.integers(0, 6, size=40)
        full = input_gradient_batch(net, X, classes)
        for rows in (1, 2, 3, 5, 17):
            for start in (0, 7, 23):
                block = slice(start, start + rows)
                assert np.array_equal(input_gradient_batch(net, X[block], classes[block]), full[block])

    def test_class_out_of_range(self):
        net = make_net([dense(np.eye(2), np.zeros(2))])
        with pytest.raises(IndexError):
            row_gradient(net, [1.0, 1.0], 2)
        for classes in (0.5, np.array([1.0, 0.5])):
            with pytest.raises(IndexError, match="not a whole number"):
                input_gradient_batch(net, np.ones((2, 2)), classes)


class TestWeightVector:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        w = get_weights(net)
        net2 = set_weights(net, w)
        assert np.array_equal(get_weights(net2), w)
        for a, b in zip(net.layers, net2.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_zero_vector_gives_constant_zero_logits(self):
        rng = np.random.default_rng(4)
        net = random_net(rng)
        net0 = set_weights(net, np.zeros_like(get_weights(net)))
        for _ in range(5):
            x = rng.normal(size=net.input_dim)
            assert np.array_equal(row_logits(net0, x), np.zeros(net.num_classes))

    def test_unit_scale_preserves_predictions(self):
        rng = np.random.default_rng(5)
        net = random_net(rng)
        net1 = set_weights(net, get_weights(net) * 1.0)
        x = rng.normal(size=net.input_dim)
        assert predict_labels(net, x[None, :])[0] == predict_labels(net1, x[None, :])[0]

    def test_non_finite_parameters_rejected(self):
        net = make_net([dense(np.eye(2), np.zeros(2))])
        for bad in (np.nan, np.inf):
            w = get_weights(net)
            w[0] = bad
            with pytest.raises(ValueError, match="finite"):
                set_weights(net, w)

    def test_length_mismatch(self):
        rng = np.random.default_rng(6)
        net = random_net(rng)
        with pytest.raises(ValueError):
            set_weights(net, np.zeros(get_weights(net).size + 1))


def pre_activations(net, X):
    """Each dense layer's output on the (rows, in) matrix, with a relu
    applied to every output but the last before it feeds the next layer."""
    outputs = []
    A = np.asarray(X, dtype=float)
    for layer in net.layers:
        outputs.append(A @ layer.weights.T + layer.bias)
        A = np.maximum(outputs[-1], 0.0)
    return outputs


def plain_logits(net, X):
    """The forward pass written out layer by layer: the last dense output."""
    return pre_activations(net, X)[-1]


def plain_gradient(net, X, classes):
    """The backward pass written out layer by layer: through each dense
    layer, then through the relu below it wherever its input was positive."""
    outputs = pre_activations(net, X)
    G = np.zeros((len(X), net.num_classes))
    G[np.arange(len(X)), classes] = 1.0
    for i in range(len(net.layers) - 1, -1, -1):
        G = G @ net.layers[i].weights
        if i:
            G = G * (outputs[i - 1] > 0.0)
    return G


class TestPlainReference:
    """A net's passes, byte for byte against the layer-by-layer reference."""

    @pytest.mark.parametrize("rows", [1, 2, 9, 64])
    def test_passes_keep_the_plain_bytes(self, rows):
        rng = np.random.default_rng(50 + rows)
        net = random_net(rng, input_dim=6, hidden=9, num_classes=4)
        X = rng.uniform(-1.0, 1.0, size=(rows, 6))
        classes = rng.integers(0, 4, size=rows)
        assert np.array_equal(logits_batch(net, X), plain_logits(net, X))
        grads = input_gradient_batch(net, X, classes)
        if rows == 1:
            # a lone row is back-propagated as two copies of itself
            expected = plain_gradient(net, np.repeat(X, 2, axis=0), np.repeat(classes, 2))[:1]
        else:
            expected = plain_gradient(net, X, classes)
        assert np.array_equal(grads, expected)

    def test_a_relu_sits_between_every_two_dense_layers(self):
        rng = np.random.default_rng(60)
        dims = [6, 9, 5, 7, 4]
        net = make_net(
            [dense(rng.normal(size=(o, i)), rng.normal(size=o)) for i, o in zip(dims, dims[1:])]
        )
        X = rng.uniform(-1.0, 1.0, size=(9, 6))
        classes = rng.integers(0, 4, size=9)
        assert np.array_equal(logits_batch(net, X), plain_logits(net, X))
        assert np.array_equal(input_gradient_batch(net, X, classes), plain_gradient(net, X, classes))

    def test_dense_rejects_stacked_weights(self):
        with pytest.raises(ValueError, match="weights \\(out, in\\)"):
            dense(np.zeros((2, 3, 4)), np.zeros((2, 3)))


def separable_blobs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    n_half = n // 2
    a = rng.normal(loc=(0.25, 0.25), scale=0.04, size=(n_half, 2))
    b = rng.normal(loc=(0.75, 0.75), scale=0.04, size=(n - n_half, 2))
    X = np.clip(np.vstack([a, b]), 0.0, 1.0)
    y = np.array([0] * n_half + [1] * (n - n_half))
    return X, y


def logistic_regression_oracle(X, y, epochs=300, lr=0.5):
    """From-scratch logistic regression, the independent training oracle."""
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        g = p - y
        w -= lr * (X.T @ g) / len(y)
        b -= lr * g.mean()
    return np.mean((X @ w + b > 0).astype(int) == y)


class TestTrainTiny:
    def test_blobs_reach_oracle_accuracy(self):
        X, y = separable_blobs()
        assert logistic_regression_oracle(X, y) >= 0.95
        net = train_tiny((8,), X, y, epochs=20, seed=7)
        assert accuracy(net, X, y) >= 0.95

    def test_zero_epochs_returns_initialized_net(self):
        X, y = separable_blobs(50, seed=1)
        net0 = init_net(2, (8,), 2, seed=9)
        net = train_tiny((8,), X, y, epochs=0, seed=9)
        assert np.array_equal(get_weights(net), get_weights(net0))

    def test_same_seed_bitwise_identical(self):
        X, y = separable_blobs(80, seed=2)
        net_a = train_tiny((4,), X, y, epochs=5, seed=11)
        net_b = train_tiny((4,), X, y, epochs=5, seed=11)
        assert np.array_equal(get_weights(net_a), get_weights(net_b))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_tiny((4,), np.zeros((0, 2)), np.zeros(0, dtype=int), epochs=1, seed=0)


def plain_softmax(logits):
    """Softmax written out of place, one new array per step."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_train(hidden, X, y, epochs, seed, learning_rate, momentum, batch_size):
    """The momentum-SGD trainer written out of place: new layers, velocities
    and index copies every step, each layer's input gradient taken through
    the weights of before the step.  The in-place trainer must match its
    bytes."""
    net = init_net(X.shape[1], tuple(hidden), max(int(y.max()) + 1, 2), seed)
    rng = np.random.default_rng(seed + 1)
    layers = list(net.layers)
    velocity = [(np.zeros_like(layer.weights), np.zeros_like(layer.bias)) for layer in layers]
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = X[idx], y[idx]
            acts = [xb]
            A = xb
            for i, layer in enumerate(layers):
                if i:
                    A = np.maximum(A, 0.0)
                    acts.append(A)
                A = A @ layer.weights.T + layer.bias
            G = plain_softmax(A)
            G[np.arange(len(yb)), yb] -= 1.0
            G /= len(yb)
            for i in range(len(layers) - 1, -1, -1):
                layer = layers[i]
                grad_W = G.T @ acts[i]
                grad_b = G.sum(axis=0)
                G = G @ layer.weights
                if i:
                    G = G * (acts[i] > 0.0)
                v_W = momentum * velocity[i][0] - learning_rate * grad_W
                v_b = momentum * velocity[i][1] - learning_rate * grad_b
                velocity[i] = (v_W, v_b)
                layers[i] = Layer(layer.weights + v_W, layer.bias + v_b)
    return Net(tuple(layers))


class TestTrainerOracle:
    """The trainer and the shared forward pass keep the bytes of their
    out-of-place forms: same operations, same operands, same order."""

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 5)])
    @pytest.mark.parametrize("batch_size", [1, 3, 30])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_weights_equal_the_out_of_place_trainer(self, hidden, batch_size, momentum):
        data = synth_blobs(n=25, d=7, classes=3, seed=4)
        args = (hidden, data.inputs, data.labels, 3, 13)
        kwargs = dict(learning_rate=0.05, momentum=momentum, batch_size=batch_size)
        got = get_weights(train_tiny(*args, **kwargs))
        expected = get_weights(reference_train(*args, **kwargs))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 16, 100])
    def test_forward_bytes_equal_the_out_of_place_forms(self, rows):
        rng = np.random.default_rng(rows)
        dims = [7, 9, 5, 4]
        net = make_net(
            [dense(rng.normal(size=(o, i)), rng.normal(size=o)) for i, o in zip(dims, dims[1:])]
        )
        X = rng.normal(size=(rows, 7)) * 3
        logits = logits_batch(net, X)
        assert logits.tobytes() == plain_logits(net, X).tobytes()
        before = logits.copy()
        probs = softmax(logits)
        assert probs.tobytes() == plain_softmax(logits).tobytes()
        assert logits.tobytes() == before.tobytes()  # softmax leaves its input alone


class TestTrainTinyArguments:
    def data(self):
        return separable_blobs(40, seed=3)

    def test_divergence_raises_training_diverged_alone(self):
        data = synth_blobs(n=32, d=8, classes=3, seed=1)
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            train_tiny((8,), data.inputs, data.labels, epochs=2, seed=0, learning_rate=1e300)

    @pytest.mark.parametrize(
        "name, value",
        [("epochs", -1), ("batch_size", 0), ("learning_rate", -0.5), ("momentum", 1.5)],
    )
    def test_argument_out_of_range_is_named(self, name, value):
        X, y = self.data()
        kwargs = {"epochs": 1, "seed": 0, name: value}
        with pytest.raises(ValueError, match=name):
            train_tiny((4,), X, y, **kwargs)

    def test_nan_input_rejected(self):
        X, y = self.data()
        X[5, 1] = np.nan
        with pytest.raises(ValueError, match="inputs must be finite"):
            train_tiny((4,), X, y, epochs=1, seed=0)

    def test_fractional_label_rejected(self):
        X, y = self.data()
        labels = y.astype(float)
        labels[3] = 1.5
        with pytest.raises(ValueError, match="labels must be integers"):
            train_tiny((4,), X, labels, epochs=1, seed=0)
