import numpy as np
import pytest

from xaimeta.net import (
    Net,
    accuracy,
    dense,
    get_weights,
    init_net,
    input_gradient_batch,
    logits_batch,
    make_net,
    predict_labels,
    relu,
    replace_layer,
    select_members,
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
            relu(),
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
                relu(),
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
                relu(),
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


class TestWeightVector:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        w = get_weights(net)
        net2 = set_weights(net, w)
        assert np.array_equal(get_weights(net2), w)
        for a, b in zip(net.layers, net2.layers):
            if a.kind == "dense":
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


def plain_logits(net, X):
    """The 2-D forward pass of a one-member net, as it ran before the member axis."""
    A = np.asarray(X, dtype=float)
    for layer in net.layers:
        A = A @ layer.weights.T + layer.bias if layer.kind == "dense" else np.maximum(A, 0.0)
    return A


def plain_gradient(net, X, classes):
    """The 2-D backward pass of a one-member net, as it ran before the member axis."""
    acts = [np.asarray(X, dtype=float)]
    for layer in net.layers:
        A = acts[-1]
        dense_layer = layer.kind == "dense"
        acts.append(A @ layer.weights.T + layer.bias if dense_layer else np.maximum(A, 0.0))
    G = np.zeros((len(X), net.num_classes))
    G[np.arange(len(X)), classes] = 1.0
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        G = G @ layer.weights if layer.kind == "dense" else G * (acts[i] > 0.0)
    return G


def stacked_net(rng, members, stack=(0,), input_dim=5, hidden=7, num_classes=3):
    """A relu net whose dense layers listed in `stack` hold `members` members,
    plus the one-member net of each member."""
    base = random_net(rng, input_dim=input_dim, hidden=hidden, num_classes=num_classes)
    net = base
    for index in stack:
        shape = base.layers[index].weights.shape
        layer = dense(rng.normal(size=(members, *shape)), rng.normal(size=(members, shape[0])))
        net = replace_layer(net, index, layer)
    return net, [select_members(net, slice(s, s + 1)) for s in range(members)]


class TestMembers:
    @pytest.mark.parametrize("stack", [(0,), (2,), (0, 2)])
    @pytest.mark.parametrize("members,rows", [(1, 4), (3, 1), (4, 5)])
    def test_each_block_equals_its_member_alone(self, stack, members, rows):
        rng = np.random.default_rng(40 + members * rows)
        net, alone = stacked_net(rng, members, stack)
        assert net.members == members
        X = rng.uniform(-1.0, 1.0, size=(members * rows, net.input_dim))
        classes = rng.integers(0, net.num_classes, size=len(X))
        logits = logits_batch(net, X)
        grads = input_gradient_batch(net, X, classes)
        for s, member in enumerate(alone):
            block = slice(s * rows, (s + 1) * rows)
            assert np.array_equal(logits[block], logits_batch(member, X[block]))
            alone = input_gradient_batch(member, X[block], classes[block])
            assert np.array_equal(grads[block], alone)

    @pytest.mark.parametrize("rows", [1, 2, 9, 64])
    def test_one_member_nets_keep_the_plain_bytes(self, rows):
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

    def test_rows_must_split_into_the_members(self):
        net, _ = stacked_net(np.random.default_rng(60), 3)
        X = np.zeros((4, net.input_dim))
        for call in (
            lambda: logits_batch(net, X),
            lambda: predict_labels(net, X),
            lambda: input_gradient_batch(net, X, 0),
        ):
            with pytest.raises(ValueError, match="3 members"):
                call()

    def test_member_counts_must_agree(self):
        with pytest.raises(ValueError, match="member count"):
            make_net(
                [
                    dense(np.zeros((2, 3, 4)), np.zeros((2, 3))),
                    relu(),
                    dense(np.zeros((3, 2, 3)), np.zeros((3, 2))),
                ]
            )

    def test_member_bias_must_match_weights(self):
        with pytest.raises(ValueError):
            dense(np.zeros((2, 3, 4)), np.zeros(3))

    def test_select_members_slices_member_layers_only(self):
        net, _ = stacked_net(np.random.default_rng(61), 5)
        part = select_members(net, slice(1, 3))
        assert part.members == 2
        assert np.array_equal(part.layers[0].weights, net.layers[0].weights[1:3])
        assert part.layers[2] is net.layers[2]

    def test_weight_round_trip_keeps_the_members(self):
        net, _ = stacked_net(np.random.default_rng(62), 3)
        net2 = set_weights(net, get_weights(net))
        assert net2.members == 3
        assert np.array_equal(get_weights(net2), get_weights(net))

    def test_training_takes_one_member_nets_only(self):
        net, _ = stacked_net(np.random.default_rng(63), 2, input_dim=2, num_classes=2)
        X, y = separable_blobs(20)
        with pytest.raises(ValueError, match="member"):
            train_tiny(net, X, y, epochs=1, seed=0)


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
        net = train_tiny(net0, X, y, epochs=0, seed=9)
        assert np.array_equal(get_weights(net), get_weights(net0))

    def test_same_seed_bitwise_identical(self):
        X, y = separable_blobs(80, seed=2)
        net_a = train_tiny((4,), X, y, epochs=5, seed=11)
        net_b = train_tiny((4,), X, y, epochs=5, seed=11)
        assert np.array_equal(get_weights(net_a), get_weights(net_b))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_tiny((4,), np.zeros((0, 2)), np.zeros(0, dtype=int), epochs=1, seed=0)
