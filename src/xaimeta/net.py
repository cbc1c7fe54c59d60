"""Minimal dense/relu inference engine.

A net is its dense layers, with a relu between consecutive ones; that rule
lives here alone, in the forward pass and the two backward passes.  Both
passes split at the first layer, the largest matrix product: `_head_logits`
and `_head_gradient` start from first-layer pre-activations, so an explainer
whose points are affine combinations of a few inputs (integrated gradients,
gradient SHAP, occlusion) combines their first-layer products instead of
pushing every point through the first layer.  `logits_batch` and
`input_gradient_batch` are these two functions behind the first layer.

Provides exactly what the benchmark needs from a model: a deterministic
forward pass with softmax prediction, analytic input gradients through the
chain rule, flat read/write access to every parameter (the weight-noise tests
scale and re-randomise them), and a tiny deterministic trainer.  Nets are
immutable once returned; every mutation-like operation returns a new value.
The trainer alone updates arrays in place: its own private weights, biases
and velocities, which it hands to the net it returns.

A one-row batch is back-propagated as two copies of itself, so a row's
input gradient does not depend on how many rows are explained with it.
"""
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError


@dataclass(frozen=True)
class Layer:
    """One dense layer."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass(frozen=True)
class Net:
    layers: tuple  # Layer, a relu between consecutive ones

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].weights.shape[0]


def dense(weights, bias) -> Layer:
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weights.ndim != 2 or bias.shape != weights.shape[:1]:
        raise ValueError("dense layer needs weights (out, in) and bias (out,)")
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError("dense layer parameters must be finite")
    return Layer(weights, bias)


def make_net(layers) -> Net:
    """Validate layer chaining and wrap into a Net."""
    layers = tuple(layers)
    if not layers:
        raise ValueError("a net needs at least one dense layer")
    for before, layer in zip(layers, layers[1:]):
        dim = before.weights.shape[0]
        if layer.weights.shape[1] != dim:
            raise ValueError(
                f"layer shapes do not chain: expected input {dim}, got {layer.weights.shape[1]}"
            )
    return Net(layers)


def _check_batch(net: Net, X) -> np.ndarray:
    """Validate a batch of inputs, a finite (M, input_dim) float matrix."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {A.shape} does not match input_dim {net.input_dim}")
    if not np.isfinite(A).all():
        raise ValueError("inputs must be finite")
    return A


def _class_indices(net: Net, class_index, rows: int) -> np.ndarray:
    """(rows,) int64 classes of one class for every row or a (rows,) array
    of per-row classes.  This is the one label rule: a class is a whole
    number in [0, num_classes), an int or a float such as 1.0; anything
    else, a fractional 1.7 included, is an IndexError."""
    given = np.broadcast_to(np.asarray(class_index), (rows,))
    # the range is checked first, so a NaN or an infinity is never cast
    if not given.size or (0 <= given.min() and given.max() < net.num_classes):
        classes = given.astype(np.int64, copy=False)
        if classes is given or (classes == given).all():
            return classes
    raise IndexError(
        f"class_index {class_index} outside [0, {net.num_classes}) or not a whole number"
    )


def _first_layer(net: Net, A) -> np.ndarray:
    """(rows, H) first-layer pre-activations of (rows, input_dim) inputs."""
    first = net.layers[0]
    Z = A @ first.weights.T
    Z += first.bias
    return Z


def _forward(layers, Z) -> list:
    """Forward pass of `layers` from the pre-activations Z of the layer
    before them: each layer's input, the relu of the pre-activation before
    it, then the last pre-activation."""
    acts = []
    for layer in layers:
        A = np.maximum(Z, 0.0)
        acts.append(A)
        Z = A @ layer.weights.T
        Z += layer.bias
    acts.append(Z)
    return acts


def _head_logits(net: Net, Z) -> np.ndarray:
    """Raw class scores of (rows, H) first-layer pre-activations."""
    return _forward(net.layers[1:], Z)[-1]


def _head_gradient(net: Net, Z, classes) -> np.ndarray:
    """d logit[classes[r]] / d Z[r] for (rows, H) first-layer pre-activations
    and (rows,) int64 classes that `_class_indices` checked.

    Relu kinks (pre-activation exactly zero) use subgradient zero.  Only the
    relu masks are needed, so the last layer's product is never formed: the
    mask of a pre-activation is the mask of its relu."""
    rows = len(Z)
    acts = _forward(net.layers[1:-1], Z)
    G = np.zeros((rows, net.num_classes))
    G[np.arange(rows), classes] = 1.0
    for i in range(len(net.layers) - 1, 0, -1):
        G = _rows_times(G, net.layers[i].weights)
        G = G * (acts[i - 1] > 0.0)  # the relu before layer i
    return G


def logits_batch(net: Net, X) -> np.ndarray:
    """Raw class scores for a batch; rows of X are inputs."""
    return _head_logits(net, _first_layer(net, _check_batch(net, X)))


def softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def predict_labels(net: Net, X) -> np.ndarray:
    return np.argmax(logits_batch(net, X), axis=1)


def input_gradient_batch(net: Net, X, class_index) -> np.ndarray:
    """d logit[class] / d input for every row of X, via the chain rule.

    `class_index` is one class for every row or a (B,) array of per-row
    classes.  Relu kinks (pre-activation exactly zero) use subgradient zero.
    """
    A = _check_batch(net, X)
    classes = _class_indices(net, class_index, A.shape[0])
    G = _head_gradient(net, _first_layer(net, A), classes)
    return _rows_times(G, net.layers[0].weights)


def _rows_times(G, weights) -> np.ndarray:
    """`G @ weights` for (m, out) rows, with each row's result independent
    of m.

    numpy hands a one-row product to BLAS gemv, which rounds differently
    from the gemm that serves two or more rows (gemm rounds every row
    alike), so a row's gradient would depend on whether it was explained
    alone.  One row is therefore multiplied as two copies of itself."""
    if len(G) != 1:
        return G @ weights
    return (np.concatenate([G, G]) @ weights)[:1]


def get_weights(net: Net) -> np.ndarray:
    """All dense parameters (weights then bias, layer by layer) as one vector."""
    return np.concatenate([p.ravel() for layer in net.layers for p in (layer.weights, layer.bias)])


def set_weights(net: Net, w) -> Net:
    """Return a new net with the flat parameter vector written back.

    The layers are rebuilt through `dense`, so non-finite parameters raise.
    """
    w = np.asarray(w, dtype=np.float64)
    expected = get_weights(net).size
    if w.shape != (expected,):
        raise ValueError(f"parameter vector has length {w.size}, expected {expected}")
    layers = []
    offset = 0
    for layer in net.layers:
        n_w = layer.weights.size
        n_b = layer.bias.size
        new_w = w[offset : offset + n_w].reshape(layer.weights.shape).copy()
        offset += n_w
        new_b = w[offset : offset + n_b].reshape(layer.bias.shape).copy()
        offset += n_b
        layers.append(dense(new_w, new_b))
    return Net(tuple(layers))


def replace_layer(net: Net, index: int, layer: Layer) -> Net:
    """A new net with layer `index` swapped, its shapes checked by `make_net`."""
    layers = list(net.layers)
    layers[index] = layer
    return make_net(layers)


def init_net(input_dim: int, hidden: tuple, num_classes: int, seed: int) -> Net:
    """Dense/relu stack with weights uniform in +-sqrt(1/fan_in), zero bias."""
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden, num_classes]
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = np.sqrt(1.0 / fan_in)
        W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(Layer(W, np.zeros(fan_out)))
    return make_net(layers)


def _training_labels(labels) -> np.ndarray:
    """Labels as int64 classes if each is finite, whole and >= 0 (an empty
    array passes), else ValueError: the rule of `train_tiny` and `Dataset`."""
    y = np.asarray(labels)
    if not (np.isfinite(y).all() and (y == np.floor(y)).all()):
        raise ValueError("labels must be integers")
    y = y.astype(np.int64)
    if y.size and y.min() < 0:
        raise ValueError("labels outside [0, num_classes)")
    return y


def train_tiny(
    hidden,
    inputs,
    labels,
    epochs: int,
    seed: int,
    learning_rate: float = 0.001,
    momentum: float = 0.9,
    batch_size: int = 1,
) -> Net:
    """Train a dense/relu stack with momentum SGD on cross-entropy.

    The stack has the given hidden widths between the data's feature count
    and its classes (at least two), and starts from `init_net` of the seed.
    Each epoch visits the rows in one seeded shuffle, `batch_size` at a time.
    The step updates the weights, biases and velocities in place; they are
    the trainer's own arrays until the returned net takes them over.  Fully
    deterministic for a fixed seed.  Arguments outside the ranges of the
    `[model]` config table raise `ValueError`; a loss that stops being
    finite raises `TrainingDivergedError`.
    """
    X = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[0] != y.shape[0]:
        raise ValueError("training data must be a nonempty (N, D) matrix with N labels")
    if not np.isfinite(X).all():
        raise ValueError("inputs must be finite")
    y = _training_labels(y)
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0 < learning_rate < np.inf:
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must be finite in [0, 1), got {momentum}")
    net = init_net(X.shape[1], tuple(hidden), max(int(y.max()) + 1, 2), seed)

    rng = np.random.default_rng(seed + 1)
    # the init net is private here, so the step may update its arrays in place
    params = [(layer.weights, layer.bias) for layer in net.layers]
    velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    n = X.shape[0]
    rows = np.arange(n)
    # the loop's own check reports divergence, before which it may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            X_epoch, y_epoch = X[order], y[order]
            for start in range(0, n, batch_size):
                xb = X_epoch[start : start + batch_size]
                yb = y_epoch[start : start + batch_size]
                hit = rows[: len(yb)], yb
                # each layer's input, then the logits
                acts = [xb, *_forward(net.layers[1:], _first_layer(net, xb))]
                G = softmax(acts[-1])
                # a softmax row is all finite or all NaN, and so is the loss
                if np.isnan(G.sum()):
                    loss = -np.mean(np.log(G[hit] + 1e-300))
                    raise TrainingDivergedError(f"loss became non-finite ({loss})")
                G[hit] -= 1.0
                G /= len(yb)
                # backward; acts[i] is the input of layer i, G meets the
                # weights of before this step's update
                for i in range(len(params) - 1, -1, -1):
                    W, b = params[i]
                    v_W, v_b = velocity[i]
                    grad_W = G.T @ acts[i]
                    grad_b = G.sum(axis=0)
                    if i:  # through the relu before layer i
                        G = G @ W
                        G *= acts[i] > 0.0
                    grad_W *= learning_rate
                    grad_b *= learning_rate
                    v_W *= momentum
                    v_W -= grad_W
                    v_b *= momentum
                    v_b -= grad_b
                    W += v_W
                    b += v_b
    return net


def accuracy(net: Net, inputs, labels) -> float:
    preds = predict_labels(net, np.asarray(inputs, dtype=np.float64))
    return float(np.mean(preds == np.asarray(labels)))
