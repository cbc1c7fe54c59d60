"""Minimal dense/relu inference engine.

Provides exactly what the benchmark needs from a model: a deterministic
forward pass with softmax prediction, analytic input gradients through the
chain rule, flat read/write access to every parameter (the weight-noise tests
scale and re-randomise them), and a tiny deterministic trainer.  Nets are
immutable; every mutation-like operation returns a new value.
"""
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError


@dataclass(frozen=True)
class Layer:
    kind: str  # "dense" | "relu"
    weights: np.ndarray | None = None  # (out, in), dense only
    bias: np.ndarray | None = None  # (out,), dense only


@dataclass(frozen=True)
class Net:
    layers: tuple
    input_dim: int
    num_classes: int


@dataclass(frozen=True)
class Prediction:
    logits: np.ndarray
    probs: np.ndarray
    label: int


def dense(weights, bias) -> Layer:
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weights.ndim != 2 or bias.shape != (weights.shape[0],):
        raise ValueError("dense layer needs weights (out, in) and bias (out,)")
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError("dense layer parameters must be finite")
    return Layer("dense", weights, bias)


def relu() -> Layer:
    return Layer("relu")


def make_net(layers) -> Net:
    """Validate layer chaining and wrap into a Net."""
    layers = tuple(layers)
    dense_layers = [l for l in layers if l.kind == "dense"]
    if not dense_layers:
        raise ValueError("a net needs at least one dense layer")
    dim = dense_layers[0].weights.shape[1]
    input_dim = dim
    for layer in layers:
        if layer.kind == "relu":
            continue
        if layer.kind != "dense":
            raise ValueError(f"unknown layer kind {layer.kind!r}")
        if layer.weights.shape[1] != dim:
            raise ValueError(
                f"layer shapes do not chain: expected input {dim}, got {layer.weights.shape[1]}"
            )
        dim = layer.weights.shape[0]
    return Net(layers=layers, input_dim=input_dim, num_classes=dim)


def _check_batch(net: Net, X) -> np.ndarray:
    """Validate a batch of inputs: a finite (B, input_dim) float matrix."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {A.shape} does not match input_dim {net.input_dim}")
    if not np.isfinite(A).all():
        raise ValueError("inputs must be finite")
    return A


def _as_row(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"input must be a vector, got shape {x.shape}")
    return x[None, :]


def _activations(layers, A) -> list:
    """Forward pass through `layers`: each layer's input, then the logits."""
    acts = [A]
    for layer in layers:
        if layer.kind == "dense":
            A = A @ layer.weights.T + layer.bias
        else:
            A = np.maximum(A, 0.0)
        acts.append(A)
    return acts


def logits_batch(net: Net, X) -> np.ndarray:
    """Raw class scores for a batch; rows of X are inputs."""
    return _activations(net.layers, _check_batch(net, X))[-1]


def softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(net: Net, x) -> Prediction:
    """Deterministic forward pass; probs are softmax over the logits."""
    logits = logits_batch(net, _as_row(x))[0]
    probs = softmax(logits)
    return Prediction(logits=logits, probs=probs, label=int(np.argmax(logits)))


def predict_labels(net: Net, X) -> np.ndarray:
    return np.argmax(logits_batch(net, X), axis=1)


def input_gradient_batch(net: Net, X, class_index) -> np.ndarray:
    """d logit[class] / d input for every row of X, via the chain rule.

    `class_index` is one class for every row or a (B,) array of per-row
    classes.  Relu kinks (pre-activation exactly zero) use subgradient zero.
    """
    A = _check_batch(net, X)
    classes = np.broadcast_to(np.asarray(class_index), (A.shape[0],))
    if classes.size and not (0 <= classes.min() and classes.max() < net.num_classes):
        raise IndexError(f"class_index {class_index} outside [0, {net.num_classes})")
    activations = _activations(net.layers, A)
    G = np.zeros((A.shape[0], net.num_classes))
    G[np.arange(A.shape[0]), classes] = 1.0
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.kind == "dense":
            G = G @ layer.weights
        else:
            G = G * (activations[i] > 0.0)
    return G


def input_gradient(net: Net, x, class_index: int) -> np.ndarray:
    return input_gradient_batch(net, _as_row(x), class_index)[0]


def get_weights(net: Net) -> np.ndarray:
    """All dense parameters (weights then bias, layer by layer) as one vector."""
    chunks = []
    for layer in net.layers:
        if layer.kind == "dense":
            chunks.append(layer.weights.ravel())
            chunks.append(layer.bias.ravel())
    return np.concatenate(chunks)


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
        if layer.kind != "dense":
            layers.append(layer)
            continue
        n_w = layer.weights.size
        n_b = layer.bias.size
        new_w = w[offset : offset + n_w].reshape(layer.weights.shape).copy()
        offset += n_w
        new_b = w[offset : offset + n_b].copy()
        offset += n_b
        layers.append(dense(new_w, new_b))
    return Net(layers=tuple(layers), input_dim=net.input_dim, num_classes=net.num_classes)


def dense_layer_indices(net: Net) -> list:
    return [i for i, layer in enumerate(net.layers) if layer.kind == "dense"]


def replace_layer(net: Net, index: int, layer: Layer) -> Net:
    layers = list(net.layers)
    layers[index] = layer
    return Net(layers=tuple(layers), input_dim=net.input_dim, num_classes=net.num_classes)


def init_net(input_dim: int, hidden: tuple, num_classes: int, seed: int) -> Net:
    """Dense/relu stack with weights uniform in +-sqrt(1/fan_in), zero bias."""
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden, num_classes]
    layers = []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        bound = np.sqrt(1.0 / fan_in)
        W = rng.uniform(-bound, bound, size=(dims[i + 1], dims[i]))
        layers.append(Layer("dense", W, np.zeros(dims[i + 1])))
        if i < len(dims) - 2:
            layers.append(relu())
    return make_net(layers)


def train_tiny(
    arch,
    inputs,
    labels,
    epochs: int,
    seed: int,
    learning_rate: float = 0.001,
    momentum: float = 0.9,
    batch_size: int = 1,
) -> Net:
    """Train a dense/relu stack with momentum SGD on cross-entropy.

    `arch` is either an initialized Net or a tuple of hidden widths; in the
    latter case the stack is built from the data shape and initialized from
    the seeded stream.  Fully deterministic for a fixed seed.
    """
    X = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[0] != y.shape[0]:
        raise ValueError("training data must be a nonempty (N, D) matrix with N labels")
    if isinstance(arch, Net):
        net = arch
    else:
        num_classes = int(y.max()) + 1 if y.size else 2
        num_classes = max(num_classes, 2)
        net = init_net(X.shape[1], tuple(arch), num_classes, seed)
    if y.min() < 0 or y.max() >= net.num_classes:
        raise ValueError("labels outside [0, num_classes)")

    rng = np.random.default_rng(seed + 1)
    layers = list(net.layers)
    velocity = {
        i: (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
        for i, layer in enumerate(layers)
        if layer.kind == "dense"
    }
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = X[idx], y[idx]
            acts = _activations(layers, xb)
            probs = softmax(acts[-1])
            loss = -np.mean(np.log(probs[np.arange(len(yb)), yb] + 1e-300))
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became non-finite ({loss})")
            G = probs
            G[np.arange(len(yb)), yb] -= 1.0
            G /= len(yb)
            # backward; acts[i] is the input of layer i
            for i in range(len(layers) - 1, -1, -1):
                layer = layers[i]
                if layer.kind == "dense":
                    grad_W = G.T @ acts[i]
                    grad_b = G.sum(axis=0)
                    G = G @ layer.weights
                    v_W = momentum * velocity[i][0] - learning_rate * grad_W
                    v_b = momentum * velocity[i][1] - learning_rate * grad_b
                    velocity[i] = (v_W, v_b)
                    layers[i] = Layer("dense", layer.weights + v_W, layer.bias + v_b)
                else:
                    G = G * (acts[i] > 0.0)
    return Net(layers=tuple(layers), input_dim=net.input_dim, num_classes=net.num_classes)


def accuracy(net: Net, inputs, labels) -> float:
    preds = predict_labels(net, np.asarray(inputs, dtype=np.float64))
    return float(np.mean(preds == np.asarray(labels)))
