"""Minimal dense/relu inference engine.

Provides exactly what the benchmark needs from a model: a deterministic
forward pass with softmax prediction, analytic input gradients through the
chain rule, flat read/write access to every parameter (the weight-noise tests
scale and re-randomise them), and a tiny deterministic trainer.  Nets are
immutable; every mutation-like operation returns a new value.

A net may stack S members along a leading axis: a member dense layer holds
(S, out, in) weights and (S, out) bias, and a batch of M rows is read as S
contiguous blocks of M/S rows, block s going through member s (shared 2-D
layers serve every block).  An ordinary net is S = 1.  The forward and
backward passes always run on the (S, M/S, .) view; `np.matmul` makes one
BLAS call per member slice, with the shapes and strides of a call under
that member alone, so a block's results are bit for bit those of the same
rows under the member alone.
"""
from dataclasses import dataclass, replace

import numpy as np

from .errors import TrainingDivergedError


@dataclass(frozen=True)
class Layer:
    kind: str  # "dense" | "relu"
    weights: np.ndarray | None = None  # (out, in) or (S, out, in), dense only
    bias: np.ndarray | None = None  # (out,) or (S, out), dense only


@dataclass(frozen=True)
class Net:
    layers: tuple
    input_dim: int
    num_classes: int
    members: int = 1  # S, the leading axis of its member layers


def dense(weights, bias) -> Layer:
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weights.ndim not in (2, 3) or bias.shape != weights.shape[:-1]:
        raise ValueError(
            "dense layer needs weights (out, in) and bias (out,), or (S, out, in) and (S, out)"
        )
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError("dense layer parameters must be finite")
    return Layer("dense", weights, bias)


def relu() -> Layer:
    return Layer("relu")


def make_net(layers) -> Net:
    """Validate layer chaining and member counts and wrap into a Net."""
    layers = tuple(layers)
    dense_layers = [l for l in layers if l.kind == "dense"]
    if not dense_layers:
        raise ValueError("a net needs at least one dense layer")
    dim = dense_layers[0].weights.shape[-1]
    input_dim = dim
    members = {l.weights.shape[0] for l in dense_layers if l.weights.ndim == 3}
    if len(members) > 1:
        raise ValueError(f"member layers disagree on the member count: {sorted(members)}")
    for layer in layers:
        if layer.kind == "relu":
            continue
        if layer.kind != "dense":
            raise ValueError(f"unknown layer kind {layer.kind!r}")
        if layer.weights.shape[-1] != dim:
            raise ValueError(
                f"layer shapes do not chain: expected input {dim}, got {layer.weights.shape[-1]}"
            )
        dim = layer.weights.shape[-2]
    members = members.pop() if members else 1
    return Net(layers=layers, input_dim=input_dim, num_classes=dim, members=members)


def _check_batch(net: Net, X) -> np.ndarray:
    """Validate a batch of inputs, a finite (M, input_dim) float matrix whose
    M splits into the net's S members, and return its (S, M/S, input_dim) view."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {A.shape} does not match input_dim {net.input_dim}")
    if A.shape[0] % net.members:
        raise ValueError(f"batch of {A.shape[0]} rows does not split into {net.members} members")
    if not np.isfinite(A).all():
        raise ValueError("inputs must be finite")
    return A.reshape(net.members, A.shape[0] // net.members, A.shape[1])


def _activations(layers, A) -> list:
    """Forward pass through `layers`: each layer's input, then the logits.

    `A` is (rows, in) or the (S, rows, in) member view; a member layer's
    weights and bias meet their own block of rows."""
    acts = [A]
    for layer in layers:
        if layer.kind != "dense":
            A = np.maximum(A, 0.0)
        elif layer.weights.ndim == 2:
            A = A @ layer.weights.T + layer.bias
        else:
            A = A @ np.swapaxes(layer.weights, -1, -2) + layer.bias[:, None, :]
        acts.append(A)
    return acts


def logits_batch(net: Net, X) -> np.ndarray:
    """Raw class scores for a batch; rows of X are inputs."""
    A = _check_batch(net, X)
    return _activations(net.layers, A)[-1].reshape(-1, net.num_classes)


def softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict_labels(net: Net, X) -> np.ndarray:
    return np.argmax(logits_batch(net, X), axis=1)


def input_gradient_batch(net: Net, X, class_index) -> np.ndarray:
    """d logit[class] / d input for every row of X, via the chain rule.

    `class_index` is one class for every row or a (B,) array of per-row
    classes.  Relu kinks (pre-activation exactly zero) use subgradient zero.
    """
    A = _check_batch(net, X)
    rows = A.shape[0] * A.shape[1]
    classes = np.broadcast_to(np.asarray(class_index), (rows,))
    if classes.size and not (0 <= classes.min() and classes.max() < net.num_classes):
        raise IndexError(f"class_index {class_index} outside [0, {net.num_classes})")
    activations = _activations(net.layers, A)
    G = np.zeros((rows, net.num_classes))
    G[np.arange(rows), classes] = 1.0
    G = G.reshape(A.shape[0], A.shape[1], net.num_classes)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.kind == "dense":
            G = G @ layer.weights
        else:
            G = G * (activations[i] > 0.0)
    return G.reshape(rows, net.input_dim)


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
        new_b = w[offset : offset + n_b].reshape(layer.bias.shape).copy()
        offset += n_b
        layers.append(dense(new_w, new_b))
    return replace(net, layers=tuple(layers))


def dense_layer_indices(net: Net) -> list:
    return [i for i, layer in enumerate(net.layers) if layer.kind == "dense"]


def replace_layer(net: Net, index: int, layer: Layer) -> Net:
    """A new net with layer `index` swapped; a member layer makes a stacked net."""
    layers = list(net.layers)
    layers[index] = layer
    return make_net(layers)


def select_members(net: Net, members: slice) -> Net:
    """The net of the given slice of `net`'s members (S = 1 nets have one)."""
    layers = tuple(
        Layer("dense", layer.weights[members], layer.bias[members])
        if layer.kind == "dense" and layer.weights.ndim == 3
        else layer
        for layer in net.layers
    )
    return replace(net, layers=layers, members=len(range(net.members)[members]))


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
        if arch.members != 1:
            raise ValueError("train_tiny trains an ordinary net, not a stack of members")
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
