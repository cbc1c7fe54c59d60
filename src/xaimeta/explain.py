"""Attribution methods and the second-moment normalization.

Every method is batch-first: it maps (net, X, labels) to one relevance row
per input row, where X is (B, D) and labels is one class for every row or a
(B,) array of per-row classes.  Signs are preserved throughout;
normalization divides each row by its root mean square so that maps from
different methods live on a comparable scale.  All methods are
deterministic given their config (including its seed), and row i of a
batch is the map of X[i] alone, up to floating-point rounding.
"""
import math
from dataclasses import dataclass

import numpy as np

from .net import (
    Net,
    _check_batch,
    _class_indices,
    _first_layer,
    _head_gradient,
    _head_logits,
    _rows_times,
    input_gradient_batch,
    logits_batch,
)
from .seeding import derive_rng

# Bound on the floats of expanded points that one net call sees; a batch is
# processed in chunks of whole rows under it.  IG steps, SHAP samples and
# occluded copies are first-layer pre-activations and count at the widest
# layer's width (SHAP's per-sample input gradients at least at the input's);
# the input copies `_copy_logits` scores count at the input's.  Arrays of one
# float per input feature and row are no larger than the batch itself.
_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True)
class ExplainerConfig:
    ig_steps: int = 32
    ig_baseline: float = 0.0
    occlusion_patch: int = 4
    occlusion_baseline: float = 0.0
    shap_samples: int = 5
    shap_noise_std: float = 0.1
    shap_bounds: tuple = (0.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.ig_steps < 1 or self.occlusion_patch < 1 or self.shap_samples < 1:
            raise ValueError("ig_steps, occlusion_patch and shap_samples must be >= 1")
        for name in ("ig_baseline", "occlusion_baseline", "shap_noise_std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.shap_noise_std < 0:
            raise ValueError(f"shap_noise_std must be >= 0, got {self.shap_noise_std!r}")
        bounds = np.asarray(self.shap_bounds, dtype=np.float64)
        if bounds.shape != (2,) or not np.isfinite(bounds).all() or bounds[0] > bounds[1]:
            raise ValueError(
                f"shap_bounds must be two finite numbers, low <= high, got {self.shap_bounds!r}"
            )


def _batch(net: Net, X, labels):
    """(B, D) float inputs and (B,) int64 labels, checked by `net._check_batch`
    and `net._class_indices`; a scalar label is shared."""
    X = _check_batch(net, X)
    return X, _class_indices(net, labels, X.shape[0])


def _row_chunks(n_rows: int, row_elements: int):
    """Slices over n_rows rows that each expand to row_elements floats, at
    most _CHUNK_ELEMENTS floats per slice (at least one row)."""
    step = max(1, _CHUNK_ELEMENTS // row_elements)
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _widest(net: Net) -> int:
    """The most units of any layer, the floats a point holds past the input."""
    return max(layer.weights.shape[0] for layer in net.layers)


def _copy_logits(net: Net, n_rows: int, j: int, copies) -> np.ndarray:
    """(n_rows, j, C) logits of j copies of each row: per chunk of whole rows,
    copies(rows) builds their (rows, j, D) copies and one net call scores them."""
    d, c = net.input_dim, net.num_classes
    out = np.empty((n_rows, j, c))
    for rows in _row_chunks(n_rows, j * d):
        out[rows] = logits_batch(net, copies(rows).reshape(-1, d)).reshape(-1, j, c)
    return out


def _label_column(net: Net, values, labels) -> np.ndarray:
    """values[b, :, labels[b]] of a (B, J, C) array over the classes of
    `net`, whose labels `net._class_indices` checks."""
    labels = _class_indices(net, labels, len(values))
    return np.take_along_axis(values, labels[:, None, None], axis=2)[:, :, 0]


def explain_gradient(net: Net, X, labels, cfg: ExplainerConfig = None) -> np.ndarray:
    return input_gradient_batch(net, X, labels)


def explain_saliency(net: Net, X, labels, cfg: ExplainerConfig = None) -> np.ndarray:
    return np.abs(input_gradient_batch(net, X, labels))


def explain_input_x_gradient(net: Net, X, labels, cfg: ExplainerConfig = None) -> np.ndarray:
    return input_gradient_batch(net, X, labels) * X


def explain_integrated_gradients(net: Net, X, labels, cfg: ExplainerConfig) -> np.ndarray:
    """Midpoint Riemann sum of gradients along the straight path baseline -> x.

    A path point's first-layer pre-activation is z(b) + alpha * W1 (x - b),
    so each row takes one first-layer product; and the mean over the steps
    commutes with the input gradient's final product by W1, which is
    therefore formed once per row: span * (mean_alpha dlogit/dz) @ W1.
    """
    X, labels = _batch(net, X, labels)
    steps = cfg.ig_steps
    alphas = (np.arange(steps) + 0.5) / steps
    W1 = net.layers[0].weights
    h = W1.shape[0]
    start = _first_layer(net, np.full((1, X.shape[1]), cfg.ig_baseline))
    out = np.empty_like(X)
    for rows in _row_chunks(X.shape[0], steps * _widest(net)):
        span = X[rows] - cfg.ig_baseline
        points = start + alphas[:, None] * (span @ W1.T)[:, None, :]
        dz = _head_gradient(net, points.reshape(-1, h), np.repeat(labels[rows], steps))
        out[rows] = span * _rows_times(dz.reshape(-1, steps, h).mean(axis=1), W1)
    return out


def explain_occlusion(net: Net, X, labels, cfg: ExplainerConfig) -> np.ndarray:
    """Drop in the class logit when a block of features is set to the baseline.

    Blocks of `occlusion_patch` consecutive features tile the input; a final
    smaller block is allowed when the length does not divide evenly.  Every
    feature in a block receives the block's full logit drop.  An occluded
    copy differs from its row in one block, so its first-layer
    pre-activation is the row's plus W1[:, block] (baseline - x_block); every
    block's change comes from one batched product over zero-padded blocks.
    """
    X = _check_batch(net, X)
    n, d = X.shape
    p, c = cfg.occlusion_patch, net.num_classes
    n_blocks = -(-d // p)
    W1 = net.layers[0].weights
    h = W1.shape[0]
    # (n_blocks, p, H): each block's first-layer weights, zero past the input
    block_weights = np.zeros((n_blocks * p, h))
    block_weights[:d] = W1.T
    block_weights = block_weights.reshape(n_blocks, p, h)
    logits = np.empty((n, n_blocks + 1, c))
    for rows in _row_chunks(n, (n_blocks + 1) * _widest(net)):
        x = X[rows]
        delta = np.zeros((len(x), n_blocks * p))
        delta[:, :d] = cfg.occlusion_baseline - x
        # (n_blocks, rows, p) @ (n_blocks, p, H): each block's change of z
        change = delta.reshape(-1, n_blocks, p).transpose(1, 0, 2) @ block_weights
        # point 0 is the input itself, point j > 0 has block j - 1 occluded
        points = _first_layer(net, x)[:, None, :].repeat(n_blocks + 1, axis=1)
        points[:, 1:] += change.transpose(1, 0, 2)
        logits[rows] = _head_logits(net, points.reshape(-1, h)).reshape(-1, n_blocks + 1, c)
    scores = _label_column(net, logits, labels)
    return (scores[:, :1] - scores[:, 1:])[:, np.arange(d) // p]


def explain_gradient_shap(net: Net, X, labels, cfg: ExplainerConfig) -> np.ndarray:
    """Expected-gradients estimate: jittered baselines, random interpolation.

    Baselines are drawn uniformly over `shap_bounds` with Gaussian jitter of
    std `shap_noise_std`; one uniform interpolation coefficient t is drawn
    per baseline.  The average of (x - baseline) * grad(point) over the
    samples is returned, where point = baseline + t * (x - baseline).
    Deterministic for a fixed cfg.seed; every row of a batch shares the same
    baselines and coefficients.  A point's first-layer pre-activation is
    (1 - t) W1 baseline + t W1 x + b1, so the baselines' first-layer
    products are formed once per call and each row's once per row; the
    backward product by W1 stays per sample, whose span differs.
    """
    X, labels = _batch(net, X, labels)
    d = X.shape[1]
    samples = cfg.shap_samples
    rng = derive_rng("gradient_shap", cfg.seed)
    low, high = cfg.shap_bounds
    baselines = rng.uniform(low, high, size=(samples, d))
    baselines = baselines + rng.normal(0.0, cfg.shap_noise_std, size=baselines.shape)
    ts = rng.uniform(0.0, 1.0, size=samples)
    W1 = net.layers[0].weights
    h = W1.shape[0]
    start = (1.0 - ts)[:, None] * (baselines @ W1.T) + net.layers[0].bias
    out = np.empty_like(X)
    for rows in _row_chunks(X.shape[0], samples * max(d, _widest(net))):
        points = start + ts[:, None] * (X[rows] @ W1.T)[:, None, :]
        dz = _head_gradient(net, points.reshape(-1, h), np.repeat(labels[rows], samples))
        span = X[rows][:, None, :] - baselines[None, :, :]
        out[rows] = (span * _rows_times(dz, W1).reshape(-1, samples, d)).mean(axis=1)
    return out


def normalize(values) -> np.ndarray:
    """Divide each row by the root of its average squared value; all-zero rows
    pass through.  A row whose root mean square is not finite (a NaN or
    infinite entry, or squares that overflow) raises ValueError."""
    values = np.asarray(values, dtype=np.float64)
    rms = np.sqrt(np.mean(values**2, axis=-1, keepdims=True))
    if not np.isfinite(rms).all():
        raise ValueError("every explanation row needs a finite root mean square")
    return np.divide(values, rms, out=values.copy(), where=rms != 0.0)


# --- method registry ------------------------------------------------------

METHODS = {
    "gradient": explain_gradient,
    "saliency": explain_saliency,
    "input_x_gradient": explain_input_x_gradient,
    "integrated_gradients": explain_integrated_gradients,
    "occlusion": explain_occlusion,
    "gradient_shap": explain_gradient_shap,
}

# cheap placeholder methods for pipeline checks where only the plumbing
# matters (the adversarial estimators ignore the attribution entirely)
def _synthetic_flat(net, X, labels, cfg: ExplainerConfig) -> np.ndarray:
    return np.ones_like(_batch(net, X, labels)[0])


def _synthetic_input(net, X, labels, cfg: ExplainerConfig) -> np.ndarray:
    return _batch(net, X, labels)[0].copy()


def _synthetic_negative(net, X, labels, cfg: ExplainerConfig) -> np.ndarray:
    return -_batch(net, X, labels)[0]


def _synthetic_noise(net, X, labels, cfg: ExplainerConfig) -> np.ndarray:
    X, _ = _batch(net, X, labels)
    row = derive_rng("synthetic_noise", cfg.seed).normal(size=X.shape[1])
    return np.tile(row, (X.shape[0], 1))


SYNTHETIC_METHODS = {
    "synthetic_flat": _synthetic_flat,
    "synthetic_input": _synthetic_input,
    "synthetic_negative": _synthetic_negative,
    "synthetic_noise": _synthetic_noise,
}

ALL_METHODS = {**METHODS, **SYNTHETIC_METHODS}


def build_explainer(method_id: str, cfg: ExplainerConfig):
    """Wrap a method into the normalized callable(net, X, labels) -> (B, D)."""
    if method_id not in ALL_METHODS:
        raise KeyError(f"unknown explanation method {method_id!r}")
    fn = ALL_METHODS[method_id]

    def explainer(net, X, labels):
        return normalize(fn(net, X, labels, cfg))

    return explainer
