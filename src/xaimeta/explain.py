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

from .net import Net, _check_batch, _class_indices, input_gradient_batch, logits_batch
from .seeding import derive_rng

# Bound on the floats of expanded points (IG steps, SHAP samples, the copies
# `_copy_logits` scores) that one net call sees; a batch is processed in row
# chunks under it.
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
    """Midpoint Riemann sum of gradients along the straight path baseline -> x."""
    X, labels = _batch(net, X, labels)
    d = X.shape[1]
    steps = cfg.ig_steps
    alphas = (np.arange(steps) + 0.5) / steps
    out = np.empty_like(X)
    for rows in _row_chunks(X.shape[0], steps * d):
        span = X[rows] - cfg.ig_baseline
        points = cfg.ig_baseline + alphas[None, :, None] * span[:, None, :]
        grads = input_gradient_batch(net, points.reshape(-1, d), np.repeat(labels[rows], steps))
        out[rows] = span * grads.reshape(-1, steps, d).mean(axis=1)
    return out


def explain_occlusion(net: Net, X, labels, cfg: ExplainerConfig) -> np.ndarray:
    """Drop in the class logit when a block of features is set to the baseline.

    Blocks of `occlusion_patch` consecutive features tile the input; a final
    smaller block is allowed when the length does not divide evenly.  Every
    feature in a block receives the block's full logit drop.
    """
    X = _check_batch(net, X)
    d = X.shape[1]
    block_of = np.arange(d) // cfg.occlusion_patch
    n_blocks = int(block_of[-1]) + 1
    # copy 0 is the input itself, copy j > 0 has block j - 1 occluded
    occluded = np.arange(-1, n_blocks)[:, None] == block_of[None, :]

    def copies(rows):
        return np.where(occluded, cfg.occlusion_baseline, X[rows, None, :])

    scores = _label_column(net, _copy_logits(net, len(X), n_blocks + 1, copies), labels)
    return (scores[:, :1] - scores[:, 1:])[:, block_of]


def explain_gradient_shap(net: Net, X, labels, cfg: ExplainerConfig) -> np.ndarray:
    """Expected-gradients estimate: jittered baselines, random interpolation.

    Baselines are drawn uniformly over `shap_bounds` with Gaussian jitter of
    std `shap_noise_std`; one uniform interpolation coefficient is drawn per
    baseline.  The average of (x - baseline) * grad(point) over the samples
    is returned.  Deterministic for a fixed cfg.seed; every row of a batch
    shares the same baselines and coefficients.
    """
    X, labels = _batch(net, X, labels)
    d = X.shape[1]
    samples = cfg.shap_samples
    rng = derive_rng("gradient_shap", cfg.seed)
    low, high = cfg.shap_bounds
    baselines = rng.uniform(low, high, size=(samples, d))
    baselines = baselines + rng.normal(0.0, cfg.shap_noise_std, size=baselines.shape)
    ts = rng.uniform(0.0, 1.0, size=samples)
    out = np.empty_like(X)
    for rows in _row_chunks(X.shape[0], samples * d):
        span = X[rows][:, None, :] - baselines[None, :, :]
        points = baselines + ts[:, None] * span
        grads = input_gradient_batch(net, points.reshape(-1, d), np.repeat(labels[rows], samples))
        out[rows] = (span * grads.reshape(-1, samples, d)).mean(axis=1)
    return out


def normalize(values) -> np.ndarray:
    """Divide each row by the root of its average squared value; all-zero rows pass through."""
    values = np.asarray(values, dtype=np.float64)
    rms = np.sqrt(np.mean(values**2, axis=-1, keepdims=True))
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
