"""Quality estimators: a batch of explanations in, one scalar per row out.

Twelve estimators across five families (faithfulness, robustness,
randomisation, complexity, localisation) plus two adversarial estimators
used to sanity-check the meta-evaluation itself.  Every estimator maps the
B rows of an `EvalContext` to a (B,) float64 array; NaN means the estimate
is undefined for that row, and `perturb.collect` keeps undefined estimates
out of aggregation.  Estimators are pure given (ctx, cfg) -- all randomness
flows from the per-row seeds, and row b draws from its own generator, so a
row's draws do not depend on the other rows of its batch (its logits and
gradients may, in the last bit, through the matrix products).
`ESTIMATORS` is the one table of them: evaluate, direction, family and
mask need per id.
"""
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import stats
from .errors import ConfigError
from .explain import row_chunks
from .net import Layer, Net, dense_layer_indices, logits_batch, replace_layer, softmax
from .seeding import derive_rng

HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"


@dataclass
class EvalContext:
    """The B rows that one estimator call scores under one (net, inputs) pair.

    `X` is the (B, D) float input batch, `labels` its (B,) classes and
    `attributions` the (B, D) explanation rows; `explainer` is the
    (normalized) batch explanation function, explainer(net, X, labels) ->
    (B, D), that produced them, and robustness and randomisation estimators
    re-invoke it.  `masks` is a (B, D) bool array whose every row marks at
    least one feature (`perturb.PerturbedSpaces` checks the masks once per run).
    `seeds` holds one estimator seed per row.  `is_perturbed` says whether
    the inputs or `net` carry a perturbation payload.  `dataset_mean` feeds
    the "mean" baseline strategy.
    """

    net: Net
    X: np.ndarray
    labels: np.ndarray
    attributions: np.ndarray
    explainer: object
    dataset_bounds: tuple
    seeds: object  # (B,) 64-bit seeds
    masks: np.ndarray | None = None
    dataset_mean: float | None = None
    is_perturbed: bool = False


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator hyperparameters; None means "derive the default from D".

    Subset and step sizes default to 2*sqrt(D) features; the robustness
    radius defaults to a tenth of the dataset range, and a radius that is set
    must be finite and positive; top-k defaults to the mask cardinality.
    Faithfulness correlation needs fc_runs >= 2 runs to correlate.
    """

    fc_subset_size: int | None = None
    fc_runs: int = 100
    fc_baseline: str = "uniform"  # black | uniform | mean
    pf_step_size: int | None = None
    pf_baseline: str = "uniform"
    robustness_runs: int = 10
    robustness_radius: float | None = None
    topk_k: int | None = None

    def __post_init__(self):
        if self.robustness_runs < 1:
            raise ValueError("robustness_runs must be >= 1")
        if self.fc_runs < 2:
            raise ValueError("fc_runs must be >= 2: a correlation needs two runs")
        if self.robustness_radius is not None and not (
            math.isfinite(self.robustness_radius) and self.robustness_radius > 0
        ):
            raise ValueError(f"robustness_radius {self.robustness_radius} must be finite and > 0")
        for name in ("fc_baseline", "pf_baseline"):
            if getattr(self, name) not in ("black", "uniform", "mean"):
                raise ValueError(f"{name} must be one of black/uniform/mean")

    def subset_size(self, d: int) -> int:
        size = self.fc_subset_size if self.fc_subset_size is not None else _default_block(d)
        if not 1 <= size <= d:
            raise ValueError(f"fc_subset_size {size} outside [1, {d}]")
        return size

    def step_size(self, d: int) -> int:
        size = self.pf_step_size if self.pf_step_size is not None else _default_block(d)
        if not 1 <= size <= d:
            raise ValueError(f"pf_step_size {size} outside [1, {d}]")
        return size

    def check_features(self, d: int):
        """Raise ValueError when a size set here does not fit d features."""
        self.subset_size(d)
        self.step_size(d)
        if self.topk_k is not None and not 1 <= self.topk_k <= d:
            raise ValueError(f"topk_k {self.topk_k} outside [1, {d}]")

    def radius(self, bounds) -> float:
        if self.robustness_radius is not None:
            return self.robustness_radius
        return 0.1 * (bounds[1] - bounds[0])


def _default_block(d: int) -> int:
    # 2*w features where w is the side of a square input, at least 1
    return max(1, min(d, int(round(2 * math.sqrt(d)))))


def _baseline_values(kind, shape, ctx, x, rng):
    lo, hi = ctx.dataset_bounds
    if kind == "black":
        return np.full(shape, lo)
    if kind == "mean":
        mean = ctx.dataset_mean if ctx.dataset_mean is not None else float(x.mean())
        return np.full(shape, mean)
    return rng.uniform(lo, hi, size=shape)


def _logits(net, batches) -> np.ndarray:
    """Logits of (B, J, D) stacked rows, one net call per row chunk of whole samples."""
    b, j, d = batches.shape
    out = np.empty((b, j, net.num_classes))
    for rows in row_chunks(b, j * d):
        out[rows] = logits_batch(net, batches[rows].reshape(-1, d)).reshape(-1, j, net.num_classes)
    return out


def _label_column(values, labels) -> np.ndarray:
    """values[b, :, labels[b]] of a (B, J, C) array."""
    return np.take_along_axis(values, np.asarray(labels)[:, None, None], axis=2)[:, :, 0]


def _ratio_or_nan(numerator, denominator) -> np.ndarray:
    return np.divide(
        numerator, denominator, out=np.full(len(denominator), np.nan), where=denominator != 0.0
    )


# --- faithfulness -----------------------------------------------------------


def evaluate_faithfulness_correlation(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Pearson correlation between subset attribution sums and logit drops.

    Random feature subsets (without replacement within a subset) are replaced
    by the configured baseline; the correlation is taken over cfg.fc_runs
    subsets.  Undefined when either series has zero variance.

    Each row's "fc" stream is drawn twice: `random((fc_runs, D))` keys, whose
    row-wise argsort keeps its first `size` columns as run r's subset (a
    uniform subset without replacement), then the `(fc_runs, size)` baseline
    fills.  One forward pass per row chunk scores `fc_runs + 1` copies per
    row: copy 0 is the input, whose logit is the base of every drop, and
    copy r + 1 the input with subset r replaced.
    """
    n, d = ctx.X.shape
    size = cfg.subset_size(d)
    runs = cfg.fc_runs
    subsets = np.empty((n, runs, size), dtype=np.intp)
    fills = np.empty((n, runs, size))
    for b, seed in enumerate(ctx.seeds):
        rng = derive_rng("fc", seed)
        subsets[b] = np.argsort(rng.random((runs, d)), axis=1)[:, :size]
        fills[b] = _baseline_values(cfg.fc_baseline, (runs, size), ctx, ctx.X[b], rng)
    attr_sums = np.take_along_axis(ctx.attributions[:, None, :], subsets, axis=2).sum(axis=2)
    scores = np.empty((n, runs + 1))
    # the masked copies are built chunk by chunk, so wide inputs stay bounded
    for rows in row_chunks(n, (runs + 1) * d):
        masked = np.repeat(ctx.X[rows, None, :], runs + 1, axis=1)
        np.put_along_axis(masked[:, 1:], subsets[rows], fills[rows], axis=2)
        scores[rows] = _label_column(_logits(ctx.net, masked), ctx.labels[rows])
    return stats.pearson(attr_sums, scores[:, :1] - scores[:, 1:])


def evaluate_pixel_flipping(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Area under the predicted-class probability curve while flipping.

    Features are replaced by the baseline in blocks of cfg.pf_step_size, most
    attributed first (descending raw attribution, stable ties); the x-axis is
    the fraction of features flipped.
    """
    d = ctx.X.shape[1]
    step = cfg.step_size(d)
    orders = np.argsort(-ctx.attributions, axis=1, kind="stable")
    starts = range(0, d, step)
    # copy 0 is the input, copy j the input after the first j blocks flipped
    curves = np.repeat(ctx.X[:, None, :], len(starts) + 1, axis=1)
    for b, seed in enumerate(ctx.seeds):
        rng = derive_rng("pf", seed)
        for j, start in enumerate(starts, start=1):
            block = orders[b, start : start + step]
            curves[b][j:, block] = _baseline_values(cfg.pf_baseline, len(block), ctx, ctx.X[b], rng)
    xs = [0.0] + [min(start + step, d) / d for start in starts]
    ys = _label_column(softmax(_logits(ctx.net, curves)), ctx.labels)
    return stats.trapezoid_auc(xs, ys)


# --- robustness -------------------------------------------------------------


def _perturbed_inputs(ctx, cfg, x, rng, runs):
    """`runs` in-ball draws around x as rows, in the order a draw-by-draw loop makes them."""
    lo, hi = ctx.dataset_bounds
    radius = cfg.radius(ctx.dataset_bounds)
    delta = rng.uniform(-radius, radius, size=(runs, x.size))
    x_pert = np.clip(x + delta, lo, hi)
    return x_pert, x_pert - x  # effective displacement after clipping


def _row_norms(A) -> np.ndarray:
    # one dot product per row, as np.linalg.norm computes it for a single vector
    return np.sqrt((A[:, None, :] @ A[:, :, None]).ravel())


def evaluate_max_sensitivity(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Largest explanation change over random in-ball input perturbations,
    relative to the input norm.  Undefined for a zero input.

    The draws of every row with a nonzero input are explained in one call.
    """
    runs = cfg.robustness_runs
    x_norms = _row_norms(ctx.X)
    rows = np.flatnonzero(x_norms != 0.0)
    out = np.full(len(x_norms), np.nan)
    if rows.size == 0:
        return out
    x_pert = np.concatenate(
        [
            _perturbed_inputs(ctx, cfg, ctx.X[b], derive_rng("ms", ctx.seeds[b]), runs)[0]
            for b in rows
        ]
    )
    others = ctx.explainer(ctx.net, x_pert, np.repeat(ctx.labels[rows], runs))
    changes = _row_norms(np.repeat(ctx.attributions[rows], runs, axis=0) - others)
    out[rows] = np.max(changes.reshape(rows.size, runs) / x_norms[rows, None], axis=1)
    return out


def evaluate_local_lipschitz(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Largest explanation-change to input-change ratio over random draws.

    The denominator uses the effective (post-clip) displacement; degenerate
    draws below 1e-12 are redrawn, in order, up to 1000 draws per run.  The
    accepted draws of every row are explained in one call; a row without
    any is undefined.
    """
    runs = cfg.robustness_runs
    kept_inputs, kept_dists, owners = [], [], []
    for b, seed in enumerate(ctx.seeds):
        rng = derive_rng("lle", seed)
        accepted = attempts = 0
        while accepted < runs and attempts < 1000 * runs:
            batch = min(runs - accepted, 1000 * runs - attempts)
            attempts += batch
            x_pert, delta = _perturbed_inputs(ctx, cfg, ctx.X[b], rng, batch)
            dists = _row_norms(delta)
            keep = dists >= 1e-12
            kept_inputs.append(x_pert[keep])
            kept_dists.append(dists[keep])
            accepted += int(keep.sum())
        owners.append(np.full(accepted, b))
    owner = np.concatenate(owners)
    worst = np.full(len(owners), -np.inf)
    if owner.size:
        others = ctx.explainer(ctx.net, np.concatenate(kept_inputs), ctx.labels[owner])
        ratios = _row_norms(ctx.attributions[owner] - others) / np.concatenate(kept_dists)
        np.maximum.at(worst, owner, ratios)
    worst[np.isneginf(worst)] = np.nan
    return worst


# --- randomisation ----------------------------------------------------------


def evaluate_model_parameter_randomisation(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Mean rank correlation between the explanation and re-explanations of
    nets with one dense layer re-randomised at a time.

    Replacement parameters are drawn from a normal fitted to the original
    layer (its empirical mean and std, weights and bias pooled); every row
    draws its own randomised layer from its own stream, and the B draws of
    a layer are stacked into one member layer (see `net`), so each layer
    re-explains all rows in one explainer call, row b under its own draw.
    Layers whose correlation is undefined (constant map) are skipped; if
    every layer is skipped the estimate is undefined.
    """
    correlations = []
    for v, layer_index in enumerate(dense_layer_indices(ctx.net)):
        layer = ctx.net.layers[layer_index]
        pooled = np.concatenate([layer.weights.ravel(), layer.bias.ravel()])
        mu, sd = float(pooled.mean()), float(pooled.std())
        weights = np.empty((len(ctx.seeds), *layer.weights.shape))
        bias = np.empty((len(ctx.seeds), *layer.bias.shape))
        for seed, member_weights, member_bias in zip(ctx.seeds, weights, bias):
            rng = derive_rng("mpr", seed, v)
            member_weights[...] = rng.normal(mu, sd, size=member_weights.shape)
            member_bias[...] = rng.normal(mu, sd, size=member_bias.shape)
        randomized = replace_layer(ctx.net, layer_index, Layer("dense", weights, bias))
        others = ctx.explainer(randomized, ctx.X, ctx.labels)
        correlations.append(stats.spearman(ctx.attributions, others))
    correlations = np.stack(correlations, axis=1)
    defined = np.isfinite(correlations)
    counts = defined.sum(axis=1)
    return _ratio_or_nan(stats.masked_row_sums(correlations, defined), counts)


def evaluate_random_logit(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Rank correlation between the explanation for the predicted class and
    the explanation for a randomly drawn other class, one per row."""
    classes = ctx.net.num_classes
    if classes < 2:
        raise ConfigError("random_logit needs at least two classes")
    other_classes = np.empty(len(ctx.labels), dtype=np.int64)
    for b, (seed, label) in enumerate(zip(ctx.seeds, ctx.labels)):
        rng = derive_rng("rl", seed)
        other_classes[b] = rng.choice([c for c in range(classes) if c != label])
    others = ctx.explainer(ctx.net, ctx.X, other_classes)
    return stats.spearman(ctx.attributions, others)


# --- complexity -------------------------------------------------------------


def evaluate_sparseness(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Gini index of the absolute attribution; undefined for an all-zero map."""
    v = np.sort(np.abs(ctx.attributions), axis=1)
    d = v.shape[1]
    i = np.arange(1, d + 1)
    return _ratio_or_nan(((2 * i - d - 1) * v).sum(axis=1), d * v.sum(axis=1))


def evaluate_complexity(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Shannon entropy of the normalized absolute attribution (0 ln 0 := 0)."""
    v = np.abs(ctx.attributions)
    total = v.sum(axis=1, keepdims=True)
    p = np.divide(v, total, out=np.zeros_like(v), where=total != 0.0)
    nonzero = p > 0
    terms = p * np.log(np.where(nonzero, p, 1.0))
    entropy = -stats.masked_row_sums(terms, nonzero)
    entropy[total[:, 0] == 0.0] = np.nan
    return entropy


# --- localisation -----------------------------------------------------------


def _require_masks(ctx, estimator_id):
    if ctx.masks is None:
        raise ConfigError(f"{estimator_id} requires a ground-truth mask")
    return ctx.masks


def _top_hits(ctx, masks, k) -> np.ndarray:
    """How many of each row's k[b] highest absolute attributions lie inside
    its mask; ties break on the lowest index."""
    top = np.argsort(-np.abs(ctx.attributions), axis=1, kind="stable")
    ranked = np.take_along_axis(masks, top, axis=1)
    return (ranked & (np.arange(masks.shape[1]) < k[:, None])).sum(axis=1)


def evaluate_pointing_game(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """1 when the maximally attributed feature lies inside the mask.

    Works on absolute attributions; ties break on the lowest index.
    """
    masks = _require_masks(ctx, "pointing_game")
    peaks = np.argmax(np.abs(ctx.attributions), axis=1)
    return masks[np.arange(len(peaks)), peaks].astype(np.float64)


def evaluate_relevance_mass_accuracy(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Fraction of absolute attribution mass inside the mask."""
    masks = _require_masks(ctx, "relevance_mass_accuracy")
    v = np.abs(ctx.attributions)
    return _ratio_or_nan(stats.masked_row_sums(v, masks), v.sum(axis=1))


def evaluate_top_k_intersection(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Fraction of the K highest absolute attributions inside the mask;
    K defaults to the mask cardinality."""
    masks = _require_masks(ctx, "top_k_intersection")
    d = masks.shape[1]
    k = np.full(len(masks), cfg.topk_k) if cfg.topk_k is not None else masks.sum(axis=1)
    bad = (k < 1) | (k > d)
    if bad.any():
        raise ConfigError(f"topk_k {k[bad][0]} outside [1, {d}]")
    return _top_hits(ctx, masks, k) / k


def evaluate_relevance_rank_accuracy(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Fraction of the |mask| highest absolute attributions inside the mask."""
    masks = _require_masks(ctx, "relevance_rank_accuracy")
    m = masks.sum(axis=1)
    return _top_hits(ctx, masks, m) / m


# --- adversarial sanity estimators ------------------------------------------


def adversarial_deterministic(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Perturbation-blind estimator: a uniform [0, 1) value per row read from
    the top 53 bits of its 64-bit estimator seed, which `perturb.collect`
    shares between a sample's unperturbed and perturbed rows."""
    seeds = np.asarray(ctx.seeds, dtype=np.uint64)
    return (seeds >> np.uint64(11)).astype(np.float64) * 2.0**-53


def adversarial_distribution_shift(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Estimator that deliberately answers from different distributions.

    Unperturbed rows draw from N(mu, 1) with mu uniform in [-100000, -1];
    the rows of a perturbed call (`ctx.is_perturbed`) draw with mu uniform
    in [0, 1].
    """
    out = np.empty(len(ctx.seeds))
    for b, seed in enumerate(ctx.seeds):
        rng = derive_rng("psi_neq", seed, int(ctx.is_perturbed))
        if ctx.is_perturbed:
            mu = rng.uniform(0.0, 1.0)
        else:
            mu = rng.uniform(-100000.0, -1.0)
        out[b] = rng.normal(mu, 1.0)
    return out


# --- the estimator table ----------------------------------------------------


@dataclass(frozen=True)
class Estimator:
    """One row of the estimator table: evaluate(ctx, cfg) -> (B,) floats, the
    direction in which a score is better, the family, and whether the
    estimator reads a ground-truth mask."""

    evaluate: object
    direction: str
    category: str
    needs_mask: bool = False


ESTIMATORS = {
    "faithfulness_correlation": Estimator(
        evaluate_faithfulness_correlation, HIGHER_BETTER, "faithfulness"
    ),
    "pixel_flipping": Estimator(evaluate_pixel_flipping, LOWER_BETTER, "faithfulness"),
    "max_sensitivity": Estimator(evaluate_max_sensitivity, LOWER_BETTER, "robustness"),
    "local_lipschitz": Estimator(evaluate_local_lipschitz, LOWER_BETTER, "robustness"),
    "model_parameter_randomisation": Estimator(
        evaluate_model_parameter_randomisation, LOWER_BETTER, "randomisation"
    ),
    "random_logit": Estimator(evaluate_random_logit, LOWER_BETTER, "randomisation"),
    "sparseness": Estimator(evaluate_sparseness, HIGHER_BETTER, "complexity"),
    "complexity": Estimator(evaluate_complexity, LOWER_BETTER, "complexity"),
    "pointing_game": Estimator(evaluate_pointing_game, HIGHER_BETTER, "localisation", True),
    "relevance_mass_accuracy": Estimator(
        evaluate_relevance_mass_accuracy, HIGHER_BETTER, "localisation", True
    ),
    "top_k_intersection": Estimator(
        evaluate_top_k_intersection, HIGHER_BETTER, "localisation", True
    ),
    "relevance_rank_accuracy": Estimator(
        evaluate_relevance_rank_accuracy, HIGHER_BETTER, "localisation", True
    ),
    "adversarial_deterministic": Estimator(adversarial_deterministic, HIGHER_BETTER, "adversarial"),
    "adversarial_distribution_shift": Estimator(
        adversarial_distribution_shift, HIGHER_BETTER, "adversarial"
    ),
}


@dataclass
class Scorer:
    """Pipeline-facing estimator: id, direction, and call(ctx) -> (B,) floats
    (NaN: undefined), one per row of the context."""

    estimator_id: str
    direction: str
    _call: object

    def __call__(self, ctx: EvalContext) -> np.ndarray:
        return self._call(ctx)


def make_scorer(estimator_id: str, cfg: EstimatorConfig) -> Scorer:
    """The table row of `estimator_id` bound to `cfg`."""
    if estimator_id not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator_id!r}")
    entry = ESTIMATORS[estimator_id]
    return Scorer(estimator_id, entry.direction, partial(entry.evaluate, cfg=cfg))
