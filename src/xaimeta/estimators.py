"""Quality estimators: a batch of explanations in, one scalar per row out.

Twelve estimators across five families (faithfulness, robustness,
randomisation, complexity, localisation) plus two adversarial estimators
used to sanity-check the meta-evaluation itself.  Every estimator maps the
B rows of an `EvalContext` to a (B,) float64 array; NaN means the estimate
is undefined for that row.  `perturb.collect` marks every non-finite
estimate NaN, and `consistency` leaves NaN estimates out of aggregation.
Estimators are pure given (ctx, cfg) -- all randomness flows from the
estimator seed, through one generator call per stream and scorer call (or
per stream and shared `ctx.draws` dict) whose table row b reads at its
sample index `ctx.rows[b]`, and from the space seed, which every row of a
perturbed space shares (model parameter randomisation draws its randomised
layers from it).  A row's draws therefore depend only on its sample, not
on the other rows of its batch (its logits and gradients may, in the last
bit, through the matrix products).  `ESTIMATORS` is the one table of them:
evaluate, direction, family and mask need per id.
"""
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import stats
from .errors import ConfigError
from .explain import _copy_logits, _label_column
from .net import Layer, Net, _class_indices, replace_layer, softmax
from .seeding import derive_rng

HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"
# local Lipschitz skips an in-ball draw that moves its input less than this
MIN_DISPLACEMENT = 1e-12


@dataclass
class EvalContext:
    """The B rows that one estimator call scores under one (net, inputs) pair.

    `X` is the (B, D) float input batch, `labels` its (B,) classes and
    `attributions` the (B, D) explanation rows; `explainer` is the
    (normalized) batch explanation function, explainer(net, X, labels) ->
    (B, D), that produced them, and robustness and randomisation estimators
    re-invoke it.  `masks` is a (B, D) bool array whose every row marks at
    least one feature (`consistency.BenchmarkSetup` checks the masks once).
    `rows` holds the (B,) indices of the rows among the setup's N samples,
    at which each row reads the draws of `seed`, the estimator seed of the
    (space, method) the rows belong to; `space_seed` is the seed of the
    perturbed space, from which draws shared by every row come.
    `is_perturbed` says whether the inputs or `net` carry a perturbation
    payload.  `dataset_mean`, the mean of the setup's inputs, is the fill of
    the "mean" baseline strategy, which raises ConfigError without it.
    `draws`, when given, keeps the tables the estimator draws, keyed by
    (stream tag, seed), for the next context that shares it: `collect` hands
    one dict to the 1 + K contexts of one (space, method), so each table is
    drawn once for them.  `kept`, when given, keeps read-only tables that
    cost explainer calls for every later context of the same rows, inputs,
    net, explanations and explainer: each context of a space holds one, so
    max sensitivity and local Lipschitz explain their in-ball draws once.
    """

    net: Net
    X: np.ndarray
    labels: np.ndarray
    attributions: np.ndarray
    explainer: object
    dataset_bounds: tuple
    rows: np.ndarray  # (B,) sample indices
    seed: int
    masks: np.ndarray | None = None
    dataset_mean: float | None = None
    is_perturbed: bool = False
    space_seed: int = 0
    draws: dict | None = None
    kept: dict | None = None


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator hyperparameters; None means "derive the default from D".

    Subset and step sizes default to 2*sqrt(D) features; the robustness
    radius defaults to a tenth of the dataset range, and a radius that is set
    must be finite and positive; top-k defaults to the mask cardinality.
    `_block` checks all three sizes against D: each lies in [1, D].
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
        return _block(self.fc_subset_size, "fc_subset_size", d)

    def step_size(self, d: int) -> int:
        return _block(self.pf_step_size, "pf_step_size", d)

    def top_k(self, d: int) -> int | None:
        """topk_k, checked against d features; None means the mask cardinality."""
        return None if self.topk_k is None else _block(self.topk_k, "topk_k", d)

    def check_features(self, d: int):
        """Raise ConfigError when a size set here does not fit d features."""
        self.subset_size(d)
        self.step_size(d)
        self.top_k(d)

    def radius(self, bounds) -> float:
        if self.robustness_radius is not None:
            return self.robustness_radius
        return 0.1 * (bounds[1] - bounds[0])


def _block(size, name, d: int) -> int:
    """A block of `size` features out of d; None means 2*w, where w is the
    side of a square input (at least 1)."""
    if size is None:
        size = max(1, min(d, int(round(2 * math.sqrt(d)))))
    if not 1 <= size <= d:
        raise ConfigError(f"{name} {size} outside [1, {d}]")
    return size


def _read_only(array):
    array.setflags(write=False)
    return array


def _sample_draws(ctx, tag, draw) -> np.ndarray:
    """Row b's entry of the table draw(rng, m) makes for samples 0..m-1.

    `draw` must make exactly one generator call (and may transform each
    sample's entry on its own): a generator fills an array in order, so
    sample i's entry is the same for every table size above i, and a row
    draws the same alone as in any batch.  For the same reason a table kept
    in `ctx.draws` serves every later context of that dict whose rows it
    covers; a longer one is drawn afresh.
    """
    m = int(ctx.rows.max()) + 1
    key = (tag, ctx.seed)
    table = None if ctx.draws is None else ctx.draws.get(key)
    if table is None or len(table) < m:
        table = draw(derive_rng(tag, ctx.seed), m)
        if ctx.draws is not None:
            ctx.draws[key] = table
    return table[ctx.rows]


def _baseline_values(kind, tag, shape, ctx) -> np.ndarray:
    """(B, *shape) baseline fills: uniform ones from the `tag` stream, black
    ones the lower bound, mean ones the dataset mean."""
    lo, hi = ctx.dataset_bounds
    if kind == "uniform":
        return _sample_draws(ctx, tag, lambda rng, m: rng.uniform(lo, hi, size=(m, *shape)))
    if kind == "mean" and ctx.dataset_mean is None:
        raise ConfigError("the mean baseline needs the dataset mean")
    return np.broadcast_to(float(lo if kind == "black" else ctx.dataset_mean), (len(ctx.X), *shape))


# --- faithfulness -----------------------------------------------------------


def evaluate_faithfulness_correlation(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Pearson correlation between subset attribution sums and logit drops.

    Random feature subsets (without replacement within a subset) are replaced
    by the configured baseline; the correlation is taken over cfg.fc_runs
    subsets.  Undefined when either series has zero variance.

    A sample's `(fc_runs, D)` keys come from the "fc" stream; the argsort of
    key row r keeps its first `size` columns as run r's subset (a uniform
    subset without replacement).  Uniform `(fc_runs, size)` fills come from
    the "fc_fill" stream.  `explain._copy_logits` builds and scores the
    `fc_runs + 1` copies of each row one row chunk at a time: copy 0 is the
    input, whose logit is the base of every drop, and copy r + 1 the input
    with subset r replaced.
    """
    n, d = ctx.X.shape
    size = cfg.subset_size(d)
    runs = cfg.fc_runs
    subsets = _sample_draws(
        ctx, "fc", lambda rng, m: np.argsort(rng.random((m, runs, d)), axis=2)[:, :, :size]
    )
    fills = _baseline_values(cfg.fc_baseline, "fc_fill", (runs, size), ctx)
    attr_sums = np.take_along_axis(ctx.attributions[:, None, :], subsets, axis=2).sum(axis=2)

    def masked(rows):
        copies = np.repeat(ctx.X[rows, None, :], runs + 1, axis=1)
        np.put_along_axis(copies[:, 1:], subsets[rows], fills[rows], axis=2)
        return copies

    scores = _label_column(ctx.net, _copy_logits(ctx.net, n, runs + 1, masked), ctx.labels)
    return stats.pearson(attr_sums, scores[:, :1] - scores[:, 1:])


def evaluate_pixel_flipping(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Area under the predicted-class probability curve while flipping.

    Features are replaced by the baseline in blocks of cfg.pf_step_size, most
    attributed first (`stats.rank_descending` of the raw attribution); the
    x-axis is the fraction of features flipped.  A sample's D fills, in flip
    order, come from the "pf" stream.  `explain._copy_logits` builds and
    scores each row's flip sequence one row chunk at a time.
    """
    d = ctx.X.shape[1]
    step = cfg.step_size(d)
    # feature j is flipped ranks[b, j]-th and gets that fill
    ranks = stats.rank_descending(ctx.attributions) - 1
    filled = np.take_along_axis(_baseline_values(cfg.pf_baseline, "pf", (d,), ctx), ranks, axis=1)
    # copy 0 is the input, copy j the input after the first j blocks flipped
    flipped = np.minimum(np.arange(0, d + step, step), d)

    def curves(rows):
        flips = ranks[rows, None, :] < flipped[:, None]
        return np.where(flips, filled[rows, None, :], ctx.X[rows, None, :])

    logits = _copy_logits(ctx.net, len(ctx.X), len(flipped), curves)
    return stats.trapezoid_auc(flipped / d, _label_column(ctx.net, softmax(logits), ctx.labels))


# --- robustness -------------------------------------------------------------


def _row_norms(A) -> np.ndarray:
    # one dot product per row, as np.linalg.norm computes it for a single vector
    return np.sqrt(stats._row_dots(A, A))


def _in_ball_changes(ctx, cfg):
    """Explanation changes under the in-ball input draws, and the draws'
    effective (post-clip) displacement norms: both read-only (B, runs).

    A sample's `(runs, D)` uniform displacements come from the "ball"
    stream, which max sensitivity and local Lipschitz share.  One explainer
    call explains all B * runs draws, row by row in draw order; each
    estimator decides for itself which draws it reads (max sensitivity is
    undefined for a zero input, local Lipschitz skips a draw that moves its
    input by less than MIN_DISPLACEMENT).  When `ctx.kept` is given the two
    tables are kept in it under ("ball", seed, radius, runs), so whichever
    of the two estimators scores the context first explains for both.
    """
    radius = cfg.radius(ctx.dataset_bounds)
    key = ("ball", ctx.seed, radius, cfg.robustness_runs)
    if ctx.kept is not None and key in ctx.kept:
        return ctx.kept[key]
    lo, hi = ctx.dataset_bounds
    shape = (cfg.robustness_runs, ctx.X.shape[1])
    deltas = _sample_draws(ctx, "ball", lambda rng, m: rng.uniform(-radius, radius, (m, *shape)))
    x_pert = np.clip(ctx.X[:, None, :] + deltas, lo, hi)
    dists = _row_norms(x_pert - ctx.X[:, None, :])
    others = ctx.explainer(ctx.net, x_pert.reshape(-1, shape[1]), np.repeat(ctx.labels, shape[0]))
    changes = _row_norms(ctx.attributions[:, None, :] - others.reshape(x_pert.shape))
    tables = _read_only(changes), _read_only(dists)
    if ctx.kept is not None:
        ctx.kept[key] = tables
    return tables


def evaluate_max_sensitivity(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Largest explanation change over random in-ball input perturbations,
    relative to the input norm.  Undefined for a zero input, whose norm
    `stats._ratio_or_nan` divides by.  The changes come from
    `_in_ball_changes`, which local Lipschitz shares.
    """
    changes, _ = _in_ball_changes(ctx, cfg)
    return stats._ratio_or_nan(np.max(changes, axis=1), _row_norms(ctx.X))


def evaluate_local_lipschitz(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Largest explanation-change to input-change ratio over random draws.

    The denominator uses the effective (post-clip) displacement; a draw
    whose displacement is below MIN_DISPLACEMENT is skipped, and a row
    without any other draw is undefined.
    """
    changes, dists = _in_ball_changes(ctx, cfg)
    ratios = stats._ratio_or_nan(changes, np.where(dists >= MIN_DISPLACEMENT, dists, 0.0))
    # a skipped draw's ratio stays NaN, and fmax passes over it
    return np.fmax.reduce(ratios, axis=1)


# --- randomisation ----------------------------------------------------------


def evaluate_model_parameter_randomisation(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Mean rank correlation between the explanation and re-explanations of
    nets with one dense layer re-randomised at a time.

    Replacement parameters are drawn from a normal fitted to the original
    layer (its empirical mean and std, weights and bias pooled), once per
    layer from the space seed's "mpr" stream: as in the test of Adebayo et
    al. (2018), every row of the batch meets the same randomised net, each
    layer re-explains all rows in one explainer call, and one `spearman`
    call correlates all layers.  Layers whose correlation is undefined
    (constant map) are skipped; if every layer is skipped the estimate is
    undefined.
    """
    others = []
    for v, layer in enumerate(ctx.net.layers):
        pooled = np.concatenate([layer.weights.ravel(), layer.bias.ravel()])
        mu, sd = float(pooled.mean()), float(pooled.std())
        rng = derive_rng("mpr", ctx.space_seed, v)
        weights = rng.normal(mu, sd, size=layer.weights.shape)
        bias = rng.normal(mu, sd, size=layer.bias.shape)
        randomized = replace_layer(ctx.net, v, Layer(weights, bias))
        others.append(ctx.explainer(randomized, ctx.X, ctx.labels))
    # all layers' (L, B) correlations in one call, as (B, L)
    others = np.stack(others)
    correlations = stats.spearman(np.broadcast_to(ctx.attributions, others.shape), others).T
    defined = np.isfinite(correlations)
    counts = defined.sum(axis=1)
    return stats._ratio_or_nan(stats.masked_row_sums(correlations, defined), counts)


def evaluate_random_logit(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Rank correlation between the explanation for the predicted class and
    the explanation for a randomly drawn other class, one per row."""
    classes = ctx.net.num_classes
    if classes < 2:
        raise ConfigError("random_logit needs at least two classes")
    labels = _class_indices(ctx.net, ctx.labels, len(ctx.X))
    # a uniform draw from the C - 1 classes, shifted past the row's label
    draws = _sample_draws(ctx, "rl", lambda rng, m: rng.integers(classes - 1, size=m))
    other_classes = draws + (draws >= labels)
    others = ctx.explainer(ctx.net, ctx.X, other_classes)
    return stats.spearman(ctx.attributions, others)


# --- complexity -------------------------------------------------------------


def evaluate_sparseness(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Gini index of the absolute attribution; undefined for an all-zero map."""
    v = np.sort(np.abs(ctx.attributions), axis=1)
    d = v.shape[1]
    i = np.arange(1, d + 1)
    return stats._ratio_or_nan(((2 * i - d - 1) * v).sum(axis=1), d * v.sum(axis=1))


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


def _top_fraction(ctx, estimator_id, k) -> np.ndarray:
    """The fraction of each row's k highest absolute attributions that lie
    inside its mask, k None meaning the row's mask cardinality; ties break
    on the lowest index."""
    masks = _require_masks(ctx, estimator_id)
    k = masks.sum(axis=1) if k is None else np.full(len(masks), k)
    ranks = stats.rank_descending(np.abs(ctx.attributions))
    return (masks & (ranks <= k[:, None])).sum(axis=1) / k


def evaluate_pointing_game(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """1 when the maximally attributed feature lies inside the mask: the
    top-1 fraction."""
    return _top_fraction(ctx, "pointing_game", 1)


def evaluate_relevance_mass_accuracy(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Fraction of absolute attribution mass inside the mask."""
    masks = _require_masks(ctx, "relevance_mass_accuracy")
    v = np.abs(ctx.attributions)
    return stats._ratio_or_nan(stats.masked_row_sums(v, masks), v.sum(axis=1))


def evaluate_top_k_intersection(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Fraction of the K highest absolute attributions inside the mask;
    K defaults to the mask cardinality."""
    return _top_fraction(ctx, "top_k_intersection", cfg.top_k(ctx.attributions.shape[1]))


def evaluate_relevance_rank_accuracy(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Fraction of the |mask| highest absolute attributions inside the mask:
    top-k intersection at its default K."""
    return _top_fraction(ctx, "relevance_rank_accuracy", None)


# --- adversarial sanity estimators ------------------------------------------


def adversarial_deterministic(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Perturbation-blind estimator: a uniform [0, 1) value per sample from
    the "blind" stream, so a sample's unperturbed and perturbed rows read the
    same value."""
    return _sample_draws(ctx, "blind", lambda rng, m: rng.random(m))


def adversarial_distribution_shift(ctx: EvalContext, cfg: EstimatorConfig) -> np.ndarray:
    """Estimator that deliberately answers from different distributions.

    Unperturbed rows draw from N(mu, 1) with mu uniform in [-100000, -1];
    the rows of a perturbed call (`ctx.is_perturbed`) draw with mu uniform
    in [0, 1].  The means and the noise come from two streams, both tagged
    with `is_perturbed`.
    """
    perturbed = int(ctx.is_perturbed)
    lo, hi = (0.0, 1.0) if perturbed else (-100000.0, -1.0)
    mu = _sample_draws(ctx, f"psi_neq_mu{perturbed}", lambda rng, m: rng.uniform(lo, hi, m))
    noise = _sample_draws(ctx, f"psi_neq_noise{perturbed}", lambda rng, m: rng.standard_normal(m))
    return mu + noise


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
