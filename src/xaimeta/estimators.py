"""Quality estimators: one explanation of one prediction in, one scalar out.

Twelve estimators across five families (faithfulness, robustness,
randomisation, complexity, localisation) plus two adversarial estimators
used to sanity-check the meta-evaluation itself.  Every estimator returns a
float; NaN means the estimate is undefined for that sample, and
`perturb.collect` keeps undefined estimates out of aggregation.  Estimators
are pure given (ctx, cfg) -- all randomness flows from ctx.seed.
"""
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import stats
from .errors import ConfigError
from .net import Layer, Net, dense_layer_indices, logits_batch, replace_layer, softmax
from .seeding import derive_rng

HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"


@dataclass
class EvalContext:
    """Everything a quality estimator may look at for one sample.

    `x` is the (D,) float input and `attribution` its (D,) explanation row;
    `explainer` is the (normalized) batch explanation function,
    explainer(net, X, labels) -> (B, D), that produced it, and robustness
    and randomisation estimators re-invoke it.  `mask` is a (D,) bool row
    marking at least one feature (`perturb.collect` checks its masks once
    per call).  `is_perturbed` says whether `x` or `net` carries a
    perturbation payload.  `dataset_mean` feeds the "mean" baseline
    strategy; `sample_index` keys the deterministic adversarial estimator.
    """

    net: Net
    x: np.ndarray
    label: int
    attribution: np.ndarray
    explainer: object
    dataset_bounds: tuple
    mask: np.ndarray | None = None
    dataset_mean: float | None = None
    seed: int = 0
    sample_index: int = 0
    is_perturbed: bool = False


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator hyperparameters; None means "derive the default from D".

    Subset and step sizes default to 2*sqrt(D) features; the robustness
    radius defaults to a tenth of the dataset range; top-k defaults to the
    mask cardinality.
    """

    fc_subset_size: int | None = None
    fc_runs: int = 100
    fc_baseline: str = "uniform"  # black | uniform | mean
    pf_step_size: int | None = None
    pf_baseline: str = "uniform"
    robustness_runs: int = 10
    robustness_radius: float | None = None
    topk_k: int | None = None
    direction: str | None = None  # override of the registry direction

    def __post_init__(self):
        if self.fc_runs < 1 or self.robustness_runs < 1:
            raise ValueError("run counts must be >= 1")
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


def _baseline_values(kind, indices, ctx, rng):
    lo, hi = ctx.dataset_bounds
    if kind == "black":
        return np.full(len(indices), lo)
    if kind == "mean":
        mean = ctx.dataset_mean if ctx.dataset_mean is not None else float(ctx.x.mean())
        return np.full(len(indices), mean)
    return rng.uniform(lo, hi, size=len(indices))


# --- faithfulness -----------------------------------------------------------


def evaluate_faithfulness_correlation(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Pearson correlation between subset attribution sums and logit drops.

    Random feature subsets (without replacement within a subset) are replaced
    by the configured baseline; the correlation is taken over cfg.fc_runs
    subsets.  Undefined when either series has zero variance.
    """
    rng = derive_rng("fc", ctx.seed)
    d = ctx.x.size
    size = cfg.subset_size(d)
    base_logit = logits_batch(ctx.net, ctx.x[None, :])[0, ctx.label]
    subsets = np.empty((cfg.fc_runs, size), dtype=np.int64)
    fills = np.empty((cfg.fc_runs, size))
    # choice and uniform draws interleave on one stream, so draw run by run
    for r in range(cfg.fc_runs):
        subsets[r] = rng.choice(d, size=size, replace=False)
        fills[r] = _baseline_values(cfg.fc_baseline, subsets[r], ctx, rng)
    attr_sums = ctx.attribution[subsets].sum(axis=1)
    masked = np.repeat(ctx.x[None, :], cfg.fc_runs, axis=0)
    np.put_along_axis(masked, subsets, fills, axis=1)
    drops = base_logit - logits_batch(ctx.net, masked)[:, ctx.label]
    return stats.pearson(attr_sums, drops)


def evaluate_pixel_flipping(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Area under the predicted-class probability curve while flipping.

    Features are replaced by the baseline in blocks of cfg.pf_step_size, most
    attributed first (descending raw attribution, stable ties); the x-axis is
    the fraction of features flipped.
    """
    rng = derive_rng("pf", ctx.seed)
    d = ctx.x.size
    step = cfg.step_size(d)
    order = np.argsort(-ctx.attribution, kind="stable")
    starts = range(0, d, step)
    # row 0 is the input, row j the input after the first j blocks flipped
    curve = np.repeat(ctx.x[None, :], len(starts) + 1, axis=0)
    for j, start in enumerate(starts, start=1):
        block = order[start : start + step]
        curve[j:, block] = _baseline_values(cfg.pf_baseline, block, ctx, rng)
    xs = [0.0] + [min(start + step, d) / d for start in starts]
    ys = softmax(logits_batch(ctx.net, curve))[:, ctx.label]
    return stats.trapezoid_auc(xs, ys)


# --- robustness -------------------------------------------------------------


def _perturbed_inputs(ctx, cfg, rng, runs):
    """`runs` in-ball draws as rows, in the order a draw-by-draw loop makes them."""
    lo, hi = ctx.dataset_bounds
    radius = cfg.radius(ctx.dataset_bounds)
    delta = rng.uniform(-radius, radius, size=(runs, ctx.x.size))
    x_pert = np.clip(ctx.x + delta, lo, hi)
    return x_pert, x_pert - ctx.x  # effective displacement after clipping


def _row_norms(A) -> np.ndarray:
    # one dot product per row, as np.linalg.norm computes it for a single vector
    return np.sqrt((A[:, None, :] @ A[:, :, None]).ravel())


def evaluate_max_sensitivity(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Largest explanation change over random in-ball input perturbations,
    relative to the input norm.  Undefined for a zero input."""
    x_norm = float(np.linalg.norm(ctx.x))
    if x_norm == 0.0:
        return math.nan
    rng = derive_rng("ms", ctx.seed)
    x_pert, _ = _perturbed_inputs(ctx, cfg, rng, cfg.robustness_runs)
    others = ctx.explainer(ctx.net, x_pert, ctx.label)
    return float(np.max(_row_norms(ctx.attribution - others) / x_norm))


def evaluate_local_lipschitz(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Largest explanation-change to input-change ratio over random draws.

    The denominator uses the effective (post-clip) displacement; degenerate
    draws below 1e-12 are redrawn, in order, up to 1000 draws per run.
    """
    rng = derive_rng("lle", ctx.seed)
    runs = cfg.robustness_runs
    kept_inputs, kept_dists = [], []
    accepted = attempts = 0
    while accepted < runs and attempts < 1000 * runs:
        batch = min(runs - accepted, 1000 * runs - attempts)
        attempts += batch
        x_pert, delta = _perturbed_inputs(ctx, cfg, rng, batch)
        dists = _row_norms(delta)
        keep = dists >= 1e-12
        kept_inputs.append(x_pert[keep])
        kept_dists.append(dists[keep])
        accepted += int(keep.sum())
    if accepted == 0:
        return math.nan
    others = ctx.explainer(ctx.net, np.concatenate(kept_inputs), ctx.label)
    ratios = _row_norms(ctx.attribution - others) / np.concatenate(kept_dists)
    return float(np.max(ratios))


# --- randomisation ----------------------------------------------------------


def evaluate_model_parameter_randomisation(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Mean rank correlation between the explanation and re-explanations of
    nets with one dense layer re-randomised at a time.

    Replacement parameters are drawn from a normal fitted to the original
    layer (its empirical mean and std, weights and bias pooled).  Layers
    whose correlation is undefined (constant map) are skipped; if every
    layer is skipped the estimate is undefined.
    """
    base = ctx.attribution
    correlations = []
    for v, layer_index in enumerate(dense_layer_indices(ctx.net)):
        layer = ctx.net.layers[layer_index]
        pooled = np.concatenate([layer.weights.ravel(), layer.bias.ravel()])
        mu, sd = float(pooled.mean()), float(pooled.std())
        rng = derive_rng("mpr", ctx.seed, v)
        new_layer = Layer(
            "dense",
            rng.normal(mu, sd, size=layer.weights.shape),
            rng.normal(mu, sd, size=layer.bias.shape),
        )
        randomized = replace_layer(ctx.net, layer_index, new_layer)
        other = ctx.explainer(randomized, ctx.x[None, :], ctx.label)[0]
        rho = stats.spearman(base, other)
        if not math.isnan(rho):
            correlations.append(rho)
    if not correlations:
        return math.nan
    return float(np.mean(correlations))


def evaluate_random_logit(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Rank correlation between the explanation for the predicted class and
    the explanation for a randomly drawn other class."""
    if ctx.net.num_classes < 2:
        raise ConfigError("random_logit needs at least two classes")
    rng = derive_rng("rl", ctx.seed)
    others = [c for c in range(ctx.net.num_classes) if c != ctx.label]
    y_other = int(rng.choice(others))
    other = ctx.explainer(ctx.net, ctx.x[None, :], y_other)[0]
    return stats.spearman(ctx.attribution, other)


# --- complexity -------------------------------------------------------------


def evaluate_sparseness(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Gini index of the absolute attribution; undefined for an all-zero map."""
    v = np.sort(np.abs(ctx.attribution))
    total = v.sum()
    if total == 0.0:
        return math.nan
    d = v.size
    i = np.arange(1, d + 1)
    return float(((2 * i - d - 1) * v).sum() / (d * total))


def evaluate_complexity(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Shannon entropy of the normalized absolute attribution (0 ln 0 := 0)."""
    v = np.abs(ctx.attribution)
    total = v.sum()
    if total == 0.0:
        return math.nan
    p = v / total
    nonzero = p[p > 0]
    return float(-(nonzero * np.log(nonzero)).sum())


# --- localisation -----------------------------------------------------------


def _require_mask(ctx, estimator_id):
    if ctx.mask is None:
        raise ConfigError(f"{estimator_id} requires a ground-truth mask")
    return ctx.mask


def _top_indices(values, k):
    return np.argsort(-values, kind="stable")[:k]


def evaluate_pointing_game(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """1 when the maximally attributed feature lies inside the mask.

    Works on absolute attributions; ties break on the lowest index.
    """
    mask = _require_mask(ctx, "pointing_game")
    hit = bool(mask[int(np.argmax(np.abs(ctx.attribution)))])
    return 1.0 if hit else 0.0


def evaluate_relevance_mass_accuracy(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Fraction of absolute attribution mass inside the mask."""
    mask = _require_mask(ctx, "relevance_mass_accuracy")
    v = np.abs(ctx.attribution)
    total = v.sum()
    if total == 0.0:
        return math.nan
    return float(v[mask].sum() / total)


def evaluate_top_k_intersection(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Fraction of the K highest absolute attributions inside the mask;
    K defaults to the mask cardinality."""
    mask = _require_mask(ctx, "top_k_intersection")
    k = cfg.topk_k if cfg.topk_k is not None else int(mask.sum())
    if not 1 <= k <= ctx.x.size:
        raise ConfigError(f"topk_k {k} outside [1, {ctx.x.size}]")
    top = _top_indices(np.abs(ctx.attribution), k)
    return float(mask[top].sum() / k)


def evaluate_relevance_rank_accuracy(ctx: EvalContext, cfg: EstimatorConfig) -> float:
    """Fraction of the |mask| highest absolute attributions inside the mask."""
    mask = _require_mask(ctx, "relevance_rank_accuracy")
    m = int(mask.sum())
    top = _top_indices(np.abs(ctx.attribution), m)
    return float(mask[top].sum() / m)


# --- adversarial sanity estimators ------------------------------------------


@dataclass
class DeterministicAdversaryState:
    """Per-sample uniform draws that Psi= returns no matter what it is shown."""

    n_samples: int
    seed: int
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        self.values = derive_rng("psi_eq", self.seed).uniform(0.0, 1.0, size=self.n_samples)


def adversarial_deterministic(ctx: EvalContext, state: DeterministicAdversaryState) -> float:
    """Perturbation-blind estimator: the same fixed draw for a sample index,
    whether or not the inputs were perturbed."""
    return float(state.values[ctx.sample_index])


def adversarial_distribution_shift(ctx: EvalContext) -> float:
    """Estimator that deliberately answers from different distributions.

    Unperturbed calls draw from N(mu, 1) with mu uniform in [-100000, -1];
    any perturbed call (`ctx.is_perturbed`) draws with mu uniform in [0, 1].
    """
    rng = derive_rng("psi_neq", ctx.seed, int(ctx.is_perturbed))
    if ctx.is_perturbed:
        mu = rng.uniform(0.0, 1.0)
    else:
        mu = rng.uniform(-100000.0, -1.0)
    return float(rng.normal(mu, 1.0))


# --- registry ---------------------------------------------------------------

DIRECTIONS = {
    "faithfulness_correlation": HIGHER_BETTER,
    "pixel_flipping": LOWER_BETTER,
    "max_sensitivity": LOWER_BETTER,
    "local_lipschitz": LOWER_BETTER,
    "model_parameter_randomisation": LOWER_BETTER,
    "random_logit": LOWER_BETTER,
    "sparseness": HIGHER_BETTER,
    "complexity": LOWER_BETTER,
    "pointing_game": HIGHER_BETTER,
    "relevance_mass_accuracy": HIGHER_BETTER,
    "top_k_intersection": HIGHER_BETTER,
    "relevance_rank_accuracy": HIGHER_BETTER,
    "adversarial_deterministic": HIGHER_BETTER,
    "adversarial_distribution_shift": HIGHER_BETTER,
}

ESTIMATOR_FUNCTIONS = {
    "faithfulness_correlation": evaluate_faithfulness_correlation,
    "pixel_flipping": evaluate_pixel_flipping,
    "max_sensitivity": evaluate_max_sensitivity,
    "local_lipschitz": evaluate_local_lipschitz,
    "model_parameter_randomisation": evaluate_model_parameter_randomisation,
    "random_logit": evaluate_random_logit,
    "sparseness": evaluate_sparseness,
    "complexity": evaluate_complexity,
    "pointing_game": evaluate_pointing_game,
    "relevance_mass_accuracy": evaluate_relevance_mass_accuracy,
    "top_k_intersection": evaluate_top_k_intersection,
    "relevance_rank_accuracy": evaluate_relevance_rank_accuracy,
}

CATEGORIES = {
    "faithfulness_correlation": "faithfulness",
    "pixel_flipping": "faithfulness",
    "max_sensitivity": "robustness",
    "local_lipschitz": "robustness",
    "model_parameter_randomisation": "randomisation",
    "random_logit": "randomisation",
    "sparseness": "complexity",
    "complexity": "complexity",
    "pointing_game": "localisation",
    "relevance_mass_accuracy": "localisation",
    "top_k_intersection": "localisation",
    "relevance_rank_accuracy": "localisation",
    "adversarial_deterministic": "adversarial",
    "adversarial_distribution_shift": "adversarial",
}

NEEDS_MASK = {
    "pointing_game",
    "relevance_mass_accuracy",
    "top_k_intersection",
    "relevance_rank_accuracy",
}

ADVERSARIAL_IDS = ("adversarial_deterministic", "adversarial_distribution_shift")


@dataclass
class Scorer:
    """Pipeline-facing estimator: id, direction, and call(ctx) -> float (NaN: undefined)."""

    estimator_id: str
    direction: str
    _call: object

    def __call__(self, ctx: EvalContext) -> float:
        return self._call(ctx)


def make_scorer(estimator_id: str, cfg: EstimatorConfig, n_samples: int = 0, state_seed: int = 0):
    """Build a Scorer; adversarial estimators get their state wired in here."""
    if estimator_id == "adversarial_deterministic":
        state = DeterministicAdversaryState(n_samples=n_samples, seed=state_seed)
        call = partial(adversarial_deterministic, state=state)
    elif estimator_id == "adversarial_distribution_shift":
        call = adversarial_distribution_shift
    elif estimator_id in ESTIMATOR_FUNCTIONS:
        call = partial(ESTIMATOR_FUNCTIONS[estimator_id], cfg=cfg)
    else:
        raise ConfigError(f"unknown estimator {estimator_id!r}")
    direction = cfg.direction if cfg.direction is not None else DIRECTIONS[estimator_id]
    return Scorer(estimator_id, direction, call)
