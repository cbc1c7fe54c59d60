"""Validity-checked perturbations and perturbed-estimate collection.

Two perturbation spaces are supported: additive uniform noise on inputs
(clipped to the dataset bounds) and multiplicative Gaussian noise on all
model parameters.  A perturbation is *minor* when the predicted label
survives it and *disruptive* when the label changes; payloads are resampled
until they comply or a cap is reached.  `collect` gathers the N x K matrix
of perturbed quality estimates per explanation method that the consistency
criteria consume.
"""
from dataclasses import dataclass

import numpy as np

from .errors import MetaEvaluationError, PerturbationInfeasibleError
from .estimators import EvalContext
from .net import Net, get_weights, predict_labels, set_weights
from .seeding import derive_seed

INPUT_SPACE = "input"
MODEL_SPACE = "model"
MINOR = "minor"
DISRUPTIVE = "disruptive"

# noise defaults per failure mode
IPT_NOISE = {MINOR: (-0.001, 0.001), DISRUPTIVE: (0.0, 1.0)}
MPT_SIGMA = {MINOR: 0.001, DISRUPTIVE: 2.0}


@dataclass(frozen=True)
class PerturbSpec:
    space: str
    strength: str
    ipt_alpha: float = -0.001
    ipt_beta: float = 0.001
    mpt_sigma: float = 0.001
    mpt_mu: float = 1.0
    max_resamples: int = 100
    min_retained_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.space not in (INPUT_SPACE, MODEL_SPACE):
            raise ValueError(f"unknown perturbation space {self.space!r}")
        if self.strength not in (MINOR, DISRUPTIVE):
            raise ValueError(f"unknown perturbation strength {self.strength!r}")
        if self.ipt_alpha > self.ipt_beta:
            raise ValueError("ipt_alpha must not exceed ipt_beta")
        if self.mpt_sigma < 0:
            raise ValueError("mpt_sigma must be nonnegative")
        if self.max_resamples < 1:
            raise ValueError("max_resamples must be >= 1")
        if not 0 < self.min_retained_fraction <= 1:
            raise ValueError("min_retained_fraction must lie in (0, 1]")


def input_spec(strength: str, seed: int = 0, alpha=None, beta=None, **kwargs) -> PerturbSpec:
    """IPT spec with the default noise window for the given strength."""
    a, b = IPT_NOISE[strength]
    return PerturbSpec(
        INPUT_SPACE,
        strength,
        ipt_alpha=a if alpha is None else alpha,
        ipt_beta=b if beta is None else beta,
        seed=seed,
        **kwargs,
    )


def model_spec(strength: str, seed: int = 0, sigma=None, **kwargs) -> PerturbSpec:
    """MPT spec with the default noise scale for the given strength."""
    return PerturbSpec(
        MODEL_SPACE,
        strength,
        mpt_sigma=MPT_SIGMA[strength] if sigma is None else sigma,
        seed=seed,
        **kwargs,
    )


@dataclass
class PerturbedCase:
    payload: object  # perturbed input vector or perturbed Net
    compliant: bool
    attempts: int


def _complies(strength: str, original_label: int, new_label: int) -> bool:
    if strength == MINOR:
        return new_label == original_label
    return new_label != original_label


def ipt_sample(net: Net, x, spec: PerturbSpec, draw_seed: int, bounds) -> PerturbedCase:
    """Draw additive uniform noise until the strength definition holds.

    The perturbed input is clipped to the dataset bounds elementwise.  After
    spec.max_resamples failed attempts the last draw is returned with
    compliant=False; non-compliance is data, not an error.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(draw_seed)
    lo, hi = bounds
    original = int(predict_labels(net, x[None, :])[0])
    x_hat = x
    for attempt in range(1, spec.max_resamples + 1):
        delta = rng.uniform(spec.ipt_alpha, spec.ipt_beta, size=x.size)
        x_hat = np.clip(x + delta, lo, hi)
        if _complies(spec.strength, original, int(predict_labels(net, x_hat[None, :])[0])):
            return PerturbedCase(x_hat, True, attempt)
    return PerturbedCase(x_hat, False, spec.max_resamples)


def mpt_draw(net: Net, spec: PerturbSpec, draw_seed: int) -> Net:
    """One multiplicative Gaussian draw over every dense parameter."""
    w = get_weights(net)
    nu = np.random.default_rng(draw_seed).normal(spec.mpt_mu, spec.mpt_sigma, size=w.size)
    return set_weights(net, w * nu)


def mpt_sample(net: Net, X, spec: PerturbSpec, draw_seed: int):
    """Draw a perturbed model and evaluate per-sample compliance against it.

    One model draw serves all samples; samples whose label does not behave
    as the strength demands are simply marked non-compliant.  The model is
    redrawn (up to spec.max_resamples times) while fewer than
    min_retained_fraction of samples comply.  When the cap is exhausted,
    minor strength raises PerturbationInfeasibleError; disruptive strength
    falls back to the best draw seen and errors only if no sample ever
    complied with any draw.

    Returns (perturbed net, per-sample compliance mask, attempts used).
    """
    X = np.asarray(X, dtype=np.float64)
    original = predict_labels(net, X)
    best = None
    for attempt in range(1, spec.max_resamples + 1):
        net_hat = mpt_draw(net, spec, derive_seed(draw_seed, "redraw", attempt))
        new_labels = predict_labels(net_hat, X)
        if spec.strength == MINOR:
            compliant = new_labels == original
        else:
            compliant = new_labels != original
        fraction = float(compliant.mean())
        if best is None or fraction > best[2]:
            best = (net_hat, compliant, fraction)
        if fraction >= spec.min_retained_fraction:
            return net_hat, compliant, attempt
    if spec.strength == DISRUPTIVE and best[2] > 0.0:
        return best[0], best[1], spec.max_resamples
    raise PerturbationInfeasibleError(
        f"{spec.strength} model perturbation (sigma={spec.mpt_sigma}) reached "
        f"compliance {best[2]:.3f} after {spec.max_resamples} redraws",
        achieved_fraction=best[2],
    )


@dataclass
class EstimateMatrix:
    """Unperturbed scores and the N x K perturbed-score table for one method."""

    unperturbed: np.ndarray  # (N,)
    unperturbed_ok: np.ndarray  # (N,) bool, estimate defined
    perturbed: np.ndarray  # (N, K)
    retained: np.ndarray  # (N, K) bool, payload compliant and estimate defined


@dataclass
class CollectResult:
    per_method: dict  # method_id -> EstimateMatrix
    labels: np.ndarray  # predicted labels the explanations target
    compliant: np.ndarray  # (N, K) payload compliance, shared across methods
    dropped: list  # sample indices unusable for ranking criteria
    undefined_count: int
    total_count: int
    mean_attempts: float


def collect(
    net: Net,
    X,
    methods,
    scorer,
    spec: PerturbSpec,
    K: int,
    bounds,
    dataset_mean: float | None = None,
    masks=None,
    max_dropped_fraction: float = 0.2,
    max_undefined_fraction: float = 0.1,
) -> CollectResult:
    """Gather unperturbed and K perturbed estimates per (sample, method).

    `methods` is a sequence of (method_id, explainer) pairs, each explainer
    a batch callable(net, X, labels) -> (B, D); `scorer` is an
    estimators.Scorer, called once per estimate, whose non-finite results
    count as undefined.  `masks`, when given, is an (N, D) array whose every
    row marks at least one feature.  Payload draws are shared across
    methods; every stochastic choice derives from spec.seed, so results are
    independent of execution schedule.  Aborts when more than
    `max_dropped_fraction` of samples end up without a single retained
    draw, or when more than `max_undefined_fraction` of all estimates are
    undefined.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if K < 1 or n < 2:
        raise ValueError("collect needs K >= 1 and at least two samples")
    if masks is not None:
        masks = np.asarray(masks).astype(bool)
        if masks.shape != X.shape or not masks.any(axis=1).all():
            raise ValueError("masks must be (N, D) and mark at least one feature per row")
    bounds = tuple(bounds)
    labels = predict_labels(net, X)

    def score(i, net_i, x_i, attribution, explainer, seed, is_perturbed):
        return scorer(
            EvalContext(
                net=net_i,
                x=x_i,
                label=int(labels[i]),
                attribution=attribution,
                explainer=explainer,
                dataset_bounds=bounds,
                mask=None if masks is None else masks[i],
                dataset_mean=dataset_mean,
                seed=seed,
                sample_index=i,
                is_perturbed=is_perturbed,
            )
        )

    # payload draws, shared by all methods
    compliant = np.zeros((n, K), dtype=bool)
    attempts = np.zeros((n, K))
    payload_inputs = np.empty((n, K, X.shape[1])) if spec.space == INPUT_SPACE else None
    payload_nets = [] if spec.space == MODEL_SPACE else None
    for k in range(K):
        if spec.space == INPUT_SPACE:
            for i in range(n):
                case = ipt_sample(net, X[i], spec, derive_seed(spec.seed, "ipt", k, i), bounds)
                payload_inputs[i, k] = case.payload
                compliant[i, k] = case.compliant
                attempts[i, k] = case.attempts
        else:
            net_hat, mask_k, used = mpt_sample(net, X, spec, derive_seed(spec.seed, "mpt", k))
            payload_nets.append(net_hat)
            compliant[:, k] = mask_k
            attempts[:, k] = used

    undefined = 0
    total = 0
    per_method = {}
    for method_id, explainer in methods:
        # one explainer call for the unperturbed rows, then one per payload
        # column over its compliant rows; each call sees at most n rows
        base = explainer(net, X, labels)
        columns = np.empty((K, *X.shape))
        for k in range(K):
            rows = compliant[:, k]
            if not rows.any():
                continue
            if spec.space == INPUT_SPACE:
                columns[k, rows] = explainer(net, payload_inputs[rows, k], labels[rows])
            else:
                columns[k, rows] = explainer(payload_nets[k], X[rows], labels[rows])
        unperturbed = np.empty(n)
        perturbed = np.full((n, K), np.nan)
        for i in range(n):
            # one estimator seed per (sample, method): the estimator's own
            # sampling stays fixed so that only the perturbed space varies
            seed_ij = derive_seed(spec.seed, "est", i, method_id)
            unperturbed[i] = score(i, net, X[i], base[i], explainer, seed_ij, False)
            for k in np.flatnonzero(compliant[i]):
                if spec.space == INPUT_SPACE:
                    x_i, net_i = payload_inputs[i, k], net
                else:
                    x_i, net_i = X[i], payload_nets[k]
                perturbed[i, k] = score(i, net_i, x_i, columns[k, i], explainer, seed_ij, True)
        # non-compliant entries are still NaN, so they are never retained
        unperturbed_ok = np.isfinite(unperturbed)
        retained = np.isfinite(perturbed)
        unperturbed[~unperturbed_ok] = np.nan
        perturbed[~retained] = np.nan
        scored = n + int(compliant.sum())
        total += scored
        undefined += scored - int(unperturbed_ok.sum()) - int(retained.sum())
        per_method[method_id] = EstimateMatrix(unperturbed, unperturbed_ok, perturbed, retained)

    dropped = [
        i
        for i in range(n)
        if any(
            not m.unperturbed_ok[i] or not m.retained[i].any() for m in per_method.values()
        )
    ]
    if len(dropped) > max_dropped_fraction * n:
        raise MetaEvaluationError(
            f"{len(dropped)}/{n} samples without usable estimates under "
            f"{spec.space}/{spec.strength} (cap {max_dropped_fraction:.0%}); "
            f"mean compliance {compliant.mean():.3f}"
        )
    if total and undefined > max_undefined_fraction * total:
        raise MetaEvaluationError(
            f"{undefined}/{total} estimates undefined for {scorer.estimator_id} "
            f"(cap {max_undefined_fraction:.0%})"
        )
    return CollectResult(
        per_method=per_method,
        labels=labels,
        compliant=compliant,
        dropped=dropped,
        undefined_count=undefined,
        total_count=total,
        mean_attempts=float(attempts.mean()),
    )
