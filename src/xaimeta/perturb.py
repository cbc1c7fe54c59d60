"""Validity-checked perturbations and perturbed-estimate collection.

Two tests are supported: IPT, additive uniform noise on inputs (clipped to
the dataset bounds), and MPT, multiplicative Gaussian noise on all model
parameters.  A perturbation is *minor* when the predicted label
survives it and *disruptive* when the label changes; payloads are resampled
until they comply or a cap is reached.  `collect` gathers the N x K matrix
of perturbed quality estimates per explanation method that the consistency
criteria consume.
"""
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import MetaEvaluationError, PerturbationInfeasibleError
from .estimators import EvalContext
from .net import Net, get_weights, predict_labels, set_weights
from .seeding import derive_seed

IPT = "ipt"
MPT = "mpt"
MINOR = "minor"
DISRUPTIVE = "disruptive"

# the default settings of each test at each strength: IPT's U(alpha, beta)
# input noise; MPT's N(mu, sigma^2) weight noise and the fraction of samples
# a drawn model must keep compliant
DEFAULT_WINDOWS = {
    (IPT, MINOR): {"alpha": -0.001, "beta": 0.001},
    (IPT, DISRUPTIVE): {"alpha": 0.0, "beta": 1.0},
    (MPT, MINOR): {"sigma": 0.001, "mu": 1.0, "min_retained_fraction": 0.8},
    (MPT, DISRUPTIVE): {"sigma": 2.0, "mu": 1.0, "min_retained_fraction": 0.8},
}
WINDOW_KEYS = {key for window in DEFAULT_WINDOWS.values() for key in window}


@dataclass(frozen=True)
class PerturbSpec:
    """One test at one strength; build it with `perturb_spec`.

    The window keys of the other test are None: they have no effect.
    """

    test: str
    strength: str
    alpha: float | None = None
    beta: float | None = None
    sigma: float | None = None
    mu: float | None = None
    max_resamples: int = 100
    min_retained_fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        window = DEFAULT_WINDOWS.get((self.test, self.strength))
        if window is None:
            raise ValueError(f"unknown perturbation {self.test!r}/{self.strength!r}")
        for key in sorted(WINDOW_KEYS - set(window)):
            if getattr(self, key) is not None:
                raise ValueError(f"{key} has no effect on {self.test} perturbations")
        unset = [key for key in window if getattr(self, key) is None]
        if unset:
            raise ValueError(f"{self.test}/{self.strength} needs {', '.join(unset)}")
        n = self.max_resamples
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"max_resamples must be an integer >= 1, got {n!r}")
        if self.test == IPT:
            if self.alpha > self.beta:
                raise ValueError("alpha must not exceed beta")
        else:
            if self.sigma < 0:
                raise ValueError("sigma must be nonnegative")
            if not 0 < self.min_retained_fraction <= 1:
                raise ValueError("min_retained_fraction must lie in (0, 1]")


def perturb_spec(test: str, strength: str, **overrides) -> PerturbSpec:
    """The DEFAULT_WINDOWS settings of (test, strength), then `overrides`."""
    window = DEFAULT_WINDOWS.get((test, strength), {})
    return PerturbSpec(test, strength, **{**window, **overrides})


@dataclass
class PerturbedCase:
    payload: object  # perturbed input vector or perturbed Net
    compliant: bool
    attempts: int


def _complies(strength: str, original, new):
    """Whether the new labels (a label or an array of them) satisfy `strength`."""
    if strength == MINOR:
        return new == original
    return new != original


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
        delta = rng.uniform(spec.alpha, spec.beta, size=x.size)
        x_hat = np.clip(x + delta, lo, hi)
        if _complies(spec.strength, original, int(predict_labels(net, x_hat[None, :])[0])):
            return PerturbedCase(x_hat, True, attempt)
    return PerturbedCase(x_hat, False, spec.max_resamples)


def mpt_draw(net: Net, spec: PerturbSpec, draw_seed: int) -> Net:
    """One multiplicative Gaussian draw over every dense parameter."""
    w = get_weights(net)
    nu = np.random.default_rng(draw_seed).normal(spec.mu, spec.sigma, size=w.size)
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
        compliant = _complies(spec.strength, original, new_labels)
        fraction = float(compliant.mean())
        if best is None or fraction > best[2]:
            best = (net_hat, compliant, fraction)
        if fraction >= spec.min_retained_fraction:
            return net_hat, compliant, attempt
    if spec.strength == DISRUPTIVE and best[2] > 0.0:
        return best[0], best[1], spec.max_resamples
    raise PerturbationInfeasibleError(
        f"{spec.strength} model perturbation (sigma={spec.sigma}) reached "
        f"compliance {best[2]:.3f} after {spec.max_resamples} redraws",
        achieved_fraction=best[2],
    )


# collect aborts when more than this share of samples ends up without a
# single retained draw, or of all estimates is undefined
MAX_DROPPED_FRACTION = 0.2
MAX_UNDEFINED_FRACTION = 0.1


@dataclass
class EstimateMatrix:
    """Scores for one method; NaN marks an estimate that is missing (the
    payload did not comply) or undefined."""

    unperturbed: np.ndarray  # (N,)
    perturbed: np.ndarray  # (N, K)


@dataclass
class CollectResult:
    per_method: dict  # method_id -> EstimateMatrix
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
) -> CollectResult:
    """Gather unperturbed and K perturbed estimates per (sample, method).

    `methods` is a sequence of (method_id, explainer) pairs, each explainer
    a batch callable(net, X, labels) -> (B, D); `scorer` is an
    estimators.Scorer, called per method once on the N unperturbed rows and
    once per non-empty payload column on its compliant rows; its
    non-finite results count as undefined.  `masks`, when given, is an
    (N, D) array whose every row marks at least one feature.  Payload
    column k is one (net, inputs) pair: under IPT the unperturbed net and
    the k-th perturbed rows, under MPT the k-th drawn net and X.  Payload draws are shared across methods;
    every stochastic choice derives from spec.seed, so results are
    independent of execution schedule.  Aborts when more than
    MAX_DROPPED_FRACTION of samples end up without a single retained draw,
    or when more than MAX_UNDEFINED_FRACTION of all estimates are undefined.
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

    # payload draws, shared by all methods
    compliant = np.zeros((n, K), dtype=bool)
    attempts = np.zeros((n, K))
    nets, inputs = [], []
    for k in range(K):
        if spec.test == IPT:
            cases = [
                ipt_sample(net, X[i], spec, derive_seed(spec.seed, "ipt", k, i), bounds)
                for i in range(n)
            ]
            nets.append(net)
            inputs.append(np.array([case.payload for case in cases]))
            compliant[:, k] = [case.compliant for case in cases]
            attempts[:, k] = [case.attempts for case in cases]
        else:
            draw_seed = derive_seed(spec.seed, "mpt", k)
            net_hat, compliant[:, k], attempts[:, k] = mpt_sample(net, X, spec, draw_seed)
            nets.append(net_hat)
            inputs.append(X)

    undefined = 0
    total = 0
    usable = np.ones(n, dtype=bool)
    per_method = {}
    for method_id, explainer in methods:
        # one estimator seed per (sample, method): the estimator's own
        # sampling stays fixed so that only the perturbed space varies
        seeds = np.array(
            [derive_seed(spec.seed, "est", i, method_id) for i in range(n)], dtype=np.uint64
        )

        def score(net_k, rows, X_k, is_perturbed):
            """Explain and score the given rows under one (net, inputs) pair."""
            ctx = EvalContext(
                net=net_k,
                X=X_k,
                labels=labels[rows],
                attributions=explainer(net_k, X_k, labels[rows]),
                explainer=explainer,
                dataset_bounds=bounds,
                seeds=seeds[rows],
                masks=None if masks is None else masks[rows],
                dataset_mean=dataset_mean,
                is_perturbed=is_perturbed,
            )
            return np.asarray(scorer(ctx), dtype=np.float64)

        # the N unperturbed rows, then each non-empty payload column over
        # its compliant rows: one explainer and one scorer call apiece
        unperturbed = score(net, np.ones(n, dtype=bool), X, False)
        perturbed = np.full((n, K), np.nan)
        for k in range(K):
            rows = compliant[:, k]
            if rows.any():
                perturbed[rows, k] = score(nets[k], rows, inputs[k][rows], True)
        # non-compliant entries are still NaN, so they are never retained
        defined = np.isfinite(unperturbed)
        retained = np.isfinite(perturbed)
        unperturbed[~defined] = np.nan
        perturbed[~retained] = np.nan
        scored = n + int(compliant.sum())
        total += scored
        undefined += scored - int(defined.sum()) - int(retained.sum())
        usable &= defined & retained.any(axis=1)
        per_method[method_id] = EstimateMatrix(unperturbed, perturbed)

    dropped = np.flatnonzero(~usable).tolist()
    if len(dropped) > MAX_DROPPED_FRACTION * n:
        raise MetaEvaluationError(
            f"{len(dropped)}/{n} samples without usable estimates under "
            f"{spec.test}/{spec.strength} (cap {MAX_DROPPED_FRACTION:.0%}); "
            f"mean compliance {compliant.mean():.3f}"
        )
    if total and undefined > MAX_UNDEFINED_FRACTION * total:
        raise MetaEvaluationError(
            f"{undefined}/{total} estimates undefined for {scorer.estimator_id} "
            f"(cap {MAX_UNDEFINED_FRACTION:.0%})"
        )
    return CollectResult(
        per_method=per_method,
        compliant=compliant,
        dropped=dropped,
        undefined_count=undefined,
        total_count=total,
        mean_attempts=float(attempts.mean()),
    )
