"""Validity-checked perturbations and perturbed-estimate collection.

Two tests are supported: IPT, additive uniform noise on inputs (clipped to
the dataset bounds), and MPT, multiplicative Gaussian noise on all model
parameters.  A perturbation is *minor* when the predicted label
survives it and *disruptive* when the label changes; payloads are resampled
until they comply or a cap is reached.  `draw_space` draws each (test,
strength, iteration) of payloads over the rows of a
`consistency.BenchmarkSetup`, which keeps it, and explains it once per
method; `collect` scores such a space with one estimator, giving the (N, L)
unperturbed and (N, L, K) perturbed quality estimates over the L
explanation methods that the consistency criteria consume.
"""
import math
import numbers
from dataclasses import dataclass, field

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
        for key in ("alpha", "beta", "sigma", "mu"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
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


def ipt_sample(net: Net, x, spec: PerturbSpec, draw_seed: int, bounds, label) -> PerturbedCase:
    """Draw additive uniform noise until the strength definition holds
    against `label`, the net's label of x.

    The perturbed input is clipped to the dataset bounds elementwise.  After
    spec.max_resamples failed attempts the last draw is returned with
    compliant=False; non-compliance is data, not an error.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(draw_seed)
    lo, hi = bounds
    original = int(label)
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


def mpt_sample(net: Net, X, spec: PerturbSpec, draw_seed: int, labels):
    """Draw a perturbed model and evaluate per-sample compliance against it;
    `labels` are the net's labels of X.

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
    best = None
    for attempt in range(1, spec.max_resamples + 1):
        net_hat = mpt_draw(net, spec, derive_seed(draw_seed, "redraw", attempt))
        new_labels = predict_labels(net_hat, X)
        compliant = _complies(spec.strength, labels, new_labels)
        fraction = float(compliant.mean())
        if best is None or fraction > best[2]:
            best = (net_hat, compliant, fraction)
        if fraction >= spec.min_retained_fraction:
            return net_hat, compliant, attempt
    if spec.strength == DISRUPTIVE and best[2] > 0.0:
        return best[0], best[1], spec.max_resamples
    raise PerturbationInfeasibleError(
        f"{spec.strength} model perturbation (sigma={spec.sigma}) reached "
        f"compliance {best[2]:.3f} after {spec.max_resamples} redraws"
    )


@dataclass
class PerturbedSpace:
    """One (test, strength, iteration) of payloads and every method's
    explanations of them: drawn and explained once, scored by every
    estimator.  Column 0 holds the unperturbed rows (the setup's own net,
    inputs and explanations), columns 1..K the payloads.  Its arrays are
    read-only, because every estimator sees them.  It holds no estimator
    seeds: `collect` derives one per method from the spec's seed.  `kept`
    holds, per (method_id, column), the dict of read-only tables that
    estimators compute from the column's explanations with explainer calls
    of their own (`EvalContext.kept`), so the estimators that share such a
    table compute it once per space, and it lives as long as the space."""

    columns: list  # column c: (net, (N,) bool rows it holds, inputs of those rows)
    attempts: np.ndarray  # (N, K) draws used per payload
    attributions: dict  # method_id -> column c's (rows, D) explanations, None if empty
    kept: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def compliant(self) -> np.ndarray:
        """(N, K) payload compliance, shared across methods."""
        return np.stack([rows for _, rows, _ in self.columns[1:]], axis=1)


def _read_only(array):
    array.setflags(write=False)
    return array


def draw_space(setup, spec: PerturbSpec) -> PerturbedSpace:
    """Draw the K payload columns of `spec` over the rows of `setup`, a
    `consistency.BenchmarkSetup`, then explain each non-empty one once per
    method; column 0 holds the setup's unperturbed rows and explanations.

    Under IPT payload column k holds the unperturbed net and the k-th
    perturbed rows, under MPT the k-th drawn net and X; every stochastic
    choice derives from spec.seed, so the space is independent of execution
    schedule.
    """
    labels, unperturbed = setup.labels, setup.attributions
    net, X, K = setup.net, setup.inputs, setup.K
    n, d = X.shape
    attempts = np.zeros((n, K))
    columns = [(net, _read_only(np.ones(n, dtype=bool)), X)]
    for k in range(K):
        if spec.test == IPT:
            cases = [
                ipt_sample(
                    net, X[i], spec, derive_seed(spec.seed, "ipt", k, i), setup.bounds, labels[i]
                )
                for i in range(n)
            ]
            rows = np.array([case.compliant for case in cases])
            attempts[:, k] = [case.attempts for case in cases]
            net_k = net
            inputs = np.array([case.payload for case in cases if case.compliant]).reshape(-1, d)
        else:
            draw_seed = derive_seed(spec.seed, "mpt", k)
            net_k, rows, attempts[:, k] = mpt_sample(net, X, spec, draw_seed, labels)
            inputs = X[rows]
        columns.append((net_k, _read_only(rows), _read_only(inputs)))
    attributions = {
        method_id: [unperturbed[method_id]]
        + [
            _read_only(explainer(net_k, inputs, labels[rows])) if len(inputs) else None
            for net_k, rows, inputs in columns[1:]
        ]
        for method_id, explainer in setup.methods
    }
    return PerturbedSpace(columns, _read_only(attempts), attributions)


# collect aborts when more than this share of samples ends up without a
# single retained draw, or of all estimates is undefined
MAX_DROPPED_FRACTION = 0.2
MAX_UNDEFINED_FRACTION = 0.1


@dataclass
class CollectResult:
    """One estimator's scores on one space.  Method j of `setup.methods` is
    column j; NaN marks an estimate that is missing (the payload did not
    comply) or undefined."""

    unperturbed: np.ndarray  # (N, L)
    perturbed: np.ndarray  # (N, L, K)
    compliant: np.ndarray  # (N, K) payload compliance, shared across methods
    dropped: list  # sample indices unusable for ranking criteria
    undefined_count: int
    total_count: int
    mean_attempts: float


def collect(setup, *, scorer, spec: PerturbSpec) -> CollectResult:
    """Gather unperturbed and K perturbed estimates per (sample, method) on
    the space `spec` names in `setup`, which draws it on first use.

    `scorer` is an estimators.Scorer, called per method once per non-empty
    column of the space on the rows it holds (all N in column 0, a payload's
    compliant ones in the others), with the explanations the space already
    holds and spec.seed as the space seed of every call; its non-finite
    results count as undefined.  The scores fill one (N, L, 1 + K) array,
    whose column 0 is the result's `unperturbed` and the rest `perturbed`.
    Each call carries the sample indices of its rows and the estimator seed
    of (space, method), so the estimator's own sampling is the same for a
    sample's unperturbed and perturbed rows and only the perturbation
    varies.  The calls of one method share one `draws` dict, so each of the
    estimator's tables is drawn once, by column 0, which holds every row,
    and lives until the method's last column is scored.  Payloads and
    explanations are shared across methods and estimators, so the
    explainers run at most 1 + K times per method and space, whatever the
    number of estimators.  Each call also carries the space's `kept` dict
    of its (method, column), so an estimator's own explainer calls, such as
    the in-ball re-explanations that max sensitivity and local Lipschitz
    share, run once per space for every estimator and cell that reads them.
    Aborts when more than MAX_DROPPED_FRACTION of samples end up without a
    single retained draw, or when more than MAX_UNDEFINED_FRACTION of all
    estimates are undefined.  `scorer` and `spec` are keyword-only because
    bench/tracer.py reads them by name.
    """
    space = setup.space(spec)
    held = np.stack([rows for _, rows, _ in space.columns], axis=1)  # (N, 1 + K)
    n = len(held)
    scores = np.full((n, len(setup.methods), held.shape[1]), np.nan)
    for j, (method_id, explainer) in enumerate(setup.methods):
        seed = derive_seed(spec.seed, "est", method_id)
        draws = {}  # the estimator's tables, drawn once for the 1 + K columns
        # one scorer call per non-empty column, over the rows it holds
        for c, (net_c, rows, inputs) in enumerate(space.columns):
            if rows.any():
                ctx = EvalContext(
                    net=net_c,
                    X=inputs,
                    labels=setup.labels[rows],
                    attributions=space.attributions[method_id][c],
                    explainer=explainer,
                    dataset_bounds=setup.bounds,
                    rows=np.flatnonzero(rows),
                    seed=seed,
                    masks=None if setup.masks is None else setup.masks[rows],
                    dataset_mean=setup.dataset_mean,
                    is_perturbed=c > 0,
                    space_seed=spec.seed,
                    draws=draws,
                    kept=space.kept.setdefault((method_id, c), {}),
                )
                scores[rows, j, c] = scorer(ctx)
    # entries of rows a column does not hold are still NaN, so never defined
    defined = np.isfinite(scores)
    scores[~defined] = np.nan
    compliant = held[:, 1:]
    total = len(setup.methods) * int(held.sum())
    undefined = total - int(defined.sum())
    usable = (defined[:, :, 0] & defined[:, :, 1:].any(axis=2)).all(axis=1)

    dropped = np.flatnonzero(~usable).tolist()
    if len(dropped) > MAX_DROPPED_FRACTION * n:
        # a dropped sample with a compliant payload lost it to undefined estimates
        no_payload = int((~compliant[dropped].any(axis=1)).sum())
        raise MetaEvaluationError(
            f"{len(dropped)}/{n} samples without usable estimates for {scorer.estimator_id} "
            f"under {spec.test}/{spec.strength} (cap {MAX_DROPPED_FRACTION:.0%}): "
            f"{no_payload} with no compliant payload, {len(dropped) - no_payload} with "
            f"undefined estimates; mean compliance {compliant.mean():.3f}"
        )
    if total and undefined > MAX_UNDEFINED_FRACTION * total:
        raise MetaEvaluationError(
            f"{undefined}/{total} estimates undefined for {scorer.estimator_id} "
            f"(cap {MAX_UNDEFINED_FRACTION:.0%})"
        )
    return CollectResult(
        unperturbed=scores[:, :, 0],
        perturbed=scores[:, :, 1:],
        compliant=compliant,
        dropped=dropped,
        undefined_count=undefined,
        total_count=total,
        mean_attempts=float(space.attempts.mean()),
    )
