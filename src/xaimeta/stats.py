"""Self-contained statistical primitives.

Everything the consistency criteria need lives here: a two-sided Wilcoxon
signed-rank test (exact for small samples, normal approximation beyond),
Pearson and Spearman correlation, descending integer ranks, trapezoid area
under a curve and masked row sums.  No scipy dependency; degenerate inputs
return NaN ("undefined") rather than raising, except where noted.

Ranks, correlations, areas and masked sums work along the last axis: row i
of a stacked input gives bit for bit what the 1-D call on that row gives,
and a 1-D input gives a plain float where the result is a scalar.
"""
import math

import numpy as np

# Sample sizes up to this many nonzero differences get the exact null
# distribution (equivalent to enumerating all 2^m sign assignments).
EXACT_LIMIT = 25


def _as_pair(a, b, rows=False):
    """Validated float64 paired samples: 1-D, or with `rows` stacked along the last axis."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 and not (rows and a.ndim > 1):
        raise ValueError("paired samples must be one-dimensional")
    if a.shape != b.shape:
        raise ValueError(f"paired samples differ in shape: {a.shape} vs {b.shape}")
    if a.shape[-1] < 2:
        raise ValueError("paired samples need length >= 2")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired samples must be finite")
    return a, b


def _row_dots(a, b) -> np.ndarray:
    # one dot product per row, as `a @ b` computes it for a single pair of vectors
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scalar_if_1d(values, ndim):
    return float(values) if ndim == 1 else values


def average_ranks(values) -> np.ndarray:
    """Ascending ranks 1..n along the last axis, ties assigned their average rank."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    # tie groups are runs of equal sorted values; group [i, j) gets 0.5 * (i + j - 1) + 1
    n = values.shape[-1]
    position = np.arange(n)
    new_group = np.ones(values.shape, dtype=bool)
    new_group[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends_group = np.ones(values.shape, dtype=bool)
    ends_group[..., :-1] = new_group[..., 1:]
    starts = np.maximum.accumulate(np.where(new_group, position, 0), axis=-1)
    ends = np.flip(
        np.minimum.accumulate(np.flip(np.where(ends_group, position + 1, n), axis=-1), axis=-1),
        axis=-1,
    )
    ranks = np.empty_like(values)
    np.put_along_axis(ranks, order, 0.5 * (starts + ends - 1) + 1.0, axis=-1)
    return ranks


def rank_descending(values) -> np.ndarray:
    """Integer ranks along the last axis, 1 for the largest value; ties break on lowest index."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise ValueError("rank_descending expects nonempty rows")
    order = np.argsort(-values, axis=-1, kind="stable")
    ranks = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, values.shape[-1] + 1), axis=-1)
    return ranks


def _wilcoxon_exact_p(w_plus: float, ranks: np.ndarray) -> float:
    # Work on doubled ranks so ties (half-integer average ranks) stay integral.
    scaled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(scaled.sum())
    m = scaled.size
    # counts[s] = number of sign assignments whose positive-rank sum is s/2
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in scaled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts += shifted
    w2 = int(round(2.0 * w_plus))
    # two-sided: assignments at least as far from the center as observed,
    # measured in exact integer arithmetic (|2s - total| vs |2w - total|)
    support = np.arange(total + 1, dtype=np.int64)
    extreme = np.abs(2 * support - total) >= abs(2 * w2 - total)
    return float(counts[extreme].sum() / 2.0**m)


def _wilcoxon_approx_p(w_plus: float, ranks: np.ndarray) -> float:
    m = ranks.size
    mu = m * (m + 1) / 4.0
    tie_sizes = np.unique(ranks, return_counts=True)[1].astype(np.float64)
    var = m * (m + 1) * (2 * m + 1) / 24.0 - float(((tie_sizes**3 - tie_sizes) / 48.0).sum())
    if var <= 0.0:
        return 1.0
    dev = w_plus - mu
    # continuity correction: shrink toward the mean by one half step
    if abs(dev) <= 0.5:
        return 1.0
    z = (abs(dev) - 0.5) / math.sqrt(var)
    return math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a, b) -> float:
    """Two-sided Wilcoxon signed-rank p-value for paired samples.

    Zero differences are dropped; if every difference is zero the samples are
    maximally similar and p = 1.0.  Tied absolute differences receive average
    ranks.  For m <= EXACT_LIMIT remaining pairs the p-value is exact over
    all 2^m sign assignments; beyond that a normal approximation with tie and
    continuity corrections is used.
    """
    a, b = _as_pair(a, b)
    with np.errstate(over="ignore"):
        diffs = a - b
    if not np.isfinite(diffs).all():
        # halving is exact for normal floats, so order, ties and signs survive
        diffs = a / 2 - b / 2
    diffs = diffs[diffs != 0.0]
    m = diffs.size
    if m == 0:
        return 1.0
    ranks = average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    if m <= EXACT_LIMIT:
        return _wilcoxon_exact_p(w_plus, ranks)
    return _wilcoxon_approx_p(w_plus, ranks)


def pearson(a, b):
    """Product-moment correlation along the last axis; NaN where either side
    has zero variance."""
    a, b = _as_pair(a, b, rows=True)
    ac = a - a.mean(axis=-1, keepdims=True)
    bc = b - b.mean(axis=-1, keepdims=True)
    denom = np.sqrt(_row_dots(ac, ac) * _row_dots(bc, bc))
    r = np.divide(_row_dots(ac, bc), denom, out=np.full(denom.shape, np.nan), where=denom != 0.0)
    return _scalar_if_1d(np.clip(r, -1.0, 1.0), a.ndim)


def spearman(a, b):
    """Pearson correlation of average ranks along the last axis; NaN for constant input."""
    a, b = _as_pair(a, b, rows=True)
    return pearson(average_ranks(a), average_ranks(b))


def trapezoid_auc(xs, ys):
    """Trapezoid-rule area under (xs, ys) along the last axis of ys; xs must
    be strictly increasing."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim < 1 or ys.shape[-1] != xs.size or xs.size < 2:
        raise ValueError("trapezoid_auc expects 1-D xs and rows of ys of its length, length >= 2")
    if not (np.diff(xs) > 0).all():
        raise ValueError("xs must be strictly increasing")
    area = ((ys[..., :-1] + ys[..., 1:]) / 2.0 * np.diff(xs)).sum(axis=-1)
    return _scalar_if_1d(area, ys.ndim)


def masked_row_sums(values, keep) -> np.ndarray:
    """Sum of each row's `keep` entries of a (B, n) array, rounded as the
    1-D sum of that row's selection `values[b][keep[b]]` rounds it (numpy
    sums pairwise, so adding the skipped entries as zeros would not)."""
    values = np.asarray(values, dtype=np.float64)
    keep = np.asarray(keep, dtype=bool)
    counts = keep.sum(axis=1)
    sums = np.zeros(values.shape[0])
    # rows that keep the same number of entries sum as one (rows, count) block
    for count in np.unique(counts[counts > 0]):
        rows = counts == count
        sums[rows] = values[rows][keep[rows]].reshape(-1, count).sum(axis=1)
    return sums
