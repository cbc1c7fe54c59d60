"""Self-contained statistical primitives.

Everything the consistency criteria need lives here: a two-sided Wilcoxon
signed-rank test (exact for small samples, normal approximation beyond),
Pearson and Spearman correlation, descending integer ranks and trapezoid
area under a curve.  No scipy dependency; degenerate inputs return NaN
("undefined") rather than raising, except where noted.
"""
import math

import numpy as np

# Sample sizes up to this many nonzero differences get the exact null
# distribution (equivalent to enumerating all 2^m sign assignments).
EXACT_LIMIT = 25


def _as_1d_pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("paired samples must be one-dimensional")
    if a.shape != b.shape:
        raise ValueError(f"paired samples differ in length: {a.size} vs {b.size}")
    if a.size < 2:
        raise ValueError("paired samples need length >= 2")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired samples must be finite")
    return a, b


def average_ranks(values) -> np.ndarray:
    """Ascending ranks 1..n with ties assigned their average rank."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # tie groups are runs of equal sorted values; group [i, j] gets 0.5 * (i + j) + 1
    n = values.size
    boundary = np.ones(n + 1, dtype=bool)
    boundary[1:n] = ordered[1:] != ordered[:-1]
    edges = np.flatnonzero(boundary)  # group starts, then n
    starts, sizes = edges[:-1], np.diff(edges)
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (2 * starts + sizes - 1) + 1.0, sizes)
    return ranks


def rank_descending(values) -> np.ndarray:
    """Integer ranks with 1 for the largest value; ties break on lowest index."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("rank_descending expects a nonempty 1-D vector")
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(1, values.size + 1)
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
    a, b = _as_1d_pair(a, b)
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    m = diffs.size
    if m == 0:
        return 1.0
    ranks = average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    if m <= EXACT_LIMIT:
        return _wilcoxon_exact_p(w_plus, ranks)
    return _wilcoxon_approx_p(w_plus, ranks)


def pearson(a, b) -> float:
    """Product-moment correlation; NaN when either side has zero variance."""
    a, b = _as_1d_pair(a, b)
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom == 0.0:
        return math.nan
    return float(np.clip((ac @ bc) / denom, -1.0, 1.0))


def spearman(a, b) -> float:
    """Pearson correlation of average ranks; NaN for constant input."""
    a, b = _as_1d_pair(a, b)
    return pearson(average_ranks(a), average_ranks(b))


def trapezoid_auc(xs, ys) -> float:
    """Trapezoid-rule area under (xs, ys); xs must be strictly increasing."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("trapezoid_auc expects equal-length 1-D vectors, length >= 2")
    if not (np.diff(xs) > 0).all():
        raise ValueError("xs must be strictly increasing")
    return float(((ys[:-1] + ys[1:]) / 2.0 * np.diff(xs)).sum())
