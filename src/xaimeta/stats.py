"""Self-contained statistical primitives.

Everything the consistency criteria need lives here: a two-sided Wilcoxon
signed-rank test (exact for small samples, normal approximation beyond),
Pearson and Spearman correlation, descending integer ranks, trapezoid area
under a curve and masked row sums.  No scipy dependency; degenerate inputs
return NaN ("undefined") rather than raising, except where noted.
`rank_descending` is the one descending order of the package: the ranking
criterion, the pixel-flipping order and the top-k readout of the
localisation estimators all read it, ties broken on the lowest index.

Wilcoxon p-values, ranks, correlations, areas and masked sums work along
the last axis: row i of a stacked input gives bit for bit what the 1-D call
on that row gives, and a 1-D input gives a plain float where the result is
a scalar.  `wilcoxon_signed_rank` leaves a pair with a NaN side out of its
row, so one call tests rows with different numbers of usable pairs, and it
sends all its exact rows through one call and all its normal-approximation
rows (variance Σr²/4, which is the tie-corrected variance) through another.
`average_ranks` gives a tie group one averaged rank whatever order its
members sort in, so its ranks do not depend on sort stability, and it
ranks all rows of a stack in one sort.  `spearman` ranks both of its sides
in one `average_ranks` call, and model parameter randomisation correlates
all of its layers in one `spearman` call.
"""
import math

import numpy as np

# Sample sizes up to this many nonzero differences get the exact null
# distribution (equivalent to enumerating all 2^m sign assignments).
EXACT_LIMIT = 25


def _as_pair(a, b, nan_pairs=False):
    """Validated float64 paired samples, stacked along the last axis; with
    `nan_pairs` a NaN passes (the caller leaves its pair out)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 0:
        raise ValueError("paired samples must be at least one-dimensional")
    if a.shape != b.shape:
        raise ValueError(f"paired samples differ in shape: {a.shape} vs {b.shape}")
    if a.shape[-1] < 2:
        raise ValueError("paired samples need length >= 2")
    bad = np.isinf if nan_pairs else lambda x: ~np.isfinite(x)
    if bad(a).any() or bad(b).any():
        raise ValueError("paired samples must be finite")
    return a, b


def _row_dots(a, b) -> np.ndarray:
    # one dot product per row, as `a @ b` computes it for a single pair of vectors
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scalar_if_1d(values, ndim):
    return float(values) if ndim == 1 else values


def _ratio_or_nan(numerator, denominator) -> np.ndarray:
    """numerator / denominator of any shape, NaN where the denominator is 0."""
    out = np.full(np.shape(denominator), np.nan)
    return np.divide(numerator, denominator, out=out, where=denominator != 0.0)


def average_ranks(values) -> np.ndarray:
    """Ascending ranks 1..n along the last axis, ties assigned their average rank.

    A tie group gets one averaged rank whatever order its members sort in,
    so the ranks do not depend on sort stability.  NaN raises ValueError;
    an empty last axis gives an empty array.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 0:
        raise ValueError("average_ranks expects at least one axis")
    n = values.shape[-1]
    if n == 0:
        return np.empty_like(values)
    rows = values.reshape(-1, n)
    # each row's order, offset to index the flattened rows
    flat = (np.argsort(rows, axis=-1) + np.arange(0, rows.size, n)[:, None]).ravel()
    ordered = rows.ravel()[flat]
    # NaN sorts last in its row
    if np.isnan(ordered[n - 1 :: n]).any():
        raise ValueError("average_ranks expects no NaN")
    # a tie group is a run of equal sorted values within one row; the group
    # of size t starting at row position i gets 0.5 * (2i + t - 1) + 1
    new_group = np.empty(flat.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
    new_group[::n] = True
    firsts = np.flatnonzero(new_group)
    sizes = np.diff(firsts, append=flat.size)
    ranks = np.empty(flat.size)
    ranks[flat] = np.repeat(0.5 * (2 * (firsts % n) + sizes - 1) + 1.0, sizes)
    return ranks.reshape(values.shape)


def rank_descending(values) -> np.ndarray:
    """Integer ranks along the last axis, 1 for the largest value; ties break on lowest index."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise ValueError("rank_descending expects nonempty rows")
    order = np.argsort(-values, axis=-1, kind="stable")
    ranks = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, values.shape[-1] + 1), axis=-1)
    return ranks


def _wilcoxon_exact_p(w_plus, ranks):
    """Exact two-sided p of each row's positive-rank sum `w_plus` over the
    2^m sign assignments of its nonzero `ranks` (zero marks a left-out entry);
    1-D ranks give a float."""
    ranks = np.asarray(ranks, dtype=np.float64)
    # Work on doubled ranks so ties (half-integer average ranks) stay integral;
    # sorted descending, each row's left-out zeros come last.
    scaled = -np.sort(-np.rint(2.0 * np.atleast_2d(ranks)).astype(np.int64), axis=1)
    total = scaled.sum(axis=1)
    m = (scaled > 0).sum(axis=1)
    # counts[i, s] = number of sign assignments of row i whose positive-rank
    # sum is s/2; every count is an integer below 2^53, so the order in which
    # ranks enter leaves them exact
    support = np.arange(int(total.max()) + 1)
    # counts is padded on the left by `pad` zeros, so windows[i, pad - r] is
    # row i's counts shifted right by r, and windows[i, 0] is all zeros
    pad = support.size + int(scaled.max())
    padded = np.zeros((len(scaled), pad + support.size))
    padded[:, pad] = 1.0
    counts = padded[:, pad:]
    windows = np.lib.stride_tricks.sliding_window_view(padded, support.size, axis=1)
    rows = np.arange(len(scaled))
    for r in scaled[:, : m.max()].T:
        counts += windows[rows, np.where(r > 0, pad - r, 0)]
    w2 = np.rint(2.0 * np.atleast_1d(w_plus)).astype(np.int64)
    # two-sided: assignments at least as far from the center as observed,
    # measured in exact integer arithmetic (|2s - total| vs |2w - total|)
    extreme = np.abs(2 * support - total[:, None]) >= np.abs(2 * w2 - total)[:, None]
    p = np.where(extreme, counts, 0.0).sum(axis=1) / 2.0**m
    return float(p[0]) if ranks.ndim == 1 else p


def _wilcoxon_approx_p(w_plus, ranks):
    """Normal-approximation two-sided p, with continuity correction, of each
    row's positive-rank sum `w_plus` over its nonzero `ranks` (zero marks a
    left-out entry); 1-D ranks give a float.

    Under the null each rank's sign is a fair coin, so W+ has mean Σr/2 and
    variance Σr²/4: for average ranks, m(m+1)/4 and the tie-corrected
    m(m+1)(2m+1)/24 - Σ(t³ - t)/48 over tie groups of size t.  Each r is a
    multiple of 1/2 and each r² of 1/4, so both sums are exact in any order.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    block = np.atleast_2d(ranks)
    # continuity correction: shrink toward the mean by one half step, to 0 at most
    dev = np.maximum(np.abs(np.atleast_1d(w_plus) - block.sum(axis=1) / 2.0) - 0.5, 0.0)
    z = dev / np.sqrt((block**2).sum(axis=1) / 4.0)
    p = np.array([math.erfc(v) for v in z / math.sqrt(2.0)])
    return float(p[0]) if ranks.ndim == 1 else p


def wilcoxon_signed_rank(a, b):
    """Two-sided Wilcoxon signed-rank p-value for paired samples along the
    last axis.

    A pair with a NaN side is left out of its row, and each row needs at
    least two pairs left; infinities raise.  Zero differences are dropped; if
    every difference is zero the samples are maximally similar and p = 1.0.
    Tied absolute differences receive average ranks.  For m <= EXACT_LIMIT
    remaining pairs the p-value is exact over all 2^m sign assignments;
    beyond that a normal approximation with tie and continuity corrections
    is used.
    """
    a, b = _as_pair(a, b, nan_pairs=True)
    shape = a.shape[:-1]
    a, b = a.reshape(-1, a.shape[-1]), b.reshape(-1, a.shape[-1])
    paired = ~(np.isnan(a) | np.isnan(b))
    if (paired.sum(axis=1) < 2).any():
        raise ValueError("paired samples need two pairs without NaN in every row")
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = a - b
        # halving is exact for normal floats, so order, ties and signs survive
        overflow = (np.isinf(diffs) & paired).any(axis=1, keepdims=True)
        diffs = np.where(overflow, a / 2 - b / 2, diffs)
    kept = paired & (diffs != 0.0)
    # left-out entries rank last, so the kept ones get ranks 1..m
    ranks = np.where(kept, average_ranks(np.where(kept, np.abs(diffs), np.inf)), 0.0)
    # sums of half-integer ranks are exact in any order
    w_plus = np.where(diffs > 0, ranks, 0.0).sum(axis=1)
    m = kept.sum(axis=1)
    p = np.ones(len(m))
    exact = (m > 0) & (m <= EXACT_LIMIT)
    if exact.any():
        p[exact] = _wilcoxon_exact_p(w_plus[exact], ranks[exact])
    approx = m > EXACT_LIMIT
    if approx.any():
        p[approx] = _wilcoxon_approx_p(w_plus[approx], ranks[approx])
    return _scalar_if_1d(p.reshape(shape), len(shape) + 1)


def _correlate(a, b):
    # product-moment correlation of validated rows, NaN at zero variance
    ac = a - a.mean(axis=-1, keepdims=True)
    bc = b - b.mean(axis=-1, keepdims=True)
    denom = np.sqrt(_row_dots(ac, ac) * _row_dots(bc, bc))
    r = _ratio_or_nan(_row_dots(ac, bc), denom)
    return _scalar_if_1d(np.clip(r, -1.0, 1.0), a.ndim)


def pearson(a, b):
    """Product-moment correlation along the last axis; NaN where either side
    has zero variance."""
    return _correlate(*_as_pair(a, b))


def spearman(a, b):
    """Pearson correlation of average ranks along the last axis; NaN for
    constant input.  Both sides are ranked in one `average_ranks` call."""
    a, b = _as_pair(a, b)
    ranks = average_ranks(np.stack((a, b)))
    return _correlate(ranks[0], ranks[1])


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
    """Sum of the `keep` entries of each row (along the last axis) of `values`,
    rounded as the 1-D sum of that row's selection `values[b][keep[b]]`
    rounds it (numpy sums pairwise, so adding the skipped entries as zeros
    would not)."""
    values = np.asarray(values, dtype=np.float64)
    keep = np.asarray(keep, dtype=bool)
    counts = keep.sum(axis=-1)
    sums = np.zeros(values.shape[:-1])
    # rows that keep the same number of entries sum as one (rows, count) block
    for count in np.unique(counts[counts > 0]):
        rows = counts == count
        sums[rows] = values[rows][keep[rows]].reshape(-1, count).sum(axis=1)
    return sums
