import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xaimeta.stats import (
    EXACT_LIMIT,
    average_ranks,
    masked_row_sums,
    pearson,
    rank_descending,
    spearman,
    trapezoid_auc,
    wilcoxon_signed_rank,
)


def wilcoxon_enumeration_oracle(a, b):
    """Brute-force two-sided p-value over all 2^m sign assignments.

    Independent of the implementation under test: differences are ranked with
    average ranks, then every sign pattern is enumerated and the fraction of
    positive-rank sums at least as far from the center as the observed one is
    returned.
    """
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diffs = diffs[diffs != 0.0]
    m = diffs.size
    if m == 0:
        return 1.0
    ranks = average_ranks(np.abs(diffs))
    w_obs = ranks[diffs > 0].sum()
    center = ranks.sum() / 2.0
    count = 0
    for signs in itertools.product((0.0, 1.0), repeat=m):
        w = float(np.dot(signs, ranks))
        if abs(w - center) >= abs(w_obs - center) - 1e-12:
            count += 1
    return count / 2.0**m


def scalable_pairs():
    """Paired samples of 2-30 finite floats, each zero or at least 2**-1000 in
    magnitude, so that halving them and scaling them by 2**-4 are exact."""
    value = st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: x == 0.0 or abs(x) >= 2.0**-1000
    )
    return st.integers(2, 30).flatmap(
        lambda m: st.tuples(*[st.lists(value, min_size=m, max_size=m)] * 2)
    )


class TestWilcoxon:
    def test_identical_samples_give_p_one(self):
        a = np.array([0.3, 1.2, -4.0, 2.2])
        assert wilcoxon_signed_rank(a, a) == 1.0

    def test_six_positive_differences(self):
        # differences [1..6]: only the two all-one-sign assignments are as
        # extreme, so p = 2/64
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = np.zeros(6)
        assert wilcoxon_signed_rank(a, b) == pytest.approx(0.03125, abs=1e-15)

    def test_matches_enumeration_oracle_500_random(self):
        rng = np.random.default_rng(20240)
        for trial in range(500):
            m = int(rng.integers(2, 13))
            a = rng.normal(size=m)
            b = a - rng.normal(scale=rng.uniform(0.1, 3.0), size=m)
            if rng.uniform() < 0.3:
                # force ties in |difference| and some zero differences
                d = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=m)
                b = a - d
                if np.all(d == 0):
                    b[0] = a[0] - 1.0
            p = wilcoxon_signed_rank(a, b)
            p_oracle = wilcoxon_enumeration_oracle(a, b)
            assert p == pytest.approx(p_oracle, abs=1e-12), f"trial {trial}"

    def test_exact_and_approx_regimes_agree(self):
        # compare both code paths on the same data for m in [20, 25]
        from xaimeta.stats import _wilcoxon_approx_p, _wilcoxon_exact_p

        rng = np.random.default_rng(7)
        for trial in range(60):
            m = int(rng.integers(20, 26))
            diffs = rng.normal(loc=rng.uniform(-0.6, 0.6), size=m)
            diffs = diffs[diffs != 0]
            ranks = average_ranks(np.abs(diffs))
            w_plus = float(ranks[diffs > 0].sum())
            p_exact = _wilcoxon_exact_p(w_plus, ranks)
            p_approx = _wilcoxon_approx_p(w_plus, ranks)
            assert abs(p_exact - p_approx) < 0.01, f"trial {trial}: {p_exact} vs {p_approx}"

    def test_large_shift_small_p(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=30)
        b = a + 10.0 + rng.normal(scale=0.5, size=30)
        assert wilcoxon_signed_rank(a, b) < 1e-4

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 40))
            a = rng.normal(size=m)
            b = rng.normal(size=m)
            assert wilcoxon_signed_rank(a, b) == pytest.approx(
                wilcoxon_signed_rank(b, a), abs=1e-12
            )

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = int(rng.integers(2, 60))
            a = rng.normal(size=m)
            b = a - rng.normal(scale=rng.uniform(0.01, 5.0), size=m)
            p = wilcoxon_signed_rank(a, b)
            assert 0.0 < p <= 1.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [2.0])

    @settings(max_examples=200)
    @given(pair=scalable_pairs())
    @example(pair=([1e308, -1e308, 5e307, 1.0, 2.0], [-1e308, 1e308, -1.6e308, 0.5, 3.0]))
    def test_p_unchanged_by_power_of_two_scaling(self, pair):
        # scaling by 2**-4 is exact for these floats, so it keeps the order,
        # ties and signs of the differences; differences that overflow must
        # not collapse into one tie
        a, b = (np.array(side) for side in pair)
        assert wilcoxon_signed_rank(a, b) == wilcoxon_signed_rank(a * 2.0**-4, b * 2.0**-4)


class TestCorrelation:
    def test_pearson_identity(self):
        a = np.array([0.1, 2.0, -1.0, 4.0])
        assert pearson(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_pearson_negation(self):
        a = np.array([0.1, 2.0, -1.0, 4.0])
        assert pearson(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_pearson_hand_value(self):
        # centered products by hand: 3 / (sqrt(2) * sqrt(42/9))
        expected = 3.0 / math.sqrt(2.0 * 42.0 / 9.0)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(expected, abs=1e-12)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)

    def test_pearson_zero_variance_is_nan(self):
        assert math.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_spearman_monotone(self):
        a = np.array([0.5, 1.5, 7.0, 9.0])
        assert spearman(a, np.exp(a)) == pytest.approx(1.0, abs=1e-12)
        assert spearman(a, -(a**3)) == pytest.approx(-1.0, abs=1e-12)

    def test_spearman_hand_value_with_tie(self):
        # ranks [1.5, 1.5, 3] vs [1, 2, 3] -> 1.5 / sqrt(3)
        expected = 1.5 / math.sqrt(3.0)
        assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(expected, abs=1e-12)
        assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(0.86603, abs=1e-5)

    def test_spearman_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            base = spearman(a, b)
            assert spearman(np.exp(a), b) == pytest.approx(base, abs=1e-12)
            assert spearman(a, 3.0 * b + 2.0) == pytest.approx(base, abs=1e-12)


class TestScipyOracle:
    """Cross-checks against scipy.stats, an optional test-only dependency."""

    def test_wilcoxon_exact_regime(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(2, EXACT_LIMIT + 1))
            a, b = rng.normal(size=n), rng.normal(size=n)
            expected = scipy_stats.wilcoxon(a, b, method="exact").pvalue
            assert wilcoxon_signed_rank(a, b) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_wilcoxon_approx_regime_with_ties_and_zeros(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 300:
            n = int(rng.integers(EXACT_LIMIT + 1, 80))
            # one decimal place makes tied differences common; equal pairs give zeros
            a = np.round(rng.normal(size=n), 1)
            b = np.round(rng.normal(size=n), 1)
            zeros = int(rng.integers(0, 6))
            b[:zeros] = a[:zeros]
            if np.count_nonzero(a - b) <= EXACT_LIMIT:
                continue  # the implementation would switch to the exact regime
            expected = scipy_stats.wilcoxon(a, b, method="approx", correction=True).pvalue
            assert wilcoxon_signed_rank(a, b) == pytest.approx(expected, rel=0, abs=1e-12)
            checked += 1

    def test_spearman_on_tie_heavy_vectors(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 300:
            n = int(rng.integers(3, 30))
            a = rng.integers(0, 4, size=n).astype(float)
            b = rng.integers(0, 3, size=n).astype(float)
            if np.ptp(a) == 0 or np.ptp(b) == 0:
                continue  # constant input: both sides are undefined
            expected = scipy_stats.spearmanr(a, b).statistic
            assert spearman(a, b) == pytest.approx(expected, rel=0, abs=1e-12)
            checked += 1


class TestRanks:
    def test_descending_rank_example(self):
        assert rank_descending([0.76, 0.86, 0.66]).tolist() == [2, 1, 3]

    def test_tie_breaks_on_lowest_index(self):
        assert rank_descending([5.0, 5.0]).tolist() == [1, 2]

    def test_descending_input_is_identity(self):
        assert rank_descending([9.0, 4.0, 1.0, 0.5]).tolist() == [1, 2, 3, 4]

    def test_output_is_permutation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            v = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
            r = rank_descending(v)
            assert sorted(r.tolist()) == list(range(1, n + 1))

    def test_average_ranks_ties(self):
        assert average_ranks([10.0, 10.0, 3.0]).tolist() == [2.5, 2.5, 1.0]

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0]),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_average_ranks_match_tie_loop(self, values):
        # ties (including -0.0 == 0.0) and n = 1 against the tie-walking loop
        assert average_ranks(values).tobytes() == average_ranks_loop(values).tobytes()


def average_ranks_loop(values):
    """The tie-walking loop that average_ranks vectorises, kept as its oracle."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestTrapezoidAuc:
    def test_flat_curve(self):
        assert trapezoid_auc([0.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal(self):
        assert trapezoid_auc([0.0, 1.0], [0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_hand_trapezoid(self):
        # segment means 0.75, 0.375, 0.25, each over width 1/3 -> 11/24
        xs = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
        ys = [1.0, 0.5, 0.25, 0.25]
        assert trapezoid_auc(xs, ys) == pytest.approx(11.0 / 24.0, abs=1e-12)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            trapezoid_auc([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])


def pearson_dot_oracle(a, b):
    """The 1-D product-moment formula on plain dot products, as a scalar."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom == 0.0:
        return math.nan
    return float(np.clip((ac @ bc) / denom, -1.0, 1.0))


TIED_VALUES = st.one_of(
    st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0]), st.floats(-1e6, 1e6, allow_nan=False)
)


def row_pairs(min_size=2):
    """Two equal-shape (B, n) lists of rows with ties, signed zeros and constant rows."""
    return st.tuples(st.integers(1, 5), st.integers(min_size, 12)).flatmap(
        lambda shape: st.tuples(
            *[
                st.lists(
                    st.one_of(
                        st.lists(TIED_VALUES, min_size=shape[1], max_size=shape[1]),
                        TIED_VALUES.map(lambda v, n=shape[1]: [v] * n),  # a constant row
                    ),
                    min_size=shape[0],
                    max_size=shape[0],
                )
                for _ in range(2)
            ]
        )
    )


class TestRowWise:
    """Stacked rows give bit for bit what the 1-D call on each row gives."""

    @settings(max_examples=200)
    @given(pair=row_pairs())
    @example(pair=([[1.0, 1.0, 1.0], [-0.0, 0.0, 1.0]], [[1.0, 2.0, 3.0], [0.0, -0.0, 2.0]]))
    def test_correlations_match_row_loop(self, pair):
        a, b = (np.array(side) for side in pair)
        for fn in (pearson, spearman):
            looped = np.array([fn(a[i], b[i]) for i in range(len(a))])
            assert fn(a, b).tobytes() == looped.tobytes(), fn.__name__
        looped = np.array([pearson_dot_oracle(a[i], b[i]) for i in range(len(a))])
        assert pearson(a, b).tobytes() == looped.tobytes()

    def test_constant_rows_are_nan(self):
        r = pearson([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]])
        assert math.isnan(r[0]) and r[1] == pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert np.isnan(spearman([[-0.0, 0.0], [1.0, 2.0]], [[1.0, 2.0], [3.0, 3.0]])).all()

    @settings(max_examples=200)
    @given(pair=row_pairs(min_size=1))
    def test_ranks_match_row_loop(self, pair):
        values = np.array(pair[0])
        for fn in (average_ranks, rank_descending):
            looped = np.array([fn(row) for row in values])
            assert fn(values).tobytes() == looped.tobytes(), fn.__name__
        assert average_ranks(values).tobytes() == np.array(
            [average_ranks_loop(row) for row in values]
        ).tobytes()

    @settings(max_examples=200)
    @given(pair=row_pairs())
    def test_areas_and_masked_sums_match_row_loop(self, pair):
        ys, selector = (np.array(side) for side in pair)
        xs = np.cumsum(np.arange(1.0, ys.shape[1] + 1.0)) / 7.0
        looped = np.array([trapezoid_auc(xs, row) for row in ys])
        assert trapezoid_auc(xs, ys).tobytes() == looped.tobytes()
        keep = selector > 0.0
        looped = np.array([row[k].sum() for row, k in zip(ys, keep)])
        assert masked_row_sums(ys, keep).tobytes() == looped.tobytes()

    def test_one_dimensional_results_stay_scalars(self):
        assert isinstance(pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]), float)
        assert isinstance(spearman([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]), float)
        assert isinstance(trapezoid_auc([0.0, 1.0], [0.0, 1.0]), float)
