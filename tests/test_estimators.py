import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xaimeta.estimators as estimators_module
import xaimeta.explain as explain_module
from xaimeta.errors import ConfigError
from xaimeta.estimators import ESTIMATORS, EstimatorConfig, EvalContext, make_scorer
from xaimeta import stats
from xaimeta.explain import METHODS, ExplainerConfig, build_explainer
from xaimeta.net import (
    Layer,
    dense,
    init_net,
    logits_batch,
    make_net,
    replace_layer,
    softmax,
)
from xaimeta.seeding import derive_rng, derive_seed
from xaimeta.stats import spearman


def one_row(evaluate):
    """`evaluate` on a one-row context, as the float of its one row."""

    def call(ctx, cfg):
        (estimate,) = evaluate(ctx, cfg)
        return float(estimate)

    return call


# the estimators as the single-sample tests below call them
adversarial_deterministic = one_row(estimators_module.adversarial_deterministic)
adversarial_distribution_shift = one_row(estimators_module.adversarial_distribution_shift)
evaluate_complexity = one_row(estimators_module.evaluate_complexity)
evaluate_faithfulness_correlation = one_row(estimators_module.evaluate_faithfulness_correlation)
evaluate_local_lipschitz = one_row(estimators_module.evaluate_local_lipschitz)
evaluate_max_sensitivity = one_row(estimators_module.evaluate_max_sensitivity)
evaluate_model_parameter_randomisation = one_row(
    estimators_module.evaluate_model_parameter_randomisation
)
evaluate_pixel_flipping = one_row(estimators_module.evaluate_pixel_flipping)
evaluate_pointing_game = one_row(estimators_module.evaluate_pointing_game)
evaluate_random_logit = one_row(estimators_module.evaluate_random_logit)
evaluate_relevance_mass_accuracy = one_row(estimators_module.evaluate_relevance_mass_accuracy)
evaluate_relevance_rank_accuracy = one_row(estimators_module.evaluate_relevance_rank_accuracy)
evaluate_sparseness = one_row(estimators_module.evaluate_sparseness)
evaluate_top_k_intersection = one_row(estimators_module.evaluate_top_k_intersection)

CFG = EstimatorConfig()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fc_runs": 1},
        {"robustness_radius": 0.0},
        {"robustness_radius": -0.1},
        {"robustness_radius": math.inf},
        {"robustness_radius": math.nan},
    ],
)
def test_config_rejects_degenerate_run_counts_and_radii(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        EstimatorConfig(**kwargs)


def linear_net(W, bias=None):
    W = np.asarray(W, dtype=float)
    b = np.zeros(W.shape[0]) if bias is None else np.asarray(bias, float)
    return make_net([dense(W, b)])


def two_layer_net(rng, d=4, h=6, c=3):
    return make_net(
        [
            dense(rng.normal(size=(h, d)), rng.normal(size=h)),
            dense(rng.normal(size=(c, h)), rng.normal(size=c)),
        ]
    )


def make_ctx(
    net, x, label=0, values=None, explainer=None, mask=None, seed=0, bounds=(0.0, 1.0), row=0
):
    """A one-row batch context for the sample x, sample `row` of its setup."""
    X = np.asarray(x, dtype=float)[None, :]
    labels = np.array([label])
    if explainer is not None and values is None:
        values = explainer(net, X, labels)[0]
    return EvalContext(
        net=net,
        X=X,
        labels=labels,
        attributions=np.asarray(values, dtype=float)[None, :],
        explainer=explainer,
        dataset_bounds=bounds,
        rows=np.array([row]),
        seed=seed,
        masks=None if mask is None else np.asarray(mask)[None, :],
    )


def constant_explainer(values):
    values = np.asarray(values, dtype=float)

    def fn(net, X, labels):
        return np.tile(values, (len(X), 1))

    return fn


def identity_explainer(net, X, labels):
    return np.array(X, dtype=float)


class TestFaithfulnessCorrelation:
    def sum_net(self, d=6):
        W = np.vstack([np.ones(d), np.zeros(d)])
        return linear_net(W)

    def test_perfectly_aligned_attribution(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.2, 0.9, size=6)
        ctx = make_ctx(self.sum_net(), x, values=x, bounds=(0.0, 1.0))
        cfg = EstimatorConfig(fc_subset_size=2, fc_runs=30, fc_baseline="black")
        est = evaluate_faithfulness_correlation(ctx, cfg)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_anti_aligned_attribution(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.2, 0.9, size=6)
        ctx = make_ctx(self.sum_net(), x, values=-x)
        cfg = EstimatorConfig(fc_subset_size=2, fc_runs=30, fc_baseline="black")
        est = evaluate_faithfulness_correlation(ctx, cfg)
        assert est == pytest.approx(-1.0, abs=1e-12)

    def test_constant_model_undefined(self):
        net = linear_net(np.zeros((2, 4)))
        ctx = make_ctx(net, [0.1, 0.2, 0.3, 0.4], values=[1.0, 2.0, 3.0, 4.0])
        est = evaluate_faithfulness_correlation(ctx, EstimatorConfig(fc_subset_size=2))
        assert math.isnan(est)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(2)
        net = two_layer_net(rng)
        x = rng.uniform(size=4)
        explainer = build_explainer("gradient", ExplainerConfig())
        a = evaluate_faithfulness_correlation(
            make_ctx(net, x, explainer=explainer, seed=5), CFG
        )
        b = evaluate_faithfulness_correlation(
            make_ctx(net, x, explainer=explainer, seed=5), CFG
        )
        assert a == b

    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_matches_replayed_draw_oracle(self, seed):
        # replay the documented draws at the row's sample index: (runs, d)
        # keys -> row-wise argsort -> first `size` columns, and (runs, size)
        # fills from a stream of their own; the base logit and every masked
        # row get a forward pass of their own
        rng = np.random.default_rng(seed)
        net = two_layer_net(rng, d=8)
        x = rng.uniform(size=8)
        values = rng.normal(size=8)
        cfg = EstimatorConfig(fc_subset_size=3, fc_runs=12)
        row = seed % 13
        ctx = make_ctx(net, x, values=values, seed=seed, row=row)
        est = evaluate_faithfulness_correlation(ctx, cfg)

        keys = derive_rng("fc", seed).random((row + 1, 12, 8))[row]
        fills = derive_rng("fc_fill", seed).uniform(0.0, 1.0, size=(row + 1, 12, 3))[row]
        base = logits_batch(net, x[None, :])[0, 0]
        sums, drops = [], []
        for r in range(12):
            subset = np.argsort(keys[r])[:3]
            masked = x.copy()
            masked[subset] = fills[r]
            sums.append(values[subset].sum())
            drops.append(base - logits_batch(net, masked[None, :])[0, 0])
        assert est == pytest.approx(np.corrcoef(sums, drops)[0, 1], abs=1e-12)

    @staticmethod
    def below_bounds_ctx(d, seed, bounds=(0.0, 1.0)):
        # x lies below the dataset bounds, so every fill differs from the
        # feature it replaces and the changed entries are exactly the subset
        net = linear_net(np.ones((2, d)))
        x = np.full(d, bounds[0] - 1.0)
        return make_ctx(net, x, values=np.arange(d, dtype=float), seed=seed, bounds=bounds)

    @staticmethod
    def replaced(ctx, cfg):
        """The (runs, D) mask of replaced features and the masked rows, from
        the one batch the estimator scores (row 0 is the input itself)."""
        batches = []

        def spy(net, X):
            batches.append(np.array(X))
            return logits_batch(net, X)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(explain_module, "logits_batch", spy)
            evaluate_faithfulness_correlation(ctx, cfg)
        (batch,) = batches
        x = ctx.X[0]
        assert batch.shape == (cfg.fc_runs + 1, x.size)
        assert np.array_equal(batch[0], x)
        return batch[1:] != x, batch[1:]

    @settings(max_examples=80, deadline=None)
    @given(
        d_size=st.integers(1, 40).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))),
        runs=st.integers(2, 60),
        lo=st.floats(-5.0, 5.0),
        width=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_subsets_distinct_and_fills_in_bounds(self, d_size, runs, lo, width, seed):
        d, size = d_size
        ctx = self.below_bounds_ctx(d, seed, bounds=(lo, lo + width))
        changed, rows = self.replaced(ctx, EstimatorConfig(fc_subset_size=size, fc_runs=runs))
        # each row replaces exactly `size` distinct features of [0, d)
        assert (changed.sum(axis=1) == size).all()
        fills = rows[changed]
        assert ((fills >= lo) & (fills <= lo + width)).all()

    def test_inclusion_rate_is_uniform(self):
        d, size, runs = 10, 3, 4000
        ctx = self.below_bounds_ctx(d, seed=11)
        changed, _ = self.replaced(ctx, EstimatorConfig(fc_subset_size=size, fc_runs=runs))
        p = size / d
        stderr = math.sqrt(p * (1 - p) / runs)
        assert np.all(np.abs(changed.mean(axis=0) - p) < 5 * stderr)

    @pytest.mark.parametrize("baseline, fill", [("black", 0.0), ("mean", 0.4)])
    def test_black_and_mean_fills_are_constant(self, baseline, fill):
        ctx = self.below_bounds_ctx(12, seed=3)
        ctx.dataset_mean = 0.4
        cfg = EstimatorConfig(fc_subset_size=4, fc_runs=20, fc_baseline=baseline)
        changed, rows = self.replaced(ctx, cfg)
        assert (changed.sum(axis=1) == 4).all()
        assert (rows[changed] == fill).all()


@pytest.mark.parametrize("estimator_id", ["faithfulness_correlation", "pixel_flipping"])
def test_mean_baseline_needs_the_dataset_mean(estimator_id):
    ctx = make_ctx(linear_net(np.ones((2, 8))), np.linspace(0.1, 0.8, 8), values=np.arange(8.0))
    assert ctx.dataset_mean is None
    cfg = EstimatorConfig(fc_subset_size=2, fc_runs=4, fc_baseline="mean", pf_baseline="mean")
    with pytest.raises(ConfigError, match="dataset mean"):
        make_scorer(estimator_id, cfg)(ctx)


@pytest.mark.parametrize("label", [-1, 2, 1.7])
@pytest.mark.parametrize("estimator_id", ["faithfulness_correlation", "pixel_flipping"])
def test_a_label_outside_the_classes_is_an_index_error(estimator_id, label):
    ctx = make_ctx(linear_net(np.ones((2, 8))), np.linspace(0.1, 0.8, 8), label, np.arange(8.0))
    cfg = EstimatorConfig(fc_subset_size=2, fc_runs=4)
    with pytest.raises(IndexError, match=r"outside \[0, 2\)"):
        make_scorer(estimator_id, cfg)(ctx)


@pytest.mark.parametrize("estimator_id", ["faithfulness_correlation", "pixel_flipping"])
def test_a_whole_number_float_label_is_its_int(estimator_id):
    net = linear_net(np.arange(16.0).reshape(2, 8) / 16)
    x = np.linspace(0.1, 0.8, 8)
    score = make_scorer(estimator_id, EstimatorConfig(fc_subset_size=2, fc_runs=4))
    expected = score(make_ctx(net, x, 1, np.arange(8.0)))
    assert score(make_ctx(net, x, 1.0, np.arange(8.0))).tobytes() == expected.tobytes()


class TestPixelFlipping:
    def test_constant_probability_model(self):
        net = linear_net(np.zeros((2, 8)))
        x = np.linspace(0.1, 0.8, 8)
        ctx = make_ctx(net, x, values=np.arange(8.0))
        est = evaluate_pixel_flipping(ctx, EstimatorConfig(pf_step_size=2, pf_baseline="black"))
        assert est == pytest.approx(0.5, abs=1e-12)

    def test_matches_recomputed_curve(self):
        # brute-force oracle: replay the flips and integrate independently
        rng = np.random.default_rng(3)
        net = two_layer_net(rng, d=6)
        x = rng.uniform(size=6)
        values = rng.normal(size=6)
        cfg = EstimatorConfig(pf_step_size=2, pf_baseline="black")
        ctx = make_ctx(net, x, values=values, bounds=(0.0, 1.0))
        est = evaluate_pixel_flipping(ctx, cfg)

        order = np.argsort(-values, kind="stable")
        flipped = x.copy()
        xs, ys = [0.0], [softmax(logits_batch(net, x[None, :])[0])[0]]
        for start in range(0, 6, 2):
            flipped[order[start : start + 2]] = 0.0
            xs.append((start + 2) / 6)
            ys.append(softmax(logits_batch(net, flipped[None, :])[0])[0])
        auc = 0.0
        for i in range(len(xs) - 1):
            auc += (ys[i] + ys[i + 1]) / 2 * (xs[i + 1] - xs[i])
        assert est == pytest.approx(auc, abs=1e-12)

    @pytest.mark.parametrize("row", [0, 5])
    def test_uniform_fills_follow_the_flip_order(self, row):
        # fill i of the sample's "pf" draws replaces the i-th flipped feature
        rng = np.random.default_rng(20)
        net = two_layer_net(rng, d=7)
        x = rng.uniform(size=7)
        values = rng.normal(size=7)
        cfg = EstimatorConfig(pf_step_size=3)
        est = evaluate_pixel_flipping(make_ctx(net, x, values=values, seed=41, row=row), cfg)

        fills = derive_rng("pf", 41).uniform(0.0, 1.0, size=(row + 1, 7))[row]
        order = np.argsort(-values, kind="stable")
        flipped = x.copy()
        xs, ys = [0.0], [softmax(logits_batch(net, x[None, :])[0])[0]]
        for start in range(0, 7, 3):
            block = order[start : start + 3]
            flipped[block] = fills[start : start + 3]
            xs.append(min(start + 3, 7) / 7)
            ys.append(softmax(logits_batch(net, flipped[None, :])[0])[0])
        auc = sum((ys[i] + ys[i + 1]) / 2 * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))
        assert est == pytest.approx(auc, abs=1e-12)

    def test_auc_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            net = two_layer_net(rng, d=5)
            x = rng.uniform(size=5)
            ctx = make_ctx(net, x, values=rng.normal(size=5), seed=int(rng.integers(1e6)))
            est = evaluate_pixel_flipping(ctx, EstimatorConfig(pf_step_size=2))
            assert 0.0 <= est <= 1.0


FC_CHUNK_CFG = EstimatorConfig(fc_runs=5, fc_subset_size=2)
# (ctx) -> (B,) scores of the estimators that score copies of each row
COPY_SCORERS = {
    "fc_uniform": lambda ctx: estimators_module.evaluate_faithfulness_correlation(
        ctx, FC_CHUNK_CFG
    ),
    "fc_black": lambda ctx: estimators_module.evaluate_faithfulness_correlation(
        ctx, replace(FC_CHUNK_CFG, fc_baseline="black")
    ),
    "pixel_flipping": lambda ctx: estimators_module.evaluate_pixel_flipping(
        ctx, EstimatorConfig(pf_step_size=1)
    ),
}


@pytest.mark.parametrize("scorer", COPY_SCORERS)
def test_copy_scorers_build_and_score_one_row_chunk_at_a_time(monkeypatch, scorer):
    rng = np.random.default_rng(23)
    n, d = 7, 4
    ctx = EvalContext(
        net=two_layer_net(rng, d=d),
        X=rng.uniform(size=(n, d)),
        labels=rng.integers(0, 3, size=n),
        attributions=rng.normal(size=(n, d)),
        explainer=None,
        dataset_bounds=(0.0, 1.0),
        rows=np.arange(n),
        seed=5,
    )
    score = COPY_SCORERS[scorer]
    whole = score(ctx)
    monkeypatch.setattr(explain_module, "_CHUNK_ELEMENTS", 8)  # one row per chunk
    scored, built, net_rows = [], [], []
    copy_logits = explain_module._copy_logits

    def spy(net, n_rows, j, copies):
        def counted(rows):
            built.append(rows)
            return copies(rows)

        scored.append(j)
        return copy_logits(net, n_rows, j, counted)

    def counted_logits(net, X):
        net_rows.append(len(X))
        return logits_batch(net, X)

    for module in (explain_module, estimators_module):
        monkeypatch.setattr(module, "_copy_logits", spy)
    monkeypatch.setattr(explain_module, "logits_batch", counted_logits)
    chunked = score(ctx)
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)
    (j,) = scored
    # one builder call per chunk, and each net call scores that one chunk
    assert built == [slice(row, row + 1) for row in range(n)]
    assert net_rows == [j] * n


class TestMaxSensitivity:
    def test_constant_explainer_is_zero(self):
        rng = np.random.default_rng(5)
        net = two_layer_net(rng)
        explainer = constant_explainer([1.0, 2.0, 3.0, 4.0])
        ctx = make_ctx(net, rng.uniform(size=4), explainer=explainer)
        assert evaluate_max_sensitivity(ctx, CFG) == 0.0

    def test_gradient_of_linear_model_is_zero(self):
        net = linear_net([[1.0, -2.0, 0.5], [0.0, 1.0, 0.0]])
        explainer = build_explainer("gradient", ExplainerConfig())
        ctx = make_ctx(net, [0.5, 0.5, 0.5], explainer=explainer)
        assert evaluate_max_sensitivity(ctx, CFG) == pytest.approx(0.0, abs=1e-12)

    def test_single_run_matches_direct_recomputation(self):
        rng = np.random.default_rng(6)
        net = two_layer_net(rng)
        x = rng.uniform(size=4)
        explainer = build_explainer("gradient", ExplainerConfig())
        cfg = EstimatorConfig(robustness_runs=1, robustness_radius=0.2)
        ctx = make_ctx(net, x, explainer=explainer, seed=17, row=2)
        est = evaluate_max_sensitivity(ctx, cfg)

        delta = derive_rng("ball", 17).uniform(-0.2, 0.2, size=(3, 1, 4))[2, 0]
        x_pert = np.clip(x + delta, 0.0, 1.0)
        expected = np.linalg.norm(
            explainer(net, x[None, :], 0)[0] - explainer(net, x_pert[None, :], 0)[0]
        ) / np.linalg.norm(x)
        assert est == pytest.approx(expected, abs=1e-12)

    def test_zero_input_undefined(self):
        rng = np.random.default_rng(7)
        net = two_layer_net(rng)
        ctx = make_ctx(net, np.zeros(4), explainer=constant_explainer(np.ones(4)))
        assert math.isnan(evaluate_max_sensitivity(ctx, CFG))


def local_lipschitz_oracle(ctx, cfg):
    """The draw-by-draw loop over the sample's in-ball draws: one explainer
    call per draw, degenerate draws skipped; None when every draw is."""
    (row,) = ctx.rows
    runs, d = cfg.robustness_runs, ctx.X.shape[1]
    radius = cfg.radius(ctx.dataset_bounds)
    deltas = derive_rng("ball", ctx.seed).uniform(-radius, radius, size=(row + 1, runs, d))[row]
    x, attribution = ctx.X[0], ctx.attributions[0]
    lo, hi = ctx.dataset_bounds
    ratios = []
    for delta in deltas:
        x_pert = np.clip(x + delta, lo, hi)
        dist = float(np.linalg.norm(x_pert - x))
        if dist < 1e-12:
            continue
        other = ctx.explainer(ctx.net, x_pert[None, :], ctx.labels[0])[0]
        ratios.append(float(np.linalg.norm(attribution - other)) / dist)
    return max(ratios) if ratios else None


class TestLocalLipschitz:
    def test_constant_explainer_is_zero(self):
        rng = np.random.default_rng(8)
        net = two_layer_net(rng)
        ctx = make_ctx(net, rng.uniform(size=4), explainer=constant_explainer(np.ones(4)))
        assert evaluate_local_lipschitz(ctx, CFG) == 0.0

    def test_identity_explainer_ratio_is_one(self):
        rng = np.random.default_rng(9)
        net = two_layer_net(rng)
        ctx = make_ctx(net, rng.uniform(0.3, 0.7, size=4), explainer=identity_explainer)
        assert evaluate_local_lipschitz(ctx, CFG) == pytest.approx(1.0, abs=1e-12)

    def test_matches_per_draw_oracle(self):
        rng = np.random.default_rng(10)
        net = two_layer_net(rng)
        x = rng.uniform(0.2, 0.8, size=4)
        explainer = build_explainer("gradient", ExplainerConfig())
        cfg = EstimatorConfig(robustness_runs=3, robustness_radius=0.15)
        ctx = make_ctx(net, x, explainer=explainer, seed=23, row=4)
        est = evaluate_local_lipschitz(ctx, cfg)

        deltas = derive_rng("ball", 23).uniform(-0.15, 0.15, size=(5, 3, 4))[4]
        base = explainer(net, x[None, :], 0)[0]
        worst = 0.0
        for delta in deltas:
            x_pert = np.clip(x + delta, 0.0, 1.0)
            eff = x_pert - x
            worst = max(
                worst,
                np.linalg.norm(base - explainer(net, x_pert[None, :], 0)[0]) / np.linalg.norm(eff),
            )
        assert est == pytest.approx(worst, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 2),
        corner=st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=2),
        runs=st.integers(1, 6),
        radius=st.sampled_from([1e-14, 0.05, 0.3]),
        seed=st.integers(0, 2**32 - 1),
        row=st.integers(0, 5),
    )
    def test_degenerate_draws_are_skipped(self, d, corner, runs, radius, seed, row):
        # x on a bound: a draw pointing outward on every feature clips to x
        # itself (probability 2^-d), and radius 1e-14 makes every draw
        # degenerate (radius 0 is a config error); a row whose every draw
        # is degenerate is undefined
        net = two_layer_net(np.random.default_rng(seed % 1000), d=d)
        explainer = build_explainer("gradient", ExplainerConfig())
        ctx = make_ctx(net, corner[:d], explainer=explainer, seed=seed, row=row)
        cfg = EstimatorConfig(robustness_runs=runs, robustness_radius=radius)
        est = evaluate_local_lipschitz(ctx, cfg)
        expected = local_lipschitz_oracle(ctx, cfg)
        if expected is None:
            assert math.isnan(est)
        else:
            assert est == pytest.approx(expected, rel=1e-12, abs=1e-12)


    @pytest.mark.parametrize("zero_input", [True, False], ids=["zero", "nonzero"])
    def test_a_row_with_only_degenerate_draws_is_undefined(self, zero_input):
        # every draw of radius 1e-14 moves x by less than 1e-12, so every
        # one is skipped and the estimate is undefined.  The draws are still
        # explained, zero input or not, in one call, for max sensitivity,
        # which reads the same table
        calls = []

        def explainer(net, X, labels):
            calls.append(len(X))
            return np.array(X)

        rng = np.random.default_rng(19)
        x = np.zeros(4) if zero_input else rng.uniform(size=4)
        ctx = make_ctx(two_layer_net(rng), x, explainer=explainer, row=3)
        ctx.kept = {}
        calls.clear()
        cfg = EstimatorConfig(robustness_runs=4, robustness_radius=1e-14)
        assert math.isnan(evaluate_local_lipschitz(ctx, cfg))
        assert calls == [4]
        assert math.isnan(evaluate_max_sensitivity(ctx, cfg)) == zero_input
        assert calls == [4]


def test_a_zero_row_between_two_others_is_explained_in_the_one_call():
    # max sensitivity is undefined exactly at the zero row, local Lipschitz
    # equals the per-draw oracle on every row, and one explainer call sees
    # all B * runs draws, row by row in draw order
    rng = np.random.default_rng(23)
    net = two_layer_net(rng)
    gradient = build_explainer("gradient", ExplainerConfig())
    X = rng.uniform(size=(3, 4))
    X[1] = 0.0
    labels = rng.integers(0, net.num_classes, size=3)
    calls = []

    def explainer(net, X, labels):
        calls.append((X.copy(), labels.copy()))
        return gradient(net, X, labels)

    ctx = EvalContext(
        net=net,
        X=X,
        labels=labels,
        attributions=gradient(net, X, labels),
        explainer=explainer,
        dataset_bounds=(0.0, 1.0),
        rows=np.arange(3),
        seed=9,
        kept={},
    )
    cfg = EstimatorConfig(robustness_runs=5, robustness_radius=0.2)
    sensitivity = estimators_module.evaluate_max_sensitivity(ctx, cfg)
    assert np.isnan(sensitivity).tolist() == [False, True, False]
    lipschitz = estimators_module.evaluate_local_lipschitz(ctx, cfg)
    for i in range(3):
        one = make_ctx(net, X[i], label=labels[i], explainer=gradient, seed=9, row=i)
        assert lipschitz[i] == pytest.approx(local_lipschitz_oracle(one, cfg), rel=1e-12, abs=1e-12)

    deltas = derive_rng("ball", 9).uniform(-0.2, 0.2, size=(3, 5, 4))
    x_pert = np.clip(X[:, None, :] + deltas, 0.0, 1.0)
    ((explained, explained_labels),) = calls
    np.testing.assert_array_equal(explained, x_pert.reshape(-1, 4))
    np.testing.assert_array_equal(explained_labels, np.repeat(labels, 5))


def test_the_in_ball_table_is_read_only():
    # max sensitivity keeps its table for local Lipschitz, which must find
    # it as it was made
    rng = np.random.default_rng(3)
    explainer = build_explainer("input_x_gradient", ExplainerConfig())
    ctx = make_ctx(two_layer_net(rng), [0.3, 0.6, 0.0, 1.0], explainer=explainer, seed=3)
    ctx.kept = {}
    cfg = EstimatorConfig(robustness_runs=3)
    evaluate_max_sensitivity(ctx, cfg)
    ((key, tables),) = ctx.kept.items()
    assert key == ("ball", 3, cfg.radius(ctx.dataset_bounds), 3)
    for table in tables:
        assert table.shape == (1, 3) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


@pytest.mark.parametrize("kept", [None, {}], ids=["default", "kept"])
def test_one_context_under_other_robustness_configs_matches_fresh_ones(kept):
    # a hand-built context scored under one radius or run count, then
    # another, reads no table of the first
    rng = np.random.default_rng(4)
    explainer = build_explainer("gradient", ExplainerConfig())
    net, x = two_layer_net(rng), rng.uniform(size=4)
    ctx = make_ctx(net, x, explainer=explainer, seed=5, row=1)
    ctx.kept = kept
    for runs, radius in [(3, 0.05), (10, 0.05), (10, 0.2)]:
        cfg = EstimatorConfig(robustness_runs=runs, robustness_radius=radius)
        for evaluate in (evaluate_max_sensitivity, evaluate_local_lipschitz):
            fresh = make_ctx(net, x, explainer=explainer, seed=5, row=1)
            assert evaluate(ctx, cfg) == evaluate(fresh, cfg)


class TestModelParameterRandomisation:
    def test_model_blind_explainer_scores_one(self):
        rng = np.random.default_rng(11)
        net = two_layer_net(rng)
        ctx = make_ctx(net, rng.uniform(size=4), explainer=constant_explainer([1.0, 3.0, 2.0, 4.0]))
        assert evaluate_model_parameter_randomisation(ctx, CFG) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_noise_explainer_near_zero_at_784(self):
        noise_rng = np.random.default_rng(12)

        def noise_explainer(net, X, labels):
            return noise_rng.normal(size=(len(X), 784))

        net = linear_net(np.ones((2, 784)))
        x = np.full(784, 0.5)
        scores = []
        for seed in range(10):
            ctx = make_ctx(net, x, explainer=noise_explainer, seed=seed)
            scores.append(abs(evaluate_model_parameter_randomisation(ctx, CFG)))
        assert float(np.mean(scores)) <= 0.1

    def test_one_layer_net_is_single_correlation(self):
        net = linear_net([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        explainer = build_explainer("gradient", ExplainerConfig())
        x = np.array([0.2, 0.4, 0.6])
        ctx = replace(make_ctx(net, x, explainer=explainer), space_seed=31)
        est = evaluate_model_parameter_randomisation(ctx, CFG)

        layer = net.layers[0]
        pooled = np.concatenate([layer.weights.ravel(), layer.bias.ravel()])
        oracle_rng = derive_rng("mpr", 31, 0)
        W = oracle_rng.normal(pooled.mean(), pooled.std(), size=layer.weights.shape)
        b = oracle_rng.normal(pooled.mean(), pooled.std(), size=layer.bias.shape)
        randomized = linear_net(W, b)
        expected = spearman(
            explainer(net, x[None, :], 0)[0], explainer(randomized, x[None, :], 0)[0]
        )
        assert est == pytest.approx(expected, abs=1e-12)


def mpr_oracle_correlations(ctx):
    """Model-parameter randomisation one row at a time: per layer, one
    randomised net drawn from the space seed, and a one-row re-explanation
    of every row under it; the (B, layers) rank correlations."""
    correlations = []
    for v, layer in enumerate(ctx.net.layers):
        pooled = np.concatenate([layer.weights.ravel(), layer.bias.ravel()])
        mu, sd = float(pooled.mean()), float(pooled.std())
        rng = derive_rng("mpr", ctx.space_seed, v)
        new_layer = Layer(
            rng.normal(mu, sd, size=layer.weights.shape),
            rng.normal(mu, sd, size=layer.bias.shape),
        )
        randomized = replace_layer(ctx.net, v, new_layer)
        others = np.empty_like(ctx.attributions)
        for b in range(len(ctx.X)):
            others[b] = ctx.explainer(randomized, ctx.X[b : b + 1], ctx.labels[b])[0]
        correlations.append(spearman(ctx.attributions, others))
    return np.stack(correlations, axis=1)


def mpr_oracle(ctx):
    """The per-row oracle's estimates: the mean of each row's defined layers."""
    correlations = mpr_oracle_correlations(ctx)
    defined = np.isfinite(correlations)
    return stats._ratio_or_nan(
        stats.masked_row_sums(correlations, defined), defined.sum(axis=1)
    )


def flat_where_first_feature_negative(explainer):
    """`explainer` with every row whose first relevance is negative made
    constant, so its rank correlation is undefined under some layers."""

    def fn(net, X, labels):
        maps = explainer(net, X, labels)
        return np.where(maps[:, :1] < 0.0, 1.0, maps)

    return fn


def row_by_row(explainer):
    """`explainer` called on one row at a time, so that a row's map does not
    depend on the batch it is explained in."""

    def fn(net, X, labels):
        labels = np.broadcast_to(labels, (len(X),))
        rows = [explainer(net, X[b : b + 1], labels[b : b + 1]) for b in range(len(X))]
        return np.concatenate(rows)

    return fn


class TestModelParameterRandomisationBatch:
    """The batch MPR equals the one-row-per-(row, layer) loop to the batch
    contract's 1e-12: every row meets the same randomised net, but a row
    explained in a batch may round differently from the row alone."""

    def batch_ctx(self, net, explainer, seed, b=6):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(b, net.input_dim))
        X[::3] = 0.0  # zero rows: constant input_x_gradient maps
        labels = rng.integers(0, net.num_classes, size=b)
        return EvalContext(
            net=net,
            X=X,
            labels=labels,
            attributions=explainer(net, X, labels),
            explainer=explainer,
            dataset_bounds=(0.0, 1.0),
            rows=np.arange(b),
            seed=derive_seed(seed, "est"),
            space_seed=derive_seed(seed, "space"),
        )

    def assert_matches_the_oracle(self, ctx):
        np.testing.assert_allclose(
            estimators_module.evaluate_model_parameter_randomisation(ctx, CFG),
            mpr_oracle(ctx),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("hidden", [(7,), (6, 5)])
    @pytest.mark.parametrize("method_id", sorted(METHODS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_per_row_oracle(self, hidden, method_id, seed):
        net = init_net(5, hidden, 3, seed=seed)
        cfg = ExplainerConfig(ig_steps=6, occlusion_patch=2, shap_samples=3, seed=seed)
        explainer = build_explainer(method_id, cfg)
        self.assert_matches_the_oracle(self.batch_ctx(net, explainer, seed))

    @pytest.mark.parametrize("hidden", [(7,), (6, 5)])
    def test_undefined_layers_match_the_oracle(self, hidden):
        net = init_net(4, hidden, 3, seed=9)
        gradient = build_explainer("gradient", ExplainerConfig())
        explainer = flat_where_first_feature_negative(gradient)
        ctx = self.batch_ctx(net, explainer, 9, b=12)
        defined = np.isfinite(mpr_oracle_correlations(ctx)).sum(axis=1)
        layers = len(net.layers)
        # rows with no layer defined and rows with some but not all
        assert (defined == 0).any() and ((0 < defined) & (defined < layers)).any()
        self.assert_matches_the_oracle(ctx)

    @pytest.mark.parametrize(
        "method_id, flat", [("gradient", False), ("integrated_gradients", False), ("gradient", True)]
    )
    def test_three_dense_layers_equal_the_per_row_oracle_byte_for_byte(self, method_id, flat):
        # with maps that do not depend on the batch, the one correlation call
        # over all layers gives the bytes of the oracle's one call per layer;
        # `flat` leaves some rows with no layer or only some layers defined
        net = init_net(5, (6, 5), 3, seed=5)
        explainer = build_explainer(method_id, ExplainerConfig(ig_steps=4))
        if flat:
            explainer = flat_where_first_feature_negative(explainer)
        ctx = self.batch_ctx(net, row_by_row(explainer), 5, b=12)
        assert len(net.layers) == 3
        estimates = estimators_module.evaluate_model_parameter_randomisation(ctx, CFG)
        assert estimates.tobytes() == mpr_oracle(ctx).tobytes()

    def test_one_explainer_call_per_dense_layer(self):
        net = init_net(5, (6, 5), 3, seed=3)
        explainer = build_explainer("integrated_gradients", ExplainerConfig(ig_steps=4))
        calls = []

        def counted(net, X, labels):
            calls.append(len(X))
            return explainer(net, X, labels)

        ctx = replace(self.batch_ctx(net, explainer, 3, b=5), explainer=counted)
        estimators_module.evaluate_model_parameter_randomisation(ctx, CFG)
        assert calls == [5, 5, 5]

    @pytest.mark.parametrize("method_id", ["gradient", "integrated_gradients"])
    def test_the_space_seed_decides_the_draw_and_the_estimator_seed_does_not(self, method_id):
        net = init_net(5, (6, 5), 3, seed=4)
        explainer = build_explainer(method_id, ExplainerConfig(ig_steps=4))
        ctx = self.batch_ctx(net, explainer, 4)
        evaluate = estimators_module.evaluate_model_parameter_randomisation
        estimates = evaluate(ctx, CFG)
        reseeded = replace(ctx, rows=ctx.rows + 7, seed=derive_seed("other"))
        assert evaluate(reseeded, CFG).tobytes() == estimates.tobytes()
        respaced = replace(ctx, space_seed=ctx.space_seed + 1)
        assert not np.array_equal(evaluate(respaced, CFG), estimates)


class TestRandomLogit:
    def test_class_blind_explainer_scores_one(self):
        rng = np.random.default_rng(13)
        net = two_layer_net(rng)
        ctx = make_ctx(net, rng.uniform(size=4), explainer=constant_explainer([1.0, 3.0, 2.0, 0.0]))
        assert evaluate_random_logit(ctx, CFG) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_weight_rows(self):
        # gradient rows [1, 0, -1] and [1, 2, 1]: rank vectors [3,2,1] and
        # [1.5, 3, 1.5] correlate to exactly zero
        net = linear_net([[1.0, 0.0, -1.0], [1.0, 2.0, 1.0]])
        explainer = build_explainer("gradient", ExplainerConfig())
        x = np.array([0.5, 0.5, 0.5])
        ctx = make_ctx(net, x, label=0, explainer=explainer, seed=3)
        est = evaluate_random_logit(ctx, CFG)
        assert est == pytest.approx(0.0, abs=1e-12)

    def test_two_classes_forces_other(self):
        net = linear_net([[1.0, 2.0], [2.0, 1.0]])
        explainer = build_explainer("gradient", ExplainerConfig())
        ctx = make_ctx(net, [0.5, 0.5], label=0, explainer=explainer, seed=4)
        est = evaluate_random_logit(ctx, CFG)
        expected = spearman(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert est == pytest.approx(expected, abs=1e-12)

    def test_one_class_raises(self):
        net = make_net([dense(np.ones((1, 2)), np.zeros(1))])
        ctx = make_ctx(net, [0.5, 0.5], values=[1.0, 2.0])
        with pytest.raises(ConfigError):
            evaluate_random_logit(ctx, CFG)

    @pytest.mark.parametrize("label", [1.7, 7, -1])
    def test_a_label_outside_the_classes_is_an_index_error(self, label):
        # the class-blind explainer checks no label, so the estimator must
        net = two_layer_net(np.random.default_rng(14))
        blind = constant_explainer([1.0, 3.0, 2.0, 0.0])
        ctx = make_ctx(net, [0.2, 0.4, 0.6, 0.8], label, explainer=blind)
        with pytest.raises(IndexError, match=r"outside \[0, 3\)"):
            evaluate_random_logit(ctx, CFG)

    def test_a_whole_number_float_label_is_its_int(self):
        net = two_layer_net(np.random.default_rng(15))
        explainer = build_explainer("gradient", ExplainerConfig())
        x = [0.2, 0.4, 0.6, 0.8]
        score = make_scorer("random_logit", CFG)
        expected = score(make_ctx(net, x, 1, explainer=explainer, seed=5))
        got = score(make_ctx(net, x, 1.0, explainer=explainer, seed=5))
        assert got.tobytes() == expected.tobytes()


def bare_ctx(values, mask=None):
    d = len(values)
    net = linear_net(np.ones((2, d)))
    return make_ctx(net, np.full(d, 0.5), values=values, mask=mask)


def batch_of_samples(n):
    """A context of n equal rows, samples 0..n-1, for the adversaries."""
    ctx = bare_ctx([1.0, 2.0])
    return replace(
        ctx,
        X=np.repeat(ctx.X, n, axis=0),
        labels=np.repeat(ctx.labels, n),
        attributions=np.repeat(ctx.attributions, n, axis=0),
        rows=np.arange(n),
    )


class TestSparseness:
    def test_uniform_is_zero(self):
        assert evaluate_sparseness(bare_ctx([0.3] * 5), CFG) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_hand_value(self):
        assert evaluate_sparseness(bare_ctx([0.0, 0.0, 0.0, 1.0]), CFG) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            v = rng.normal(size=6)
            a = evaluate_sparseness(bare_ctx(v), CFG)
            b = evaluate_sparseness(bare_ctx(7.3 * v), CFG)
            assert a == pytest.approx(b, abs=1e-12)
            assert 0.0 <= a < 1.0

    def test_all_zero_undefined(self):
        assert math.isnan(evaluate_sparseness(bare_ctx([0.0, 0.0, 0.0]), CFG))


class TestComplexity:
    def test_uniform_is_log_d(self):
        est = evaluate_complexity(bare_ctx([0.25] * 4), CFG)
        assert est == pytest.approx(math.log(4), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert evaluate_complexity(bare_ctx([0.0, 5.0, 0.0]), CFG) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_two_equal_mass_hand_value(self):
        est = evaluate_complexity(bare_ctx([0.5, 0.5, 0.0, 0.0]), CFG)
        assert est == pytest.approx(math.log(2), abs=1e-12)

    def test_bounds_and_scale_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            v = rng.normal(size=6)
            a = evaluate_complexity(bare_ctx(v), CFG)
            assert 0.0 <= a <= math.log(6) + 1e-12
            assert a == pytest.approx(evaluate_complexity(bare_ctx(2.5 * v), CFG), abs=1e-12)

    def test_all_zero_undefined(self):
        assert math.isnan(evaluate_complexity(bare_ctx([0.0, 0.0]), CFG))


class TestLocalisation:
    def test_pointing_game_hit_and_miss(self):
        mask = np.array([False, False, True, False])
        assert evaluate_pointing_game(bare_ctx([0.1, 0.2, 0.9, 0.0], mask), CFG) == 1.0
        mask2 = np.array([True, False, False, False])
        assert evaluate_pointing_game(bare_ctx([0.1, 0.2, 0.9, 0.0], mask2), CFG) == 0.0

    def test_pointing_game_tie_breaks_low_index(self):
        values = np.zeros(6)
        values[1] = values[5] = 1.0
        mask = np.zeros(6, dtype=bool)
        mask[5] = True
        assert evaluate_pointing_game(bare_ctx(values, mask), CFG) == 0.0

    def test_rma_hand_values(self):
        mask_all = np.array([True, True, False])
        assert evaluate_relevance_mass_accuracy(
            bare_ctx([1.0, 2.0, 0.0], mask_all), CFG
        ) == pytest.approx(1.0, abs=1e-12)
        mask_last = np.array([False, False, True])
        assert evaluate_relevance_mass_accuracy(
            bare_ctx([1.0, 1.0, 2.0], mask_last), CFG
        ) == pytest.approx(0.5, abs=1e-12)
        mask_first = np.array([True, False, False])
        assert evaluate_relevance_mass_accuracy(
            bare_ctx([0.0, 1.0, 2.0], mask_first), CFG
        ) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 20).flatmap(
            lambda d: st.lists(
                st.tuples(
                    st.lists(ATTRIBUTION_VALUES, min_size=d, max_size=d),
                    st.lists(st.booleans(), min_size=d, max_size=d),
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_rma_rounds_as_the_one_dimensional_masked_sum(self, rows):
        # the mass inside the mask is summed over the masked entries alone,
        # as `v[mask].sum()` sums them, not as a sum with zeros left in
        values = np.array([v for v, _ in rows])
        masks = np.array([m for _, m in rows])
        masks[:, 0] = True
        ctx = EvalContext(
            net=linear_net(np.ones((2, values.shape[1]))),
            X=np.full(values.shape, 0.5),
            labels=np.zeros(len(values), dtype=int),
            attributions=values,
            explainer=None,
            dataset_bounds=(0.0, 1.0),
            rows=np.arange(len(values)),
            seed=0,
            masks=masks,
        )
        expected = [
            np.abs(v)[m].sum() / np.abs(v).sum() if np.abs(v).sum() else math.nan
            for v, m in zip(values, masks)
        ]
        est = estimators_module.evaluate_relevance_mass_accuracy(ctx, CFG)
        assert est.tobytes() == np.array(expected).tobytes()

    def test_rma_zero_mass_undefined(self):
        mask = np.array([True, False, False])
        assert math.isnan(evaluate_relevance_mass_accuracy(bare_ctx([0.0, 0.0, 0.0], mask), CFG))

    def test_top_k_intersection(self):
        mask = np.array([True, True, False, False])
        ctx = bare_ctx([5.0, 4.0, 1.0, 0.0], mask)
        assert evaluate_top_k_intersection(ctx, EstimatorConfig(topk_k=2)) == 1.0
        ctx2 = bare_ctx([5.0, 0.0, 4.0, 0.0], mask)
        assert evaluate_top_k_intersection(ctx2, EstimatorConfig(topk_k=2)) == 0.5
        # K = D reduces to |mask| / D
        assert evaluate_top_k_intersection(ctx, EstimatorConfig(topk_k=4)) == 0.5

    def test_top_k_beyond_the_feature_count_is_config_error(self):
        ctx = bare_ctx([5.0, 4.0, 1.0, 0.0], np.array([True, True, False, False]))
        with pytest.raises(ConfigError, match=r"topk_k 5 outside \[1, 4\]"):
            evaluate_top_k_intersection(ctx, EstimatorConfig(topk_k=5))

    @pytest.mark.parametrize(
        "name, read",
        [
            ("fc_subset_size", EstimatorConfig.subset_size),
            ("pf_step_size", EstimatorConfig.step_size),
            ("topk_k", EstimatorConfig.top_k),
        ],
    )
    @pytest.mark.parametrize("size", [0, 5])
    def test_a_size_outside_the_features_is_config_error(self, name, read, size):
        cfg = EstimatorConfig(**{name: size})
        message = rf"^{name} {size} outside \[1, 4\]$"
        with pytest.raises(ConfigError, match=message):
            read(cfg, 4)
        with pytest.raises(ConfigError, match=message):
            cfg.check_features(4)

    def test_rra_hand_values(self):
        mask = np.array([True, False, True, False])
        exact = bare_ctx([3.0, 0.0, 2.0, 0.0], mask)
        assert evaluate_relevance_rank_accuracy(exact, CFG) == 1.0
        disjoint = bare_ctx([0.0, 3.0, 0.0, 2.0], mask)
        assert evaluate_relevance_rank_accuracy(disjoint, CFG) == 0.0
        mask3 = np.array([True, True, True, False, False])
        two_hits = bare_ctx([5.0, 4.0, 0.0, 3.0, 0.0], mask3)
        assert evaluate_relevance_rank_accuracy(two_hits, CFG) == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )

    def test_scale_invariance_of_localisation(self):
        rng = np.random.default_rng(16)
        mask = np.array([True, False, True, False, False])
        for _ in range(10):
            v = rng.normal(size=5)
            for fn in (
                evaluate_pointing_game,
                evaluate_relevance_mass_accuracy,
                evaluate_relevance_rank_accuracy,
            ):
                a = fn(bare_ctx(v, mask), CFG)
                b = fn(bare_ctx(4.2 * v, mask), CFG)
                assert a == pytest.approx(b, abs=1e-12)

    def test_missing_mask_raises(self):
        with pytest.raises(ConfigError):
            evaluate_pointing_game(bare_ctx([1.0, 2.0]), CFG)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 12).flatmap(
            lambda d: st.lists(
                st.tuples(
                    st.lists(ATTRIBUTION_VALUES, min_size=d, max_size=d),
                    st.lists(st.booleans(), min_size=d, max_size=d),
                ),
                min_size=1,
                max_size=4,
            )
        ),
        data=st.data(),
    )
    def test_top_k_readouts_match_the_per_row_oracle(self, rows, data):
        # pointing game is the top-1 fraction and relevance rank accuracy
        # top-k intersection at its default K, bit for bit, ties included
        values = np.array([v for v, _ in rows])
        masks = np.array([m for _, m in rows])
        masks[:, 0] = True
        d = values.shape[1]
        k = data.draw(st.integers(1, d))
        ctx = EvalContext(
            net=linear_net(np.ones((2, d))),
            X=np.full(values.shape, 0.5),
            labels=np.zeros(len(values), dtype=int),
            attributions=values,
            explainer=None,
            dataset_bounds=(0.0, 1.0),
            rows=np.arange(len(values)),
            seed=0,
            masks=masks,
        )

        def oracle(k_of):
            fractions = []
            for v, m in zip(values, masks):
                top = sorted(range(d), key=lambda i: (-abs(v[i]), i))[: k_of(m)]
                fractions.append(sum(bool(m[i]) for i in top) / k_of(m))
            return np.array(fractions).tobytes()

        pg = estimators_module.evaluate_pointing_game(ctx, CFG)
        tki = estimators_module.evaluate_top_k_intersection(ctx, EstimatorConfig(topk_k=k))
        tki_default = estimators_module.evaluate_top_k_intersection(ctx, CFG)
        rra = estimators_module.evaluate_relevance_rank_accuracy(ctx, CFG)
        assert pg.tobytes() == oracle(lambda m: 1)
        assert tki.tobytes() == oracle(lambda m: k)
        assert rra.tobytes() == tki_default.tobytes() == oracle(lambda m: int(m.sum()))


class TestAdversarialEstimators:
    @given(seed=st.integers(0, 2**64 - 1), row=st.integers(0, 50))
    def test_deterministic_repeats_per_sample(self, seed, row):
        # the value depends on the seed and the sample alone, not on what
        # the call is shown
        plain = bare_ctx([1.0, 2.0])
        plain.seed, plain.rows = seed, np.array([row])
        perturbed = bare_ctx([-3.0, 0.5])
        perturbed.X = perturbed.X + 0.25
        perturbed.seed, perturbed.rows = seed, np.array([row])
        perturbed.is_perturbed = True
        a = adversarial_deterministic(plain, CFG)
        assert isinstance(a, float) and 0.0 <= a < 1.0
        assert adversarial_deterministic(perturbed, CFG) == a

    def test_deterministic_is_uniform_over_derived_seeds(self):
        ctx = bare_ctx([1.0])
        ctx.rows = np.array([7])
        values = []
        for seed in range(2000):
            ctx.seed = derive_seed("est", seed)
            values.append(adversarial_deterministic(ctx, CFG))
        samples = estimators_module.adversarial_deterministic(batch_of_samples(2000), CFG)
        for drawn in (values, samples):
            counts, _ = np.histogram(drawn, bins=4, range=(0.0, 1.0))
            assert counts.min() > 400

    def test_distribution_shift_unperturbed_far_negative(self):
        ctx = batch_of_samples(1000)
        draws = estimators_module.adversarial_distribution_shift(ctx, CFG)
        assert np.mean(draws < -0.5) >= 0.99

    def test_distribution_shift_perturbed_near_zero(self):
        ctx = batch_of_samples(1000)
        ctx.is_perturbed = True
        draws = estimators_module.adversarial_distribution_shift(ctx, CFG)
        assert -1.0 <= np.mean(draws) <= 2.0


class TestRegistry:
    def test_direction_registry_total(self):
        lower = {
            "pixel_flipping",
            "max_sensitivity",
            "local_lipschitz",
            "model_parameter_randomisation",
            "random_logit",
            "complexity",
        }
        for estimator_id, row in ESTIMATORS.items():
            expected = "lower_better" if estimator_id in lower else "higher_better"
            assert row.direction == expected, estimator_id

    def test_every_estimator_has_direction(self):
        # the scorer takes the row's direction whatever the config
        other = EstimatorConfig(fc_baseline="black")
        for estimator_id, row in ESTIMATORS.items():
            assert make_scorer(estimator_id, CFG).direction == row.direction
            assert make_scorer(estimator_id, other).direction == row.direction

    def test_needs_mask_exactly_for_localisation(self):
        needing = {e for e, row in ESTIMATORS.items() if row.needs_mask}
        assert needing == {
            "pointing_game",
            "relevance_mass_accuracy",
            "top_k_intersection",
            "relevance_rank_accuracy",
        }
        assert needing == {e for e, row in ESTIMATORS.items() if row.category == "localisation"}

    def test_every_estimator_has_a_category(self):
        assert Counter(row.category for row in ESTIMATORS.values()) == {
            "faithfulness": 2,
            "robustness": 2,
            "randomisation": 2,
            "complexity": 2,
            "localisation": 4,
            "adversarial": 2,
        }

    def test_make_scorer_unknown_id(self):
        with pytest.raises(ConfigError):
            make_scorer("not_an_estimator", CFG)

    def test_seeded_estimators_are_deterministic(self):
        rng = np.random.default_rng(18)
        net = two_layer_net(rng)
        x = rng.uniform(size=4)
        explainer = build_explainer("gradient_shap", ExplainerConfig(seed=2))
        for estimator_id in (
            "faithfulness_correlation",
            "max_sensitivity",
            "local_lipschitz",
            "model_parameter_randomisation",
            "random_logit",
        ):
            fn = one_row(ESTIMATORS[estimator_id].evaluate)
            a = fn(make_ctx(net, x, explainer=explainer, seed=55), CFG)
            b = fn(make_ctx(net, x, explainer=explainer, seed=55), CFG)
            assert a == b, estimator_id

    def test_no_nan_without_flag(self):
        # an estimate is a float64 per row: finite, or NaN when undefined
        rng = np.random.default_rng(17)
        net = two_layer_net(rng)
        x = rng.uniform(size=4)
        explainer = build_explainer("gradient", ExplainerConfig())
        mask = np.array([True, False, True, False])
        assert len(ESTIMATORS) == 14
        for estimator_id, row in ESTIMATORS.items():
            ctx = make_ctx(net, x, explainer=explainer, mask=mask, seed=9)
            est = row.evaluate(ctx, CFG)
            assert est.dtype == np.float64 and est.shape == (1,), estimator_id
            assert not np.isinf(est).any(), estimator_id


# --- the batch contract -----------------------------------------------------


def exact_net(d, classes=3):
    # integer weights on inputs k/8 keep every logit exact, so no row's
    # logits depend on how the matrix product splits its batch
    rng = np.random.default_rng(d)
    return make_net(
        [
            dense(rng.integers(-3, 4, size=(5, d)).astype(float), rng.integers(-2, 3, size=5)),
            dense(rng.integers(-3, 4, size=(classes, 5)).astype(float), np.zeros(classes)),
        ]
    )


def rows_of(ctx, index):
    """The context of the rows `index` of ctx, in that order."""
    return replace(
        ctx,
        X=ctx.X[index],
        labels=ctx.labels[index],
        attributions=ctx.attributions[index],
        rows=ctx.rows[index],
        masks=ctx.masks[index],
    )


ATTRIBUTION_VALUES = st.one_of(
    st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0]), st.floats(-4.0, 4.0, allow_subnormal=False)
)


@st.composite
def batch_contexts(draw):
    """A context of 1-6 rows with tied and signed-zero attributions, distinct
    sample indices, masks and a BLAS-free explainer, plus a permutation of its
    rows.  A row scored alone draws a smaller table than the same row in the
    batch, so a second generator call on one stream shows up here."""
    b = draw(st.integers(1, 6))
    d = draw(st.integers(2, 8))

    def matrix(elements):
        return draw(st.lists(st.lists(elements, min_size=d, max_size=d), min_size=b, max_size=b))

    X = np.array(matrix(st.integers(0, 8).map(lambda v: v / 8.0)))
    attributions = np.array(matrix(ATTRIBUTION_VALUES), dtype=float)
    masks = np.array(matrix(st.booleans()), dtype=bool)
    masks[np.arange(b), draw(st.lists(st.integers(0, d - 1), min_size=b, max_size=b))] = True
    explainer = draw(
        st.sampled_from([constant_explainer(attributions[0]), identity_explainer])
    )
    ctx = EvalContext(
        net=exact_net(d),
        X=X,
        labels=np.array(draw(st.lists(st.integers(0, 2), min_size=b, max_size=b))),
        attributions=attributions,
        explainer=explainer,
        dataset_bounds=(0.0, 1.0),
        rows=np.array(draw(st.lists(st.integers(0, 40), min_size=b, max_size=b, unique=True))),
        seed=draw(st.integers(0, 2**64 - 1)),
        masks=masks,
        is_perturbed=draw(st.booleans()),
    )
    return ctx, draw(st.permutations(range(b)))


@pytest.mark.parametrize("shape", [(5,), (3, 2)])
def test_uniform_fills_are_the_same_alone_and_in_a_batch(shape):
    # the batch contract below uses black fills, whose logits stay exact;
    # the uniform fills keep it as well, read at the row's sample index
    ctx = replace(bare_ctx([1.0, 2.0, 3.0, 4.0, 5.0]), seed=3)
    ctx = replace(ctx, X=np.repeat(ctx.X, 4, axis=0), rows=np.array([9, 0, 4, 2]))
    fills = estimators_module._baseline_values("uniform", "pf", shape, ctx)
    assert fills.shape == (4, *shape)
    for b, row in enumerate(ctx.rows):
        alone = replace(ctx, X=ctx.X[b : b + 1], rows=np.array([row]))
        assert estimators_module._baseline_values("uniform", "pf", shape, alone)[0].tobytes() == (
            fills[b].tobytes()
        )


# black baselines keep the faithfulness inputs on the exact grid
BATCH_CFG = EstimatorConfig(fc_runs=4, fc_baseline="black", pf_baseline="black", robustness_runs=3)


@pytest.mark.parametrize("estimator_id", sorted(ESTIMATORS))
@settings(max_examples=25, deadline=None)
@given(case=batch_contexts())
def test_batch_is_its_rows_in_order(estimator_id, case):
    # a row's estimate is the same alone or in a batch, bit for bit, and
    # permuting the rows permutes the estimates
    ctx, perm = case
    evaluate = ESTIMATORS[estimator_id].evaluate
    batch = evaluate(ctx, BATCH_CFG)
    assert batch.dtype == np.float64 and batch.shape == (len(ctx.rows),)
    rows = np.concatenate([evaluate(rows_of(ctx, [b]), BATCH_CFG) for b in range(len(ctx.rows))])
    assert batch.tobytes() == rows.tobytes()
    assert evaluate(rows_of(ctx, perm), BATCH_CFG).tobytes() == batch[perm].tobytes()
