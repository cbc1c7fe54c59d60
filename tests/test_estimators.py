import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xaimeta.estimators as estimators_module
from xaimeta.errors import ConfigError
from xaimeta.estimators import ESTIMATORS, EstimatorConfig, EvalContext, make_scorer
from xaimeta.explain import ExplainerConfig, build_explainer
from xaimeta.net import dense, logits_batch, make_net, relu, softmax
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
            relu(),
            dense(rng.normal(size=(c, h)), rng.normal(size=c)),
        ]
    )


def make_ctx(net, x, label=0, values=None, explainer=None, mask=None, seed=0, bounds=(0.0, 1.0)):
    """A one-row batch context for the sample x."""
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
        seeds=[seed],
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
        # replay the documented draw: (runs, d) keys -> row-wise argsort ->
        # first `size` columns, then one (runs, size) fill call; the base
        # logit and every masked row get a forward pass of their own
        rng = np.random.default_rng(seed)
        net = two_layer_net(rng, d=8)
        x = rng.uniform(size=8)
        values = rng.normal(size=8)
        cfg = EstimatorConfig(fc_subset_size=3, fc_runs=12)
        est = evaluate_faithfulness_correlation(make_ctx(net, x, values=values, seed=seed), cfg)

        oracle_rng = derive_rng("fc", seed)
        keys = oracle_rng.random((12, 8))
        fills = oracle_rng.uniform(0.0, 1.0, size=(12, 3))
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
            mp.setattr(estimators_module, "logits_batch", spy)
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

    def test_auc_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            net = two_layer_net(rng, d=5)
            x = rng.uniform(size=5)
            ctx = make_ctx(net, x, values=rng.normal(size=5), seed=int(rng.integers(1e6)))
            est = evaluate_pixel_flipping(ctx, EstimatorConfig(pf_step_size=2))
            assert 0.0 <= est <= 1.0


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
        ctx = make_ctx(net, x, explainer=explainer, seed=17)
        est = evaluate_max_sensitivity(ctx, cfg)

        oracle_rng = derive_rng("ms", 17)
        delta = oracle_rng.uniform(-0.2, 0.2, size=4)
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
    """The draw-by-draw loop: one explainer call per accepted draw, degenerate ones redrawn."""
    rng = derive_rng("lle", ctx.seeds[0])
    x, attribution = ctx.X[0], ctx.attributions[0]
    lo, hi = ctx.dataset_bounds
    radius = cfg.radius(ctx.dataset_bounds)
    worst, accepted, attempts = 0.0, 0, 0
    while accepted < cfg.robustness_runs and attempts < 1000 * cfg.robustness_runs:
        attempts += 1
        x_pert = np.clip(x + rng.uniform(-radius, radius, size=x.size), lo, hi)
        dist = float(np.linalg.norm(x_pert - x))
        if dist < 1e-12:
            continue
        other = ctx.explainer(ctx.net, x_pert[None, :], ctx.labels[0])[0]
        worst = max(worst, float(np.linalg.norm(attribution - other)) / dist)
        accepted += 1
    return None if accepted == 0 else worst


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
        ctx = make_ctx(net, x, explainer=explainer, seed=23)
        est = evaluate_local_lipschitz(ctx, cfg)

        oracle_rng = derive_rng("lle", 23)
        base = explainer(net, x[None, :], 0)[0]
        worst = 0.0
        for _ in range(3):
            delta = oracle_rng.uniform(-0.15, 0.15, size=4)
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
    )
    def test_degenerate_draws_match_per_draw_oracle(self, d, corner, runs, radius, seed):
        # x on a bound: a draw pointing outward on every feature clips to x
        # itself (probability 2^-d), and radius 1e-14 makes every draw
        # degenerate (radius 0 is a config error)
        net = two_layer_net(np.random.default_rng(seed % 1000), d=d)
        explainer = build_explainer("gradient", ExplainerConfig())
        ctx = make_ctx(net, corner[:d], explainer=explainer, seed=seed)
        cfg = EstimatorConfig(robustness_runs=runs, robustness_radius=radius)
        est = evaluate_local_lipschitz(ctx, cfg)
        expected = local_lipschitz_oracle(ctx, cfg)
        if expected is None:
            assert math.isnan(est)
        else:
            assert est == pytest.approx(expected, rel=1e-12, abs=1e-12)


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
        ctx = make_ctx(net, x, explainer=explainer, seed=31)
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


def bare_ctx(values, mask=None):
    d = len(values)
    net = linear_net(np.ones((2, d)))
    return make_ctx(net, np.full(d, 0.5), values=values, mask=mask)


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
            seeds=np.zeros(len(values), dtype=np.uint64),
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


class TestAdversarialEstimators:
    @given(seed=st.integers(0, 2**64 - 1))
    def test_deterministic_repeats_per_sample(self, seed):
        # the value depends on the seed alone, not on what the call is shown
        plain = bare_ctx([1.0, 2.0])
        plain.seeds = [seed]
        perturbed = bare_ctx([-3.0, 0.5])
        perturbed.X = perturbed.X + 0.25
        perturbed.seeds = [seed]
        perturbed.is_perturbed = True
        a = adversarial_deterministic(plain, CFG)
        assert isinstance(a, float) and 0.0 <= a < 1.0
        assert adversarial_deterministic(perturbed, CFG) == a

    def test_deterministic_is_uniform_over_derived_seeds(self):
        ctx = bare_ctx([1.0])
        values = []
        for seed in range(2000):
            ctx.seeds = [derive_seed("est", seed)]
            values.append(adversarial_deterministic(ctx, CFG))
        counts, _ = np.histogram(values, bins=4, range=(0.0, 1.0))
        assert counts.min() > 400

    def test_distribution_shift_unperturbed_far_negative(self):
        ctx = bare_ctx([1.0, 2.0])
        draws = []
        for seed in range(1000):
            ctx.seeds = [seed]
            draws.append(adversarial_distribution_shift(ctx, CFG))
        assert np.mean(np.asarray(draws) < -0.5) >= 0.99

    def test_distribution_shift_perturbed_near_zero(self):
        ctx = bare_ctx([1.0, 2.0])
        ctx.is_perturbed = True
        draws = []
        for seed in range(1000):
            ctx.seeds = [seed]
            draws.append(adversarial_distribution_shift(ctx, CFG))
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
            relu(),
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
        seeds=ctx.seeds[index],
        masks=ctx.masks[index],
    )


ATTRIBUTION_VALUES = st.one_of(
    st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0]), st.floats(-4.0, 4.0, allow_subnormal=False)
)


@st.composite
def batch_contexts(draw):
    """A context of 1-6 rows with tied and signed-zero attributions, seeds,
    masks and a BLAS-free explainer, plus a permutation of its rows."""
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
        seeds=np.array(
            draw(st.lists(st.integers(0, 2**64 - 1), min_size=b, max_size=b)), dtype=np.uint64
        ),
        masks=masks,
        is_perturbed=draw(st.booleans()),
    )
    return ctx, draw(st.permutations(range(b)))


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
    assert batch.dtype == np.float64 and batch.shape == (len(ctx.seeds),)
    rows = np.concatenate([evaluate(rows_of(ctx, [b]), BATCH_CFG) for b in range(len(ctx.seeds))])
    assert batch.tobytes() == rows.tobytes()
    assert evaluate(rows_of(ctx, perm), BATCH_CFG).tobytes() == batch[perm].tobytes()
