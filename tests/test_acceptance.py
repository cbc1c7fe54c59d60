"""Acceptance suite: the framework's exit criteria at their stated tolerances.

Each criterion prints one PASS/FAIL line (bypassing capture so the lines
always appear in the run log).  Criterion 6 is qualitative and logs
pass/warn without gating.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from xaimeta.consistency import iec_disruptive, iec_minor, meta_vector
from xaimeta.estimators import (
    ESTIMATORS,
    LOWER_BETTER,
    EstimatorConfig,
    evaluate_complexity,
    evaluate_pixel_flipping,
    evaluate_pointing_game,
    evaluate_relevance_mass_accuracy,
    evaluate_relevance_rank_accuracy,
    evaluate_sparseness,
    evaluate_top_k_intersection,
)
from xaimeta.explain import ExplainerConfig, explain_integrated_gradients
from xaimeta.net import dense, input_gradient_batch, logits_batch, make_net
from xaimeta.runconfig import config_from_tables, parse_tables
from xaimeta.runner import run_benchmark, run_sanity
from xaimeta.stats import average_ranks, wilcoxon_signed_rank

from test_estimators import bare_ctx
from test_stats import wilcoxon_enumeration_oracle


@pytest.fixture
def announce(capfd):
    """Print one pass/fail line per criterion, bypassing pytest capture."""

    def _announce(criterion, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"[acceptance] criterion {criterion}: {status}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)

    return _announce


SANITY_CONFIG = """
[dataset]
kind = blobs
samples = 256
features = 8
classes = 6
spread = 0.04

[model]
hidden = [16]
epochs = 20

[run]
tests = [ipt, mpt]
master_seed = 42
output = out

[methods]
use = [synthetic_flat, synthetic_input, synthetic_negative, synthetic_noise]

[estimators]
use = [adversarial_deterministic, adversarial_distribution_shift]
"""

BENCH_CONFIG = """
[dataset]
kind = blobs
samples = 64
features = 64
classes = 6
spread = 0.06
mask = threshold
mask_quantile = 0.75

[model]
hidden = [24]
epochs = 20

[run]
tests = [ipt, mpt]
k = 3
iterations = 2
master_seed = 1234
output = out

[methods]
use = [gradient, saliency, input_x_gradient, integrated_gradients, occlusion, gradient_shap]

[methods.integrated_gradients]
ig_steps = 32

[methods.gradient_shap]
shap_samples = 5

[estimators]
use = [faithfulness_correlation, pixel_flipping, max_sensitivity, local_lipschitz, model_parameter_randomisation, random_logit, sparseness, complexity, pointing_game, relevance_mass_accuracy, adversarial_deterministic]

[estimators.faithfulness_correlation]
fc_runs = 50

# symmetric disruptive window: one-sided noise saturates 64-feature inputs
# toward a single class region, starving the label-change condition
[perturb.ipt.disruptive]
alpha = -1.0
beta = 1.0
"""


class TestCriterion1Sanity:
    def test_sanity_reproduction(self, announce):
        config = config_from_tables(parse_tables(SANITY_CONFIG))
        started = time.monotonic()
        outcome = run_sanity(config, k=10, iterations=5)
        elapsed = time.monotonic() - started
        values = {
            (r["estimator"], r["test"], r["criterion"]): r["value"] for r in outcome.rows
        }
        checks = []
        for test in ("ipt", "mpt"):
            eq = lambda crit: values[("adversarial_deterministic", test, crit)]
            checks += [
                eq("iac_nr") == 1.0,
                eq("iac_ar") == 0.0,
                eq("iec_nr") == 1.0,
                eq("iec_ar") == 0.0,
            ]
            neq = lambda crit: values[("adversarial_distribution_shift", test, crit)]
            checks += [
                neq("iac_nr") <= 0.05,
                neq("iac_ar") >= 0.95,
                0.23 <= neq("iec_nr") <= 0.27,
                neq("iec_ar") == 0.0,
            ]
        ok = all(checks) and elapsed <= 120.0
        announce(1, ok, f"sanity table reproduced, {elapsed:.1f}s (cap 120s)")
        assert all(checks)
        assert elapsed <= 120.0


class TestCriterion2Wilcoxon:
    def test_exact_matches_enumeration_500(self, announce):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(500):
            m = int(rng.integers(2, 13))
            a = rng.normal(size=m)
            b = a - rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=m)
            if np.all(a == b):
                b = a - 1.0
            p = wilcoxon_signed_rank(a, b)
            worst = max(worst, abs(p - wilcoxon_enumeration_oracle(a, b)))
        ok = worst <= 1e-12
        announce(2, ok, f"500 enumeration comparisons, worst gap {worst:.2e}")
        assert worst <= 1e-12

    def test_regime_agreement_20_to_25(self):
        from xaimeta.stats import _wilcoxon_approx_p, _wilcoxon_exact_p

        rng = np.random.default_rng(78)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(20, 26))
            diffs = rng.normal(loc=rng.uniform(-0.5, 0.5), size=m)
            diffs = diffs[diffs != 0]
            ranks = average_ranks(np.abs(diffs))
            w_plus = float(ranks[diffs > 0].sum())
            worst = max(
                worst, abs(_wilcoxon_exact_p(w_plus, ranks) - _wilcoxon_approx_p(w_plus, ranks))
            )
        assert worst <= 0.01, worst


class TestCriterion3Gradients:
    def test_finite_difference_agreement(self, announce):
        rng = np.random.default_rng(31)
        h = 1e-4
        worst = 0.0
        checked = 0
        while checked < 100:
            d, hid, c = int(rng.integers(2, 8)), int(rng.integers(3, 10)), int(rng.integers(2, 5))
            net = make_net(
                [
                    dense(rng.normal(size=(hid, d)), rng.normal(size=hid)),
                    dense(rng.normal(size=(c, hid)), rng.normal(size=c)),
                ]
            )
            x = rng.normal(size=d)
            label = int(rng.integers(c))
            g = input_gradient_batch(net, x[None, :], label)[0]
            fd = np.zeros(d)
            for i in range(d):
                hi, lo = x.copy(), x.copy()
                hi[i] += h
                lo[i] -= h
                fd[i] = (
                    logits_batch(net, hi[None, :])[0, label] - logits_batch(net, lo[None, :])[0, label]
                ) / (2 * h)
            if np.linalg.norm(fd) < 1e-6:
                continue
            worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(fd))
            checked += 1
        ok = worst <= 1e-4
        announce(3, ok, f"100 FD pairs worst rel err {worst:.2e}; IG completeness checked")
        assert worst <= 1e-4

    def test_ig_completeness_128_steps(self):
        # hidden biases zero: the straight path from the zero baseline stays
        # on one relu activation pattern, the path-integral analogue of the
        # finite-difference check's away-from-kinks condition
        rng = np.random.default_rng(32)
        cfg = ExplainerConfig(ig_steps=128)
        worst = 0.0
        checked = 0
        while checked < 50:
            net = make_net(
                [
                    dense(rng.normal(size=(6, 5)), np.zeros(6)),
                    dense(rng.normal(size=(3, 6)), rng.normal(size=3)),
                ]
            )
            x = rng.normal(size=5)
            gap = logits_batch(net, x[None, :])[0, 1] - logits_batch(net, np.zeros((1, 5)))[0, 1]
            if abs(gap) < 1e-3:
                continue
            a = explain_integrated_gradients(net, x[None, :], 1, cfg)[0]
            worst = max(worst, abs(a.sum() - gap) / abs(gap))
            checked += 1
        assert worst <= 1e-3, worst


class TestCriterion4EstimatorIdentities:
    def test_identities(self, announce):
        cfg = EstimatorConfig()
        checks = []
        checks.append(
            evaluate_sparseness(bare_ctx([0.4] * 6), cfg) == pytest.approx(0.0, abs=1e-12)
        )
        checks.append(
            evaluate_sparseness(bare_ctx([0.0, 0.0, 0.0, 1.0]), cfg)
            == pytest.approx(0.75, abs=1e-12)
        )
        checks.append(
            evaluate_complexity(bare_ctx([1.0] * 4), cfg)
            == pytest.approx(math.log(4), abs=1e-12)
        )
        checks.append(
            evaluate_complexity(bare_ctx([0.0, 3.0, 0.0]), cfg)
            == pytest.approx(0.0, abs=1e-12)
        )
        mask = np.array([False, True, False, False])
        checks.append(evaluate_pointing_game(bare_ctx([0.1, 0.9, 0.2, 0.0], mask), cfg) == 1.0)
        checks.append(evaluate_pointing_game(bare_ctx([0.9, 0.1, 0.2, 0.0], mask), cfg) == 0.0)
        mask2 = np.array([True, True, False, False])
        checks.append(
            evaluate_relevance_mass_accuracy(bare_ctx([2.0, 1.0, 1.0, 0.0], mask2), cfg)
            == pytest.approx(0.75, abs=1e-12)
        )
        checks.append(
            evaluate_top_k_intersection(
                bare_ctx([5.0, 4.0, 1.0, 0.0], mask2), EstimatorConfig(topk_k=2)
            )
            == 1.0
        )
        checks.append(
            evaluate_relevance_rank_accuracy(bare_ctx([5.0, 4.0, 1.0, 0.0], mask2), cfg)
            == 1.0
        )
        # constant-probability model: AUC equals that probability exactly
        net = make_net([dense(np.zeros((2, 8)), np.zeros(2))])
        from test_estimators import make_ctx

        ctx = make_ctx(net, np.linspace(0.1, 0.9, 8), values=np.arange(8.0))
        auc = evaluate_pixel_flipping(ctx, EstimatorConfig(pf_step_size=2, pf_baseline="black"))
        checks.append(auc == pytest.approx(0.5, abs=1e-12))
        ok = all(bool(c) for c in checks)
        announce(4, ok, f"{len(checks)} estimator identities")
        assert ok


@pytest.fixture(scope="module")
def desk_benchmark(tmp_path_factory):
    config = config_from_tables(parse_tables(BENCH_CONFIG))
    started = time.monotonic()
    out_a = tmp_path_factory.mktemp("bench_a")
    results, paths_a = run_benchmark(config, out_dir=out_a)
    elapsed_first = time.monotonic() - started
    out_b = tmp_path_factory.mktemp("bench_b")
    _, paths_b = run_benchmark(config, out_dir=out_b)
    elapsed = time.monotonic() - started
    return {
        "results": results,
        "paths_a": paths_a,
        "paths_b": paths_b,
        "elapsed_first": elapsed_first,
        "elapsed_total": elapsed,
    }


class TestCriterion5FullBenchmark:
    def test_bounds_adversary_and_reproducibility(self, desk_benchmark, announce):
        results = desk_benchmark["results"]
        checks = []
        # every criterion and MC inside [0, 1], for means and iterations
        for cell in results.values():
            vectors = [cell.mean, *cell.per_iteration]
            for vector in vectors:
                checks.append(bool((vector.entries() >= 0).all()))
                checks.append(bool((vector.entries() <= 1).all()))
                checks.append(0.0 <= vector.mc <= 1.0)
        # the injected perturbation-blind adversary stays exact
        for test in ("ipt", "mpt"):
            mean = results[("adversarial_deterministic", test)].mean
            checks.append(mean.iac_nr == 1.0)
            checks.append(mean.iac_ar == 0.0)
            checks.append(mean.iec_nr == 1.0)
            checks.append(mean.iec_ar == 0.0)
        # byte-identical reports for the same master seed
        identical = all(
            Path(desk_benchmark["paths_a"][name]).read_bytes()
            == Path(desk_benchmark["paths_b"][name]).read_bytes()
            for name in ("results", "summary", "areagraph")
        )
        checks.append(identical)
        within_budget = desk_benchmark["elapsed_total"] <= 900.0
        checks.append(within_budget)
        ok = all(checks)
        announce(
            5,
            ok,
            f"11 estimators x 2 tests, reports byte-identical={identical}, "
            f"{desk_benchmark['elapsed_total']:.0f}s for both runs (cap 900s)",
        )
        assert ok


class TestCriterion6LocalisationTrend:
    def test_pointing_game_adversary_reactivity(self, desk_benchmark, capfd):
        # qualitative trend, logged as pass/warn without gating: under input
        # disruption the mask-dependent pointing game should react weakly
        value = desk_benchmark["results"][("pointing_game", "ipt")].mean.iec_ar
        status = "pass" if value < 0.4 else "warn"
        with capfd.disabled():
            print(
                f"[acceptance] criterion 6: {status.upper()} "
                f"(pointing game IPT iec_ar = {value:.3f}, qualitative threshold 0.4)",
                flush=True,
            )
        assert 0.0 <= value <= 1.0


class TestCriterion7MetaAlgebra:
    def test_mc_extremes(self):
        assert meta_vector(1.0, 0.0, 1.0, 1.0).mc == 1.0
        assert meta_vector(0.0, 1.0, 0.0, 0.0).mc == 0.0

    def test_iec_minor_monotone_invariance(self):
        rng = np.random.default_rng(90)
        transforms = [np.exp, lambda v: 3 * v + 2, lambda v: v**3, np.tanh]
        for _ in range(25):
            q = rng.normal(size=(6, 4))
            qm = rng.normal(size=(6, 4))
            base = iec_minor(q, qm)
            for transform in transforms:
                assert iec_minor(transform(q), transform(qm)) == pytest.approx(base, abs=1e-12)

    def test_inversion_rule_for_all_lower_better_estimators(self, announce):
        lower = sorted(e for e, row in ESTIMATORS.items() if row.direction == LOWER_BETTER)
        assert lower == [
            "complexity",
            "local_lipschitz",
            "max_sensitivity",
            "model_parameter_randomisation",
            "pixel_flipping",
            "random_logit",
        ]
        rng = np.random.default_rng(91)
        q = rng.uniform(size=(5, 3))
        worse = q + rng.uniform(0.1, 0.5, size=(5, 3))  # strictly higher
        for estimator_id in lower:
            inverted = ESTIMATORS[estimator_id].direction == LOWER_BETTER
            assert iec_disruptive(q, worse, lower_better=inverted) == 1.0
            assert iec_disruptive(q, worse, lower_better=not inverted) == 0.0
        announce(7, True, "MC extremes, rank invariance, inversion rule for all 6 lower-better ids")
