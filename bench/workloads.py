"""The benchmark's workloads.

The config texts are copied here rather than imported from tests/, so that
editing a test cannot silently change what the benchmark measures.  Each
workload is one whole meta-evaluation, sized so that several fit into one
timed run; a run repeats it with a fresh master seed each time, and that
seed is the only thing the benchmark passes to the program besides the
config.
"""
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    text: str  # run-config text, without master_seed
    sanity: tuple | None = None  # (k, iterations) for runner.run_sanity; None -> run_benchmark
    overrides: dict = field(default_factory=dict)  # RunConfig fields replaced after parsing

    def config(self, master_seed):
        from xaimeta.runconfig import config_from_tables, parse_tables

        config = config_from_tables(parse_tables(self.text))
        return replace(config, master_seed=master_seed, **self.overrides)


# The acceptance desk benchmark (11 estimators x {ipt, mpt}, 6 gradient-family
# methods, D=64, K=3) at N=16 and one iteration instead of N=64 and two: the
# full reference run takes about a minute, and a run must repeat the
# meta-evaluation several times to report a steady median.
DESK = Workload(
    name="desk",
    why="acceptance desk config at N=16, 1 iteration: heavy explain+net, where batching, caching and shared perturbations show",
    text="""
[dataset]
kind = blobs
samples = 16
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
iterations = 1

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
""",
)

# The acceptance sanity config through run_sanity: the two adversarial
# estimators over four synthetic methods, N=256, D=8.  The explainers and the
# net do almost no arithmetic, so time goes to per-call pipeline overhead
# (seeding, collect glue, IPT resampling), which gradient batching leaves
# alone.  K is 1 instead of 10 and there is one iteration instead of five:
# the cost of a meta-evaluation varies by about 10% with its dataset and net
# (IPT resampling takes 1.5 to 7.5 attempts per payload), so a steady median
# needs many master seeds, about 45 in a run.  The distribution-shift
# tolerance windows, which the benchmark records, are calibrated for K=10 and
# a five-iteration mean, and are missed more often here.
SANITY = Workload(
    name="sanity",
    why="run_sanity at N=256, D=8, K=1, 1 iteration: per-call pipeline overhead with trivial explainers; batching should leave it unchanged",
    text="""
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

[methods]
use = [synthetic_flat, synthetic_input, synthetic_negative, synthetic_noise]

[estimators]
use = [adversarial_deterministic, adversarial_distribution_shift]
""",
    sanity=(1, 1),
)

# The paper's 28x28 MNIST shape (D=784) from synth_blobs, where per-call
# arithmetic matters and batched arrays outgrow the L2 cache, so a batching
# change that wins on desk can lose here.  MPT only, for a measured reason:
# at D=784 the default disruptive input window reaches only 41-50%
# compliance, so every IPT cell aborts with MetaEvaluationError.
WIDE = Workload(
    name="wide",
    why="D=784 (28x28), MPT only, 6 estimators: per-call arithmetic and cache footprint dominate, where batching can lose",
    text="""
[dataset]
kind = blobs
samples = 12
features = 784
classes = 10
spread = 0.06
mask = threshold
mask_quantile = 0.75

[model]
hidden = [64]
epochs = 20

[run]
tests = [mpt]
k = 3
iterations = 1

[methods]
use = [gradient, saliency, input_x_gradient, integrated_gradients, occlusion, gradient_shap]

[methods.integrated_gradients]
ig_steps = 32

[methods.gradient_shap]
shap_samples = 5

[estimators]
use = [faithfulness_correlation, pixel_flipping, max_sensitivity, model_parameter_randomisation, sparseness, relevance_mass_accuracy]
""",
)

WORKLOADS = {w.name: w for w in (DESK, SANITY, WIDE)}
