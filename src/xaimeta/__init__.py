"""Meta-evaluation toolkit for explanation-quality estimators.

Scores an estimator on two complementary failure modes -- resilience to
label-preserving noise and reactivity to label-changing disruption -- via
intra-consistency (Wilcoxon p-values), inter-consistency (ranking
agreement) and their meta-consistency average.
"""
from .consistency import (
    BenchmarkSetup,
    MetaVector,
    iac,
    iec_disruptive,
    iec_minor,
    meta_vector,
    run_meta_evaluation,
)
from .dataio import Dataset, load_idx, load_model, make_masks, save_model, synth_blobs
from .errors import (
    ConfigError,
    DataFormatError,
    MetaEvaluationError,
    PerturbationInfeasibleError,
    TrainingDivergedError,
)
from .estimators import EstimatorConfig, EvalContext, make_scorer
from .explain import ExplainerConfig, build_explainer, normalize
from .net import Net, get_weights, set_weights, train_tiny
from .perturb import (
    PerturbSpec,
    collect,
    ipt_sample,
    mpt_sample,
    perturb_spec,
)
from .runconfig import RunConfig, load_config
from .runner import run_benchmark, run_convergence, run_hpo, run_sanity, run_train

__version__ = "0.1.0"
