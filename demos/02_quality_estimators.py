"""Score one explanation with every quality estimator.

Each estimator maps (model, input, label, attribution) to a single float;
NaN means the estimate is undefined for that sample.  Directions differ: for some lower is better, which matters later when the
disruption criterion compares perturbed against unperturbed scores.
"""
import math

from xaimeta.dataio import make_masks, synth_blobs
from xaimeta.estimators import DIRECTIONS, ESTIMATOR_FUNCTIONS, EstimatorConfig, EvalContext
from xaimeta.explain import ExplainerConfig, build_explainer
from xaimeta.net import predict_labels, train_tiny

dataset = synth_blobs(n=200, d=16, classes=4, seed=3)
dataset.masks = make_masks(dataset, "threshold", quantile=0.75)
net = train_tiny((16,), dataset.inputs, dataset.labels, epochs=20, seed=3)

# explainers take a (B, D) batch; the context holds the one row it scores, and
# robustness and randomisation estimators re-invoke the explainer on batches
explainer = build_explainer("gradient", ExplainerConfig(seed=5))
x = dataset.inputs[0]
label = int(predict_labels(net, x[None, :])[0])
ctx = EvalContext(
    net=net,
    x=x,
    label=label,
    attribution=explainer(net, x[None, :], label)[0],
    explainer=explainer,
    dataset_bounds=dataset.bounds,
    mask=dataset.masks[0],
    dataset_mean=dataset.mean,
    seed=11,
    sample_index=0,
)

cfg = EstimatorConfig(fc_runs=50)
print(f"{'estimator':34s} {'direction':14s} value")
for name, evaluate in ESTIMATOR_FUNCTIONS.items():
    estimate = evaluate(ctx, cfg)
    value = "undefined" if math.isnan(estimate) else f"{estimate:.4f}"
    print(f"{name:34s} {DIRECTIONS[name]:14s} {value}")
