"""Score a batch of explanations with every estimator in the table.

Each estimator maps a batch of (model, input, label, attribution) rows to one
float per row; NaN means the estimate is undefined for that row.  Directions
differ: for some lower is better, which matters later when the disruption
criterion compares perturbed against unperturbed scores.  The two
adversarial rows are the sanity checks of the meta-evaluation itself.
"""
import math

import numpy as np

from xaimeta.dataio import make_masks, synth_blobs
from xaimeta.estimators import ESTIMATORS, EstimatorConfig, EvalContext
from xaimeta.explain import ExplainerConfig, build_explainer
from xaimeta.net import predict_labels, train_tiny
from xaimeta.seeding import derive_seed

dataset = synth_blobs(n=200, d=16, classes=4, seed=3)
masks = make_masks(dataset, "threshold", quantile=0.75)
net = train_tiny((16,), dataset.inputs, dataset.labels, epochs=20, seed=3)

# explainers take a (B, D) batch; the context holds the rows it scores, and
# robustness and randomisation estimators re-invoke the explainer on batches
explainer = build_explainer("gradient", ExplainerConfig(seed=5))
X = dataset.inputs[:3]
labels = predict_labels(net, X)
ctx = EvalContext(
    net=net,
    X=X,
    labels=labels,
    attributions=explainer(net, X, labels),
    explainer=explainer,
    dataset_bounds=dataset.bounds,
    # the rows are samples 0-2; estimators with draws of their own make one
    # generator call from `seed` per call and read row b's draws at rows[b]
    rows=np.arange(len(X)),
    seed=derive_seed("demo"),
    masks=masks[:3],
    dataset_mean=float(dataset.inputs.mean()),
)

cfg = EstimatorConfig(fc_runs=50)
print(f"{'estimator':34s} {'family':14s} {'direction':14s} values of rows 0-2")
for name, row in ESTIMATORS.items():
    estimates = row.evaluate(ctx, cfg)
    values = " ".join("undefined" if math.isnan(v) else f"{v:9.4f}" for v in estimates)
    print(f"{name:34s} {row.category:14s} {row.direction:14s} {values}")
