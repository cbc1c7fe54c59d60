"""A small end-to-end meta-evaluation.

Three estimators are stress-tested on both failure modes over the input
perturbation test: intra-consistency (Wilcoxon p-values), inter-consistency
(ranking agreement across four attribution methods) and the resulting
meta-consistency score.
"""
from xaimeta.consistency import BenchmarkSetup, run_meta_evaluation
from xaimeta.dataio import synth_blobs
from xaimeta.estimators import EstimatorConfig
from xaimeta.explain import ExplainerConfig, build_explainer
from xaimeta.net import train_tiny

dataset = synth_blobs(n=48, d=16, classes=4, seed=13)
net = train_tiny((16,), dataset.inputs, dataset.labels, epochs=20, seed=13)

# each explainer maps (net, X, labels) to normalized (B, D) maps; collect
# calls it once for the unperturbed rows and once per perturbed column
methods = [
    (name, build_explainer(name, ExplainerConfig(seed=1)))
    for name in ("gradient", "saliency", "input_x_gradient", "occlusion")
]
setup = BenchmarkSetup(
    net=net,
    inputs=dataset.inputs,
    bounds=dataset.bounds,
    methods=methods,
    estimators=[
        ("sparseness", EstimatorConfig()),
        ("complexity", EstimatorConfig()),
        ("faithfulness_correlation", EstimatorConfig(fc_runs=30)),
    ],
    tests=["ipt"],
    K=3,
    iterations=2,
    master_seed=21,
)

results = run_meta_evaluation(setup)
print(f"{'estimator':28s} {'iac_nr':>7} {'iac_ar':>7} {'iec_nr':>7} {'iec_ar':>7} {'mc':>7}")
for (estimator_id, test), cell in sorted(results.items()):
    m = cell.mean
    print(
        f"{estimator_id:28s} {m.iac_nr:7.3f} {m.iac_ar:7.3f} "
        f"{m.iec_nr:7.3f} {m.iec_ar:7.3f} {m.mc:7.3f}"
    )
print(
    "\nhigher is better everywhere: the adversary-reactivity p-value is "
    "reverse-scored before it enters the vector."
)
