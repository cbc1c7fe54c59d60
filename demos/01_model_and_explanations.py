"""Train a tiny model and inspect the attribution methods.

Walks through the base layer of the toolkit: a dense/relu net trained on
synthetic blobs, the six batch-first attribution methods, and the row-wise
second-moment normalization that puts their maps on a comparable scale.
"""
import numpy as np

from xaimeta.dataio import synth_blobs
from xaimeta.explain import ExplainerConfig, METHODS, normalize
from xaimeta.net import accuracy, forward, predict_labels, train_tiny

dataset = synth_blobs(n=200, d=8, classes=4, seed=7)
net = train_tiny((16,), dataset.inputs, dataset.labels, epochs=20, seed=7)
print(f"trained 8-16-4 net, training accuracy {accuracy(net, dataset.inputs, dataset.labels):.3f}")

x = dataset.inputs[0]
pred = forward(net, x)
print(f"\nsample 0: predicted class {pred.label}, probs {np.round(pred.probs, 3)}")

cfg = ExplainerConfig(ig_steps=64, occlusion_patch=2, shap_samples=20, seed=1)
# every method is batch-first: (net, X of shape (B, D), per-row labels) -> (B, D)
X = dataset.inputs[:4]
labels = predict_labels(net, X)
print(f"\nraw attribution maps of sample 0 (one row per method; each call explains {len(X)} samples):")
for name, method in METHODS.items():
    maps = method(net, X, labels, cfg)
    print(f"  {name:22s} {np.round(maps[0], 3)}")

print("\nafter row-wise normalization every map has unit mean square:")
for name, method in METHODS.items():
    normalized = normalize(method(net, X, labels, cfg))
    print(f"  {name:22s} mean square per sample = {np.round(np.mean(normalized**2, axis=1), 6)}")
