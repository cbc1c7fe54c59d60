"""Minor and disruptive perturbations of inputs and weights.

A perturbation is minor when the predicted label survives and disruptive
when it flips.  Input noise is additive uniform (clipped to the data
bounds); weight noise is multiplicative Gaussian.  Payloads are resampled
until they comply, and compliance is tracked per sample.
"""
from xaimeta.dataio import synth_blobs
from xaimeta.net import predict_labels, train_tiny
from xaimeta.perturb import ipt_sample, mpt_sample, perturb_spec

dataset = synth_blobs(n=120, d=8, classes=6, seed=9)
net = train_tiny((16,), dataset.inputs, dataset.labels, epochs=20, seed=9)
x = dataset.inputs[0]
label = predict_labels(net, x[None, :])[0]
print(f"sample 0 predicted class: {label}")

minor = ipt_sample(
    net, x, perturb_spec("ipt", "minor"), draw_seed=1, bounds=dataset.bounds, label=label
)
print(
    f"\nminor input noise (U(-0.001, 0.001)): compliant={minor.compliant} "
    f"after {minor.attempts} attempt(s); label stays "
    f"{predict_labels(net, minor.payload[None, :])[0]}"
)

# a symmetric window suits dense blob data; one-sided noise can strand
# samples whose upward neighbourhood belongs to their own class
spec = perturb_spec("ipt", "disruptive", alpha=-1.0, beta=1.0)
disruptive = ipt_sample(net, x, spec, draw_seed=1, bounds=dataset.bounds, label=label)
new_label = predict_labels(net, disruptive.payload[None, :])[0]
outcome = f"label flips to {new_label}" if disruptive.compliant else "no accepted draw"
print(
    f"disruptive input noise (U(-1, 1), clipped): compliant={disruptive.compliant} "
    f"after {disruptive.attempts} attempt(s); {outcome}"
)

labels = predict_labels(net, dataset.inputs)
net_minor, kept, attempts = mpt_sample(
    net, dataset.inputs, perturb_spec("mpt", "minor"), draw_seed=2, labels=labels
)
print(
    f"\nminor weight noise (nu ~ N(1, 0.001^2)): labels preserved for "
    f"{kept.mean():.1%} of samples ({attempts} draw(s))"
)

net_bad, flipped, attempts = mpt_sample(
    net, dataset.inputs, perturb_spec("mpt", "disruptive"), draw_seed=2, labels=labels
)
print(
    f"disruptive weight noise (nu ~ N(1, 2^2)): labels changed for "
    f"{flipped.mean():.1%} of samples ({attempts} draw(s))"
)
