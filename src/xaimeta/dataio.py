"""Dataset ingestion, segmentation masks, and model serialization.

Datasets are flat float64 matrices scaled to [0, 1] with the clip bounds of
the loaded split attached.  The IDX reader handles the classic uncompressed
big-endian byte format; synthetic Gaussian blobs cover self-contained runs.
Models round-trip bit-exactly through a small text format with a checksummed
base64 payload.
"""
import base64
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .net import Layer, Net, _training_labels, get_weights, make_net, set_weights

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MODEL_HEADER = "xaimeta-model v1"
MASK_POLICIES = ("none", "center_box", "threshold")  # [dataset] mask


@dataclass
class Dataset:
    inputs: np.ndarray  # (N, D), scaled to [0, 1]
    labels: np.ndarray  # (N,) int64 classes, whole and >= 0
    bounds: tuple  # (min, max) over this split

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = _training_labels(self.labels)
        if self.inputs.size:
            lo, hi = self.bounds
            if self.inputs.min() < lo or self.inputs.max() > hi:
                raise DataFormatError("dataset bounds inconsistent with inputs")


def _read_be_u32(buffer, offset, path):
    if offset + 4 > len(buffer):
        raise DataFormatError(f"{path}: truncated at byte {offset}")
    return struct.unpack_from(">I", buffer, offset)[0], offset + 4


def _read_idx(path, magic) -> np.ndarray:
    """The uint8 array of an IDX file: a big-endian u32 magic, whose low
    byte is the rank, one u32 size per dimension, then the payload."""
    with open(path, "rb") as handle:
        blob = handle.read()
    found, offset = _read_be_u32(blob, 0, path)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic 0x{found:08x} at byte 0")
    shape = []
    for _ in range(magic & 0xFF):
        size, offset = _read_be_u32(blob, offset, path)
        shape.append(size)
    expected = math.prod(shape)
    if len(blob) - offset < expected:
        raise DataFormatError(
            f"{path}: payload short, expected {expected} bytes from byte {offset}"
        )
    return np.frombuffer(blob, dtype=np.uint8, count=expected, offset=offset).reshape(shape)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a flat [0, 1] dataset."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC).astype(np.int64)
    if len(labels) != len(images):
        raise DataFormatError(f"{labels_path}: {len(labels)} labels for {len(images)} images")
    # by the product of the trailing sizes, so that no images still give (0, rows * cols)
    inputs = images.reshape(len(images), math.prod(images.shape[1:])).astype(np.float64) / 255.0
    if len(inputs) == 0:
        return Dataset(inputs, labels, (0.0, 1.0))
    return Dataset(inputs, labels, (float(inputs.min()), float(inputs.max())))


def synth_blobs(n: int, d: int, classes: int, seed: int, spread: float = 0.04) -> Dataset:
    """Seeded Gaussian blobs with class centers spread over the unit cube,
    clipped to [0, 1]."""
    if n == 0:
        return Dataset(np.zeros((0, d)), np.zeros(0, dtype=np.int64), (0.0, 1.0))
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.15, 0.85, size=(classes, d))
    labels = np.arange(n) % classes
    inputs = np.clip(centers[labels] + rng.normal(0.0, spread, size=(n, d)), 0.0, 1.0)
    order = rng.permutation(n)
    inputs, labels = inputs[order], labels[order]
    return Dataset(inputs, labels, (float(inputs.min()), float(inputs.max())))


def make_masks(dataset: Dataset, policy: str, fraction: float = 0.25, quantile: float = 0.75):
    """Segmentation masks for the localisation estimators.

    center_box(fraction) marks the centered square covering `fraction` of a
    square image's features.  threshold(quantile) marks the pixels above the
    per-image quantile, falling back to the argmax pixel so that no row is
    empty.
    """
    X = dataset.inputs
    n, d = X.shape
    if policy == "center_box":
        side = int(round(np.sqrt(d)))
        if side * side != d:
            raise DataFormatError(f"center_box needs a square feature count, got {d}")
        box = int(round(side * np.sqrt(fraction)))
        box = max(1, min(side, box))
        start = (side - box) // 2
        grid = np.zeros((side, side), dtype=bool)
        grid[start : start + box, start : start + box] = True
        return np.tile(grid.ravel(), (n, 1))
    if policy == "threshold":
        masks = X > np.quantile(X, quantile, axis=1, keepdims=True)
        empty = np.flatnonzero(~masks.any(axis=1))
        masks[empty, np.argmax(X[empty], axis=1)] = True
        return masks
    raise DataFormatError(f"unknown mask policy {policy!r}")


def _layer_spec(net: Net) -> str:
    """The `layers` header value: `dense <out> <in>` per layer, joined by
    the relu that sits between consecutive ones."""
    shapes = (layer.weights.shape for layer in net.layers)
    return ", relu, ".join(f"dense {out_dim} {in_dim}" for out_dim, in_dim in shapes)


def _parse_layer_spec(spec: str, path) -> Net:
    """A zero-parameter net of the shapes a `layers` header value names,
    which must alternate `dense <out> <in>` and `relu`, dense first and
    last."""
    parts = [part.strip() for part in spec.split(",")]
    layers = []
    for index, part in enumerate(parts):
        if index % 2:
            if part != "relu":
                raise DataFormatError(f"{path}: expected relu between dense layers, got {part!r}")
            continue
        fields = part.split()
        if len(fields) != 3 or fields[0] != "dense" or not all(f.isdecimal() for f in fields[1:]):
            raise DataFormatError(f"{path}: bad layer spec {part!r}, expected 'dense <out> <in>'")
        out_dim, in_dim = int(fields[1]), int(fields[2])
        layers.append(Layer(np.zeros((out_dim, in_dim)), np.zeros(out_dim)))
    if len(parts) % 2 == 0:
        raise DataFormatError(f"{path}: layers end with {parts[-1]!r}, not a dense layer")
    try:
        return make_net(layers)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_model(net: Net, path, provenance: str = "") -> None:
    """Write the text header plus checksummed base64 float64 payload.

    The provenance is one header line, so it must be printable ASCII: a
    line break would split it into header lines that `load_model` reads.
    """
    if not (provenance.isascii() and provenance.isprintable()):
        raise ValueError(f"provenance must be ASCII and printable, got {provenance!r}")
    payload = get_weights(net).astype("<f8").tobytes()
    digest = hashlib.sha256(payload).hexdigest()
    lines = [
        MODEL_HEADER,
        f"input_dim {net.input_dim}",
        f"num_classes {net.num_classes}",
        f"layers {_layer_spec(net)}",
        f"provenance {provenance}",
        f"checksum sha256:{digest}",
        f"payload {base64.b64encode(payload).decode('ascii')}",
        "",
    ]
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines))


def _header_value(lines, key, path):
    for line in lines:
        if line.startswith(key + " "):
            return line[len(key) + 1 :]
        if line == key:
            return ""
    raise DataFormatError(f"{path}: missing header field {key!r}")


def load_model(path) -> Net:
    """Read a model file back; bit-exact inverse of save_model."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not an ASCII file") from exc
    if not lines or lines[0] != MODEL_HEADER:
        raise DataFormatError(f"{path}: not a {MODEL_HEADER} file")
    skeleton = _parse_layer_spec(_header_value(lines, "layers", path), path)
    for key in ("input_dim", "num_classes"):
        value, n = _header_value(lines, key, path), getattr(skeleton, key)
        if value != str(n):
            raise DataFormatError(f"{path}: {key} {value} contradicts the layers line's {n}")
    checksum = _header_value(lines, "checksum", path)
    try:
        payload = base64.b64decode(_header_value(lines, "payload", path), validate=True)
    except Exception as exc:
        raise DataFormatError(f"{path}: undecodable payload ({exc})") from exc
    if checksum != "sha256:" + hashlib.sha256(payload).hexdigest():
        raise DataFormatError(f"{path}: checksum mismatch")
    weights = np.frombuffer(payload, dtype="<f8")
    expected = get_weights(skeleton).size
    if weights.size != expected:
        raise DataFormatError(f"{path}: payload holds {weights.size} values, expected {expected}")
    try:
        return set_weights(skeleton, weights.astype(np.float64))
    except ValueError as exc:  # a non-finite parameter, covered by a valid checksum
        raise DataFormatError(f"{path}: {exc}") from exc
