import base64
import hashlib
import re
import struct

import numpy as np
import pytest

from xaimeta.dataio import (
    Dataset,
    load_idx,
    load_model,
    make_masks,
    save_model,
    synth_blobs,
)
from xaimeta.errors import DataFormatError
from xaimeta.net import dense, get_weights, init_net, make_net


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as handle:
        handle.write(struct.pack(">IIII", 0x803, n, rows, cols))
        handle.write(images.tobytes())
    with open(lbl_path, "wb") as handle:
        handle.write(struct.pack(">II", 0x801, n))
        handle.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return img_path, lbl_path


def minimal_idx_reader(img_path, lbl_path):
    """Independent struct-based parser used as the loader oracle."""
    with open(img_path, "rb") as handle:
        magic, n, rows, cols = struct.unpack(">IIII", handle.read(16))
        assert magic == 0x803
        pixels = np.frombuffer(handle.read(n * rows * cols), dtype=np.uint8)
    with open(lbl_path, "rb") as handle:
        magic, n_labels = struct.unpack(">II", handle.read(8))
        assert magic == 0x801
        labels = np.frombuffer(handle.read(n_labels), dtype=np.uint8)
    return pixels.reshape(n, rows * cols) / 255.0, labels


class TestLoadIdx:
    def test_hand_built_two_image_file(self, tmp_path):
        images = [[[0, 51], [102, 153]], [[204, 255], [0, 102]]]
        img, lbl = write_idx_pair(tmp_path, images, [3, 7])
        dataset = load_idx(img, lbl)
        assert dataset.inputs.shape == (2, 4)
        assert np.allclose(dataset.inputs[0], [0.0, 0.2, 0.4, 0.6], atol=1e-12)
        assert dataset.labels.tolist() == [3, 7]
        assert dataset.bounds == (0.0, 1.0)

    def test_empty_item_count(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((0, 2, 2), dtype=np.uint8), [])
        dataset = load_idx(img, lbl)
        assert dataset.inputs.shape == (0, 4)

    def test_wrong_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        with open(img, "r+b") as handle:
            handle.write(struct.pack(">I", 0x0807))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img, lbl)

    def test_truncated_payload_reports_offset(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        data = img.read_bytes()[:-3]
        img.write_bytes(data)
        with pytest.raises(DataFormatError, match="byte"):
            load_idx(img, lbl)

    def test_matches_independent_parser_on_ten_images(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        dataset = load_idx(img, lbl)
        inputs_oracle, labels_oracle = minimal_idx_reader(img, lbl)
        assert np.array_equal(dataset.inputs, inputs_oracle)
        assert np.array_equal(dataset.labels, labels_oracle)


class TestSynthBlobs:
    def test_same_seed_identical(self):
        a = synth_blobs(40, 4, 3, seed=5)
        b = synth_blobs(40, 4, 3, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_nearest_centroid_oracle(self):
        dataset = synth_blobs(120, 6, 4, seed=1, spread=0.02)
        centroids = np.stack(
            [dataset.inputs[dataset.labels == c].mean(axis=0) for c in range(4)]
        )
        distances = np.linalg.norm(dataset.inputs[:, None, :] - centroids[None], axis=2)
        predictions = distances.argmin(axis=1)
        assert np.mean(predictions == dataset.labels) >= 0.99

    def test_empty(self):
        dataset = synth_blobs(0, 4, 3, seed=2)
        assert dataset.inputs.shape == (0, 4)

    def test_bounds_cover_inputs(self):
        dataset = synth_blobs(50, 3, 2, seed=3)
        lo, hi = dataset.bounds
        assert lo <= dataset.inputs.min() and dataset.inputs.max() <= hi


class TestDatasetLabels:
    """A dataset keeps its labels by the trainer's rule: finite, whole and
    >= 0, cast to int64, never truncated."""

    @pytest.mark.parametrize(
        "labels, message",
        [([1.7, 0.0], "labels must be integers"), ([-1, 0], r"labels outside \[0")],
    )
    def test_a_label_the_trainer_rejects_raises(self, labels, message):
        with pytest.raises(ValueError, match=message):
            Dataset(np.zeros((2, 3)), labels, (0.0, 1.0))

    def test_a_whole_number_float_label_is_its_int(self):
        labels = Dataset(np.zeros((2, 3)), [1.0, 0.0], (0.0, 1.0)).labels
        assert labels.dtype == np.int64 and labels.tolist() == [1, 0]


class TestMasks:
    def square_dataset(self, images):
        images = np.asarray(images, dtype=np.float64)
        n = images.shape[0]
        return Dataset(
            images.reshape(n, -1), np.zeros(n, dtype=np.int64), (0.0, 1.0)
        )

    def test_center_box_full_coverage(self):
        dataset = self.square_dataset(np.random.default_rng(0).uniform(size=(3, 4, 4)))
        masks = make_masks(dataset, "center_box", fraction=1.0)
        assert masks.all()

    def test_center_box_quarter_of_28x28(self):
        dataset = self.square_dataset(np.zeros((1, 28, 28)) + 0.5)
        masks = make_masks(dataset, "center_box", fraction=0.25)
        grid = masks[0].reshape(28, 28)
        assert masks.sum() == 196
        assert grid[7:21, 7:21].all()
        assert not grid[:7].any() and not grid[21:].any()
        assert not grid[:, :7].any() and not grid[:, 21:].any()

    def test_center_box_needs_square(self):
        dataset = Dataset(np.zeros((1, 6)), np.zeros(1, dtype=np.int64), (0.0, 1.0))
        with pytest.raises(DataFormatError):
            make_masks(dataset, "center_box")

    def test_threshold_marks_bright_pixels(self):
        image = np.zeros((1, 2, 2))
        image[0, 0, 0] = 1.0
        dataset = self.square_dataset(image)
        masks = make_masks(dataset, "threshold", quantile=0.75)
        assert masks[0].tolist() == [True, False, False, False]

    def test_threshold_zero_image_falls_back_to_first_pixel(self):
        dataset = self.square_dataset(np.zeros((1, 3, 3)))
        masks = make_masks(dataset, "threshold", quantile=0.75)
        assert masks[0].tolist() == [True] + [False] * 8

    def test_unknown_policy(self):
        dataset = self.square_dataset(np.zeros((1, 2, 2)))
        with pytest.raises(DataFormatError):
            make_masks(dataset, "grabcut")


class TestModelRoundTrip:
    def build_net(self):
        rng = np.random.default_rng(9)
        return make_net(
            [
                dense(rng.normal(size=(5, 3)), rng.normal(size=5)),
                dense(rng.normal(size=(2, 5)), rng.normal(size=2)),
            ]
        )

    def test_bitwise_round_trip(self, tmp_path):
        net = self.build_net()
        path = tmp_path / "model.txt"
        save_model(net, path, provenance="seed=9")
        loaded = load_model(path)
        assert np.array_equal(get_weights(loaded), get_weights(net))
        assert [l.weights.shape for l in loaded.layers] == [l.weights.shape for l in net.layers]

    def test_layers_line_alternates_dense_and_relu(self, tmp_path):
        net = init_net(3, (4,), 2, seed=1)
        path = tmp_path / "model.txt"
        save_model(net, path)
        assert "layers dense 4 3, relu, dense 2 4" in path.read_text().splitlines()
        loaded = load_model(path)
        assert get_weights(loaded).tobytes() == get_weights(net).tobytes()
        assert (loaded.input_dim, loaded.num_classes) == (3, 2)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("dense 4 3,, relu, dense 2 4", "''"),
            ("", "''"),
            ("dense 4 x, relu, dense 2 4", "'dense 4 x'"),
            ("dense 4 3, dense 2 4", "'dense 2 4'"),
            ("relu, dense 4 3, relu, dense 2 4", "'relu'"),
            ("dense 4 3, relu, dense 2 4, relu", "'relu'"),
            ("dense 4 3, relu, dense 2 5", "expected input 4, got 5"),
        ],
    )
    def test_malformed_layers_line_names_the_bad_part(self, tmp_path, spec, named):
        path = tmp_path / "model.txt"
        save_model(init_net(3, (4,), 2, seed=1), path)
        text = path.read_text().replace("layers dense 4 3, relu, dense 2 4", f"layers {spec}".strip())
        path.write_text(text)
        with pytest.raises(DataFormatError, match=re.escape(named)):
            load_model(path)

    @pytest.mark.parametrize(
        "field, declared, named",
        [
            ("input_dim", 7, "input_dim 7 contradicts the layers line's 3"),
            ("num_classes", 9, "num_classes 9 contradicts the layers line's 2"),
        ],
    )
    def test_header_contradicting_the_layers_line(self, tmp_path, field, declared, named):
        path = tmp_path / "model.txt"
        save_model(init_net(3, (4,), 2, seed=1), path)
        lines = path.read_text().splitlines()
        lines = [f"{field} {declared}" if l.startswith(field + " ") else l for l in lines]
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError, match=re.escape(named)):
            load_model(path)

    def test_non_ascii_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(init_net(3, (4,), 2, seed=1), path, provenance="seed=1")
        text = path.read_text().replace("provenance seed=1", "provenance seed=\u00e9")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError, match="model.txt: not an ASCII file"):
            load_model(path)

    def test_non_ascii_provenance_rejected_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "model.txt"
        with pytest.raises(ValueError, match="provenance must be ASCII"):
            save_model(init_net(3, (4,), 2, seed=1), path, provenance="seed=\u00e9")
        assert not path.exists()

    @pytest.mark.parametrize(
        "provenance", ["seed=1\nchecksum sha256:00", "a\rb"], ids=["newline", "carriage-return"]
    )
    def test_line_break_in_provenance_rejected_before_the_file_is_opened(
        self, tmp_path, provenance
    ):
        # a line break would add header lines: load_model would read a forged
        # checksum, or cut the provenance short
        path = tmp_path / "model.txt"
        with pytest.raises(ValueError, match="provenance must be ASCII and printable"):
            save_model(init_net(3, (4,), 2, seed=1), path, provenance=provenance)
        assert not path.exists()

    def test_checksum_recomputation(self, tmp_path):
        net = self.build_net()
        path = tmp_path / "model.txt"
        save_model(net, path)
        lines = path.read_text().splitlines()
        payload = base64.b64decode(next(l for l in lines if l.startswith("payload "))[8:])
        declared = next(l for l in lines if l.startswith("checksum "))[9:]
        assert declared == "sha256:" + hashlib.sha256(payload).hexdigest()
        first_weight = np.frombuffer(payload, dtype="<f8")[0]
        assert first_weight == get_weights(net)[0]

    def test_corrupted_payload_length(self, tmp_path):
        net = self.build_net()
        path = tmp_path / "model.txt"
        save_model(net, path)
        text = path.read_text().splitlines()
        for i, line in enumerate(text):
            if line.startswith("payload "):
                payload = base64.b64decode(line[8:])
                text[i] = "payload " + base64.b64encode(payload[:-8]).decode()
        path.write_text("\n".join(text))
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        net = self.build_net()
        path = tmp_path / "model.txt"
        save_model(net, path)
        text = path.read_text().splitlines()
        for i, line in enumerate(text):
            if line.startswith("payload "):
                payload = bytearray(base64.b64decode(line[8:]))
                payload[0] ^= 0xFF
                text[i] = "payload " + base64.b64encode(bytes(payload)).decode()
        path.write_text("\n".join(text))
        with pytest.raises(DataFormatError, match="checksum"):
            load_model(path)

    def test_non_finite_weights_rejected_with_file_name(self, tmp_path):
        # the checksum covers the NaN, so only the parameter check catches it
        net = self.build_net()
        w = get_weights(net)
        w[3] = np.nan
        payload = w.astype("<f8").tobytes()
        path = tmp_path / "model.txt"
        save_model(net, path)
        text = path.read_text().splitlines()
        for i, line in enumerate(text):
            if line.startswith("checksum "):
                text[i] = "checksum sha256:" + hashlib.sha256(payload).hexdigest()
            if line.startswith("payload "):
                text[i] = "payload " + base64.b64encode(payload).decode()
        path.write_text("\n".join(text))
        with pytest.raises(DataFormatError, match="model.txt.*finite"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("something else\n")
        with pytest.raises(DataFormatError):
            load_model(path)
