import struct

import numpy as np
import pytest

from subfed.data import (
    BadMagicError,
    CountMismatchError,
    DataFormatError,
    Dataset,
    InsufficientDataError,
    TruncatedFileError,
    channel_stats,
    load_cifar_binary,
    load_idx,
    normalize,
    pad_images,
    partition_shards,
    split_per_class,
    synth_dataset,
)
from subfed.engine import evaluate_accuracy, init_params

from helpers import tiny_dense_spec, train_briefly


def write_idx(tmp_path, n=12, rows=4, cols=4, image_magic=0x803, label_magic=0x801,
              label_count=None, truncate_images=False):
    rng = np.random.default_rng(0)
    images = tmp_path / "images-idx3-ubyte"
    labels = tmp_path / "labels-idx1-ubyte"
    pixel = rng.integers(0, 256, size=n * rows * cols, dtype=np.uint8).tobytes()
    if truncate_images:
        pixel = pixel[: len(pixel) // 2]
    images.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + pixel)
    m = n if label_count is None else label_count
    labs = (np.arange(m) % 3).astype(np.uint8).tobytes()
    labels.write_bytes(struct.pack(">II", label_magic, m) + labs)
    return images, labels


class TestIdx:
    def test_load_shapes_and_scaling(self, tmp_path):
        images, labels = write_idx(tmp_path)
        ds = load_idx(images, labels)
        assert ds.images.shape == (12, 1, 4, 4)
        assert ds.images.dtype == np.float32
        assert float(ds.images.max()) <= 1.0 and float(ds.images.min()) >= 0.0
        assert ds.class_count == 3
        assert len(ds) == 12

    def test_bad_image_magic(self, tmp_path):
        images, labels = write_idx(tmp_path, image_magic=0x802)
        with pytest.raises(BadMagicError, match="0x00000802"):
            load_idx(images, labels)

    def test_bad_label_magic(self, tmp_path):
        images, labels = write_idx(tmp_path, label_magic=0x803)
        with pytest.raises(BadMagicError):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images, labels = write_idx(tmp_path, label_count=10)
        with pytest.raises(CountMismatchError, match="12 images vs 10 labels"):
            load_idx(images, labels)

    def test_truncated_payload(self, tmp_path):
        images, labels = write_idx(tmp_path, truncate_images=True)
        with pytest.raises(TruncatedFileError):
            load_idx(images, labels)

    def test_empty_file_is_truncation(self, tmp_path):
        images, labels = write_idx(tmp_path)
        images.write_bytes(b"")
        with pytest.raises(TruncatedFileError):
            load_idx(images, labels)


class TestCifar:
    def make_file(self, tmp_path, records=4, cifar100=False, payload_pad=0):
        record = 3074 if cifar100 else 3073
        rng = np.random.default_rng(1)
        blob = rng.integers(0, 256, size=records * record, dtype=np.uint8)
        blob = blob.reshape(records, record)
        blob[:, 0] = np.arange(records) % (20 if cifar100 else 10)  # coarse/label
        if cifar100:
            blob[:, 1] = np.arange(records) % 100  # fine label
        path = tmp_path / "batch.bin"
        path.write_bytes(blob.tobytes() + b"\0" * payload_pad)
        return path

    def test_cifar10_record_parsing(self, tmp_path):
        path = self.make_file(tmp_path, records=4)
        ds = load_cifar_binary([path])
        assert ds.images.shape == (4, 3, 32, 32)
        assert ds.class_count == 10
        assert ds.labels.tolist() == [0, 1, 2, 3]

    def test_single_record(self, tmp_path):
        path = self.make_file(tmp_path, records=1)
        ds = load_cifar_binary([path])
        assert ds.images.shape == (1, 3, 32, 32)

    def test_cifar100_uses_fine_labels(self, tmp_path):
        path = self.make_file(tmp_path, records=3, cifar100=True)
        ds = load_cifar_binary([path], cifar100=True)
        assert ds.labels.tolist() == [0, 1, 2]
        assert ds.class_count == 100

    def test_cifar100_with_cifar10_record_size_errors(self, tmp_path):
        path = self.make_file(tmp_path, records=3, cifar100=True)
        with pytest.raises(DataFormatError, match="3073"):
            load_cifar_binary([path])  # 3*3074 is not a multiple of 3073


class TestSynth:
    def test_deterministic(self):
        a = synth_dataset(4, 10, 0.5, seed=9, image_shape=(1, 5, 5))
        b = synth_dataset(4, 10, 0.5, seed=9, image_shape=(1, 5, 5))
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_separation_trains_to_chance(self):
        ds = synth_dataset(4, 120, 0.0, seed=3, image_shape=(1, 1, 8))
        spec = tiny_dense_spec(8, 4)
        params = train_briefly(spec, init_params(spec, 0), ds.images, ds.labels)
        train, test = split_per_class(ds, 30)
        acc = evaluate_accuracy(spec, params, test.images, test.labels)
        assert abs(acc - 25.0) < 15.0  # indistinguishable classes hover at chance

    def test_large_separation_linear_model_above_95(self):
        ds = synth_dataset(4, 150, 3.0, seed=3, image_shape=(1, 1, 8))
        train, test = split_per_class(ds, 30)
        spec = tiny_dense_spec(8, 4)
        params = train_briefly(spec, init_params(spec, 0), train.images, train.labels)
        assert evaluate_accuracy(spec, params, test.images, test.labels) > 95.0

    def test_split_per_class_sizes(self):
        ds = synth_dataset(3, 20, 1.0, seed=0, image_shape=(1, 2, 2))
        train, test = split_per_class(ds, 5)
        assert len(train) == 45 and len(test) == 15
        assert all(np.sum(test.labels == c) == 5 for c in range(3))


class TestTransforms:
    def test_pad_centers_images(self):
        ds = Dataset(np.ones((2, 1, 2, 2), np.float32), np.zeros(2, np.int64), 1)
        out = pad_images(ds, 4, 4)
        assert out.images.shape == (2, 1, 4, 4)
        assert out.images[0, 0, 1:3, 1:3].sum() == 4.0
        assert out.images.sum() == 8.0

    def test_pad_rejects_shrinking(self):
        ds = Dataset(np.ones((1, 1, 5, 5), np.float32), np.zeros(1, np.int64), 1)
        with pytest.raises(DataFormatError):
            pad_images(ds, 4, 4)

    def test_normalize_uses_given_stats(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(2.0, 3.0, (50, 2, 3, 3)).astype(np.float32),
                     np.zeros(50, np.int64), 1)
        mean, std = channel_stats(ds)
        out = normalize(ds, mean, std)
        assert abs(float(out.images.mean())) < 1e-5
        assert float(out.images.std()) == pytest.approx(1.0, abs=1e-4)


class TestPartition:
    def make(self, classes=10, per_class=100, clients=10, shard=50, seed=0):
        full = synth_dataset(classes, per_class + 20, 1.0, seed=1, image_shape=(1, 2, 2))
        train, _ = split_per_class(full, 20)
        return train, partition_shards(train, clients, 2, shard, seed)

    def test_shards_disjoint_and_sized(self):
        train, part = self.make()
        seen = np.concatenate(list(part.assignment.values()))
        assert len(seen) == len(set(seen.tolist())) == 10 * 2 * 50
        assert all(len(v) == 100 for v in part.assignment.values())

    def test_label_skew_is_severe(self):
        _, part = self.make()
        counts = sorted(len(v) for v in part.client_labels.values())
        assert counts[len(counts) // 2] <= 4

    def test_deterministic_and_seed_sensitive(self):
        _, a = self.make(seed=3)
        _, b = self.make(seed=3)
        _, c = self.make(seed=4)
        assert all(np.array_equal(a.assignment[k], b.assignment[k]) for k in a.assignment)
        assert any(
            not np.array_equal(a.assignment[k], c.assignment[k]) for k in a.assignment
        )

    def test_insufficient_data_message(self):
        full = synth_dataset(2, 60, 1.0, seed=1, image_shape=(1, 2, 2))
        train, test = split_per_class(full, 10)
        with pytest.raises(InsufficientDataError, match="need 40 shards of 50"):
            partition_shards(train, 20, 2, 50, 0)

    def test_different_seeds_vary_statistically(self):
        assignments = []
        for seed in range(20):
            _, part = self.make(seed=seed)
            assignments.append(tuple(int(v[0]) for v in part.assignment.values()))
        assert len(set(assignments)) >= 19
