"""Dataset loading (IDX, CIFAR binary), synthetic data, and the shard partitioner."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR10_RECORD = 1 + 3072
CIFAR100_RECORD = 2 + 3072


class DataFormatError(ValueError):
    pass


class BadMagicError(DataFormatError):
    pass


class TruncatedFileError(DataFormatError):
    pass


class CountMismatchError(DataFormatError):
    pass


class InsufficientDataError(ValueError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32
    labels: np.ndarray  # (N,) int64
    class_count: int
    name: str = ""

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise CountMismatchError(
                f"{self.name}: {len(self.images)} images vs {len(self.labels)} labels"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataFormatError(
                f"{self.name}: labels outside [0, {self.class_count})"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def per_class_indices(self) -> dict[int, np.ndarray]:
        return {c: np.nonzero(self.labels == c)[0] for c in range(self.class_count)}


def _read_exact(f, n: int, path, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"{path}: truncated while reading {what} ({len(buf)}/{n} bytes)")
    return buf


def load_idx(images_path, labels_path, name: str = "") -> Dataset:
    """Read big-endian IDX image/label files; pixels scaled to [0, 1]."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise BadMagicError(
                f"{images_path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        raw = _read_exact(f, count * rows * cols, images_path, f"{count} images")
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise BadMagicError(
                f"{labels_path}: magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        labels = np.frombuffer(
            _read_exact(f, label_count, labels_path, f"{label_count} labels"), dtype=np.uint8
        )
    if count != label_count:
        raise CountMismatchError(f"{images_path}: {count} images vs {label_count} labels")
    images = np.frombuffer(raw, dtype=np.uint8).astype(np.float32) / 255.0
    images = images.reshape(count, 1, rows, cols)
    classes = int(labels.max()) + 1 if count else 0
    return Dataset(images, labels.astype(np.int64), classes, name or images_path.stem)


def load_cifar_binary(paths, cifar100: bool = False, name: str = "") -> Dataset:
    """Read CIFAR binary batches; CIFAR-100 records carry (coarse, fine) labels
    and the fine label is used."""
    record = CIFAR100_RECORD if cifar100 else CIFAR10_RECORD
    images, labels = [], []
    for path in paths:
        path = Path(path)
        blob = path.read_bytes()
        if len(blob) == 0:
            raise TruncatedFileError(f"{path}: empty file")
        if len(blob) % record:
            raise DataFormatError(
                f"{path}: size {len(blob)} is not a multiple of the {record}-byte record"
            )
        arr = np.frombuffer(blob, dtype=np.uint8).reshape(-1, record)
        labels.append(arr[:, 1] if cifar100 else arr[:, 0])
        images.append(arr[:, record - 3072:])
    flat = np.concatenate(images).astype(np.float32) / 255.0
    labels = np.concatenate(labels).astype(np.int64)
    images = flat.reshape(-1, 3, 32, 32)
    return Dataset(images, labels, 100 if cifar100 else 10, name or "cifar")


def synth_dataset(
    class_count: int,
    per_class: int,
    cluster_separation: float,
    seed: int,
    image_shape: tuple[int, int, int] = (1, 20, 20),
) -> Dataset:
    """Gaussian class clusters: per-class mean image ~ N(0, separation^2),
    examples = mean + N(0, 1). separation=0 makes classes indistinguishable."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, cluster_separation, size=(class_count, *image_shape))
    images = np.empty((class_count * per_class, *image_shape), dtype=np.float32)
    labels = np.empty(class_count * per_class, dtype=np.int64)
    for c in range(class_count):
        block = slice(c * per_class, (c + 1) * per_class)
        images[block] = means[c] + rng.normal(0.0, 1.0, size=(per_class, *image_shape))
        labels[block] = c
    return Dataset(images, labels, class_count, name=f"synthetic-{class_count}x{per_class}")


def label_blocks(dataset: Dataset) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The dataset sliced once into one (images, labels) block per class, each
    in dataset order; every client that holds a class holds its block."""
    return {
        c: (dataset.images[idx], dataset.labels[idx])
        for c, idx in dataset.per_class_indices().items()
    }


def split_per_class(dataset: Dataset, test_per_class: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split taking the last test_per_class of each class."""
    train_idx, test_idx = [], []
    for c, idx in sorted(dataset.per_class_indices().items()):
        if len(idx) <= test_per_class:
            raise InsufficientDataError(
                f"class {c} has {len(idx)} examples, cannot hold out {test_per_class}"
            )
        train_idx.append(idx[:-test_per_class])
        test_idx.append(idx[-test_per_class:])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)
    return (
        Dataset(dataset.images[tr], dataset.labels[tr], dataset.class_count, dataset.name),
        Dataset(dataset.images[te], dataset.labels[te], dataset.class_count, dataset.name),
    )


def pad_images(dataset: Dataset, height: int, width: int) -> Dataset:
    """Zero-pad images symmetrically up to (height, width); used to lift 28x28
    digits onto the 32x32 input grid."""
    _, _, h, w = dataset.images.shape
    if (h, w) == (height, width):
        return dataset
    if h > height or w > width:
        raise DataFormatError(f"cannot pad {h}x{w} down to {height}x{width}")
    top, left = (height - h) // 2, (width - w) // 2
    padded = np.zeros(
        (dataset.images.shape[0], dataset.images.shape[1], height, width), dtype=np.float32
    )
    padded[:, :, top:top + h, left:left + w] = dataset.images
    return Dataset(padded, dataset.labels, dataset.class_count, dataset.name)


def channel_stats(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    mean = dataset.images.mean(axis=(0, 2, 3))
    std = dataset.images.std(axis=(0, 2, 3))
    return mean, np.where(std == 0, 1.0, std)


def normalize(dataset: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    images = (dataset.images - mean[None, :, None, None]) / std[None, :, None, None]
    return Dataset(images.astype(np.float32), dataset.labels, dataset.class_count, dataset.name)


# ---------------------------------------------------------------------------
# Non-IID shard partitioner
# ---------------------------------------------------------------------------


@dataclass
class Partition:
    shard_size: int
    shards_per_client: int
    assignment: dict[int, np.ndarray]  # client -> train indices
    client_labels: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "shard_size": self.shard_size,
            "shards_per_client": self.shards_per_client,
            "assignment": {str(c): v.tolist() for c, v in self.assignment.items()},
            "client_labels": {str(c): list(v) for c, v in self.client_labels.items()},
        }


def partition_shards(
    train: Dataset,
    client_count: int,
    shards_per_client: int = 2,
    shard_size: int = 250,
    seed: int = 0,
) -> Partition:
    """Label-sorted contiguous shards, shuffled and dealt shards_per_client
    each; a client's labels are the labels of its shards."""
    order = np.argsort(train.labels, kind="stable")
    available = len(order) // shard_size
    needed = client_count * shards_per_client
    if needed > available:
        raise InsufficientDataError(
            f"need {needed} shards of {shard_size}, dataset provides {available}"
        )
    perm = np.random.default_rng(seed).permutation(available)
    assignment, client_labels = {}, {}
    for cid in range(client_count):
        picks = perm[cid * shards_per_client:(cid + 1) * shards_per_client]
        idx = np.concatenate(
            [order[s * shard_size:(s + 1) * shard_size] for s in sorted(picks)]
        )
        assignment[cid] = idx
        client_labels[cid] = tuple(sorted(set(int(v) for v in train.labels[idx])))
    return Partition(shard_size, shards_per_client, assignment, client_labels)
