"""Dataset loading and synthetic task generation.

IDX (MNIST-style) parsing, Split-MNIST style binary task construction
and Gaussian-cluster tasks, among them the 2-D logistic toy.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, truncation or count mismatch."""


def _as_float(x):
    return x / 255.0 if x.dtype == np.uint8 else x


@dataclass
class Dataset:
    """Inputs and integer labels.

    `stored` is either the float inputs themselves or uint8 pixels, which
    are scaled to [0, 1] float64 (`/ 255.0`) only for the rows read, so an
    image set is held at one byte per pixel.
    """

    stored: np.ndarray  # (N, features): float, or uint8 pixels
    labels: np.ndarray  # integer vector

    def __post_init__(self):
        if len(self.stored) != len(self.labels):
            raise ValueError("inputs and labels must have equal length")
        if len(self.stored) == 0:
            raise ValueError("dataset must be nonempty")

    def __len__(self):
        return len(self.stored)

    def rows(self, idx):
        """Float inputs of the rows `idx` (any numpy index)."""
        return _as_float(self.stored[idx])

    @property
    def inputs(self):
        """Float inputs of the whole set (a fresh array for uint8 pixels)."""
        return _as_float(self.stored)


@dataclass
class TaskSpec:
    task_id: str
    train: Dataset
    val: Dataset
    test: Dataset
    classes: int


def _idx_payload(path, magic, kind, ndims):
    """The `ndims` dimension sizes and the uint8 payload of the IDX file at
    `path`, plain or gzipped, checked in order: the magic, the header's
    length, then the payload's length against the dimensions."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    if len(blob) < 4:
        raise IdxFormatError(f"{path}: truncated header")
    if struct.unpack(">I", blob[:4])[0] != magic:
        raise IdxFormatError(f"{path}: bad magic (expected {kind} file)")
    head = 4 + 4 * ndims  # the magic, then one 32-bit size per dimension
    if len(blob) < head:
        raise IdxFormatError(f"{path}: truncated header")
    dims = struct.unpack(f">{ndims}I", blob[4:head])
    if len(blob) != head + math.prod(dims):
        raise IdxFormatError(f"{path}: payload length does not match header")
    return dims, np.frombuffer(blob, dtype=np.uint8, offset=head)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a flattened uint8 dataset."""
    (n, rows, cols), pixels = _idx_payload(images_path, IDX_MAGIC_IMAGES, "images", 3)
    (n_lbl,), labels = _idx_payload(labels_path, IDX_MAGIC_LABELS, "labels", 1)
    if n != n_lbl:
        raise IdxFormatError(f"image count {n} != label count {n_lbl}")
    return Dataset(pixels.reshape(n, rows * cols), labels.astype(np.int64))


def write_idx(images, labels, images_path, labels_path):
    """Inverse of load_idx for fixtures; images are (N, rows, cols) uint8."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_MAGIC_LABELS, n))
        f.write(labels.tobytes())


def make_split_tasks(train: Dataset, test: Dataset, pairs, val_fraction=0.1):
    """Binary tasks from class pairs; labels map class_a -> 0, class_b -> 1.

    Each pair's examples are copied once per source set; the pair's train
    and val sets are slices (views) of that one training copy.
    """
    tasks = []
    for i, (a, b) in enumerate(pairs):
        for c in (a, b):
            if not np.any(train.labels == c):
                raise ValueError(f"class {c} not present in dataset")
        task = []
        for split in (train, test):
            mask = (split.labels == a) | (split.labels == b)
            y = (split.labels[mask] == b).astype(np.int64)
            task.append((split.stored[mask], y))
        (x, y), (x_te, y_te) = task
        n_tr = len(y) - max(1, int(len(y) * val_fraction))
        tr, val = Dataset(x[:n_tr], y[:n_tr]), Dataset(x[n_tr:], y[n_tr:])
        tasks.append(TaskSpec(f"task{i}_{a}v{b}", tr, val, Dataset(x_te, y_te), 2))
    return tasks


TOY_CENTERS = {
    # task 1 separates the +-x clusters, task 2 the +-y clusters; the
    # rotated boundaries make the tasks conflict in weight space. The
    # clusters overlap so the likelihood curvature stays well away from
    # zero and maximum-likelihood solutions remain finite.
    "task1": ((-1.0, 0.0), (1.0, 0.0)),
    "task2": ((0.0, -1.0), (0.0, 1.0)),
}
TOY_SPREAD = 1.0


def cluster_task(task_id, rng, centers, spread, sizes):
    """A task of Gaussian clusters, class k around `centers[k]` with standard
    deviation `spread`: train, validation and test splits of `sizes[0]`,
    `sizes[1]` and `sizes[2]` points per class, drawn from `rng` split by
    split and, within a split, class by class."""
    centers = np.asarray(centers, dtype=np.float64)
    splits = []
    for n in sizes:
        xs = [rng.normal(0.0, spread, size=(n, centers.shape[1])) + c for c in centers]
        ys = np.repeat(np.arange(len(centers), dtype=np.int64), n)
        splits.append(Dataset(np.concatenate(xs), ys))
    return TaskSpec(task_id, *splits, len(centers))


def gen_toy_clusters(seed, n_per_class=100):
    """Two 2-D binary logistic tasks from four Gaussian clusters."""
    if n_per_class < 10:
        raise ValueError("n_per_class must be >= 10")
    rng = np.random.default_rng(seed)
    sizes = (n_per_class, max(10, n_per_class // 4), n_per_class)
    return [cluster_task(tid, rng, c, TOY_SPREAD, sizes) for tid, c in TOY_CENTERS.items()]
