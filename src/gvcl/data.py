"""Dataset loading and synthetic task generation.

IDX (MNIST-style) parsing, Split-MNIST style binary task construction
and the 2-D logistic cluster tasks.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, field

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
    class_names: list = field(default_factory=list)

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


def _read_maybe_gz(path):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    return blob


def _read_idx_header(blob, path):
    if len(blob) < 4:
        raise IdxFormatError(f"{path}: truncated header")
    magic = struct.unpack(">I", blob[:4])[0]
    return magic


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a flattened uint8 dataset."""
    img_blob = _read_maybe_gz(images_path)
    lbl_blob = _read_maybe_gz(labels_path)

    if _read_idx_header(img_blob, images_path) != IDX_MAGIC_IMAGES:
        raise IdxFormatError(f"{images_path}: bad magic (expected images file)")
    if _read_idx_header(lbl_blob, labels_path) != IDX_MAGIC_LABELS:
        raise IdxFormatError(f"{labels_path}: bad magic (expected labels file)")

    if len(img_blob) < 16:
        raise IdxFormatError(f"{images_path}: truncated header")
    n, rows, cols = struct.unpack(">III", img_blob[4:16])
    if len(img_blob) != 16 + n * rows * cols:
        raise IdxFormatError(f"{images_path}: payload length does not match header")

    if len(lbl_blob) < 8:
        raise IdxFormatError(f"{labels_path}: truncated header")
    (n_lbl,) = struct.unpack(">I", lbl_blob[4:8])
    if len(lbl_blob) != 8 + n_lbl:
        raise IdxFormatError(f"{labels_path}: payload length does not match header")
    if n != n_lbl:
        raise IdxFormatError(f"image count {n} != label count {n_lbl}")

    images = np.frombuffer(img_blob, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    labels = np.frombuffer(lbl_blob, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(images, labels)


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


def make_split_tasks(train: Dataset, test: Dataset, pairs, val_fraction=0.1, prefix="task"):
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
        names = [str(a), str(b)]
        n_tr = len(y) - max(1, int(len(y) * val_fraction))
        tr = Dataset(x[:n_tr], y[:n_tr], names)
        val = Dataset(x[n_tr:], y[n_tr:], names)
        tasks.append(TaskSpec(f"{prefix}{i}_{a}v{b}", tr, val, Dataset(x_te, y_te, names), 2))
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


def gen_toy_clusters(seed, n_per_class=100):
    """Two 2-D binary logistic tasks from four Gaussian clusters."""
    if n_per_class < 10:
        raise ValueError("n_per_class must be >= 10")
    rng = np.random.default_rng(seed)
    tasks = []
    for tid, (c0, c1) in TOY_CENTERS.items():
        splits = []
        for n in (n_per_class, max(10, n_per_class // 4), n_per_class):
            xs, ys = [], []
            for label, center in ((0, c0), (1, c1)):
                pts = rng.normal(0.0, TOY_SPREAD, size=(n, 2)) + np.asarray(center)
                xs.append(pts)
                ys.append(np.full(n, label, dtype=np.int64))
            splits.append(Dataset(np.concatenate(xs), np.concatenate(ys)))
        tr, val, te = splits
        tasks.append(TaskSpec(tid, tr, val, te, 2))
    return tasks

