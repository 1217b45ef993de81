"""Seeded Split-MNIST-shaped IDX files for the benchmark.

The files have the real MNIST shapes: 60000 training and 10000 test
images of 28x28 uint8 pixels, labels 0-9, balanced and shuffled. Each class
image is a noisy, intensity-jittered copy of a class prototype. Every
prototype shares one background pattern; the odd class of each Split-MNIST
pair (1, 3, 5, 7, 9) also carries one shared "stroke" pattern, and every
class has a faint pattern of its own. Because every pair differs along the
same stroke, the features the first task learns still separate the later
pairs when the tempered prior anchors the shared layers, so each task is
learned well above chance within one epoch.

Generation is chunked so that it never holds a float copy of the whole
training set, and its output is cached per seed under the benchmark's work
directory, outside the timed set-up. It runs in a child process
(`python3 inputs.py SEED OUT_DIR`) and syncs the files it writes, so that the
set-up timed after it starts from the same heap, with no write-back of these
files pending, whether or not the seed was cached.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np

N_TRAIN = 60000
N_TEST = 10000
SIDE = 28
CLASSES = 10
IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "t10k": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}
CACHED_SEEDS = 3  # each seed's files take 55 MB
_CHUNK = 5000


def _prototypes(rng):
    background = rng.uniform(size=(SIDE, SIDE)) > 0.8
    stroke = rng.uniform(size=(SIDE, SIDE)) > 0.85
    own = rng.uniform(size=(CLASSES, SIDE, SIDE)) > 0.9
    odd = (np.arange(CLASSES) % 2)[:, None, None]
    return np.clip(0.6 * background[None] + odd * stroke[None] + 0.5 * own, 0.0, 1.0)


def _split(rng, protos, n):
    labels = np.tile(np.arange(CLASSES, dtype=np.uint8), n // CLASSES)
    rng.shuffle(labels)
    images = np.empty((n, SIDE, SIDE), dtype=np.uint8)
    for start in range(0, n, _CHUNK):
        lab = labels[start : start + _CHUNK]
        x = protos[lab] * rng.uniform(0.7, 1.0, (len(lab), 1, 1))
        x += rng.normal(0.0, 0.2, x.shape)
        images[start : start + _CHUNK] = np.clip(x * 255.0, 0.0, 255.0).astype(np.uint8)
    return images, labels


def generate(seed, out_dir):
    """Write the four IDX files for `seed` into `out_dir` and sync them."""
    from gvcl.data import write_idx

    rng = np.random.default_rng([seed, 0x6D6E6973])
    protos = _prototypes(rng)
    os.makedirs(out_dir, exist_ok=True)
    for split, n in (("train", N_TRAIN), ("t10k", N_TEST)):
        images, labels = _split(rng, protos, n)
        img_name, lbl_name = IDX_NAMES[split]
        write_idx(images, labels, os.path.join(out_dir, img_name), os.path.join(out_dir, lbl_name))
    for name in os.listdir(out_dir):
        fd = os.open(os.path.join(out_dir, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def cached_idx_root(seed, cache_dir):
    """Directory holding the IDX files for `seed`, generated on first use.

    Files are written to a scratch directory and renamed into place, so an
    interrupted generation never leaves a partial set behind. Only the most
    recently used CACHED_SEEDS seeds are kept.
    """
    root = os.path.join(cache_dir, f"seed-{seed}")
    if not os.path.isdir(root):
        tmp = f"{root}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([sys.executable, os.path.abspath(__file__), str(seed), tmp], check=True)
        os.replace(tmp, root)
    os.utime(root)
    others = sorted(
        (os.path.join(cache_dir, d) for d in os.listdir(cache_dir) if d.startswith("seed-")),
        key=os.path.getmtime,
    )
    for old in others[:-CACHED_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return root


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    generate(int(sys.argv[1]), sys.argv[2])
