import gzip

import numpy as np
import pytest

from gvcl.data import (
    Dataset,
    IdxFormatError,
    gen_toy_clusters,
    load_idx,
    make_split_tasks,
    write_idx,
)


def fixture_pair(tmp_path, n=12, rows=4, cols=5, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    write_idx(images, labels, ip, lp)
    return images, labels, ip, lp


def test_idx_round_trip(tmp_path):
    images, labels, ip, lp = fixture_pair(tmp_path)
    ds = load_idx(ip, lp)
    assert np.array_equal(ds.labels, labels)
    assert np.allclose(ds.inputs, images.reshape(12, -1) / 255.0)


def test_idx_gzip_round_trip(tmp_path):
    images, labels, ip, lp = fixture_pair(tmp_path)
    gz_i, gz_l = tmp_path / "imgs.idx.gz", tmp_path / "lbls.idx.gz"
    gz_i.write_bytes(gzip.compress(ip.read_bytes()))
    gz_l.write_bytes(gzip.compress(lp.read_bytes()))
    ds = load_idx(gz_i, gz_l)
    assert np.array_equal(ds.labels, labels)
    assert np.allclose(ds.inputs, images.reshape(12, -1) / 255.0)


def test_idx_bad_magic(tmp_path):
    images, labels, ip, lp = fixture_pair(tmp_path)
    with pytest.raises(IdxFormatError):
        load_idx(lp, lp)  # labels file where images expected
    with pytest.raises(IdxFormatError):
        load_idx(ip, ip)


def test_idx_truncation(tmp_path):
    _, _, ip, lp = fixture_pair(tmp_path)
    short = tmp_path / "short.idx"
    short.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(IdxFormatError):
        load_idx(short, lp)
    tiny = tmp_path / "tiny.idx"
    tiny.write_bytes(ip.read_bytes()[:2])
    with pytest.raises(IdxFormatError):
        load_idx(tiny, lp)


def test_idx_count_mismatch(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5, dtype=np.uint8)
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx(images, labels, ip, lp)
    lp2 = tmp_path / "l2.idx"
    write_idx(images[:4], labels[:4], tmp_path / "i2.idx", lp2)
    with pytest.raises(IdxFormatError):
        load_idx(ip, lp2)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_make_split_tasks_mapping_and_splits():
    rng = np.random.default_rng(2)
    n = 200
    x = rng.normal(size=(n, 4))
    y = rng.integers(0, 4, size=n)
    train = Dataset(x, y)
    test = Dataset(x[:50], y[:50])
    tasks = make_split_tasks(train, test, [(0, 1), (2, 3)], val_fraction=0.2)
    assert len(tasks) == 2
    t0 = tasks[0]
    assert t0.classes == 2
    assert set(np.unique(t0.train.labels)) <= {0, 1}
    # label 1 in the task corresponds to original class 1 (the second of the pair)
    mask = (y == 0) | (y == 1)
    total = mask.sum()
    n_val = max(1, int(total * 0.2))
    assert len(t0.train) == total - n_val
    assert len(t0.val) == n_val
    orig = y[mask]
    remapped = np.concatenate([t0.train.labels, t0.val.labels])
    assert np.array_equal(remapped, (orig == 1).astype(int))


def test_make_split_tasks_missing_class():
    ds = Dataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError):
        make_split_tasks(ds, ds, [(0, 7)])


def test_toy_clusters_deterministic_and_shaped():
    a = gen_toy_clusters(42, n_per_class=20)
    b = gen_toy_clusters(42, n_per_class=20)
    assert len(a) == 2
    for ta, tb in zip(a, b):
        assert ta.task_id == tb.task_id
        assert np.array_equal(ta.train.inputs, tb.train.inputs)
        assert np.array_equal(ta.test.labels, tb.test.labels)
        assert ta.train.inputs.shape == (40, 2)
        assert set(np.unique(ta.train.labels)) == {0, 1}
    c = gen_toy_clusters(43, n_per_class=20)
    assert not np.array_equal(a[0].train.inputs, c[0].train.inputs)


def test_toy_clusters_validation():
    with pytest.raises(ValueError):
        gen_toy_clusters(0, n_per_class=5)

