import gzip
import tracemalloc

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
    assert np.array_equal(ds.inputs, images.reshape(12, -1) / 255.0)


def test_idx_gzip_round_trip(tmp_path):
    images, labels, ip, lp = fixture_pair(tmp_path)
    gz_i, gz_l = tmp_path / "imgs.idx.gz", tmp_path / "lbls.idx.gz"
    gz_i.write_bytes(gzip.compress(ip.read_bytes()))
    gz_l.write_bytes(gzip.compress(lp.read_bytes()))
    ds = load_idx(gz_i, gz_l)
    assert np.array_equal(ds.labels, labels)
    assert np.array_equal(ds.inputs, images.reshape(12, -1) / 255.0)


def test_load_idx_keeps_uint8(tmp_path):
    images, _, ip, lp = fixture_pair(tmp_path)
    ds = load_idx(ip, lp)
    assert ds.stored.dtype == np.uint8
    assert np.array_equal(ds.stored, images.reshape(12, -1))
    assert ds.inputs.dtype == np.float64


def test_rows_scale_bit_equal_to_whole_array_scale():
    pixels = np.arange(256, dtype=np.uint8).reshape(32, 8)
    ds = Dataset(pixels, np.zeros(32, dtype=np.int64))
    whole = pixels.astype(np.float64) / 255.0
    idx = np.random.default_rng(3).permutation(32)
    assert ds.rows(idx).tobytes() == whole[idx].tobytes()
    assert ds.rows(slice(5, 17)).tobytes() == whole[5:17].tobytes()
    assert ds.inputs.tobytes() == whole.tobytes()
    floats = Dataset(whole, np.zeros(32, dtype=np.int64))
    assert floats.inputs is whole  # float data is used as stored
    assert np.shares_memory(floats.rows(slice(0, 4)), whole)


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


def test_make_split_tasks_train_and_val_view_one_copy(tmp_path):
    images, labels, ip, lp = fixture_pair(tmp_path, n=60, seed=4)
    train = load_idx(ip, lp)
    for t in make_split_tasks(train, train, [(0, 1), (2, 3)], val_fraction=0.2):
        assert t.train.stored.dtype == np.uint8
        pair = t.train.stored.base
        assert pair is not None and t.val.stored.base is pair
        assert np.shares_memory(t.train.stored, pair) and np.shares_memory(t.val.stored, pair)
        assert not np.shares_memory(t.train.stored, train.stored)
        a, b = (int(c) for c in t.train.class_names)
        mask = (labels == a) | (labels == b)
        both = np.concatenate([t.train.inputs, t.val.inputs])
        assert both.tobytes() == (images.reshape(60, -1)[mask].astype(np.float64) / 255.0).tobytes()


def test_load_and_split_peak_memory(tmp_path):
    side = 28
    (tmp_path / "train").mkdir()
    (tmp_path / "test").mkdir()
    tr_images, _, tr_ip, tr_lp = fixture_pair(tmp_path / "train", n=2000, rows=side, cols=side, seed=5)
    te_images, _, te_ip, te_lp = fixture_pair(tmp_path / "test", n=400, rows=side, cols=side, seed=6)
    image_bytes = tr_images.nbytes + te_images.nbytes
    tracemalloc.start()
    try:
        tasks = make_split_tasks(
            load_idx(tr_ip, tr_lp), load_idx(te_ip, te_lp), [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tasks) == 5
    # the file blobs plus one uint8 copy of each pair; float64 would be > 16x
    assert peak < 3 * image_bytes, f"peak {peak} bytes for {image_bytes} image bytes"


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

