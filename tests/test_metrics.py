import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvcl.metrics import acc, bwt, calibration_curve, ece, fwt, net_gain

R = [[0.90], [0.80, 0.85]]
R_IND = [0.88, 0.84]


def test_worked_example_exact():
    assert acc(R) == pytest.approx(0.825, abs=1e-12)
    assert bwt(R) == pytest.approx(-0.05, abs=1e-12)
    assert fwt(R, R_IND) == pytest.approx(0.015, abs=1e-12)
    assert net_gain(R, R_IND) == pytest.approx(-0.035, abs=1e-12)


def test_acc_simple():
    assert acc([[0.7], [0.9, 0.8]]) == pytest.approx(0.85)


def test_single_task_degenerate():
    assert acc([[0.5]]) == 0.5
    assert bwt([[0.5]]) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_net_identity(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 6))
    r = [list(rng.uniform(0, 1, i + 1)) for i in range(t)]
    r_ind = list(rng.uniform(0, 1, t))
    assert net_gain(r, r_ind) == pytest.approx(fwt(r, r_ind) + bwt(r), abs=1e-12)


def test_matrix_validation():
    with pytest.raises(ValueError):
        acc([])
    with pytest.raises(ValueError):
        acc([[0.5, 0.5]])
    with pytest.raises(ValueError):
        fwt(R, [0.5])


# -- ECE ---------------------------------------------------------------------


def test_ece_perfectly_calibrated_edges():
    assert ece(np.ones(10), np.ones(10)) == pytest.approx(0.0, abs=1e-12)
    conf = np.full(100, 0.5)
    correct = np.array([1, 0] * 50)
    assert ece(conf, correct) == pytest.approx(0.0, abs=1e-12)


def test_ece_hand_value():
    # one bin: confidence 0.9, accuracy 0.6 -> gap 0.3
    conf = np.full(10, 0.9)
    correct = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
    assert ece(conf, correct) == pytest.approx(0.3, abs=1e-12)


def test_ece_two_bin_weighted():
    conf = np.r_[np.full(30, 0.95), np.full(10, 0.15)]
    correct = np.r_[np.ones(30), np.zeros(10)]
    # bin gaps: |0.95-1| = 0.05 (w .75), |0.15-0| = 0.15 (w .25)
    assert ece(conf, correct) == pytest.approx(0.75 * 0.05 + 0.25 * 0.15, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_ece_bounded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    conf = rng.uniform(0, 1, n)
    correct = rng.integers(0, 2, n)
    val = ece(conf, correct)
    assert 0.0 <= val <= 1.0


def test_ece_calibrated_sample_small():
    rng = np.random.default_rng(0)
    n = 100_000
    conf = rng.uniform(0, 1, n)
    correct = (rng.uniform(0, 1, n) < conf).astype(float)
    assert ece(conf, correct) < 0.01


def test_ece_validation():
    with pytest.raises(ValueError):
        ece(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        ece(np.zeros(3), np.zeros(2))


def test_calibration_curve_counts():
    conf = np.array([0.02, 0.5, 0.51, 0.99])
    rows = calibration_curve(conf, np.array([0.0, 1.0, 0.0, 1.0]), bins=15)
    assert len(rows) == 15
    assert sum(r[3] for r in rows) == 4
    assert rows[0][3] == 1  # 0.02 in first bin
    assert rows[14][3] == 1  # 0.99 in last bin
    # empty bins carry NaN means and zero count
    empty = [r for r in rows if r[3] == 0]
    assert all(np.isnan(r[1]) and np.isnan(r[2]) for r in empty)
