import dataclasses
import json
import math
import os

import numpy as np
import pytest

from gvcl import autodiff as ad
from gvcl.autodiff import Tensor
from gvcl.data import Dataset, gen_toy_clusters
from gvcl.nets import init_net, load_checkpoint
from gvcl.objectives import GVCLConfig
from gvcl.optim import SGD
from gvcl.runner import (
    RunnerConfig,
    RunRecord,
    fit,
    run_continual,
    run_independent,
)


@pytest.fixture(scope="module")
def toy_tasks():
    return gen_toy_clusters(7, n_per_class=30)


def quick_cfg(**gvcl_kwargs):
    defaults = dict(epochs=3, batch_size=20, eval_samples=5)
    defaults.update(gvcl_kwargs)
    return RunnerConfig(gvcl=GVCLConfig(**defaults), map_epochs=5, fisher_samples=20)


def test_vcl_is_gvcl_at_unit_temperature(toy_tasks):
    # vcl must take the identical code path as gvcl with beta = lam = 1,
    # even when the config requests other values
    cfg_v = quick_cfg(beta=3.0, lam=5.0)
    cfg_g = quick_cfg(beta=1.0, lam=1.0)
    rec_v, _ = run_continual("vcl", toy_tasks, cfg_v, seed=11)
    rec_g, _ = run_continual("gvcl", toy_tasks, cfg_g, seed=11)
    assert rec_v.result_matrix == rec_g.result_matrix


def test_same_seed_is_deterministic(toy_tasks):
    cfg = quick_cfg()
    rec1, net1 = run_continual("gvcl_film", toy_tasks, cfg, seed=3)
    rec2, net2 = run_continual("gvcl_film", toy_tasks, cfg, seed=3)
    assert rec1.result_matrix == rec2.result_matrix
    for k, t in net1.named_params().items():
        assert np.array_equal(t.data, net2.named_params()[k].data), k


def test_different_seed_differs(toy_tasks):
    cfg = quick_cfg()
    rec1, _ = run_continual("gvcl", toy_tasks, cfg, seed=0)
    rec2, _ = run_continual("gvcl", toy_tasks, cfg, seed=1)
    assert rec1.result_matrix != rec2.result_matrix


def test_result_matrix_is_lower_triangular(toy_tasks):
    rec, _ = run_continual("ewc", toy_tasks, quick_cfg(), seed=5)
    assert [len(row) for row in rec.result_matrix] == [1, 2]
    assert rec.error == ""
    assert len(rec.wall_times) == 2
    for row in rec.result_matrix:
        assert all(0.0 <= v <= 1.0 for v in row)


def test_map_sgd_runs(toy_tasks):
    rec, _ = run_continual("map_sgd", toy_tasks, quick_cfg(), seed=5)
    assert len(rec.result_matrix) == 2


def test_record_json_round_trip(toy_tasks):
    rec, _ = run_continual("gvcl", toy_tasks, quick_cfg(), seed=2)
    back = RunRecord(**json.loads(rec.to_json()))
    assert back == rec


def test_unknown_method(toy_tasks):
    with pytest.raises(ValueError):
        run_continual("bogus", toy_tasks, quick_cfg(), seed=0)


def test_run_independent(toy_tasks):
    accs = run_independent(toy_tasks, quick_cfg(), seed=0)
    assert len(accs) == 2
    assert all(0.0 <= a <= 1.0 for a in accs)


def test_checkpoints_written(tmp_path, toy_tasks):
    rec, net = run_continual("gvcl", toy_tasks, quick_cfg(), seed=4, out_dir=str(tmp_path))
    assert [p.split("/")[-1] for p in rec.checkpoints] == ["ckpt_0.npz", "ckpt_1.npz"]
    for p in rec.checkpoints:
        assert (tmp_path / p.split("/")[-1]).exists()
    other = init_net(net.arch, 99)
    for spec in toy_tasks:
        other.add_task(spec.task_id, spec.classes, np.random.default_rng(0))
    load_checkpoint(other, rec.checkpoints[-1])
    for k, t in net.named_params().items():
        assert np.array_equal(other.named_params()[k].data, t.data), k


@pytest.mark.parametrize("method", ["gvcl", "ewc"])
def test_calibration_inputs_are_the_final_result_row(toy_tasks, method):
    rec, _ = run_continual(method, toy_tasks, quick_cfg(), seed=6)
    sizes = [len(t.test) for t in toy_tasks]
    assert rec.confidence.shape == rec.correct.shape == (sum(sizes),)
    parts = np.split(rec.correct, np.cumsum(sizes)[:-1])
    assert [float(p.mean()) for p in parts] == rec.result_matrix[-1]


# -- the training loop ---------------------------------------------------------


def _quadratic_problem(n=10, seed=0):
    rng = np.random.default_rng(seed)
    train = Dataset(rng.normal(size=(n, 3)), np.zeros(n, dtype=np.int64))
    w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    calls = []

    def loss(x, y):
        calls.append(len(y))
        h = ad.dense(Tensor(x), w, Tensor(np.zeros(1)), relu=False)
        return ad.tmean(ad.mul(h, h))

    return train, w, loss, calls


@pytest.mark.parametrize("batch_size", [3, 4, 10, 25])
def test_fit_steps_once_per_batch(batch_size):
    train, w, loss, calls = _quadratic_problem(n=10)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    opt, steps = SGD([w], lr=0.1), []
    step = opt.step
    opt.step = lambda: steps.append(step())
    fit(opt, loss, train, 3, batch_size, rng)
    assert len(steps) == len(calls) == 3 * math.ceil(10 / batch_size)
    assert sum(calls) == 3 * 10  # every example once per epoch
    # one batch covering the set is taken in order and draws nothing
    assert (rng.bit_generator.state == state) == (batch_size >= 10)


def test_fit_restores_best_epoch_bitwise():
    train, w, loss, _ = _quadratic_problem()
    scores = iter([0.1, 0.5, 0.3, 0.9])
    seen = []

    def val():
        seen.append(w.data.copy())
        return next(scores)

    fit(SGD([w], lr=0.1), loss, train, 10, 4, np.random.default_rng(2), val=val, patience=1)
    assert len(seen) == 3  # epoch 3 did not improve on epoch 2: stop
    assert np.array_equal(w.data, seen[1])
    assert not np.array_equal(w.data, seen[2])


@pytest.mark.parametrize("k", [1, 2, 5])
def test_sgd_rate_decays_once_per_epoch(k):
    train, w, loss, calls = _quadratic_problem(n=10)
    opt = SGD([w], lr=0.05, decay=0.9)
    fit(opt, loss, train, k, 4, np.random.default_rng(k))
    assert len(calls) == 3 * k  # three steps per epoch, one decay
    assert opt.lr == pytest.approx(0.05 * 0.9**k, rel=1e-12)


@pytest.mark.parametrize("method", ["gvcl", "ewc"])
def test_divergence_is_recorded_and_stops_the_run(tmp_path, toy_tasks, method):
    # a NaN in the second task's training rows makes its first epoch diverge
    first, second = toy_tasks
    stored = second.train.stored.copy()
    stored[0, 0] = np.nan
    bad = dataclasses.replace(second, train=Dataset(stored, second.train.labels))
    third = dataclasses.replace(first, task_id="task3")
    rec, net = run_continual(method, [first, bad, third], quick_cfg(), seed=8, out_dir=str(tmp_path))
    assert rec.error.startswith(f"divergence during task {second.task_id}")
    assert len(rec.result_matrix) == 1 and len(rec.wall_times) == 1
    assert len(rec.checkpoints) == 1 and sorted(os.listdir(tmp_path)) == ["ckpt_0.npz"]
    with pytest.raises(KeyError):  # the run stopped: the third task was never added
        net.forward_sample("task3", first.test.inputs)
