"""Sequential-task orchestration: train, roll the prior forward, evaluate.

Methods: gvcl / vcl (tempered or plain variational training, with or
without FiLM), ewc (point training with accumulated Fisher penalty) and
map_sgd (no penalty). After each task the result-matrix row over all seen
tasks is filled in.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import objectives as obj
from .autodiff import NonFiniteError
from .nets import Architecture, init_net, predict, save_checkpoint
from .objectives import GVCLConfig
from .optim import SGD, Adam

VI_METHODS = {"gvcl", "gvcl_film", "vcl", "vcl_film"}
POINT_METHODS = {"ewc", "ewc_film", "map_sgd"}
METHODS = VI_METHODS | POINT_METHODS


@dataclass
class RunnerConfig:
    gvcl: GVCLConfig = field(default_factory=GVCLConfig)
    prior0_var: float = 1.0
    map_lr: float = 5e-2
    map_lr_decay: float = 0.98
    map_epochs: int = 200
    patience: int = 20
    fisher_samples: int = 600
    ewc_lam: float = 1.0
    ewc_gamma: float = 1.0

    def __post_init__(self):
        obj.check_fields(self, (
            ("prior0_var", ">", 0), ("map_lr", ">", 0), ("map_lr_decay", ">", 0),
            ("map_lr_decay", "<=", 1), ("map_epochs", ">=", 1), ("patience", ">=", 1),
            ("fisher_samples", ">=", 1), ("ewc_lam", ">=", 0), ("ewc_gamma", ">=", 0),
        ))


@dataclass
class RunRecord:
    method: str
    config: dict
    seed: int
    result_matrix: list = field(default_factory=list)  # lower-triangular rows
    task_ids: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    error: str = ""
    # per-example inputs of the final result row, for calibration; not in JSON
    confidence: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False, compare=False)
    correct: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False, compare=False)

    def to_json(self):
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.compare}
        return json.dumps(doc, indent=2)


def _shuffled_batches(n, batch_size, rng):
    if batch_size >= n:  # one batch covers the set: in order, no draw from rng
        yield slice(0, n)
        return
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def fit(optimizer, loss, train, epochs, batch_size, rng, val=None, patience=None):
    """The training loop of every method: `epochs` passes over `train`.

    Each batch is one optimizer step on `loss(x, y)`. An optimizer with a
    `decay` multiplies its rate by it once per epoch. With `val`, a
    zero-argument score (higher is better) taken after every epoch, the
    best-scoring epoch's values of `optimizer.params` are restored at the
    end, and training stops after `patience` epochs without improvement.
    """
    n = len(train)
    best, snapshot, stale = -np.inf, None, 0
    for _ in range(epochs):
        for idx in _shuffled_batches(n, batch_size, rng):
            optimizer.zero_grad()
            ad.backward(loss(train.rows(idx), train.labels[idx]))
            optimizer.step()
        optimizer.lr *= getattr(optimizer, "decay", 1.0)
        if val is None:
            continue
        score = val()
        if score > best:
            best, snapshot, stale = score, [p.data.copy() for p in optimizer.params], 0
        else:
            stale += 1
            if patience is not None and stale >= patience:
                break
    if snapshot is not None:
        for p, d in zip(optimizer.params, snapshot):
            p.data = d


def _accuracy_point(net, task, ds):
    probs = predict(net, task, ds.inputs, 0)
    return float((probs.argmax(axis=1) == ds.labels).mean())


def evaluate_matrix_row(net, tasks_seen, num_samples, rng):
    """Test accuracy on every task trained so far, with the per-example
    confidence and correctness (concatenated over tasks) it came from.

    `num_samples` MC draws per task, or the posterior means when it is 0.
    """
    row, confidence, correct = [], [], []
    for spec in tasks_seen:
        probs = predict(net, spec.task_id, spec.test.inputs, num_samples, rng)
        hit = (probs.argmax(axis=1) == spec.test.labels).astype(np.float64)
        row.append(float(hit.mean()))
        confidence.append(probs.max(axis=1))
        correct.append(hit)
    return row, np.concatenate(confidence), np.concatenate(correct)


def run_continual(method, tasks, cfg: RunnerConfig, seed, arch=None, out_dir=None):
    """Train a task sequence and return the filled RunRecord."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(METHODS)}")
    if arch is None:
        arch = Architecture.mlp(input_dim=tasks[0].train.stored.shape[1])
    gcfg = dataclasses.replace(cfg.gvcl)
    if method in ("vcl", "vcl_film"):
        gcfg = dataclasses.replace(gcfg, beta=1.0, lam=1.0)
    film = method.endswith("_film")

    seq = np.random.SeedSequence(seed)
    init_seed, train_seed, eval_seed = [int(s.generate_state(1)[0]) for s in seq.spawn(3)]
    net = init_net(arch, init_seed)
    net.film_enabled = film
    train_rng = np.random.default_rng(train_seed)
    eval_rng = np.random.default_rng(eval_seed)

    is_vi = method in VI_METHODS
    if is_vi:
        prior = obj.initial_prior(net, cfg.prior0_var)
    else:  # no penalty until the first Fisher; map_sgd never gets one
        mu = obj.flat_shared_mu(net)
        prior = obj.NetPrior(mu, np.zeros(mu.size))

    record = RunRecord(method, dataclasses.asdict(cfg), seed, task_ids=[t.task_id for t in tasks])
    for t, spec in enumerate(tasks):
        t0 = time.perf_counter()
        task, n = spec.task_id, len(spec.train)
        net.add_task(task, spec.classes, train_rng)
        try:
            # the losses are looked up on `obj` at call time, so wrappers see them
            if is_vi:
                fit(
                    Adam(net.trainable_params(task), lr=gcfg.lr),
                    lambda x, y: obj.beta_elbo_loss(net, task, x, y, prior, gcfg, n, train_rng),
                    spec.train, gcfg.epochs, gcfg.batch_size, train_rng,
                )
            else:
                params = net.trainable_params(task, means_only=True)
                fit(
                    SGD(params, lr=cfg.map_lr, decay=cfg.map_lr_decay),
                    lambda x, y: obj.ewc_loss(net, task, x, y, prior, n),
                    spec.train, cfg.map_epochs, gcfg.batch_size, train_rng,
                    val=lambda: _accuracy_point(net, task, spec.val),
                    patience=cfg.patience,
                )
        except NonFiniteError as e:
            record.error = f"divergence during task {spec.task_id}: {e}"
            break
        if is_vi:
            prior = obj.posterior_to_prior(net, cfg.prior0_var, gcfg.lam)
        elif method != "map_sgd":
            fisher = obj.fisher_diag(
                net, task, spec.train, spec.train.labels,
                rng=train_rng, max_samples=cfg.fisher_samples,
            )
            prior = obj.ewc_next_prior(
                prior, fisher, obj.flat_shared_mu(net), cfg.ewc_lam, cfg.ewc_gamma
            )
        n_eval = gcfg.eval_samples if is_vi else 0
        row, record.confidence, record.correct = evaluate_matrix_row(
            net, tasks[: t + 1], n_eval, eval_rng
        )
        record.result_matrix.append(row)
        record.wall_times.append(time.perf_counter() - t0)
        if out_dir is not None:
            path = f"{out_dir}/ckpt_{t}.npz"
            save_checkpoint(net, path)
            record.checkpoints.append(path)
    return record, net


def run_independent(tasks, cfg: RunnerConfig, seed):
    """Reference accuracies from single-task gvcl training (one fresh net each)."""
    accs = []
    for i, spec in enumerate(tasks):
        record, _ = run_continual("gvcl", [spec], cfg, seed + i)
        accs.append(record.result_matrix[0][0])
    return accs
