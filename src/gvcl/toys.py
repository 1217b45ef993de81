"""Desk-scale verification experiments.

Each driver returns plain rows ready for CSV emission: the 1-parameter
curvature sweep, the 2-D logistic convergence-to-EWC study, the FiLM
scale-optimum grid check and the with/without-FiLM pruning comparison.
"""

from __future__ import annotations

import numpy as np

from . import objectives as obj
from .data import Dataset, TaskSpec, gen_toy_clusters
from .gaussians import DiagGaussian, film_optimal_scale, scaled_kl
from .nets import Architecture, init_net, prune_diagnostics
from .objectives import GVCLConfig
from .optim import Adam
from .runner import RunnerConfig, fit, run_continual

CURVATURE_BETAS = (0.1, 1.0, 10.0)
CURVATURE_FUNCS = ("linear", "f1", "f2", "f3")


def curvature_sweep(seeds=(0, 1, 2)):
    """(function, beta, seed, effective variance) rows for the 1-D probe."""
    rows = []
    for func in CURVATURE_FUNCS:
        for beta in CURVATURE_BETAS:
            for seed in seeds:
                rows.append((func, beta, seed, obj.curvature_probe(beta, func, seed)))
    return rows


# -- convergence of tempered VI to the EWC solution ------------------------

CONVERGENCE_BETAS = (1.0, 0.3, 0.1, 0.03)


def _epochs_for_beta(beta):
    # smaller beta needs far longer to converge
    return int(min(40000, 3000 / beta**0.75))


def ewc_reference_solution(tasks, seed):
    """Online EWC (lam = gamma = 1) on the 2-D logistic toy from a unit
    normal prior at 0, so that task 1 is a MAP fit; returns the final means.

    It keeps its own loop, Adam at 5e-2 for 4000 full-batch epochs with no
    early stopping, to settle each task at its optimum: run_continual's
    point path takes decaying SGD steps and stops on validation accuracy,
    which leaves the means short of the solution the distances are taken to.
    """
    net = init_net(Architecture.logistic(), seed)
    for spec in tasks:
        net.add_task(spec.task_id, spec.classes, np.random.default_rng(seed))
    n_shared = obj.flat_shared_mu(net).size
    prior = obj.NetPrior(np.zeros(n_shared), np.ones(n_shared))
    for spec in tasks:
        task, n = spec.task_id, len(spec.train)
        params = net.trainable_params(task, means_only=True)
        fit(
            params,
            Adam(params, lr=5e-2),
            lambda x, y: obj.ewc_loss(net, task, x, y, prior, n),
            spec.train, 4000, n, rng=None,
        )
        fisher = obj.fisher_diag(net, task, spec.train.inputs, spec.train.labels)
        prior = obj.ewc_next_prior(prior, fisher, obj.flat_shared_mu(net))
    return obj.flat_shared_mu(net)


def gvcl_toy_solution(tasks, seed, beta):
    """Sequential tempered VI (lam = 1, full batch) on the same toy through
    run_continual; returns the final means."""
    gcfg = GVCLConfig(
        beta=beta, lam=1.0, lr=1e-3, epochs=_epochs_for_beta(beta),
        batch_size=max(len(spec.train) for spec in tasks), eval_samples=0,
    )
    record, net = run_continual("gvcl", tasks, RunnerConfig(gvcl=gcfg), seed,
                                arch=Architecture.logistic())
    if record.error:
        raise FloatingPointError(record.error)
    return obj.flat_shared_mu(net)


def ewc_convergence(seeds=(0, 1, 2, 3, 4), betas=CONVERGENCE_BETAS, data_seed=1234):
    """(beta, mean parameter distance to the EWC solution) rows."""
    tasks = gen_toy_clusters(data_seed, n_per_class=100)
    refs = {seed: ewc_reference_solution(tasks, seed) for seed in seeds}
    rows = []
    for beta in betas:
        dists = []
        for seed in seeds:
            theta = gvcl_toy_solution(tasks, seed, beta)
            dists.append(float(np.linalg.norm(theta - refs[seed])))
        rows.append((beta, float(np.mean(dists))))
    return rows


# -- FiLM scale optimum ----------------------------------------------------


def film_scale_grid(n_instances=100, dim=4, seed=0, grid_step=0.01):
    """(instance, analytic c*, grid argmin, gap) rows over random Gaussians."""
    rng = np.random.default_rng(seed)
    grid = np.arange(0.1, 3.0 + grid_step / 2, grid_step)
    rows = []
    for i in range(n_instances):
        q = DiagGaussian(rng.normal(0, 1.5, dim), rng.uniform(0.2, 2.0, dim))
        prior = DiagGaussian(rng.normal(0, 1.0, dim), rng.uniform(0.2, 2.0, dim))
        c_star = film_optimal_scale(q, prior)
        kls = [scaled_kl(q, prior, c) for c in grid]
        c_grid = float(grid[int(np.argmin(kls))])
        rows.append((i, float(c_star), c_grid, abs(c_star - c_grid)))
    return rows


# -- pruning with and without FiLM ----------------------------------------


def gen_synthetic_pair(seed, n_per_class=60, dim=12, classes=(2, 12)):
    """Gaussian-cluster tasks in `dim` dimensions: easy first, richer second.

    The first task needs little capacity, so variational training prunes
    hard; the second needs more directions, so whether pruned units can be
    reactivated becomes visible in the deviation-from-prior counts.
    """
    rng = np.random.default_rng(seed)
    tasks = []
    for t, k in enumerate(classes):
        dirs = rng.normal(size=(k, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        splits = []
        for n in (n_per_class, 20, n_per_class):
            xs, ys = [], []
            for label in range(k):
                pts = rng.normal(0.0, 0.5, size=(n, dim)) + 2.0 * dirs[label]
                xs.append(pts)
                ys.append(np.full(n, label, dtype=np.int64))
            splits.append(Dataset(np.concatenate(xs), np.concatenate(ys)))
        tr, val, te = splits
        tasks.append(TaskSpec(f"syn{t}", tr, val, te, k))
    return tasks


def active_unit_counts(seed, threshold=0.1, beta=1.0, lam=1.0, epochs=1200, lr=1e-2):
    """Active hidden units after 2 tasks, trained with and without FiLM.

    The schedule is long and the step size large enough for unused units'
    variances to actually reach the prior; otherwise nothing prunes and
    the comparison is vacuous.
    """
    tasks = gen_synthetic_pair(1000 + seed)
    arch = Architecture.mlp(input_dim=tasks[0].train.inputs.shape[1], hidden=(8,))
    counts = {}
    for method in ("gvcl", "gvcl_film"):
        cfg = RunnerConfig(
            gvcl=GVCLConfig(beta=beta, lam=lam, epochs=epochs, lr=lr, eval_samples=10)
        )
        _, net = run_continual(method, tasks, cfg, seed, arch=arch)
        rows = prune_diagnostics(net, prior_var=1.0, task=tasks[-1].task_id)
        counts[method] = int(np.sum(rows[0]["scores"] > threshold))
    return counts["gvcl_film"], counts["gvcl"]
