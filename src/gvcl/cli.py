"""Command-line entry point.

    gvcl run <config.ini> [--jobs N] [--data-root PATH] [--out PATH]
    gvcl toy <name> [--out PATH]
    gvcl verify

`run` executes every method x seed cell of an experiment and writes
records, a metrics summary and a calibration table under
<out>/<experiment>/. `toy` emits one CSV per desk-scale study. `verify`
runs a fast invariant table and exits nonzero on any failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import os
import sys
import tempfile
import time
import traceback

import numpy as np

from . import metrics, toys
from .config import ExperimentConfig, load_config
from .data import gen_toy_clusters, load_idx, make_split_tasks, write_idx
from .runner import RunRecord, run_continual

SPLIT_MNIST_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))

_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _find_file(root, base):
    for name in (base, base + ".gz", base.replace("-idx", ".idx")):
        path = os.path.join(root, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"missing {base} (or .gz) under {root}")


def build_tasks(dataset, data_root, data_seed):
    if dataset == "split_mnist":
        if data_root is None:
            raise ValueError("split_mnist requires --data-root with IDX files")
        train = load_idx(
            _find_file(data_root, _MNIST_FILES["train_images"]),
            _find_file(data_root, _MNIST_FILES["train_labels"]),
        )
        test = load_idx(
            _find_file(data_root, _MNIST_FILES["test_images"]),
            _find_file(data_root, _MNIST_FILES["test_labels"]),
        )
        return make_split_tasks(train, test, SPLIT_MNIST_PAIRS)
    if dataset == "toy_clusters":
        return gen_toy_clusters(data_seed)
    if dataset == "synthetic_pair":
        return toys.gen_synthetic_pair(data_seed)
    raise ValueError(f"unknown dataset {dataset!r}")


def _run_cell(args):
    """Run one method x seed cell and write its record.json.

    An exception from the run does not end the experiment: its traceback
    goes to stderr, it becomes the record's error, "<Type>: <message>", and
    the returned flag is set.
    """
    method, seed, cfg_runner, tasks, cell_dir = args
    os.makedirs(cell_dir, exist_ok=True)
    raised = False
    try:
        record, _ = run_continual(method, tasks, cfg_runner, seed, out_dir=cell_dir)
    except Exception as e:
        traceback.print_exc()
        raised = True
        record = RunRecord(
            method, dataclasses.asdict(cfg_runner), seed, result_matrix=[],
            task_ids=[t.task_id for t in tasks], wall_times=[], checkpoints=[],
            error=f"{type(e).__name__}: {e}",
        )
    with open(os.path.join(cell_dir, "record.json"), "w") as f:
        f.write(record.to_json())
    return method, seed, record, raised


def cmd_run(config_path, jobs, data_root, out_root):
    cfg: ExperimentConfig = load_config(config_path)
    tasks = build_tasks(cfg.dataset, data_root, cfg.data_seed)
    exp_dir = os.path.join(out_root, cfg.name)
    cells = [
        (m, s, cfg.runner, tasks, os.path.join(exp_dir, m, str(s)))
        for m in cfg.methods
        for s in cfg.seeds
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [_run_cell(c) for c in cells]

    os.makedirs(exp_dir, exist_ok=True)
    with open(os.path.join(exp_dir, "summary.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "seed", "acc", "bwt", "ece", "error"])
        for method, seed, record, _ in results:
            if record.error or not record.result_matrix:
                w.writerow([method, seed, "", "", "", record.error or "no results"])
                continue
            w.writerow(
                [
                    method,
                    seed,
                    f"{metrics.acc(record.result_matrix):.6f}",
                    f"{metrics.bwt(record.result_matrix):.6f}",
                    f"{metrics.ece(record.confidence, record.correct):.6f}",
                    "",
                ]
            )
    with open(os.path.join(exp_dir, "calibration.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "seed", "bin", "mean_confidence", "accuracy", "count"])
        for method, seed, record, _ in results:
            if record.error or not record.result_matrix:
                continue
            for b, mc, a, n in metrics.calibration_curve(record.confidence, record.correct):
                w.writerow([method, seed, b, mc, a, n])
    print(f"wrote {len(results)} records under {exp_dir}")
    raised = [f"{method}/{seed}" for method, seed, _, r in results if r]
    if raised:
        print(f"cells that raised: {', '.join(raised)}", file=sys.stderr)
    return 1 if raised else 0


TOY_NAMES = ("curvature", "ewc_convergence", "film_scale", "pruning")


def cmd_toy(name, out_root):
    if name not in TOY_NAMES:
        raise ValueError(f"unknown toy {name!r}; expected one of {TOY_NAMES}")
    os.makedirs(out_root, exist_ok=True)
    path = os.path.join(out_root, f"{name}.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        if name == "curvature":
            w.writerow(["function", "beta", "seed", "effective_variance"])
            w.writerows(toys.curvature_sweep())
        elif name == "ewc_convergence":
            w.writerow(["beta", "mean_distance"])
            w.writerows(toys.ewc_convergence())
        elif name == "film_scale":
            w.writerow(["instance", "c_analytic", "c_grid", "gap"])
            w.writerows(toys.film_scale_grid())
        else:
            w.writerow(["seed", "active_with_film", "active_without_film"])
            for seed in range(5):
                with_f, without_f = toys.active_unit_counts(seed)
                w.writerow([seed, with_f, without_f])
    print(f"wrote {path}")
    return 0


# -- verify ----------------------------------------------------------------


def _verify_checks():
    from . import autodiff as ad
    from .gaussians import DiagGaussian, film_optimal_scale, kl_diag, kl_lambda, scaled_kl, temper
    from .nets import Architecture, init_net, split_flat
    from .objectives import (
        GVCLConfig, beta_elbo_loss, curvature_probe, fisher_diag, posterior_to_prior,
    )

    rng = np.random.default_rng(0)

    def tempering_identity():
        q = DiagGaussian(rng.normal(size=5), rng.uniform(0.5, 2.0, 5))
        p = DiagGaussian(rng.normal(size=5), rng.uniform(0.5, 2.0, 5))
        lam = 3.7
        return abs(kl_diag(temper(q, lam), temper(p, lam)) - kl_lambda(q, p, lam)) < 1e-10

    def kl_self_zero():
        q = DiagGaussian(rng.normal(size=8), rng.uniform(0.5, 2.0, 8))
        return abs(kl_diag(q, q)) < 1e-12

    def conjugate_posterior():
        # tempered VI on the linear 1-parameter model recovers the exact
        # likelihood curvature variance sigma^2 / N = 30 / 1000 at every beta
        return all(
            abs(curvature_probe(beta, "linear", 0) / (30.0 / 1000) - 1.0) < 1e-3
            for beta in (0.25, 1.0, 4.0)
        )

    def film_scale_optimum():
        for _ in range(5):
            q = DiagGaussian(rng.normal(size=3), rng.uniform(0.5, 2.0, 3))
            p = DiagGaussian(rng.normal(size=3), rng.uniform(0.5, 2.0, 3))
            c = film_optimal_scale(q, p)
            grid = np.arange(max(0.05, c - 0.3), c + 0.3, 0.005)
            best = grid[int(np.argmin([scaled_kl(q, p, g) for g in grid]))]
            if abs(c - best) > 0.01:
                return False
        return True

    def central_difference(f, a, j, eps=1e-5):
        a[j] += eps
        up = f()
        a[j] -= 2 * eps
        dn = f()
        a[j] += eps
        return (up - dn) / (2 * eps)

    def elbo_finite_differences():
        # beta_elbo_loss gradients at fixed noise on a 3-4-2 FiLM MLP with a
        # clipped prior, against central differences of a numpy forward
        r = np.random.default_rng(2)
        net = init_net(Architecture.mlp(input_dim=3, hidden=(4,)), 0)
        net.add_task("a", 2, r)
        for p in net.shared_logvars():
            p.data = r.uniform(-3.0, 0.5, p.shape)  # some variances above the prior's
        prior = posterior_to_prior(net, 1.0, lam=10.0)
        for p in net.trainable_params("a"):
            p.data = p.data + r.normal(scale=0.5, size=p.shape)
        x, y, cfg = r.normal(size=(5, 3)), np.array([0, 1, 1, 0, 1]), GVCLConfig(beta=0.5)
        noise = net.sample_noise("a", np.random.default_rng(3))
        ad.backward(beta_elbo_loss(net, "a", x, y, prior, cfg, 7, np.random.default_rng(3)))
        layer, fp, head = net.shared[0], net.film["a"][0], net.heads["a"]
        # w0 mean, w0 logvar, b0 mean, b0 logvar, then the head's (w1, b1) alike
        drawn = layer.variational_params() + head.variational_params()

        def loss():
            w0, b0, w1, b1 = (m.data + np.exp(lv.data * 0.5) * e
                              for m, lv, e in zip(drawn[::2], drawn[1::2], noise))
            z = np.maximum((x @ w0 + b0) * fp.gamma.data + fp.shift.data, 0.0) @ w1 + b1
            nll = np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(5), y])
            mu, lv = (np.concatenate([t.data.ravel() for t in drawn[k:4:2]]) for k in (0, 1))
            kl = np.sum(prior.prec * (mu - prior.mu) ** 2 + np.exp(lv) / prior.var - lv
                        + np.log(prior.var) - 1.0)
            return nll + cfg.beta / 7 * 0.5 * kl

        for t, j in ((layer.weight_mu, (1, 2)), (layer.weight_logvar, (0, 3)),
                     (layer.bias_logvar, (1,)), (fp.gamma, (2,)), (head.weight_mu, (1, 0))):
            want = central_difference(loss, t.data, j)
            if not (want != 0 and abs(t.grad[j] - want) <= 1e-6 * abs(want)):
                return False
        return True

    def fisher_finite_differences():
        # fisher_diag on a 3-4-2 FiLM MLP against squared per-example NLL
        # gradients from central differences of a numpy forward
        r = np.random.default_rng(1)
        net = init_net(Architecture.mlp(input_dim=3, hidden=(4,)), 0)
        net.add_task("a", 2, r)
        layer, fp, head = net.shared[0], net.film["a"][0], net.heads["a"]
        layer.weight_mu.data = r.normal(size=(3, 4))
        layer.bias_mu.data = r.normal(size=4)
        fp.gamma.data = r.uniform(0.5, 1.5, size=4)
        fp.shift.data = r.normal(size=4)
        x, y = r.normal(size=(3, 3)), np.array([0, 1, 1])

        def nll(i):
            h = (x[i] @ layer.weight_mu.data + layer.bias_mu.data) * fp.gamma.data
            z = np.maximum(h + fp.shift.data, 0.0) @ head.weight_mu.data + head.bias_mu.data
            return np.log(np.exp(z).sum()) - z[y[i]]

        params = net.shared_means()  # w0, b0
        fisher = split_flat(fisher_diag(net, "a", x, y), params)
        for k, j in ((0, (0, 1)), (0, (2, 3)), (1, (1,)), (1, (2,))):
            want = sum(central_difference(lambda: nll(i), params[k].data, j) ** 2 for i in range(3))
            if not (want > 0 and abs(fisher[k][j] - want) <= 1e-6 * want):
                return False
        return True

    def metric_example():
        r = [[0.9], [0.85, 0.8], [0.82, 0.78, 0.88]]
        return abs(metrics.acc(r) - np.mean(r[2])) < 1e-12 and abs(
            metrics.bwt(r) - np.mean([r[2][0] - r[0][0], r[2][1] - r[1][1], 0.0])
        ) < 1e-12

    def idx_roundtrip():
        with tempfile.TemporaryDirectory() as d:
            imgs = rng.integers(0, 256, size=(7, 4, 4), dtype=np.uint8)
            lbls = rng.integers(0, 10, size=7, dtype=np.uint8)
            ip, lp = os.path.join(d, "im"), os.path.join(d, "lb")
            write_idx(imgs, lbls, ip, lp)
            ds = load_idx(ip, lp)
            return np.array_equal(ds.labels, lbls) and np.array_equal(
                ds.inputs, imgs.reshape(7, 16) / 255.0
            )

    return [
        ("tempering identity", tempering_identity),
        ("kl self-distance zero", kl_self_zero),
        ("conjugate posterior variance", conjugate_posterior),
        ("film scale optimum vs grid", film_scale_optimum),
        ("elbo gradients vs finite differences", elbo_finite_differences),
        ("fisher vs finite differences", fisher_finite_differences),
        ("metric definitions", metric_example),
        ("idx round-trip", idx_roundtrip),
    ]


def cmd_verify():
    checks = _verify_checks()
    failures = 0
    for name, check in checks:
        t0 = time.perf_counter()
        try:
            ok = bool(check())
        except Exception as e:  # a crashing check is a failure, not an abort
            ok = False
            name = f"{name} ({type(e).__name__}: {e})"
        dt = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<45s} {dt * 1000:8.1f} ms")
        failures += not ok
    print(f"{len(checks) - failures} passed, {failures} failed")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gvcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--data-root", default=None)
    p_run.add_argument("--out", default="runs")

    p_toy = sub.add_parser("toy", help="run a desk-scale study")
    p_toy.add_argument("name", choices=TOY_NAMES)
    p_toy.add_argument("--out", default=os.path.join("runs", "toys"))

    sub.add_parser("verify", help="run fast invariant checks")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.jobs, args.data_root, args.out)
    if args.command == "toy":
        return cmd_toy(args.name, args.out)
    return cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
