"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion. The Split-MNIST
criterion needs real IDX files and is skipped with an explicit message
when no data root is available (set GVCL_DATA_ROOT or place the files
under ./data).
"""

import os
import time
from itertools import combinations

import numpy as np
import pytest

from gvcl import autodiff as ad
from gvcl import metrics, toys
from gvcl.gaussians import (
    DiagGaussian,
    diag_approx_by_precision,
    film_optimal_scale,
    kl_diag,
    kl_lambda,
    low_rank_kl_cost,
    low_rank_select,
    scaled_kl,
    temper,
)
from gvcl.nets import Architecture, init_net
from gvcl.objectives import curvature_probe, initial_prior, shared_kl_node


def report(num, ok, text):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


# -- 1. conjugate fixed point ------------------------------------------------


def test_criterion_1_conjugate_beta_vi_fixed_point():
    t0 = time.perf_counter()
    sigma_n_sq, n = 30.0, 1000
    worst = 0.0
    for beta in (0.05, 0.2, 1.0):
        probe = curvature_probe(beta, "linear", seed=0)
        fitted_prec = 1.0 / (beta * probe) + 1.0
        exact_prec = n / (beta * sigma_n_sq) + 1.0
        worst = max(worst, abs(fitted_prec / exact_prec - 1.0))
    dt = time.perf_counter() - t0
    report(1, worst < 1e-3 and dt < 10.0,
           f"posterior precision matches N/(beta*sigma_n^2)+1 "
           f"(worst rel err {worst:.2e}, {dt:.1f}s)")


# -- 2. tempering identity suite ----------------------------------------------


def test_criterion_2_tempering_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    worst_identity = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 8))
        q = DiagGaussian(rng.normal(size=d), rng.uniform(0.2, 3.0, d))
        p = DiagGaussian(rng.normal(size=d), rng.uniform(0.2, 3.0, d))
        lam = float(rng.uniform(1.0, 30.0))
        worst_identity = max(
            worst_identity,
            abs(kl_diag(temper(q, lam), temper(p, lam)) - kl_lambda(q, p, lam)),
        )

    from scipy.optimize import minimize

    worst_diag = 0.0
    for d in (2, 3, 4):
        a = rng.normal(size=(d, d))
        h = a @ a.T + d * np.eye(d)

        def neg_obj(log_v):
            v = np.exp(log_v)
            return 0.5 * (np.sum(np.diag(h) * v) - np.sum(log_v))

        res = minimize(neg_obj, np.zeros(d), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14})
        worst_diag = max(worst_diag,
                         float(np.max(np.abs(np.exp(res.x) - diag_approx_by_precision(h)))))

    low_rank_ok = True
    delta = 1e-6
    for _ in range(100):
        p_dim = int(rng.integers(2, 7))
        a = rng.normal(size=(p_dim, p_dim))
        h = a @ a.T + 0.1 * np.eye(p_dim)
        k = int(rng.integers(1, p_dim))
        vals, _ = low_rank_select(h, k, delta)
        all_vals = np.linalg.eigvalsh(h)
        best = min(combinations(range(p_dim), k),
                   key=lambda idx: low_rank_kl_cost(h, idx, delta))
        if not np.allclose(sorted(vals), sorted(all_vals[list(best)]), rtol=1e-9):
            low_rank_ok = False

    dt = time.perf_counter() - t0
    ok = worst_identity < 1e-12 and worst_diag < 1e-4 and low_rank_ok and dt < 60
    report(2, ok,
           f"tempering identity (max err {worst_identity:.1e}), diag match "
           f"(max err {worst_diag:.1e}), low-rank vs exhaustive on 100 SPD ({dt:.1f}s)")


# -- 3. curvature orderings -----------------------------------------------------


def test_criterion_3_curvature_orderings():
    t0 = time.perf_counter()
    rows = toys.curvature_sweep(seeds=(0, 1, 2))
    table = {}
    for func, beta, seed, var in rows:
        table[(func, beta, seed)] = var
    ok = True
    msgs = []
    for seed in (0, 1, 2):
        lin = [table[("linear", b, seed)] for b in (0.1, 1.0, 10.0)]
        if max(lin) / min(lin) - 1.0 > 0.05:
            ok = False
            msgs.append(f"linear not beta-independent at seed {seed}")
        # f1: flatter locally at smaller beta -> variance increases as beta drops
        if not (table[("f1", 0.1, seed)] > table[("f1", 1.0, seed)] > table[("f1", 10.0, seed)]):
            ok = False
            msgs.append(f"f1 ordering broken at seed {seed}")
        if not (table[("f2", 0.1, seed)] < table[("f2", 10.0, seed)]):
            ok = False
            msgs.append(f"f2 ordering broken at seed {seed}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 600
    report(3, ok,
           "linear beta-independent (+-5%), f1 variance increases and f2 decreases "
           f"toward small beta over 3 seeds ({dt:.1f}s)" + ("; " + "; ".join(msgs) if msgs else ""))


# -- 4. convergence to Online EWC -----------------------------------------------


@pytest.mark.slow
def test_criterion_4_ewc_convergence():
    t0 = time.perf_counter()
    rows = toys.ewc_convergence(seeds=(0, 1, 2, 3, 4))
    dists = [d for _, d in rows]  # ordered beta = 1, 0.3, 0.1, 0.03
    strictly_decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    dt = time.perf_counter() - t0
    ok = strictly_decreasing and dt < 1800
    detail = ", ".join(f"beta={b}: {d:.4f}" for b, d in rows)
    report(4, ok, f"mean distance to the EWC solution strictly decreasing ({detail}; {dt:.0f}s)")


# -- 5. FiLM scale optimum -------------------------------------------------------


def test_criterion_5_scale_optimum():
    t0 = time.perf_counter()
    rows = toys.film_scale_grid(n_instances=100, grid_step=0.01)
    max_gap = max(r[3] for r in rows)
    # second derivative of the scaled KL at the analytic optimum is positive
    rng = np.random.default_rng(1)
    curvature_ok = True
    for _ in range(100):
        d = int(rng.integers(1, 6))
        q = DiagGaussian(rng.normal(size=d), rng.uniform(0.2, 2.0, d))
        p = DiagGaussian(rng.normal(size=d), rng.uniform(0.2, 2.0, d))
        c = film_optimal_scale(q, p)
        eps = 1e-4
        second = (scaled_kl(q, p, c + eps) - 2 * scaled_kl(q, p, c)
                  + scaled_kl(q, p, c - eps)) / eps**2
        if second <= 0:
            curvature_ok = False
    dt = time.perf_counter() - t0
    ok = max_gap <= 0.01 + 1e-9 and curvature_ok and dt < 60
    report(5, ok,
           f"analytic c* within one 0.01 grid step on 100 instances "
           f"(max gap {max_gap:.4f}), second derivative positive ({dt:.1f}s)")


# -- 6. Split-MNIST ---------------------------------------------------------------


def _mnist_root():
    for root in (os.environ.get("GVCL_DATA_ROOT"), "data", "/root/data"):
        if not root:
            continue
        from gvcl.cli import _MNIST_FILES, _find_file

        try:
            for base in _MNIST_FILES.values():
                _find_file(root, base)
            return root
        except FileNotFoundError:
            continue
    return None


def test_criterion_6_split_mnist():
    root = _mnist_root()
    if root is None:
        pytest.skip(
            "Split-MNIST criterion skipped: no MNIST IDX files found. Set "
            "GVCL_DATA_ROOT (or create ./data) containing "
            "train-images-idx3-ubyte, train-labels-idx1-ubyte, "
            "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte (optionally .gz)."
        )
    from gvcl.cli import build_tasks
    from gvcl.objectives import GVCLConfig
    from gvcl.runner import RunnerConfig, run_continual

    tasks = build_tasks("split_mnist", root, 0)
    cfg = RunnerConfig(
        gvcl=GVCLConfig(beta=0.2, lam=100.0, epochs=100, batch_size=256, eval_samples=20)
    )
    vcl_cfg = RunnerConfig(gvcl=GVCLConfig(epochs=100, batch_size=256, eval_samples=20))
    accs = {m: [] for m in ("vcl", "gvcl", "gvcl_film")}
    for seed in (0, 1, 2):
        for method in accs:
            c = vcl_cfg if method == "vcl" else cfg
            record, _ = run_continual(method, tasks, c, seed)
            accs[method].append(metrics.acc(record.result_matrix))
    means = {m: float(np.mean(v)) for m, v in accs.items()}
    ok = means["vcl"] >= 0.90 and means["gvcl_film"] > means["gvcl"]
    report(6, ok,
           f"VCL ACC {means['vcl']:.3f} >= 0.90 and GVCL-F {means['gvcl_film']:.3f} "
           f"> GVCL {means['gvcl']:.3f} over 3 seeds")


# -- 7. FiLM / pruning property -----------------------------------------------------


@pytest.mark.slow
def test_criterion_7_film_pruning_property():
    t0 = time.perf_counter()
    counts = [toys.active_unit_counts(seed) for seed in range(5)]
    count_ok = all(wf >= wo for wf, wo in counts)

    # invariants
    arch = Architecture.mlp(input_dim=3, hidden=(5,))
    net = init_net(arch, 0)
    rng = np.random.default_rng(1)
    net.add_task("a", 3, rng)
    net.add_task("b", 2, rng)
    x = rng.normal(size=(6, 3))
    with_film = net.forward_sample("a", x).data
    net.film_enabled = False
    identity_ok = np.array_equal(with_film, net.forward_sample("a", x).data)
    net.film_enabled = True

    before = net.forward_sample("a", x).data.copy()
    owned = [t for fp in net.film["b"] for t in (fp.gamma, fp.shift)]
    for t in owned + net.heads["b"].variational_params():  # task b's FiLM and head
        t.data = t.data + 1.0
    isolation_ok = np.array_equal(before, net.forward_sample("a", x).data)

    node = shared_kl_node(net, initial_prior(net, 1.0))
    ad.backward(node)
    grad_ok = all(
        fp.gamma.grad is None and fp.shift.grad is None for fp in net.film["a"]
    )

    dt = time.perf_counter() - t0
    ok = count_ok and identity_ok and isolation_ok and grad_ok
    detail = ", ".join(f"seed {s}: film {wf} vs plain {wo}" for s, (wf, wo) in enumerate(counts))
    report(7, ok,
           f"active units with FiLM >= without on 5/5 seeds ({detail}); identity, "
           f"isolation and zero-KL-gradient invariants hold ({dt:.0f}s)")


# -- 8. metric formulas ---------------------------------------------------------------


def test_criterion_8_metric_formulas():
    r = [[0.90], [0.80, 0.85]]
    r_ind = [0.88, 0.84]
    exact = (
        abs(metrics.acc(r) - 0.825) < 1e-12
        and abs(metrics.bwt(r) + 0.05) < 1e-12
        and abs(metrics.fwt(r, r_ind) - 0.015) < 1e-12
        and abs(metrics.net_gain(r, r_ind) + 0.035) < 1e-12
    )
    conf = np.full(10, 0.9)
    correct = np.r_[np.ones(6), np.zeros(4)]
    ece_ok = (
        metrics.ece(np.ones(5), np.ones(5)) == 0.0
        and abs(metrics.ece(np.full(100, 0.5), np.array([1.0, 0.0] * 50))) < 1e-12
        and abs(metrics.ece(conf, correct) - 0.3) < 1e-12
    )
    report(8, exact and ece_ok,
           "hand-computed ACC/BWT/FWT/NET matrix exact; ECE edge cases exact")
