"""Correctness checks against computations made apart from gvcl.

The KL and Fisher references are written here in plain numpy from the
paper's formulas; they share no code with gvcl. Each check returns a list
of failure messages, empty when it passes.
"""

from __future__ import annotations

import math

import numpy as np

from gvcl import nets, objectives

RTOL = 1e-9
FISHER_EXAMPLES = 4
PRUNE_THRESHOLD = 0.1  # as in acceptance criterion 7


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) <= RTOL * scale


def clipped_kl(posterior, prior_posterior, prior0_var, lam):
    """lambda-tilde-clipped KL between two diagonal Gaussians over the shared layers.

    Both arguments are lists of (w_mu, w_logvar, b_mu, b_logvar) per layer;
    the prior is the previous task's posterior with its precision clipped to
    1/prior0_var + lam * max(0, 1/var - 1/prior0_var) in the quadratic term.
    """
    total = 0.0
    for q_layer, p_layer in zip(posterior, prior_posterior):
        for mu, logvar, p_mu, p_logvar in (
            (q_layer[0], q_layer[1], p_layer[0], p_layer[1]),
            (q_layer[2], q_layer[3], p_layer[2], p_layer[3]),
        ):
            var, p_var = np.exp(logvar), np.exp(p_logvar)
            prec = 1.0 / prior0_var + lam * np.maximum(0.0, 1.0 / p_var - 1.0 / prior0_var)
            total += 0.5 * np.sum(prec * (mu - p_mu) ** 2 + var / p_var - np.log(var / p_var) - 1.0)
    return float(total)


def fisher_reference(net, task, x, y):
    """Sum over examples of squared per-example NLL gradients at the means.

    Plain backprop through the dense ReLU stack (with FiLM when enabled)
    and the task head's softmax; ordered like objectives.flat_shared_mu.
    """
    layers = net.shared
    pre, acts = [], [x]
    h = x
    for i, layer in enumerate(layers):
        z = h @ layer.weight_mu.data + layer.bias_mu.data
        if net.film_enabled:
            fp = net.film[task][i]
            z = z * fp.gamma.data + fp.shift.data
        pre.append(z)
        h = np.maximum(z, 0.0)
        acts.append(h)
    head = net.heads[task]
    logits = h @ head.weight_mu.data + head.bias_mu.data
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    delta = p
    delta[np.arange(len(y)), y] -= 1.0
    grad_h = delta @ head.weight_mu.data.T
    parts = []
    for i in range(len(layers) - 1, -1, -1):
        dz = grad_h * (pre[i] > 0)
        if net.film_enabled:
            dz = dz * net.film[task][i].gamma.data
        parts.append(np.concatenate([((acts[i] ** 2).T @ dz**2).ravel(), (dz**2).sum(axis=0)]))
        grad_h = dz @ layers[i].weight_mu.data.T
    return np.concatenate(parts[::-1])


def check_kl(cell):
    """shared_kl_node on the final posterior against its last prior, vs numpy."""
    net, cfg, method = cell["net"], cell["cfg"], cell["method"]
    lam = 1.0 if method.startswith("vcl") else cfg.gvcl.lam
    posterior = [
        (l.weight_mu.data, l.weight_logvar.data, l.bias_mu.data, l.bias_logvar.data)
        for l in net.shared
    ]
    got = float(objectives.shared_kl_node(net, cell["priors"][-2]).data)
    want = clipped_kl(posterior, cell["posteriors"][-2], cfg.prior0_var, lam)
    if not math.isclose(got, want, rel_tol=RTOL):
        return [f"{method}: shared_kl_node {got!r} != numpy clipped KL {want!r}"]
    return []


def check_fisher(cell):
    """fisher_diag at the final EWC means vs numpy per-example gradients."""
    spec = cell["tasks"][-1]
    x = spec.train.inputs[:FISHER_EXAMPLES]
    y = spec.train.labels[:FISHER_EXAMPLES]
    got = objectives.fisher_diag(cell["net"], spec.task_id, x, y, mode="empirical")
    want = fisher_reference(cell["net"], spec.task_id, x, y)
    if got.shape != want.shape or not _close(got, want):
        return [f"{cell['method']}: fisher_diag differs from numpy squared per-example gradients"]
    return []


def check_steps(cell):
    """Optimizer steps of a VI cell = sum over tasks of epochs * ceil(n / batch)."""
    g = cell["cfg"].gvcl
    want = sum(g.epochs * math.ceil(len(t.train) / g.batch_size) for t in cell["tasks"])
    if cell["steps"] != want:
        return [f"{cell['method']}: {cell['steps']} optimizer steps, expected {want}"]
    return []


def check_fisher_work(cell):
    """Fisher backward passes per task = min(fisher_samples, n_train)."""
    want = [min(cell["cfg"].fisher_samples, len(t.train)) for t in cell["tasks"]]
    if cell["fisher_passes"] != want:
        return [f"{cell['method']}: Fisher passes per task {cell['fisher_passes']}, expected {want}"]
    return []


def check_learning(cell):
    """Each task's accuracy right after it is trained is well above chance."""
    out = []
    for t, row in enumerate(cell["record"].result_matrix):
        chance = 1.0 / cell["tasks"][t].classes
        if row[t] < chance + 0.5 * (1.0 - chance):
            out.append(f"{cell['method']}: task {t} accuracy {row[t]:.3f} (chance {chance:.3f})")
    return out


def active_units(cell):
    """Active first-layer units after the last task, as criterion 7 counts them."""
    rows = nets.prune_diagnostics(cell["net"], prior_var=1.0, task=cell["tasks"][-1].task_id)
    return int(np.sum(rows[0]["scores"] > PRUNE_THRESHOLD))
