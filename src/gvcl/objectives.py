"""Training objectives: tempered ELBO, EWC quadratic penalty, curvature.

The ELBO's KL term is one fused ``diag_gauss_kl`` node over the
shared-layer parameters that carries the beta / N scale itself, so
gradients flow to means and log-variances; FiLM and head parameters
enter the likelihood only. Both losses hold their prior as one flat
`NetPrior`: the EWC penalty is the KL against a prior without variances,
its quadratic term alone. That prior is the whole Online-EWC state:
`ewc_next_prior` rolls it forward after each task to (theta*, gamma *
prec + lam * F).
"""

from __future__ import annotations

import dataclasses
import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gaussians import clipped_precision as _clipped_prec
from .nets import split_flat

_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def check_fields(cfg, rules):
    """Raise ValueError, naming the field, when a float field of the
    dataclass `cfg` is not finite or a (field, op, bound) rule fails."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
    for name, op, bound in rules:
        if not _COMPARE[op](getattr(cfg, name), bound):
            raise ValueError(f"{name} must be {op} {bound}, got {getattr(cfg, name)}")


@dataclass
class GVCLConfig:
    beta: float = 1.0
    lam: float = 1.0
    mc_samples: int = 1
    lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 64
    eval_samples: int = 100

    def __post_init__(self):
        check_fields(self, (
            ("beta", ">", 0), ("lr", ">", 0), ("mc_samples", ">=", 1), ("epochs", ">=", 1),
            ("batch_size", ">=", 1), ("eval_samples", ">=", 0),
        ))
        if self.lam < 1:
            warnings.warn(f"lam={self.lam} < 1 is outside the recommended range", stacklevel=2)


@dataclass
class NetPrior:
    """A diagonal-Gaussian prior over the shared layers, held flat.

    Each array is in `flat_shared_mu` order (w0, b0, w1, b1, ...). `prec`
    is the precision of the KL's quadratic term, the lambda-tilde clipped
    one for GVCL; `var` is the variance of its trace and log-det terms.
    With `var` None the KL is its quadratic term alone: the Online-EWC
    penalty.
    """

    mu: np.ndarray
    prec: np.ndarray
    var: np.ndarray | None = None
    _views: tuple = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def kl_const(self):
        """The KL's q-independent part, sum(log v - 1), once per prior."""
        return 0.0 if self.var is None else float(np.sum(np.log(self.var)) - self.var.size)

    def views(self, means):
        """Per-tensor (mu, prec, inv_var) views shaped like `means`, split
        once per list of shapes; inv_var is None without a variance. This
        is the KL's shape check: a prior that does not fit raises ShapeError."""
        shapes = [p.shape for p in means]
        if self._views is None or self._views[0] != shapes:
            inv_var = [None] * len(means) if self.var is None else split_flat(1.0 / self.var, means)
            views = zip(split_flat(self.mu, means), split_flat(self.prec, means), inv_var)
            self._views = (shapes, list(views))
        return self._views[1]


def initial_prior(net, prior0_var=1.0) -> NetPrior:
    n = sum(p.size for p in net.shared_means())
    return NetPrior(np.zeros(n), np.full(n, 1.0 / prior0_var), np.full(n, prior0_var))


def posterior_to_prior(net, prior0_var: float, lam: float) -> NetPrior:
    """Wrap the current shared posterior as the next task's tempered prior."""
    var = np.exp(np.concatenate([p.data.ravel() for p in net.shared_logvars()]))
    return NetPrior(flat_shared_mu(net), _clipped_prec(var, prior0_var, lam), var)


def shared_kl_node(net, prior: NetPrior, scale=1.0):
    """Differentiable scale * KL(q_shared || prior) with the lam-tilde
    quadratic term; the Online-EWC penalty on the shared means when
    prior.var is None."""
    means = net.shared_means()
    logvars = net.shared_logvars() if prior.var is not None else [None] * len(means)
    terms = [(mu, lv, *v) for mu, lv, v in zip(means, logvars, prior.views(means))]
    return ad.diag_gauss_kl(terms, prior.kl_const, scale)


def nll_node(net, task, x, y, noise):
    """Mean negative log-likelihood of a batch under one sampled network."""
    logits = net.forward_sample(task, x, noise=noise)
    if net.arch.head_in == 0:  # the single sigmoid logit
        return ad.tmean(ad.sigmoid_cross_entropy(logits, y))
    return ad.tmean(ad.softmax_cross_entropy(logits, y))


def beta_elbo_loss(net, task, x, y, prior: NetPrior, cfg: GVCLConfig, n_task: int, rng):
    """Loss = mean NLL (MC average over cfg.mc_samples noise draws from
    rng) + beta * KL_tilde / N_task."""
    if len(np.asarray(y)) == 0:
        raise ValueError("batch must be nonempty")
    nll = None
    for _ in range(cfg.mc_samples):
        term = nll_node(net, task, x, y, net.sample_noise(task, rng))
        nll = term if nll is None else ad.add(nll, term)
    if cfg.mc_samples > 1:
        nll = ad.mul(nll, Tensor(np.full((), 1.0 / cfg.mc_samples)))
    return ad.add(nll, shared_kl_node(net, prior, cfg.beta / n_task))


# -- EWC -------------------------------------------------------------------


def flat_shared_mu(net) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in net.shared_means()])


def fisher_diag(net, task, x, y, mode="empirical", rng=None, max_samples=None):
    """Diagonal empirical Fisher at the current means, scaled by N.

    The squared gradients at the observed labels, averaged then scaled by
    the dataset size; `mode` admits only "empirical". rng, or else
    default_rng(0), draws the subsample of max_samples examples. `x` is a
    float array or a `data.Dataset`, whose `rows` scales only the drawn
    examples.

    Each drawn example gets one backward pass under `ad.capture_rows`,
    which keeps every shared layer's input row x_i and output gradient
    g_i. Since example i's weight gradient is x_i.T @ g_i, the weight
    Fisher is one product per layer, (X**2).T @ G**2, and the bias
    Fisher is the column sum of G**2. The gradients a pass sets (shared
    biases, the task's FiLM and head) are cleared on return.
    """
    y = np.asarray(y)
    n_total = len(x)
    if n_total == 0:
        raise ValueError("fisher_diag: empty dataset")
    if mode != "empirical":
        raise ValueError(f"unknown fisher mode {mode!r}; only 'empirical' is computed")
    if rng is None:
        rng = np.random.default_rng(0)
    idx = slice(None)
    if max_samples is not None and max_samples < n_total:
        idx = rng.choice(n_total, max_samples, replace=False)
    xs = x.rows(idx) if hasattr(x, "rows") else np.asarray(x)[idx]
    ys = y[idx]
    params = net.shared_means()  # w0, b0, w1, b1, ...
    touched = net.trainable_params(task, means_only=True)
    try:
        with ad.capture_rows(params[::2]) as captured:
            for i in range(len(xs)):
                for p in touched:
                    p.grad = None
                ad.backward(nll_node(net, task, xs[i : i + 1], ys[i : i + 1], noise=None))
    finally:
        for p in touched:
            p.grad = None
    acc = np.zeros(sum(p.size for p in params))
    views = split_flat(acc, params)
    for w, w_view, b_view in zip(params[::2], views[::2], views[1::2]):
        x2 = np.concatenate([xr for xr, _ in captured[w]])
        g2 = np.concatenate([gr for _, gr in captured[w]])
        x2 *= x2
        g2 *= g2
        np.matmul(x2.T, g2, out=w_view)
        g2.sum(axis=0, out=b_view)
    return acc / len(xs) * n_total


def ewc_loss(net, task, x, y, prior: NetPrior, n_task: int):
    """Point-estimate loss: mean NLL at the means plus the Online-EWC penalty.

    `prior` is variance-free: the penalty is (1/2) sum prec * (mu - prior.mu)**2,
    with prec the decayed sum of lam-scaled Fishers at whole-dataset scale,
    so it is divided by n_task to match the per-example NLL.
    """
    nll = nll_node(net, task, x, y, noise=None)
    return ad.add(nll, shared_kl_node(net, prior, 1.0 / n_task))


def ewc_next_prior(prior: NetPrior, fisher_new, theta_now, lam=1.0, gamma=1.0) -> NetPrior:
    """Online EWC's roll-forward: anchor at theta_now, precision
    gamma * prior.prec + lam * fisher_new (Schwarz et al. 2018)."""
    if fisher_new.shape != prior.prec.shape or theta_now.shape != prior.mu.shape:
        raise ValueError("EWC update: shape mismatch")
    if np.any(fisher_new < 0):
        warnings.warn("negative Fisher entries clipped to 0", stacklevel=2)
        fisher_new = np.maximum(fisher_new, 0.0)
    return NetPrior(theta_now.copy(), gamma * prior.prec + lam * fisher_new)


# -- 1-parameter curvature probe ------------------------------------------

_TOY_SIGMA0_SQ = 30.0
_TOY_N_POINTS = 1000  # draws x ~ N(0, 1) that the probe fits


def _toy_f(which):
    eps = 1e-12
    if which == "f1":
        f = lambda t: np.abs(t) ** 1.6
        df = lambda t: 1.6 * np.abs(t) ** 0.6 * np.sign(t)
    elif which == "f2":
        f = lambda t: np.abs(t) ** 0.25
        df = lambda t: 0.25 * (np.abs(t) + eps) ** (-0.75) * np.sign(t)
    elif which == "f3":
        f = lambda t: np.cbrt((np.abs(t) - 0.5) ** 3 + 0.4)
        df = lambda t: (
            (np.abs(t) - 0.5) ** 2
            * ((np.abs(t) - 0.5) ** 3 + 0.4 + eps) ** (-2.0 / 3.0)
            * np.sign(t)
        )
    elif which == "linear":
        f = lambda t: t
        df = lambda t: np.ones_like(np.asarray(t, dtype=float))
    else:
        raise ValueError(f"unknown toy function {which!r}")
    return f, df


def curvature_probe(beta, toy, seed):
    """Effective curvature variance from tempered VI on the 1-parameter model.

    Fits q = N(mu, s2) to the generative model x ~ N(f(theta), 30) by
    maximizing the tempered ELBO (Gauss-Hermite quadrature for the
    expected log-likelihood), then removes the tempering scale from the
    fitted precision: the returned value is 1 / (beta * (1/s2 - 1)).
    """
    from scipy.optimize import minimize  # here, so that importing gvcl does not load scipy

    f, df = _toy_f(toy)
    rng = np.random.default_rng(seed)
    n = _TOY_N_POINTS
    data = rng.standard_normal(n)
    s1 = data.sum()
    s2 = (data**2).sum()
    nodes, weights = np.polynomial.hermite_e.hermegauss(61)
    weights = weights / weights.sum()

    def loglik(theta):
        ft = f(theta)
        return -(s2 - 2.0 * s1 * ft + n * ft * ft) / (2.0 * _TOY_SIGMA0_SQ)

    def dloglik(theta):
        return (s1 - n * f(theta)) * df(theta) / _TOY_SIGMA0_SQ

    def neg_elbo_and_grad(z):
        mu, s = z  # s = log variance
        sig = np.exp(0.5 * s)
        theta = mu + sig * nodes
        e = np.sum(weights * loglik(theta))
        dl = weights * dloglik(theta)
        de_dmu = dl.sum()
        de_ds = 0.5 * sig * np.sum(dl * nodes)
        kl = 0.5 * (np.exp(s) + mu * mu - 1.0 - s)
        dkl_dmu = mu
        dkl_ds = 0.5 * (np.exp(s) - 1.0)
        val = -(e - beta * kl)
        return val, np.array([-(de_dmu - beta * dkl_dmu), -(de_ds - beta * dkl_ds)])

    best = None
    bounds = [(None, None), (-40.0, 10.0)]  # keep exp(s) finite during line search
    for mu0 in (0.3, 1.0, -0.7):
        res = minimize(
            neg_elbo_and_grad, x0=np.array([mu0, -2.0]), jac=True,
            method="L-BFGS-B", bounds=bounds,
        )
        if best is None or res.fun < best.fun:
            best = res
    if not np.isfinite(best.fun):
        raise FloatingPointError(f"curvature probe diverged: beta={beta}, toy={toy}")
    s2_fit = np.exp(best.x[1])
    denom = beta * (1.0 / s2_fit - 1.0)
    if denom <= 0:
        raise FloatingPointError(
            f"curvature probe: posterior no tighter than prior (beta={beta}, toy={toy})"
        )
    return 1.0 / denom
