"""Training objectives: tempered ELBO, EWC quadratic penalty, curvature.

The ELBO's KL term is one fused ``diag_gauss_kl`` node over the
shared-layer parameters, so gradients flow to means and log-variances;
FiLM and head parameters enter the likelihood only. Both losses hold
their prior as one flat `NetPrior`: the EWC penalty is the KL against a
prior without variances, its quadratic term alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gaussians import clipped_precision as _clipped_prec
from .nets import split_flat


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
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
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
        once per list of shapes; inv_var is None without a variance."""
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


def shared_kl_node(net, prior: NetPrior):
    """Differentiable KL(q_shared || prior) with the lam-tilde quadratic term;
    the Online-EWC penalty on the shared means when prior.var is None."""
    means = net.shared_means()
    logvars = net.shared_logvars() if prior.var is not None else [None] * len(means)
    terms = [(mu, lv, *v) for mu, lv, v in zip(means, logvars, prior.views(means))]
    return ad.diag_gauss_kl(terms, prior.kl_const)


def nll_node(net, task, x, y, noise):
    """Mean negative log-likelihood of a batch under one sampled network."""
    logits = net.forward_sample(task, x, noise=noise)
    if net.arch.binary_logit:
        return ad.tmean(ad.sigmoid_cross_entropy(logits, y))
    return ad.tmean(ad.softmax_cross_entropy(logits, y))


def beta_elbo_loss(net, task, x, y, prior: NetPrior, cfg: GVCLConfig, n_task: int, rng):
    """Loss = mean NLL (MC average) + beta * KL_tilde / N_task."""
    if len(np.asarray(y)) == 0:
        raise ValueError("batch must be nonempty")
    nll = None
    for _ in range(cfg.mc_samples):
        noise = net.sample_noise(task, rng) if rng is not None else None
        term = nll_node(net, task, x, y, noise)
        nll = term if nll is None else ad.add(nll, term)
    if cfg.mc_samples > 1:
        nll = ad.mul(nll, Tensor(np.full((), 1.0 / cfg.mc_samples)))
    kl = shared_kl_node(net, prior)
    return ad.add(nll, ad.mul(kl, Tensor(np.full((), cfg.beta / n_task))))


# -- EWC -------------------------------------------------------------------


@dataclass
class EWCState:
    fisher_acc: np.ndarray
    anchor_mu: np.ndarray
    lam: float = 1.0
    gamma: float = 1.0

    @cached_property
    def prior(self) -> NetPrior:
        """The penalty as a variance-free prior with precision lam * fisher_acc."""
        return NetPrior(self.anchor_mu, self.lam * self.fisher_acc)


def flat_shared_mu(net) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in net.shared_means()])


def fresh_ewc_state(net, lam=1.0, gamma=1.0) -> EWCState:
    mu = flat_shared_mu(net)
    return EWCState(np.zeros(mu.size), mu, lam, gamma)


def fisher_diag(net, task, x, y, mode="empirical", rng=None, max_samples=None):
    """Diagonal empirical/model Fisher at the current means, scaled by N.

    empirical: squared gradients at observed labels, averaged then scaled
    by the dataset size; model: labels drawn from the net's predictive.
    One generator, rng or else default_rng(0), draws both the subsample of
    max_samples examples and the model-mode labels. `x` is a float array
    or a `data.Dataset`, whose `rows` scales only the drawn examples.
    Gradients are cleared from every net tensor on return.
    """
    y = np.asarray(y)
    n_total = len(x)
    if n_total == 0:
        raise ValueError("fisher_diag: empty dataset")
    if mode not in ("empirical", "model"):
        raise ValueError(f"unknown fisher mode {mode!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    idx = slice(None)
    if max_samples is not None and max_samples < n_total:
        idx = rng.choice(n_total, max_samples, replace=False)
    xs = x.rows(idx) if hasattr(x, "rows") else np.asarray(x)[idx]
    ys = y[idx]
    params = net.shared_means()
    tensors = list(net.named_params().values())
    acc = np.zeros(sum(p.size for p in params))
    views = split_flat(acc, params)
    for i in range(len(xs)):
        xi = xs[i : i + 1]
        yi = ys[i : i + 1]
        if mode == "model":
            from .nets import predict

            probs = predict(net, task, xi, mode="mean")
            yi = np.array([rng.choice(len(probs[0]), p=probs[0])])
            if net.arch.binary_logit:
                yi = yi.astype(y.dtype)
        for p in tensors:
            p.grad = None
        ad.backward(nll_node(net, task, xi, yi, noise=None))
        for p, view in zip(params, views):
            if p.grad is not None:
                view += p.grad * p.grad
    for p in tensors:
        p.grad = None
    return acc / len(xs) * n_total


def ewc_loss(net, task, x, y, state: EWCState, n_task=None):
    """Point-estimate loss: mean NLL at the means plus the anchor penalty.

    The accumulated curvature is at whole-dataset scale, so when n_task is
    given the penalty is divided by it to match the per-example NLL.
    """
    nll = nll_node(net, task, x, y, noise=None)
    penalty = shared_kl_node(net, state.prior)
    if n_task is not None:
        penalty = ad.mul(penalty, Tensor(np.full((), 1.0 / n_task)))
    return ad.add(nll, penalty)


def ewc_update_state(state: EWCState, fisher_new: np.ndarray, theta_now: np.ndarray) -> EWCState:
    if fisher_new.shape != state.fisher_acc.shape or theta_now.shape != state.anchor_mu.shape:
        raise ValueError("EWC update: shape mismatch")
    if np.any(fisher_new < 0):
        warnings.warn("negative Fisher entries clipped to 0", stacklevel=2)
        fisher_new = np.maximum(fisher_new, 0.0)
    return EWCState(
        state.gamma * state.fisher_acc + fisher_new,
        theta_now.copy(),
        state.lam,
        state.gamma,
    )


# -- 1-parameter curvature probe ------------------------------------------

_TOY_SIGMA0_SQ = 30.0


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


def curvature_probe(beta, toy, seed, n_points=1000):
    """Effective curvature variance from tempered VI on the 1-parameter model.

    Fits q = N(mu, s2) to the generative model x ~ N(f(theta), 30) by
    maximizing the tempered ELBO (Gauss-Hermite quadrature for the
    expected log-likelihood), then removes the tempering scale from the
    fitted precision: the returned value is 1 / (beta * (1/s2 - 1)).
    """
    from scipy.optimize import minimize  # here, so that importing gvcl does not load scipy

    f, df = _toy_f(toy)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(n_points)
    s1 = data.sum()
    s2 = (data**2).sum()
    n = n_points
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
