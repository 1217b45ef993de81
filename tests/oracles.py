"""Reference formulas the fused library ops are checked against.

`kl_lambda_tilde` is the GVCL prior KL written on flat `DiagGaussian`s,
term by term from the paper; `autodiff.diag_gauss_kl` computes the same
value over many tensors at once. `sampled_dense` is a mean-field layer
as a chain of nodes: each draw built from primitive ops, then a dense
layer at the drawn values; `autodiff.dense` with a draw is one node that
must be bit-identical to it. `sequential_predict` is `nets.predict` one
draw at a time, each in turn: the parallel draws must match it bitwise.

The primitive ops those chains are made of, which no training run
builds, live here rather than in `gvcl.autodiff`: `matmul`, `add_bias`
((N, F) + (F,)), `relu`, `exp`, `scale` (by a constant) and `tsum`. Each
is one node on `Tensor._result`, with the numpy arithmetic the fused ops
repeat, so a chain of them and the fused node agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gvcl import autodiff as ad
from gvcl.autodiff import Tensor
from gvcl.gaussians import DiagGaussian, clipped_precision
from gvcl.nets import _probs


@dataclass(frozen=True)
class ClippedPrecisionPrior:
    """Previous posterior with its data-dependent precision up-weighted.

    Effective precision is lam * max(0, 1/base.var - 1/prior0_var)
    + 1/prior0_var; the clip threshold is exactly zero.
    """

    base: DiagGaussian
    prior0_var: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(
            self, "prior0_var", np.asarray(self.prior0_var, dtype=np.float64)
        )
        if self.prior0_var.shape != self.base.mu.shape:
            raise ValueError("prior0_var must match base dimension")
        if np.any(self.effective_precision() <= 0):
            raise ValueError("effective precision must be strictly positive")

    def effective_precision(self):
        return clipped_precision(self.base.var, self.prior0_var, self.lam)


def kl_lambda_tilde(q: DiagGaussian, prior: ClippedPrecisionPrior) -> float:
    """KL against the previous posterior with clipped up-weighted precision.

    The quadratic mean term uses the clipped effective precision; trace and
    log-det terms use the unmodified base variances.
    """
    if q.dim != prior.base.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {prior.base.dim}")
    prec = prior.effective_precision()
    base = prior.base
    return 0.5 * float(
        np.sum(
            prec * (q.mu - base.mu) ** 2
            + q.var / base.var
            + np.log(base.var / q.var)
            - 1.0
        )
    )


def matmul(a, b):
    xd, wd = a.data, b.data

    def back(g):
        return (
            g @ wd.T if a.requires_grad else None,
            xd.T @ g if b.requires_grad else None,
        )

    return Tensor._result("matmul", xd @ wd, (a, b), back)


def add_bias(a, b):
    """(N, F) + (F,), the bias add of a dense layer."""
    return Tensor._result(
        "add_bias", a.data + b.data, (a, b),
        lambda g: (g, g.sum(axis=0) if b.requires_grad else None),
    )


def relu(a):
    mask = a.data > 0
    return Tensor._result("relu", a.data * mask, (a,), lambda g: (g * mask,))


def exp(a):
    with np.errstate(over="ignore"):
        e = np.exp(a.data)
    return Tensor._result("exp", e, (a,), lambda g: (g * e,))


def scale(a, c):
    """a times the constant float c."""
    return Tensor._result("scale", a.data * c, (a,), lambda g: (g * c,))


def tsum(a):
    shape = a.shape
    return Tensor._result(
        "sum", np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),)
    )


def reparam(mu, logvar, eps):
    """The draw mu + exp(logvar / 2) * eps as add(mu, mul(exp(scale(logvar, 0.5)), eps))."""
    std = exp(scale(logvar, 0.5))
    return ad.add(mu, ad.mul(std, Tensor(eps)))


def sampled_dense(x, w, w_logvar, w_eps, b, b_logvar, b_eps, gamma=None, shift=None, relu=True):
    """A dense layer at the draws of its weight and bias, each draw its own chain."""
    return ad.dense(x, reparam(w, w_logvar, w_eps), reparam(b, b_logvar, b_eps), gamma, shift, relu)


def sequential_predict(net, task, x, num_samples, rng=None):
    """MC predictive probabilities, one draw after another (the means when
    `num_samples` is 0): noise, forward, softmax, added to the running sum."""
    binary, draws = net.arch.head_in == 0, max(num_samples, 1)
    acc = None
    for _ in range(draws):
        noise = net.sample_noise(task, rng) if num_samples else None
        with ad.no_grad():
            logits = net.forward_sample(task, x, noise=noise).data
        p = _probs(logits, binary)
        acc = p if acc is None else acc + p
    return acc / draws
