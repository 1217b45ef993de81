"""Minimal dense-tensor reverse-mode autodiff.

Covers exactly the ops needed for mean-field MLPs and Gaussian ELBO
terms on 2-D (batch, features) data: add (with a bias broadcast), mul,
matmul, relu/log/exp/square, sum/mean reductions, and softmax and
sigmoid cross-entropy. Fused ops each build one node with a closed-form
backward: ``dense`` (a whole dense layer, relu((x @ w + b) * gamma +
shift), with the FiLM scale-shift and the ReLU optional), ``reparam``
(the draw mu + exp(logvar / 2) * eps), ``diag_gauss_kl`` (the clipped
diagonal-Gaussian KL over many tensors, or its quadratic term alone, the
Online-EWC penalty) and ``sigmoid_cross_entropy``.

All data is float64. Tensors are immutable values, numbered in creation
order; an op's result links to its parents, so creation order is a
topological order. ``backward`` walks the nodes reachable from the loss
in reverse creation order, keeping each node's pending gradient on the
node. An op computes a parent's gradient only when that parent requires
one, so constants such as the input data cost nothing in the backward
pass. Inside ``with no_grad():`` ops keep no parents and no closures,
which is how evaluation runs.
"""

from __future__ import annotations

import heapq
from itertools import count

import numpy as np


class ShapeError(ValueError):
    """Raised when op inputs do not conform (message names op and shapes)."""


class NonFiniteError(FloatingPointError):
    """Raised when a forward pass produces NaN or Inf."""


def _check_finite(op, arr):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op}: non-finite values in forward output")


_creation = count()
_grad_enabled = True


class no_grad:
    """Context in which ops record no graph: no parents, no closures.

    The flag it sets is process-wide and restored on exit, exceptions
    included; gvcl runs one cell per process, single-threaded.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev, _grad_enabled = _grad_enabled, False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


class Tensor:
    """Dense float64 array participating in reverse-mode differentiation."""

    __slots__ = (
        "data", "requires_grad", "grad", "_parents", "_backward", "_op", "_seq", "_pending"
    )

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        self._seq = next(_creation)
        self._pending = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(op={self._op}, shape={self.shape})"

    # -- graph construction helpers --------------------------------------

    @staticmethod
    def _result(op, data, parents, backward):
        _check_finite(op, data)
        out = Tensor(data, _grad_enabled and any(p.requires_grad for p in parents))
        out._op = op
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out


def _bias_broadcastable(a_shape, b_shape):
    # (..., F) + (F,) bias convention; the only broadcast add allows.
    return len(b_shape) == 1 and len(a_shape) >= 1 and a_shape[-1] == b_shape[0]


def add(a, b):
    if a.shape == b.shape:
        def back(g):
            return g, g
    elif _bias_broadcastable(a.shape, b.shape):
        axes = tuple(range(len(a.shape) - 1))

        def back(g):
            return g, (g.sum(axis=axes) if b.requires_grad else None)
    else:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not conform")
    return Tensor._result("add", a.data + b.data, (a, b), back)


def mul(a, b):
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd = a.data, b.data

    def back(g):
        ga = gb = None
        if a.requires_grad:
            ga = g * bd
            if a.shape == ():
                ga = ga.sum()
        if b.requires_grad:
            gb = g * ad
            if b.shape == ():
                gb = gb.sum()
        return ga, gb

    return Tensor._result("mul", ad * bd, (a, b), back)


def matmul(a, b):
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd = a.data, b.data

    def back(g):
        return (
            g @ bd.T if a.requires_grad else None,
            ad.T @ g if b.requires_grad else None,
        )

    return Tensor._result("matmul", ad @ bd, (a, b), back)


def relu(a):
    mask = a.data > 0
    return Tensor._result("relu", a.data * mask, (a,), lambda g: (g * mask,))


def log(a):
    ad = a.data
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(ad)
    return Tensor._result("log", out, (a,), lambda g: (g / ad,))


def exp(a):
    with np.errstate(over="ignore"):
        e = np.exp(a.data)
    return Tensor._result("exp", e, (a,), lambda g: (g * e,))


def square(a):
    ad = a.data
    return Tensor._result("square", ad * ad, (a,), lambda g: (2.0 * g * ad,))


def tsum(a):
    shape = a.shape
    return Tensor._result(
        "sum", np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),)
    )


def tmean(a):
    shape = a.shape
    n = a.size
    return Tensor._result(
        "mean",
        np.asarray(a.data.mean()),
        (a,),
        lambda g: (np.broadcast_to(g / n, shape).copy(),),
    )


def softmax_cross_entropy(logits, labels):
    """Per-example cross-entropy of softmax(logits) against integer labels."""
    if len(logits.shape) != 2:
        raise ShapeError(f"softmax_cross_entropy: logits shape {logits.shape} is not 2-D")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"softmax_cross_entropy: labels shape {labels.shape} does not match "
            f"batch of logits {logits.shape}"
        )
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    p = ez / ez.sum(axis=1, keepdims=True)
    idx = np.arange(z.shape[0])
    losses = -(z - zmax)[idx, labels] + np.log(ez.sum(axis=1))

    def back(g):
        gz = p * g[:, None]
        gz[idx, labels] -= g
        return (gz,)

    return Tensor._result("softmax_cross_entropy", losses, (logits,), back)


def sigmoid_cross_entropy(logits, labels):
    """Per-example cross-entropy of sigmoid(logit) against 0/1 labels.

    With s = 1 - 2y the loss is softplus(s z) = max(s z, 0) + log1p(e^-|s z|)
    and its gradient is s * sigmoid(s z).
    """
    if len(logits.shape) != 2 or logits.shape[1] != 1:
        raise ShapeError(f"sigmoid_cross_entropy: logits shape {logits.shape} is not (N, 1)")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"sigmoid_cross_entropy: labels shape {labels.shape} does not match "
            f"batch of logits {logits.shape}"
        )
    s = 1.0 - 2.0 * labels
    u = s * logits.data[:, 0]
    e = np.exp(-np.abs(u))
    losses = np.maximum(u, 0.0) + np.log1p(e)

    def back(g):
        sig = np.where(u >= 0, 1.0, e) / (1.0 + e)  # sigmoid(u), stable
        return ((g * s * sig)[:, None],)

    return Tensor._result("sigmoid_cross_entropy", losses, (logits,), back)


# -- fused Gaussian ops ----------------------------------------------------


def reparam(mu, logvar, eps):
    """Reparameterized draw mu + exp(logvar / 2) * eps as one node.

    Forward and backward repeat the numpy work of the chain
    add(mu, mul(exp(mul(logvar, 0.5)), eps)) in its order, so both are
    bit-identical to it.
    """
    eps = np.asarray(eps, dtype=np.float64)
    if logvar.shape != mu.shape or eps.shape != mu.shape:
        raise ShapeError(
            f"reparam: mu {mu.shape}, logvar {logvar.shape} and eps {eps.shape} differ"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        std = np.exp(logvar.data * 0.5)
        out = mu.data + std * eps

    def back(g):
        return g, (((g * eps) * std) * 0.5 if logvar.requires_grad else None)

    return Tensor._result("reparam", out, (mu, logvar), back)


def diag_gauss_kl(terms, const=0.0):
    """Sum of diagonal-Gaussian KL terms over many tensors, as one scalar node.

    Each term is (mu, logvar, m, prec, inv_var): q = N(mu, exp(logvar))
    against a prior with mean m and variance 1 / inv_var whose quadratic
    term uses the precision prec (the lambda-tilde clipped one for GVCL).
    The value is

        1/2 * (sum[prec (mu - m)^2 + exp(logvar) inv_var - logvar] + const)

    where const carries the q-independent sum(log v - 1). A term with
    logvar None contributes its quadratic part only; the Online-EWC
    penalty is that form. Gradients: prec (mu - m) for mu and
    (exp(logvar) inv_var - 1) / 2 for logvar.
    """
    parents, saved = [], []
    total = 0.0
    for mu, logvar, m, prec, inv_var in terms:
        if not np.shape(m) == np.shape(prec) == mu.shape or (
            logvar is not None and not logvar.shape == np.shape(inv_var) == mu.shape
        ):
            raise ShapeError(f"diag_gauss_kl: a term's prior or logvar does not fit mu {mu.shape}")
        d = mu.data - m
        pd = prec * d
        term = (pd * d).sum()
        e = None
        parents.append(mu)
        if logvar is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                e = np.exp(logvar.data)
                term = term + (e * inv_var).sum() - logvar.data.sum()
            parents.append(logvar)
        total += term
        saved.append((mu, logvar, pd, e, inv_var))

    def back(g):
        grads = []
        for mu, logvar, pd, e, inv_var in saved:
            grads.append(g * pd if mu.requires_grad else None)
            if logvar is not None:
                grads.append(0.5 * g * (e * inv_var - 1.0) if logvar.requires_grad else None)
        return grads

    return Tensor._result("diag_gauss_kl", np.asarray(0.5 * (total + const)), parents, back)


def dense(x, w, b, gamma=None, shift=None, relu=True):
    """A dense layer, relu((x @ w + b) * gamma + shift), as one node.

    FiLM (gamma, shift) and the ReLU are optional. The forward works in
    place on the matmul's output and checks finiteness once, at the end:
    NaN and Inf survive +b, *gamma, +shift and the ReLU mask, so that is
    as strict as a check after every step. Forward and backward repeat
    the numpy work of the op chain matmul -> add -> (x * gamma + shift)
    -> relu, so both are bit-identical to it.
    """
    if len(x.shape) != 2 or len(w.shape) != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: shapes {x.shape} and {w.shape} do not conform")
    width = (w.shape[1],)
    film = gamma is not None
    if b.shape != width or film and (gamma.shape != width or shift.shape != width):
        raise ShapeError(f"dense: bias or FiLM params do not match weight {w.shape}")
    parents = (x, w, b, gamma, shift) if film else (x, w, b)
    track = _grad_enabled and any(p.requires_grad for p in parents)
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data
    if film:
        gd = gamma.data[None, :]
        pre = out.copy() if track and gamma.requires_grad else None
        out *= gd
        out += shift.data
    if relu:
        mask = out > 0
        out *= mask
    through = x.requires_grad or w.requires_grad or b.requires_grad

    def back(g):
        if relu:
            g = g * mask
        gg = gs = None
        if film:
            gg = (g * pre).sum(axis=0) if gamma.requires_grad else None
            gs = g.sum(axis=0) if shift.requires_grad else None
            if through:
                g = g * gd
        grads = (
            g @ wd.T if x.requires_grad else None,
            xd.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )
        return grads + (gg, gs) if film else grads

    return Tensor._result("dense", out, parents, back)


# -- backward pass ---------------------------------------------------------


def backward(loss):
    """Accumulate gradients of a scalar loss into every requires_grad leaf.

    Nodes are visited in reverse creation order (a max-heap on the
    creation number), so each node's pending gradient is complete before
    its backward runs.
    """
    if loss.shape != ():
        raise ShapeError(f"backward: loss shape {loss.shape} is not scalar")
    if not loss.requires_grad:
        return
    loss._pending = np.ones((), dtype=np.float64)
    heap = [(-loss._seq, loss)]
    try:
        while heap:
            node = heapq.heappop(heap)[1]
            g, node._pending = node._pending, None
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if parent._pending is None:
                    parent._pending = pg
                    heapq.heappush(heap, (-parent._seq, parent))
                else:
                    parent._pending = parent._pending + pg
    finally:
        for _, node in heap:  # only after a failed op backward
            node._pending = None
