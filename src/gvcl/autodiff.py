"""Minimal dense-tensor reverse-mode autodiff.

Covers exactly the ops that training runs build, each one graph node
with a closed-form backward: ``dense`` (a whole dense layer,
relu((x @ w + b) * gamma + shift), with the FiLM scale-shift and the
ReLU optional, at the means or at the reparameterized draw
w + exp(w_logvar / 2) * eps, b likewise), ``diag_gauss_kl`` (the clipped
diagonal-Gaussian KL over many tensors, or its quadratic term alone, the
Online-EWC penalty, times a constant scale), ``softmax_cross_entropy``
and ``sigmoid_cross_entropy`` (per example), ``tmean``, and ``add`` and
``mul`` of equal shapes (scalars: NLL + KL, and the MC average, which a
run builds only when ``mc_samples`` > 1; no config or workload sets it).

All data is float64. Tensors are immutable values, numbered in creation
order; an op's result links to its parents, so creation order is a
topological order. ``backward`` walks the nodes reachable from the loss
in reverse creation order, keeping each node's pending gradient on the
node. An op computes a parent's gradient only when that parent requires
one, so constants such as the input data cost nothing in the backward
pass. Inside ``with no_grad():`` ops keep no parents and no closures,
which is how evaluation runs. Inside ``with capture_rows(weights):`` the
backward of a ``dense`` layer whose weight is watched records the layer
input x and the gradient g at x @ w + b instead of forming x.T @ g; the
diagonal Fisher squares those rows into one product per layer.
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

    The flag it sets is process-wide, not per thread, and restored on
    exit, exceptions included. So only one thread may enter it at a time:
    ``nets.predict`` enters it once in the calling thread around all its
    draws, and its worker thread, which runs forwards under that setting,
    never enters it.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev, _grad_enabled = _grad_enabled, False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


_captured = None  # watched weight -> list of (x, g) rows, inside capture_rows


class capture_rows:
    """Context in which ``dense`` keeps per-row gradients of watched weights.

    For each watched weight leaf, every backward pass through its dense
    layer at the means (no draw) appends (x, g): the layer input and the
    gradient at x @ w + b, after the ReLU mask and the FiLM scale. The
    weight itself gets no gradient; x and the bias get theirs as usual.
    Since the weight gradient is x.T @ g, its per-example square is
    (x**2).T @ g**2. Like ``no_grad``, the setting is process-wide and
    restored on exit.
    """

    def __init__(self, weights):
        self.rows = {w: [] for w in weights}

    def __enter__(self):
        global _captured
        self._prev, _captured = _captured, self.rows
        return self.rows

    def __exit__(self, *exc):
        global _captured
        _captured = self._prev


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


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not conform")
    return Tensor._result("add", a.data + b.data, (a, b), lambda g: (g, g))


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd = a.data, b.data

    def back(g):
        return (
            g * bd if a.requires_grad else None,
            g * ad if b.requires_grad else None,
        )

    return Tensor._result("mul", ad * bd, (a, b), back)


def tmean(a):
    shape = a.shape
    n = a.size
    return Tensor._result(
        "mean",
        np.asarray(a.data.mean()),
        (a,),
        lambda g: (np.full(shape, g / n),),
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


def diag_gauss_kl(terms, const=0.0, scale=1.0):
    """Sum of diagonal-Gaussian KL terms over many tensors, times `scale`, as one scalar node.

    Each term is (mu, logvar, m, prec, inv_var): q = N(mu, exp(logvar))
    against a prior with mean m and variance 1 / inv_var whose quadratic
    term uses the precision prec (the lambda-tilde clipped one for GVCL).
    Every array has mu's shape (`NetPrior.views` checks that once). The value is

        scale * 1/2 * (sum[prec (mu - m)^2 + exp(logvar) inv_var - logvar] + const)

    where const carries the q-independent sum(log v - 1). A term with
    logvar None contributes its quadratic part only; the Online-EWC
    penalty is that form. Gradients: scale * prec (mu - m) for mu and
    scale * (exp(logvar) inv_var - 1) / 2 for logvar, bit-identical to
    a `mul` by the constant `scale` after the node.
    """
    parents, saved = [], []
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for mu, logvar, m, prec, inv_var in terms:
            d = mu.data - m
            pd = prec * d
            term = (pd * d).sum()
            e = None
            parents.append(mu)
            if logvar is not None:
                e = np.exp(logvar.data)
                term = term + (e * inv_var).sum() - logvar.data.sum()
                parents.append(logvar)
            total += term
            saved.append((mu, logvar, pd, e, inv_var))

    def back(g):
        g = g * scale
        grads = []
        for mu, logvar, pd, e, inv_var in saved:
            grads.append(g * pd if mu.requires_grad else None)
            if logvar is not None:
                grads.append(0.5 * g * (e * inv_var - 1.0) if logvar.requires_grad else None)
        return grads

    return Tensor._result("diag_gauss_kl", np.asarray(0.5 * (total + const)) * scale, parents, back)


def dense(x, w, b, gamma=None, shift=None, relu=True, draw=None):
    """A dense layer, relu((x @ w + b) * gamma + shift), as one node.

    FiLM (gamma, shift) and the ReLU are optional. With draw = (w_logvar,
    w_eps, b_logvar, b_eps), w and b are means and the layer uses the
    finite draws w + exp(w_logvar / 2) * w_eps and b likewise; the
    parents are then x, w, w_logvar, b, b_logvar, gamma and shift. The
    forward works in place on the matmul's output and checks finiteness
    once, at the end: NaN and Inf survive +b, *gamma, +shift and the ReLU
    mask, so that is as strict as a check after every step. Forward and
    backward repeat the numpy work of the reference op chain (draws ->)
    matmul -> bias add -> (x * gamma + shift) -> relu in tests/oracles.py,
    so both are bit-identical to it.
    """
    if len(x.shape) != 2 or len(w.shape) != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: shapes {x.shape} and {w.shape} do not conform")
    width = (w.shape[1],)
    film = gamma is not None
    if b.shape != width or film and (gamma.shape != width or shift.shape != width):
        raise ShapeError(f"dense: bias or FiLM params do not match weight {w.shape}")
    xd, wd, bd = x.data, w.data, b.data
    core = (x, w, b)
    if draw is not None:
        w_lv, w_eps, b_lv, b_eps = draw
        if not w_lv.shape == w_eps.shape == w.shape or not b_lv.shape == b_eps.shape == width:
            raise ShapeError(f"dense: log-variances or noise do not match weight {w.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            w_std, b_std = np.exp(w_lv.data * 0.5), np.exp(b_lv.data * 0.5)
            wd, bd = wd + w_std * w_eps, bd + b_std * b_eps
        _check_finite("dense", wd)
        _check_finite("dense", bd)
        core = (x, w, w_lv, b, b_lv)
    parents = core + (gamma, shift) if film else core
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = xd @ wd
    out += bd
    if film:
        gd = gamma.data[None, :]
        pre = out.copy() if track and gamma.requires_grad else None
        out *= gd
        out += shift.data
    if relu:
        mask = out > 0
        out *= mask
    through = any(p.requires_grad for p in core)
    w_grad = w.requires_grad or draw is not None and w_lv.requires_grad
    b_grad = b.requires_grad or draw is not None and b_lv.requires_grad

    def spread(gm, lv, eps, std):
        # the draw's backward: the mean's gradient passes, the log-variance's is scaled
        return gm, (((gm * eps) * std) * 0.5 if lv.requires_grad else None)

    def back(g):
        if relu:
            g = g * mask
        gg = gs = None
        if film:
            gg = (g * pre).sum(axis=0) if gamma.requires_grad else None
            gs = g.sum(axis=0) if shift.requires_grad else None
            if through:
                g = g * gd
        gw = None
        rows = None if _captured is None else _captured.get(w)
        if rows is not None:
            rows.append((xd, g))
        elif w_grad:
            gw = xd.T @ g
        gx = g @ wd.T if x.requires_grad else None
        gb = g.sum(axis=0) if b_grad else None
        grads = (gx, gw, gb) if draw is None else (
            gx, *spread(gw, w_lv, w_eps, w_std), *spread(gb, b_lv, b_eps, b_std))
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
