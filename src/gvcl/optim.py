"""Gradient-step rules used by the training loops."""

from __future__ import annotations

import numpy as np


class Adam:
    """First/second-moment adaptive steps over all parameters as one flat vector.

    m, v and two scratch buffers are flat; a step is one pass of in-place
    ufuncs over them, with the arithmetic of the per-tensor rule
    p - lr * mhat / (sqrt(vhat) + eps), so results are bit-identical to it.
    Each parameter then gets a fresh data array (tensors stay immutable).
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        ends = np.cumsum([p.size for p in self.params])
        self._slices = [slice(e - p.size, e) for p, e in zip(self.params, ends)]
        n = int(ends[-1]) if len(ends) else 0
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._g = np.empty(n)
        self._tmp = np.empty(n)

    def step(self):
        g, tmp, m, v = self._g, self._tmp, self.m, self.v
        for i, (p, sl) in enumerate(zip(self.params, self._slices)):
            if p.grad is None:
                raise ValueError(f"Adam.step: parameter {i} {p.shape} has no gradient")
            g[sl] = p.grad.ravel()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m *= b1
        np.multiply(g, 1 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, 1 - b2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, 1 - b2**self.t, out=g)  # g now holds sqrt(vhat) + eps
        np.sqrt(g, out=g)
        g += self.eps
        np.divide(m, 1 - b1**self.t, out=tmp)
        tmp *= self.lr
        tmp /= g
        for p, sl in zip(self.params, self._slices):
            p.data = p.data - tmp[sl].reshape(p.shape)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


class SGD:
    """Plain gradient descent. `decay` multiplies the rate once per epoch;
    the training loop (`runner.fit`) applies it, not `step`."""

    def __init__(self, params, lr=5e-2, decay=1.0):
        self.params = list(params)
        self.lr = lr
        self.decay = decay

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"SGD.step: parameter {i} {p.shape} has no gradient")
        for p in self.params:
            p.data = p.data - self.lr * p.grad

    def zero_grad(self):
        for p in self.params:
            p.grad = None
