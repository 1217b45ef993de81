import numpy as np
import pytest

from gvcl.autodiff import Tensor
from gvcl.optim import SGD, Adam


class PerTensorAdam:
    """The per-parameter Adam rule the flat optimizer must reproduce bit for bit."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = list(params), lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1**self.t)
            vhat = self.v[i] / (1 - b2**self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def test_flat_adam_bit_equal_to_per_tensor_rule():
    rng = np.random.default_rng(0)
    shapes = [(3, 4), (5,), (), (2, 3, 2), (1,)]
    init = [rng.normal(size=s) for s in shapes]
    runs = []
    for opt_cls in (PerTensorAdam, Adam):
        params = [Tensor(a.copy(), requires_grad=True) for a in init]
        opt = opt_cls(params, lr=3e-2)
        grad_rng = np.random.default_rng(1)
        for _ in range(50):
            for p in params:
                p.grad = grad_rng.normal(size=p.shape) * grad_rng.uniform(1e-3, 10.0)
            before = [p.data for p in params]
            opt.step()
            # a step assigns fresh arrays; it never writes into the old ones
            assert all(p.data is not b for p, b in zip(params, before))
        runs.append([p.data.tobytes() for p in params])
    assert runs[0] == runs[1]


def _assert_missing_grad_raises(opt_cls):
    """A parameter with no gradient fails the step before any parameter moves."""
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    opt = opt_cls([a, b])
    a.grad = np.ones(2)
    with pytest.raises(ValueError, match="parameter 1"):
        opt.step()
    assert np.array_equal(a.data, np.ones(2))
    return opt


def test_adam_missing_grad_raises():
    assert _assert_missing_grad_raises(Adam).t == 0


def test_sgd_missing_grad_raises():
    _assert_missing_grad_raises(SGD)
