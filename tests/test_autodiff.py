import itertools
import warnings

import numpy as np
import pytest

import oracles
from gvcl import autodiff as ad
from gvcl.autodiff import NonFiniteError, ShapeError, Tensor
from oracles import tsum


def numgrad(f, arrs, idx, eps=1e-6):
    """Central finite difference of scalar f wrt arrs[idx], elementwise."""
    a = arrs[idx]
    g = np.zeros_like(a, dtype=np.float64)
    it = np.nditer(a, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        a[ix] += eps
        up = f(arrs)
        a[ix] -= 2 * eps
        dn = f(arrs)
        a[ix] += eps
        g[ix] = (up - dn) / (2 * eps)
        it.iternext()
    return g


def assert_close(analytic, numeric, rel=1e-4):
    scale = max(1.0, np.abs(numeric).max())
    assert np.allclose(analytic, numeric, rtol=rel, atol=rel * scale)


@pytest.mark.parametrize("seed", range(20))
def test_composite_graph_gradients(seed):
    rng = np.random.default_rng(seed)
    xd = rng.normal(size=(4, 3))
    wd = rng.normal(size=(3, 5))
    bd = rng.normal(size=5)
    gd = rng.uniform(0.5, 1.5, 5)
    sd = rng.normal(size=5)

    def forward(arrs):
        x, w, b, gamma, shift = [Tensor(a, requires_grad=True) for a in arrs]
        h = oracles.add_bias(oracles.matmul(x, w), b)
        h = scale_shift(h, gamma, shift)
        h = oracles.relu(h)
        h = ad.add(ad.mul(h, h), oracles.exp(oracles.scale(h, -1.0)))
        return h, (x, w, b, gamma, shift)

    loss, params = forward([xd, wd, bd, gd, sd])
    loss = ad.tmean(loss)
    ad.backward(loss)

    def scalar(arrs):
        out, _ = forward(arrs)
        return float(out.data.mean())

    arrs = [xd, wd, bd, gd, sd]
    for i, p in enumerate(params):
        assert_close(p.grad, numgrad(scalar, arrs, i))


@pytest.mark.parametrize("seed", range(5))
def test_softmax_cross_entropy_matches_logsumexp(seed):
    from scipy.special import logsumexp

    rng = np.random.default_rng(seed)
    z = rng.normal(size=(6, 4)) * 5
    y = rng.integers(0, 4, size=6)
    losses = ad.softmax_cross_entropy(Tensor(z), y).data
    ref = logsumexp(z, axis=1) - z[np.arange(6), y]
    assert np.allclose(losses, ref, atol=1e-12)

    zt = Tensor(z, requires_grad=True)
    ad.backward(ad.tmean(ad.softmax_cross_entropy(zt, y)))

    def scalar(arrs):
        return float(ad.softmax_cross_entropy(Tensor(arrs[0]), y).data.mean())

    assert_close(zt.grad, numgrad(scalar, [z.copy()], 0))


def test_reused_node_accumulates_gradient():
    a = Tensor(np.array([3.0]), requires_grad=True)
    ad.backward(tsum(ad.mul(a, a)))
    assert np.allclose(a.grad, [6.0])


def test_shape_errors():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    # add and mul take equal shapes only: no bias or scalar broadcast
    for op in (ad.add, ad.mul):
        for other in (b, Tensor(np.zeros(3)), Tensor(np.full((), 2.0))):
            with pytest.raises(ShapeError):
                op(a, other)
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))
    with pytest.raises(ShapeError):
        ad.backward(Tensor(np.zeros(3), requires_grad=True))


def test_non_finite_forward_raises():
    with pytest.raises(NonFiniteError):
        ad.add(Tensor(np.array([np.inf])), Tensor(np.array([1.0])))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        ad.mul(Tensor(np.array([1e200])), Tensor(np.array([1e200])))


def test_no_grad_leaves_are_skipped():
    a = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.ones(3))  # constant
    ad.backward(tsum(ad.mul(a, c)))
    assert c.grad is None
    assert np.array_equal(a.grad, np.ones(3))


# -- fused Gaussian ops --------------------------------------------------------


def _draw_case(seed, logvar_low):
    """Arrays x, w, w_logvar, b, b_logvar, gamma, shift of a sampled layer and its noise."""
    rng = np.random.default_rng(seed)
    arrs = [rng.normal(size=(6, 4)), rng.normal(size=(4, 5)), rng.uniform(logvar_low, 1, (4, 5)),
            rng.normal(size=5), rng.uniform(logvar_low, 1, 5), rng.uniform(0.5, 1.5, 5),
            rng.normal(size=5)]
    return arrs, rng.normal(size=(4, 5)), rng.normal(size=5)


def _sampled(fused, ts, w_eps, b_eps, film, relu):
    """A sampled dense layer on ts = (x, w, w_logvar, b, b_logvar, gamma, shift):
    the fused node, or the oracle chain of separate draw nodes."""
    x, w, w_lv, b, b_lv, gamma, shift = ts
    gamma, shift = (gamma, shift) if film else (None, None)
    if fused:
        return ad.dense(x, w, b, gamma, shift, relu, draw=(w_lv, w_eps, b_lv, b_eps))
    return oracles.sampled_dense(x, w, w_lv, w_eps, b, b_lv, b_eps, gamma, shift, relu)


@pytest.mark.parametrize("seed", range(3))
def test_reparam_gradients(seed):
    # a sampled dense layer against central differences, for all seven inputs
    arrs, w_eps, b_eps = _draw_case(seed, -2)
    weights = np.random.default_rng(seed + 20).normal(size=(6, 5))

    def forward(arrs, grad=False):
        ts = [Tensor(a, requires_grad=grad) for a in arrs]
        return _sampled(True, ts, w_eps, b_eps, film=True, relu=True), ts

    out, ts = forward(arrs, grad=True)
    ad.backward(tsum(ad.mul(out, Tensor(weights))))

    def scalar(a):
        return float((forward(a)[0].data * weights).sum())

    for i, t in enumerate(ts):
        assert_close(t.grad, numgrad(scalar, arrs, i))


@pytest.mark.parametrize("seed", range(3))
def test_reparam_bit_equal_to_op_chain(seed):
    # the fused sampled layer against the oracle chain, bitwise in the value
    # and every gradient: FiLM and ReLU on and off, x with and without a
    # gradient, and under no_grad
    arrs, w_eps, b_eps = _draw_case(seed, -14)
    weights = Tensor(np.random.default_rng(seed + 10).normal(size=(6, 5)))
    for film, relu, x_grad in itertools.product((True, False), repeat=3):
        outs, grads = [], []
        for fused in (False, True):
            ts = [Tensor(a, requires_grad=i > 0 or x_grad) for i, a in enumerate(arrs)]
            out = _sampled(fused, ts, w_eps, b_eps, film, relu)
            ad.backward(tsum(ad.mul(out, weights)))
            outs.append(out.data.tobytes())
            grads.append([None if t.grad is None else t.grad.tobytes() for t in ts])
        assert outs[0] == outs[1], (film, relu, x_grad)
        assert grads[0] == grads[1], (film, relu, x_grad)
        assert (grads[1][0] is None) != x_grad and all(grads[1][1:5])
    ts = [Tensor(a, requires_grad=True) for a in arrs]
    with ad.no_grad():
        outs = [_sampled(fused, ts, w_eps, b_eps, True, True) for fused in (False, True)]
    assert outs[0].data.tobytes() == outs[1].data.tobytes()
    assert not outs[1].requires_grad and outs[1]._parents == () and outs[1]._backward is None


def test_dense_draw_overflow_raises_without_warning():
    # a log-variance of 2000 overflows the draw: the node raises, and the
    # draw's overflow emits no RuntimeWarning (warnings are errors here)
    arrs, w_eps, b_eps = _draw_case(15, -2)
    for k in (2, 4):  # the weight's log-variance, then the bias's
        ts = [Tensor(a) for a in arrs]
        ts[k] = Tensor(np.full(arrs[k].shape, 2000.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                _sampled(True, ts, w_eps, b_eps, film=True, relu=True)


def _kl_terms(rng):
    shapes = [(3, 2), (2,)]
    data = [(rng.normal(size=s), rng.uniform(-2, 1, s)) for s in shapes]
    priors = [
        (rng.normal(size=s), rng.uniform(0.5, 3.0, s), rng.uniform(0.2, 2.0, s)) for s in shapes
    ]
    return data, priors


@pytest.mark.parametrize("with_logvar", [True, False])
def test_diag_gauss_kl_gradients(with_logvar):
    rng = np.random.default_rng(4)
    data, priors = _kl_terms(rng)
    arrs = [a for pair in data for a in pair]  # mu0, lv0, mu1, lv1

    def node(arrs, grad=False):
        ts = [Tensor(a, requires_grad=grad) for a in arrs]
        terms = [
            (ts[2 * i], ts[2 * i + 1] if with_logvar else None, m, prec, 1.0 / v)
            for i, (m, prec, v) in enumerate(priors)
        ]
        return ad.diag_gauss_kl(terms, const=1.5), ts

    out, ts = node(arrs, grad=True)
    ad.backward(out)

    def scalar(a):
        return float(node(a)[0].data)

    for i, t in enumerate(ts):
        if i % 2 and not with_logvar:
            assert t.grad is None
            continue
        assert_close(t.grad, numgrad(scalar, arrs, i))


@pytest.mark.parametrize("with_logvar", [True, False])
def test_diag_gauss_kl_scale_bit_equal_to_mul(with_logvar):
    # the node's own scale against a mul by a constant after it, bitwise in
    # the value and the gradients, under a non-unit incoming gradient
    data, priors = _kl_terms(np.random.default_rng(16))
    outs, grads = [], []
    for folded in (False, True):
        ts = [Tensor(a, requires_grad=True) for pair in data for a in pair]
        terms = [
            (ts[2 * i], ts[2 * i + 1] if with_logvar else None, m, prec, 1.0 / v)
            for i, (m, prec, v) in enumerate(priors)
        ]
        if folded:
            out = ad.diag_gauss_kl(terms, 1.5, scale=0.37)
        else:
            out = ad.mul(ad.diag_gauss_kl(terms, 1.5), Tensor(np.full((), 0.37)))
        ad.backward(ad.mul(out, Tensor(np.full((), 3.7))))
        outs.append(out.data.tobytes())
        grads.append([None if t.grad is None else t.grad.tobytes() for t in ts])
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


def test_diag_gauss_kl_matches_kl_lambda_tilde():
    from gvcl.gaussians import DiagGaussian
    from oracles import ClippedPrecisionPrior, kl_lambda_tilde

    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        q = DiagGaussian(rng.normal(size=n), rng.uniform(0.1, 2.0, n))
        base = DiagGaussian(rng.normal(size=n), rng.uniform(0.1, 2.0, n))
        prior = ClippedPrecisionPrior(base, np.full(n, 1.5), float(rng.uniform(1.0, 50.0)))
        prec = prior.effective_precision()
        k = n // 2  # two tensors, to cover the sum over terms
        terms = [
            (Tensor(q.mu[s]), Tensor(np.log(q.var[s])), base.mu[s], prec[s], 1.0 / base.var[s])
            for s in (slice(0, k), slice(k, n))
        ]
        const = float(np.sum(np.log(base.var)) - n)
        got = float(ad.diag_gauss_kl(terms, const).data)
        assert got == pytest.approx(kl_lambda_tilde(q, prior), rel=1e-12, abs=1e-12)


def test_sigmoid_cross_entropy_closed_form_and_gradient():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(7, 1)) * 6
    y = rng.integers(0, 2, size=7)
    p = 1.0 / (1.0 + np.exp(-z[:, 0]))
    losses = ad.sigmoid_cross_entropy(Tensor(z), y).data
    assert np.allclose(losses, -(y * np.log(p) + (1 - y) * np.log(1 - p)), atol=1e-12)

    zt = Tensor(z, requires_grad=True)
    ad.backward(ad.tmean(ad.sigmoid_cross_entropy(zt, y)))

    def scalar(arrs):
        return float(ad.sigmoid_cross_entropy(Tensor(arrs[0]), y).data.mean())

    assert_close(zt.grad, numgrad(scalar, [z.copy()], 0))
    with pytest.raises(ShapeError):
        ad.sigmoid_cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(3))
    with pytest.raises(ShapeError):
        ad.sigmoid_cross_entropy(Tensor(np.zeros((3, 1))), np.zeros(2))


def test_constant_parent_gradient_not_computed():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 3)))  # data: a constant
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    out = ad.dense(x, w, Tensor(np.zeros(2)), relu=False)
    gx, gw, gb = out._backward(np.ones(out.shape))
    assert gx is None and gb is None and np.array_equal(gw, x.data.T @ np.ones((4, 2)))


# -- fused dense layer, no_grad and backward order ------------------------------


def scale_shift(x, gamma, shift):
    """Reference FiLM op x * gamma + shift on (N, F) input, as one node."""
    xd, gd = x.data, gamma.data[None, :]

    def back(g):
        return (
            g * gd if x.requires_grad else None,
            (g * xd).sum(axis=0) if gamma.requires_grad else None,
            g.sum(axis=0) if shift.requires_grad else None,
        )

    return Tensor._result("scale_shift", xd * gd + shift.data[None, :], (x, gamma, shift), back)


def _dense_chain(x, w, b, gamma, shift, relu):
    h = oracles.add_bias(oracles.matmul(x, w), b)
    if gamma is not None:
        h = scale_shift(h, gamma, shift)
    return oracles.relu(h) if relu else h


def _dense_arrays(seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(6, 4)), rng.normal(size=(4, 5)), rng.normal(size=5),
            rng.uniform(0.5, 1.5, 5), rng.normal(size=5)]


@pytest.mark.parametrize("film", [True, False])
@pytest.mark.parametrize("relu", [True, False])
def test_dense_gradients(film, relu):
    arrs = _dense_arrays(8)
    weights = np.random.default_rng(9).normal(size=(6, 5))

    def forward(arrs, grad=False):
        ts = [Tensor(a, requires_grad=grad) for a in arrs]
        gamma, shift = (ts[3], ts[4]) if film else (None, None)
        return ad.dense(ts[0], ts[1], ts[2], gamma, shift, relu=relu), ts

    out, ts = forward(arrs, grad=True)
    ad.backward(tsum(ad.mul(out, Tensor(weights))))

    def scalar(a):
        return float((forward(a)[0].data * weights).sum())

    for i, t in enumerate(ts):
        if i >= 3 and not film:
            assert t.grad is None
            continue
        assert_close(t.grad, numgrad(scalar, arrs, i))


@pytest.mark.parametrize("film", [True, False])
@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("trainable", [range(5), range(1, 5), range(3, 5)])
def test_dense_bit_equal_to_op_chain(film, relu, trainable):
    # trainable: all inputs, all but the data, or the FiLM params alone
    arrs = _dense_arrays(10)
    weights = Tensor(np.random.default_rng(11).normal(size=(6, 5)))
    outs, grads = [], []
    for layer in (_dense_chain, ad.dense):
        ts = [Tensor(a, requires_grad=i in trainable) for i, a in enumerate(arrs)]
        gamma, shift = (ts[3], ts[4]) if film else (None, None)
        out = layer(ts[0], ts[1], ts[2], gamma, shift, relu)
        ad.backward(tsum(ad.mul(out, weights)))
        outs.append(out.data.tobytes())
        grads.append([None if t.grad is None else t.grad.tobytes() for t in ts])
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


def test_dense_non_finite_raises():
    x, w, b, gamma, shift = (Tensor(a) for a in _dense_arrays(12))
    x_inf = Tensor(np.where(np.arange(24).reshape(6, 4) == 5, np.inf, x.data))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            ad.dense(x_inf, w, b, gamma, shift)
        with pytest.raises(NonFiniteError):  # the matmul overflows
            ad.dense(Tensor(x.data * 1e300), Tensor(w.data * 1e300), b)
        with pytest.raises(NonFiniteError):  # the FiLM scale overflows
            ad.dense(Tensor(x.data * 1e200), Tensor(w.data * 1e100), b,
                     Tensor(np.full(5, 1e300)), shift, relu=False)
    with pytest.raises(ShapeError):
        ad.dense(x, Tensor(np.zeros((5, 5))), b)
    with pytest.raises(ShapeError):
        ad.dense(x, w, b, Tensor(np.ones(4)), shift)
    lv, b_lv = Tensor(np.zeros((4, 5))), Tensor(np.zeros(5))
    with pytest.raises(ShapeError):  # weight noise of another shape
        ad.dense(x, w, b, draw=(lv, np.zeros(2), b_lv, np.zeros(5)))
    with pytest.raises(ShapeError):  # a bias log-variance of another shape
        ad.dense(x, w, b, draw=(lv, np.zeros((4, 5)), Tensor(np.zeros(4)), np.zeros(5)))


def test_no_grad_records_no_graph_and_restores():
    a = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ad.mul(a, a)
    assert not out.requires_grad and out._parents == () and out._backward is None
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside no_grad")
    out = ad.mul(a, a)
    assert out.requires_grad and len(out._parents) == 2


def test_node_with_three_consumers_accumulates():
    xd = np.array([0.5, -1.0, 2.0])
    c = np.array([3.0, 1.0, -2.0])
    x = Tensor(xd, requires_grad=True)
    h = oracles.scale(x, 2.0)  # consumed three times below, once as both factors
    loss = ad.add(ad.add(tsum(h), tsum(ad.mul(h, h))), tsum(ad.mul(h, Tensor(c))))
    ad.backward(loss)
    assert np.allclose(x.grad, 2.0 * (1.0 + 2.0 * (2.0 * xd) + c), rtol=0, atol=1e-12)


@pytest.mark.parametrize("film", [True, False])
def test_capture_rows_keeps_the_rows_of_the_weight_gradient(film):
    # a watched weight gets no gradient; its rows rebuild x.T @ g exactly,
    # and x, the bias and FiLM get the same gradients as without capture
    arrs = _dense_arrays(13)
    weights = Tensor(np.random.default_rng(14).normal(size=(6, 5)))
    grads = []
    for watch in (False, True):
        ts = [Tensor(a, requires_grad=True) for a in arrs]
        gamma, shift = (ts[3], ts[4]) if film else (None, None)
        with ad.capture_rows([ts[1]] if watch else []) as rows:
            ad.backward(tsum(ad.mul(ad.dense(ts[0], ts[1], ts[2], gamma, shift), weights)))
        grads.append([t.grad for t in ts])
    plain, watched = grads
    assert watched[1] is None
    [(x, g)] = rows[ts[1]]
    assert np.array_equal(x.T @ g, plain[1])
    for i in (0, 2, 3, 4):
        assert (plain[i] is None and watched[i] is None) or np.array_equal(plain[i], watched[i])
    assert ad._captured is None
