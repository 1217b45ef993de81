import numpy as np
import pytest

from gvcl import autodiff as ad
from gvcl.autodiff import NonFiniteError, ShapeError, Tensor


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
        h = ad.add(ad.matmul(x, w), b)  # bias broadcast
        h = scale_shift(h, gamma, shift)
        h = ad.relu(h)
        h = ad.add(ad.square(h), ad.exp(ad.mul(h, Tensor(np.full((), -1.0)))))
        h = ad.log(ad.add(h, Tensor(np.ones(h.shape))))
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
    ad.backward(ad.tsum(ad.mul(a, a)))
    assert np.allclose(a.grad, [6.0])


def test_scalar_mul_broadcast():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = ad.mul(a, Tensor(np.full((), 2.0)))
    assert np.array_equal(out.data, 2 * a.data)
    ad.backward(ad.tsum(out))
    assert np.array_equal(a.grad, np.full((2, 3), 2.0))


def test_shape_errors():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.matmul(a, Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))
    with pytest.raises(ShapeError):
        ad.backward(Tensor(np.zeros(3), requires_grad=True))


def test_non_finite_forward_raises():
    with pytest.raises(NonFiniteError):
        ad.log(Tensor(np.array([-1.0])))
    with pytest.raises(NonFiniteError):
        ad.exp(Tensor(np.array([1e6])))


def test_no_grad_leaves_are_skipped():
    a = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.ones(3))  # constant
    ad.backward(ad.tsum(ad.mul(a, c)))
    assert c.grad is None
    assert np.array_equal(a.grad, np.ones(3))


# -- fused Gaussian ops --------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_reparam_gradients(seed):
    rng = np.random.default_rng(seed)
    mud, lvd, eps = rng.normal(size=(3, 4)), rng.uniform(-2, 1, (3, 4)), rng.normal(size=(3, 4))

    def scalar(arrs):
        return float(np.sum(np.square(ad.reparam(Tensor(arrs[0]), Tensor(arrs[1]), eps).data)))

    mu, lv = Tensor(mud, requires_grad=True), Tensor(lvd, requires_grad=True)
    ad.backward(ad.tsum(ad.square(ad.reparam(mu, lv, eps))))
    arrs = [mud, lvd]
    assert_close(mu.grad, numgrad(scalar, arrs, 0))
    assert_close(lv.grad, numgrad(scalar, arrs, 1))


@pytest.mark.parametrize("seed", range(3))
def test_reparam_bit_equal_to_op_chain(seed):
    rng = np.random.default_rng(seed)
    mud, lvd, eps = rng.normal(size=(5, 3)), rng.uniform(-14, 1, (5, 3)), rng.normal(size=(5, 3))
    weights = Tensor(rng.normal(size=(5, 3)))

    def chain(mu, lv):
        std = ad.exp(ad.mul(lv, Tensor(np.full((), 0.5))))
        return ad.add(mu, ad.mul(std, Tensor(eps)))

    outs, grads = [], []
    for draw in (chain, lambda mu, lv: ad.reparam(mu, lv, eps)):
        mu, lv = Tensor(mud, requires_grad=True), Tensor(lvd, requires_grad=True)
        out = draw(mu, lv)
        ad.backward(ad.tsum(ad.mul(out, weights)))
        outs.append(out.data)
        grads.append((mu.grad, lv.grad))
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


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
    mu, lv = Tensor(np.zeros(3)), Tensor(np.zeros(3))
    with pytest.raises(ShapeError):
        ad.diag_gauss_kl([(mu, lv, np.zeros(3), np.ones(2), np.ones(3))])
    with pytest.raises(ShapeError):
        ad.diag_gauss_kl([(mu, lv, np.zeros(3), np.ones(3), np.ones(()))])
    with pytest.raises(ShapeError):
        ad.reparam(mu, lv, np.zeros(2))


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
    out = ad.matmul(x, w)
    gx, gw = out._backward(np.ones(out.shape))
    assert gx is None and np.array_equal(gw, x.data.T @ np.ones((4, 2)))


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
    h = ad.add(ad.matmul(x, w), b)
    if gamma is not None:
        h = scale_shift(h, gamma, shift)
    return ad.relu(h) if relu else h


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
    ad.backward(ad.tsum(ad.mul(out, Tensor(weights))))

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
        ad.backward(ad.tsum(ad.mul(out, weights)))
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
    h = ad.mul(x, Tensor(np.full((), 2.0)))  # consumed three times below
    loss = ad.add(ad.add(ad.tsum(h), ad.tsum(ad.square(h))), ad.tsum(ad.mul(h, Tensor(c))))
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
            ad.backward(ad.tsum(ad.mul(ad.dense(ts[0], ts[1], ts[2], gamma, shift), weights)))
        grads.append([t.grad for t in ts])
    plain, watched = grads
    assert watched[1] is None
    [(x, g)] = rows[ts[1]]
    assert np.array_equal(x.T @ g, plain[1])
    for i in (0, 2, 3, 4):
        assert (plain[i] is None and watched[i] is None) or np.array_equal(plain[i], watched[i])
    assert ad._captured is None
