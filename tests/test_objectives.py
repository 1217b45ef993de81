import inspect

import numpy as np
import pytest

import oracles
from gvcl import autodiff as ad
from gvcl.autodiff import ShapeError
from gvcl import objectives as obj
from gvcl import toys
from gvcl.data import gen_toy_clusters
from gvcl.gaussians import DiagGaussian
from gvcl.nets import Architecture, init_net, split_flat
from gvcl.objectives import (
    GVCLConfig,
    beta_elbo_loss,
    curvature_probe,
    NetPrior,
    ewc_loss,
    ewc_next_prior,
    fisher_diag,
    flat_shared_mu,
    initial_prior,
    posterior_to_prior,
    shared_kl_node,
)


def tiny_net(seed=0, hidden=(5,)):
    arch = Architecture.mlp(input_dim=3, hidden=hidden)
    net = init_net(arch, seed)
    net.add_task("a", 3, np.random.default_rng(seed + 1))
    return net


def batch(seed=1, n=8, classes=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)), rng.integers(0, classes, size=n)


def test_config_validation():
    with pytest.raises(ValueError):
        GVCLConfig(beta=0.0)
    with pytest.raises(ValueError):
        GVCLConfig(mc_samples=0)
    with pytest.warns(UserWarning):
        GVCLConfig(lam=0.5)


def test_loss_with_self_prior_equals_nll():
    # when the prior equals the current posterior, the KL term is exactly 0
    net = tiny_net()
    rng = np.random.default_rng(2)
    for layer in net.shared:
        layer.weight_mu.data = rng.normal(size=layer.weight_mu.shape)
        layer.weight_logvar.data = rng.uniform(-3, 0, layer.weight_logvar.shape)
    prior = posterior_to_prior(net, 1.0, lam=1.0)
    x, y = batch()
    cfg = GVCLConfig(beta=7.0)
    loss = beta_elbo_loss(net, "a", x, y, prior, cfg, n_task=8, rng=np.random.default_rng(3))
    noise = net.sample_noise("a", np.random.default_rng(3))  # the draw the loss took
    nll = obj.nll_node(net, "a", x, y, noise)
    assert float(loss.data) == pytest.approx(float(nll.data), abs=1e-10)


def test_clipping_at_exact_zero():
    # posterior variance above the initial prior variance contributes no
    # extra precision: clip is at exactly zero, not epsilon
    prec = obj._clipped_prec(np.array([2.0, 1.0, 0.5]), 1.0, lam=10.0)
    assert np.array_equal(prec, [1.0, 1.0, 11.0])


def test_kl_gradient_wrt_film_params_is_zero():
    net = tiny_net()
    node = shared_kl_node(net, initial_prior(net, 1.0))
    ad.backward(node)
    for fp in net.film["a"]:
        assert fp.gamma.grad is None
        assert fp.shift.grad is None
    head = net.heads["a"]
    assert head.weight_mu.grad is None
    assert head.weight_logvar.grad is None
    # but shared means and logvars do get gradients
    assert net.shared[0].weight_mu.grad is not None
    assert net.shared[0].weight_logvar.grad is not None


def test_beta_scales_kl_term_linearly():
    net = tiny_net(seed=3)
    prior = initial_prior(net, 1.0)
    x, y = batch(seed=4)
    vals = {}
    for beta in (1.0, 2.0):
        loss = beta_elbo_loss(net, "a", x, y, prior, GVCLConfig(beta=beta), 8,
                              rng=np.random.default_rng(5))
        vals[beta] = float(loss.data)
    noise = net.sample_noise("a", np.random.default_rng(5))  # the draw each loss took
    nll = float(obj.nll_node(net, "a", x, y, noise).data)
    kl = float(shared_kl_node(net, prior).data)
    assert vals[1.0] == pytest.approx(nll + kl / 8, rel=1e-12)
    assert vals[2.0] - vals[1.0] == pytest.approx(kl / 8, rel=1e-9)


def test_clipped_prior_kl_through_a_whole_net_matches_oracle():
    # the lam-tilde prior over a 12-8-6 MLP, held flat, against the
    # paper's formula on the flattened Gaussians, value and gradients
    from oracles import ClippedPrecisionPrior, kl_lambda_tilde

    net = init_net(Architecture.mlp(input_dim=12, hidden=(8, 6)), 0)
    net.add_task("a", 3, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for p in net.shared_logvars():
        p.data = rng.uniform(-3.0, 0.5, p.shape)  # some variances above prior0_var
    prior = posterior_to_prior(net, 1.0, lam=50)
    for mu, lv in zip(net.shared_means(), net.shared_logvars()):
        mu.data = mu.data + rng.normal(size=mu.shape)
        lv.data = lv.data + rng.choice([-1.0, 1.0], lv.shape) * rng.uniform(0.2, 1.0, lv.shape)
    node = shared_kl_node(net, prior)
    ad.backward(node)

    def flat(tensors, attr="data"):
        return np.concatenate([getattr(t, attr).ravel() for t in tensors])

    mu, logvar = flat(net.shared_means()), flat(net.shared_logvars())
    base = DiagGaussian(prior.mu, prior.var)
    clipped = ClippedPrecisionPrior(base, np.ones(mu.size), 50)
    want = kl_lambda_tilde(DiagGaussian(mu, np.exp(logvar)), clipped)
    assert float(node.data) == pytest.approx(want, rel=1e-12)
    prec = clipped.effective_precision()
    assert np.any(prec > 1.0) and np.any(prec == 1.0)  # both sides of the clip
    np.testing.assert_allclose(flat(net.shared_means(), "grad"), prec * (mu - base.mu),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(flat(net.shared_logvars(), "grad"),
                               (np.exp(logvar) / base.var - 1.0) / 2, rtol=1e-12, atol=0)


def test_prior_of_another_size_raises():
    # the KL's shape check runs where NetPrior.views splits the prior
    net = tiny_net(hidden=(5,))
    other = tiny_net(hidden=(4,))
    for prior in (initial_prior(other, 1.0), posterior_to_prior(other, 1.0, lam=2.0)):
        with pytest.raises(ShapeError):
            shared_kl_node(net, prior)
    means = net.shared_means()
    n = sum(p.size for p in means)
    with pytest.raises(ShapeError):  # a precision of another size
        NetPrior(np.zeros(n), np.ones(n - 1), np.ones(n)).views(means)
    with pytest.raises(ShapeError):  # a variance of another size
        NetPrior(np.zeros(n), np.ones(n), np.ones(n + 1)).views(means)


def test_empty_batch_raises():
    net = tiny_net()
    with pytest.raises(ValueError):
        beta_elbo_loss(net, "a", np.zeros((0, 3)), np.zeros(0, dtype=int),
                       initial_prior(net, 1.0), GVCLConfig(), 8, np.random.default_rng(0))


# -- EWC --------------------------------------------------------------------


def test_fisher_nonnegative_and_scales_with_n():
    net = tiny_net(seed=5)
    x, y = batch(seed=6, n=6)
    f1 = fisher_diag(net, "a", x, y)
    assert np.all(f1 >= 0) and f1.max() > 0
    f2 = fisher_diag(net, "a", np.concatenate([x, x]), np.concatenate([y, y]))
    # duplicating the dataset doubles the dataset-scale Fisher
    assert np.allclose(f2, 2 * f1, rtol=1e-10)


def test_fisher_validation():
    net = tiny_net()
    with pytest.raises(ValueError):
        fisher_diag(net, "a", np.zeros((0, 3)), np.zeros(0, dtype=int))
    x, y = batch()
    for mode in ("bogus", "model"):  # only the empirical Fisher is computed
        with pytest.raises(ValueError, match="fisher mode"):
            fisher_diag(net, "a", x, y, mode=mode)


def test_fisher_max_samples_subsets():
    net = tiny_net(seed=7)
    x, y = batch(seed=8, n=10)
    f = fisher_diag(net, "a", x, y, max_samples=4, rng=np.random.default_rng(0))
    assert f.shape == flat_shared_mu(net).shape
    assert np.all(f >= 0)


def concat_fisher(net, task, x, y, rng=None, max_samples=None):
    """The per-example Fisher loop that fisher_diag must reproduce: the whole
    float array up front, each example's shared-mean gradients concatenated
    (zeros where missing) and squared into the total."""
    x, y = np.asarray(x), np.asarray(y)
    n_total = x.shape[0]
    rng = np.random.default_rng(0) if rng is None else rng
    idx = np.arange(n_total)
    if max_samples is not None and max_samples < n_total:
        idx = rng.choice(n_total, max_samples, replace=False)
    params = [p for l in net.shared for p in (l.weight_mu, l.bias_mu)]
    acc = np.zeros(sum(p.size for p in params))
    for i in idx:
        xi, yi = x[i : i + 1], y[i : i + 1]
        for p in params:
            p.grad = None
        ad.backward(obj.nll_node(net, task, xi, yi, noise=None))
        g = np.concatenate([
            np.r_[
                (l.weight_mu.grad if l.weight_mu.grad is not None else np.zeros(l.weight_mu.shape)).ravel(),
                (l.bias_mu.grad if l.bias_mu.grad is not None else np.zeros(l.bias_mu.shape)).ravel(),
            ]
            for l in net.shared
        ])
        acc += g * g
    for p in params:
        p.grad = None
    return acc / len(idx) * n_total


def assert_fisher_matches(net, got, want):
    """Bias entries and the zero pattern exactly; weight entries to 1e-12
    relative, since one product per layer sums the examples in another
    order than the loop."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got == 0, want == 0)
    params = net.shared_means()
    for i, (g, w) in enumerate(zip(split_flat(got, params), split_flat(want, params))):
        if i % 2:  # w0, b0, w1, b1, ...
            assert np.array_equal(g, w)
        else:
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


FISHER_NETS = {
    # name: (architecture, FiLM enabled, classes, input shape)
    "mlp_film": (Architecture.mlp(input_dim=12, hidden=(8,)), True, 2, (12,)),
    "mlp_plain": (Architecture.mlp(input_dim=12, hidden=(8, 6)), False, 3, (12,)),
    "logistic": (Architecture.logistic(), False, 2, (2,)),
}


def fisher_net(name, seed=0):
    arch, film, classes, shape = FISHER_NETS[name]
    net = init_net(arch, seed)
    net.film_enabled = film
    rng = np.random.default_rng(seed + 1)
    net.add_task("a", classes, rng)
    for layer in net.shared:  # nonzero biases, so no ReLU unit is trivially dead
        layer.bias_mu.data = 0.1 * rng.normal(size=layer.bias_mu.shape)
    for fp in net.film["a"]:  # a FiLM scale the Fisher must carry through
        fp.gamma.data = rng.uniform(0.5, 1.5, size=fp.gamma.shape)
        fp.shift.data = 0.1 * rng.normal(size=fp.shift.shape)
    x = rng.normal(size=(14, *shape))
    return net, x, rng.integers(0, classes, size=14)


@pytest.mark.parametrize("name", sorted(FISHER_NETS))
@pytest.mark.parametrize("mode", ["empirical"])
@pytest.mark.parametrize("max_samples", [None, 5])
def test_fisher_bit_equal_to_concatenate_loop(name, mode, max_samples):
    net, x, y = fisher_net(name)
    got = fisher_diag(net, "a", x, y, mode=mode, rng=np.random.default_rng(3),
                      max_samples=max_samples)
    want = concat_fisher(net, "a", x, y, rng=np.random.default_rng(3),
                         max_samples=max_samples)
    assert_fisher_matches(net, got, want)
    assert got.max() > 0


def test_fisher_scales_only_the_drawn_rows_of_a_dataset():
    from gvcl.data import Dataset

    class SpyDataset(Dataset):
        read = []

        def rows(self, idx):
            self.read.append(np.array(idx))
            return super().rows(idx)

        @property
        def inputs(self):
            raise AssertionError("fisher_diag read the whole float array")

    net, _, y = fisher_net("mlp_film")
    pixels = np.random.default_rng(4).integers(0, 256, size=(len(y), 12), dtype=np.uint8)
    ds = SpyDataset(pixels, y)
    got = fisher_diag(net, "a", ds, y, rng=np.random.default_rng(5), max_samples=6)
    drawn = np.random.default_rng(5).choice(len(y), 6, replace=False)
    assert len(ds.read) == 1 and np.array_equal(ds.read[0], drawn)
    want = concat_fisher(net, "a", pixels / 255.0, y, rng=np.random.default_rng(5), max_samples=6)
    assert_fisher_matches(net, got, want)


def test_fisher_leaves_no_gradients():
    # FiLM scales and shifts and the head get gradients in every backward
    # pass too; none may outlive the call
    net, x, y = fisher_net("mlp_film")
    fisher_diag(net, "a", x, y, max_samples=4)
    assert all(t.grad is None for t in net.named_params().values())


@pytest.mark.parametrize("mode", ["empirical"])
@pytest.mark.parametrize("max_samples", [None, 5, 100])
def test_fisher_makes_one_backward_pass_per_drawn_example(monkeypatch, mode, max_samples):
    # the benchmark counts autodiff.backward calls inside fisher_diag and
    # expects min(max_samples, n) of them
    net, x, y = fisher_net("mlp_film")
    calls = []
    backward = ad.backward

    def counted(loss):
        calls.append(loss)
        return backward(loss)

    monkeypatch.setattr(ad, "backward", counted)
    fisher_diag(net, "a", x, y, mode=mode, max_samples=max_samples)
    assert len(calls) == min(max_samples or len(x), len(x))


def test_fisher_capture_leaves_no_state():
    # after fisher_diag returns, and after it raises mid-loop, dense forms
    # weight gradients again and no gradient is left on the net
    def weight_grads(net, x, y):
        ad.backward(obj.nll_node(net, "a", x, y, noise=None))
        grads = [layer.weight_mu.grad for layer in net.shared]
        for t in net.named_params().values():
            t.grad = None
        return grads

    net, x, y = fisher_net("mlp_film")
    want = weight_grads(fisher_net("mlp_film")[0], x, y)
    fisher_diag(net, "a", x, y, max_samples=4)
    assert all(np.array_equal(g, w) for g, w in zip(weight_grads(net, x, y), want))
    bad = x.copy()
    bad[3] = np.nan
    with pytest.raises(ad.NonFiniteError):
        fisher_diag(net, "a", bad, y)
    assert all(t.grad is None for t in net.named_params().values())
    assert all(np.array_equal(g, w) for g, w in zip(weight_grads(net, x, y), want))


def anchored_prior(net, prec=0.0, shift=0.0):
    """A variance-free prior at the net's shared means (plus `shift`)."""
    mu = flat_shared_mu(net)
    return NetPrior(mu + shift, np.full(mu.size, prec))


def test_ewc_penalty_precision_follows_replace():
    net = tiny_net(seed=9)
    prior = anchored_prior(net)
    assert np.array_equal(prior.prec, np.zeros(prior.mu.size))
    fisher, theta = np.full(prior.mu.size, 3.0), prior.mu + 1.0
    new = ewc_next_prior(prior, fisher, theta, lam=2.0)
    assert np.array_equal(new.prec, np.full(prior.mu.size, 6.0))
    assert np.array_equal(new.mu, theta) and new.mu is not theta
    # gamma decays the old precision, lam scales only the new Fisher
    newer = ewc_next_prior(new, fisher, theta, lam=0.5, gamma=0.25)
    assert np.array_equal(newer.prec, np.full(prior.mu.size, 3.0))


def test_ewc_penalty_zero_at_anchor_and_quadratic():
    net = tiny_net(seed=9)
    prior = anchored_prior(net, prec=2.0)
    assert float(shared_kl_node(net, prior).data) == pytest.approx(0.0, abs=1e-15)
    net.shared[0].weight_mu.data[0, 0] += 3.0
    # (prec/2) * delta^2 = (2/2) * 9
    assert float(shared_kl_node(net, prior).data) == pytest.approx(9.0, abs=1e-12)


def test_ewc_loss_n_task_divides_penalty():
    net = tiny_net(seed=10)
    x, y = batch(seed=11)
    prior = anchored_prior(net, prec=1.0, shift=1.0)
    nll = float(obj.nll_node(net, "a", x, y, None).data)
    pen = float(shared_kl_node(net, prior).data)
    full = float(ewc_loss(net, "a", x, y, prior, n_task=1).data)
    scaled = float(ewc_loss(net, "a", x, y, prior, n_task=10).data)
    assert full == pytest.approx(nll + pen, rel=1e-12)
    assert scaled == pytest.approx(nll + pen / 10, rel=1e-12)


def test_ewc_loss_rejects_mismatched_state():
    net = tiny_net(seed=12)
    x, y = batch()
    with pytest.raises(ValueError):
        ewc_loss(net, "a", x, y, NetPrior(flat_shared_mu(net), np.zeros(3)), 8)
    with pytest.raises(ValueError):
        ewc_loss(net, "a", x, y, NetPrior(np.zeros(3), np.zeros(flat_shared_mu(net).size)), 8)


def test_ewc_update_gamma_decay_and_clip_warning():
    prior = NetPrior(np.zeros(2), np.array([4.0, 2.0]))
    new = ewc_next_prior(prior, np.array([1.0, 1.0]), np.array([1.0, -1.0]), gamma=0.5)
    assert np.allclose(new.prec, [3.0, 2.0])
    assert np.allclose(new.mu, [1.0, -1.0])
    assert new.var is None
    with pytest.warns(UserWarning):
        clipped = ewc_next_prior(prior, np.array([-1.0, 1.0]), np.zeros(2), gamma=0.5)
    assert np.allclose(clipped.prec, [2.0, 2.0])
    with pytest.raises(ValueError):
        ewc_next_prior(prior, np.ones(3), np.zeros(2))
    with pytest.raises(ValueError):
        ewc_next_prior(prior, np.ones(2), np.zeros(3))


def test_ewc_reference_solution_zeroes_each_tasks_gradient():
    # each task's objective in plain numpy, the mean NLL plus the penalty
    # over n: from a unit prior at 0, then anchored at the task-1 solution
    # with precision 1 + its empirical Fisher. A fit that stops short, such
    # as 4000 constant-rate Adam epochs, leaves gradients of 1e-8 to 1e-6
    tasks = gen_toy_clusters(1234)
    anchor, prec = np.zeros(3), np.ones(3)
    for k, spec in enumerate(tasks, 1):
        theta = toys.ewc_reference_solution(tasks[:k])
        x, y = np.c_[spec.train.inputs, np.ones(len(spec.train))], spec.train.labels
        resid = 1.0 / (1.0 + np.exp(-(x @ theta))) - y
        assert np.max(np.abs(x.T @ resid + prec * (theta - anchor))) / len(y) < 1e-10
        anchor, prec = theta, prec + resid**2 @ x**2


# -- curvature probe ----------------------------------------------------------


def test_conjugate_precision_via_linear_probe():
    # for the identity link the model is conjugate: the exact posterior
    # precision under tempering is N / (beta * sigma_n^2) + 1, so the probe's
    # de-tempered value must equal sigma_n^2 / N independent of beta
    for beta in (0.25, 1.0, 4.0):
        probe = curvature_probe(beta, "linear", seed=0)
        prec = 1.0 / (beta * probe) + 1.0
        expected = 1000 / (beta * 30.0) + 1.0
        assert prec == pytest.approx(expected, rel=1e-3)


def test_curvature_probe_finds_the_global_optimum(monkeypatch):
    # f2 has local optima: at beta 1, seed 1, one has a negative ELBO of
    # 25.930, where this grid reaches 22.053
    solves, newton = [], obj.newton_minimize

    def recording(fun, x):
        z, value = newton(fun, x)
        solves.append((fun, value))
        return z, value

    monkeypatch.setattr(obj, "newton_minimize", recording)
    curvature_probe(1.0, "f2", 1)
    [(fun, value)] = solves
    mu = np.linspace(-1.0, 1.0, 401)  # holds mu = 0, the cusp of f2
    grid = [fun(np.stack([mu, np.full_like(mu, s)]))[0].min() for s in np.linspace(-40, 10, 1001)]
    assert value <= min(grid)


def test_curvature_probe_unknown_toy():
    with pytest.raises(ValueError):
        curvature_probe(1.0, "nope", 0)


def test_binary_nll_matches_closed_form():
    # a 1-input logistic net with unit weight and zero bias has logits z = x
    net = init_net(Architecture.logistic(input_dim=1), 0)
    net.add_task("a", 2, np.random.default_rng(1))
    net.shared[0].weight_mu.data = np.ones((1, 1))
    z = np.array([[2.0], [-1.0], [0.5]])
    y = np.array([1, 0, 1])
    out = float(obj.nll_node(net, "a", z, y, noise=None).data)
    p = 1.0 / (1.0 + np.exp(-z[:, 0]))
    ref = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert out == pytest.approx(ref, abs=1e-12)


def test_fisher_default_rng_draws_the_subsample_of_default_rng_0(monkeypatch):
    # rng=None means one default_rng(0) per call, and it draws the subsample
    net = tiny_net(seed=13)
    x, y = batch(seed=14, n=12)
    rows = []
    nll = obj.nll_node

    def spy(net, task, xi, yi, noise):
        rows.append(xi.copy())
        return nll(net, task, xi, yi, noise)

    monkeypatch.setattr(obj, "nll_node", spy)
    f_default = fisher_diag(net, "a", x, y, max_samples=10)
    rows_default = np.concatenate(rows)
    rows.clear()
    f_seeded = fisher_diag(net, "a", x, y, max_samples=10, rng=np.random.default_rng(0))
    assert np.array_equal(f_default, f_seeded)
    assert np.array_equal(rows_default, np.concatenate(rows))
    want = x[np.random.default_rng(0).choice(len(x), 10, replace=False)]
    assert np.array_equal(rows_default, want)


def _graph_ops(loss):
    """The op names of the non-leaf graph nodes reachable from a loss, one per node."""
    seen, stack, ops = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._op != "leaf":
            ops.append(node._op)
        stack.extend(node._parents)
    return ops


@pytest.mark.parametrize("arch,limit", [
    # criterion 7: 12-8 MLP with FiLM and a task head
    (Architecture.mlp(input_dim=12, hidden=(8,)), 6),
    # criterion 4: the 2-D logistic net
    (Architecture.logistic(), 5),
    # the Split-MNIST 784-256-256 FiLM MLP
    (Architecture.mlp(), 7),
])
def test_elbo_graph_stays_fused(arch, limit):
    # each sampled layer with its draw, the scaled KL and the NLL are one
    # node each, then tmean and the final add; a refactor that splits them
    # into separate draw, elementwise or scaling nodes again fails here
    net = init_net(arch, 0)
    rng = np.random.default_rng(1)
    net.add_task("a", 3, rng)
    prior = posterior_to_prior(net, 1.0, lam=2.0)
    n_in = arch.layers[0][0]
    x = rng.normal(size=(5, n_in))
    y = rng.integers(0, 3 if arch.head_in else 2, size=5)
    loss = beta_elbo_loss(net, "a", x, y, prior, GVCLConfig(beta=0.5), 5, rng)
    assert len(_graph_ops(loss)) <= limit


def test_runs_build_every_autodiff_op():
    # the graphs of a gvcl_film ELBO with two MC samples, a logistic-net
    # ELBO (the sigmoid loss) and an EWC loss use every public op of
    # autodiff: an op that only tests call has no place there
    rng = np.random.default_rng(2)
    ops = set()
    for arch, cfg in ((Architecture.mlp(input_dim=3, hidden=(4,)), GVCLConfig(mc_samples=2)),
                      (Architecture.logistic(), GVCLConfig())):
        net = init_net(arch, 0)
        net.add_task("a", 3 if arch.head_in else 2, rng)
        x = rng.normal(size=(5, arch.layers[0][0]))
        y = rng.integers(0, 2, size=5)
        ops.update(_graph_ops(beta_elbo_loss(net, "a", x, y, initial_prior(net), cfg, 5, rng)))
    n = flat_shared_mu(net).size
    ops.update(_graph_ops(ewc_loss(net, "a", x, y, NetPrior(np.zeros(n), np.ones(n)), 5)))
    public = {name for name, f in inspect.getmembers(ad, inspect.isfunction)
              if f.__module__ == ad.__name__ and not name.startswith("_") and name != "backward"}
    assert ops == {"mean" if name == "tmean" else name for name in public}


def _elbo_chain(net, task, x, y, prior, cfg, n_task, rng):
    """beta_elbo_loss built from the oracle chain: separate draw nodes per
    layer, and a mul by a constant for the KL's beta / N."""
    nll = None
    for _ in range(cfg.mc_samples):
        noise = iter(net.sample_noise(task, rng))
        h = ad.Tensor(x)
        layers = [(l, fp.gamma, fp.shift, True) for l, fp in zip(net.shared, net.film[task])]
        for layer, gamma, shift, relu in layers + [(net.heads[task], None, None, False)]:
            h = oracles.sampled_dense(h, layer.weight_mu, layer.weight_logvar, next(noise),
                                      layer.bias_mu, layer.bias_logvar, next(noise),
                                      gamma, shift, relu)
        term = ad.tmean(ad.softmax_cross_entropy(h, y))
        nll = term if nll is None else ad.add(nll, term)
    nll = ad.mul(nll, ad.Tensor(np.full((), 1.0 / cfg.mc_samples)))
    kl = ad.mul(shared_kl_node(net, prior), ad.Tensor(np.full((), cfg.beta / n_task)))
    return ad.add(nll, kl)


def test_elbo_bit_equal_to_op_chain_with_two_samples():
    # two MC samples put three gradients on each shared leaf (two draws and
    # the KL): the fused graph must add them in the chain's order, bitwise
    net = tiny_net(seed=5, hidden=(5, 4))
    rng = np.random.default_rng(6)
    for p in net.shared_logvars():
        p.data = rng.uniform(-3.0, 0.5, p.shape)
    prior = posterior_to_prior(net, 1.0, lam=3.0)
    for p in net.shared_means() + net.shared_logvars():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    x, y = batch(seed=7)
    cfg = GVCLConfig(beta=0.3, mc_samples=2)
    params = net.trainable_params("a")
    runs = []
    for loss_fn in (_elbo_chain, beta_elbo_loss):
        for p in params:
            p.grad = None
        loss = loss_fn(net, "a", x, y, prior, cfg, 11, np.random.default_rng(8))
        ad.backward(loss)
        runs.append([loss.data.tobytes()] + [p.grad.tobytes() for p in params])
    assert runs[0] == runs[1]
