import dataclasses

import numpy as np
import pytest

from gvcl import autodiff as ad
from gvcl import objectives as obj
from gvcl.gaussians import DiagGaussian
from gvcl.nets import Architecture, init_net
from gvcl.objectives import (
    GVCLConfig,
    beta_elbo_loss,
    curvature_probe,
    ewc_loss,
    ewc_update_state,
    fisher_diag,
    flat_shared_mu,
    fresh_ewc_state,
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
    loss = beta_elbo_loss(net, "a", x, y, prior, cfg, n_task=8, rng=None)
    nll = obj.nll_node(net, "a", x, y, noise=None)
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
        loss = beta_elbo_loss(net, "a", x, y, prior, GVCLConfig(beta=beta), 8, rng=None)
        vals[beta] = float(loss.data)
    nll = float(obj.nll_node(net, "a", x, y, None).data)
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
    net = tiny_net(hidden=(5,))
    other = tiny_net(hidden=(4,))
    for prior in (initial_prior(other, 1.0), posterior_to_prior(other, 1.0, lam=2.0)):
        with pytest.raises(ValueError):
            shared_kl_node(net, prior)


def test_empty_batch_raises():
    net = tiny_net()
    with pytest.raises(ValueError):
        beta_elbo_loss(net, "a", np.zeros((0, 3)), np.zeros(0, dtype=int),
                       initial_prior(net, 1.0), GVCLConfig(), 8, None)


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
    with pytest.raises(ValueError):
        fisher_diag(net, "a", x, y, mode="bogus")


def test_fisher_max_samples_subsets():
    net = tiny_net(seed=7)
    x, y = batch(seed=8, n=10)
    f = fisher_diag(net, "a", x, y, max_samples=4, rng=np.random.default_rng(0))
    assert f.shape == flat_shared_mu(net).shape
    assert np.all(f >= 0)


def concat_fisher(net, task, x, y, mode="empirical", rng=None, max_samples=None):
    """The per-example Fisher loop that fisher_diag must reproduce bit for bit:
    the whole float array up front, each example's shared-mean gradients
    concatenated (zeros where missing) and squared into the total."""
    from gvcl.nets import predict

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
        if mode == "model":
            probs = predict(net, task, xi, mode="mean")
            yi = np.array([rng.choice(len(probs[0]), p=probs[0])])
            if net.arch.binary_logit:
                yi = yi.astype(y.dtype)
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
    x = rng.normal(size=(14, *shape))
    return net, x, rng.integers(0, classes, size=14)


@pytest.mark.parametrize("name", sorted(FISHER_NETS))
@pytest.mark.parametrize("mode", ["empirical", "model"])
@pytest.mark.parametrize("max_samples", [None, 5])
def test_fisher_bit_equal_to_concatenate_loop(name, mode, max_samples):
    net, x, y = fisher_net(name)
    got = fisher_diag(net, "a", x, y, mode=mode, rng=np.random.default_rng(3),
                      max_samples=max_samples)
    want = concat_fisher(net, "a", x, y, mode=mode, rng=np.random.default_rng(3),
                         max_samples=max_samples)
    assert got.dtype == want.dtype and np.array_equal(got, want)
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
    assert np.array_equal(got, want)


def test_fisher_leaves_no_gradients():
    # FiLM scales and shifts and the head get gradients in every backward
    # pass too; none may outlive the call
    net, x, y = fisher_net("mlp_film")
    fisher_diag(net, "a", x, y, max_samples=4)
    assert all(t.grad is None for t in net.named_params().values())


def test_ewc_penalty_precision_follows_replace():
    net = tiny_net(seed=9)
    state = fresh_ewc_state(net, lam=2.0)
    assert np.array_equal(state.prior.prec, np.zeros_like(state.fisher_acc))
    new = dataclasses.replace(state, fisher_acc=np.full_like(state.fisher_acc, 3.0))
    assert np.array_equal(new.prior.prec, np.full_like(state.fisher_acc, 6.0))
    assert np.array_equal(dataclasses.replace(new, lam=0.5).prior.prec,
                          np.full_like(state.fisher_acc, 1.5))


def test_ewc_penalty_zero_at_anchor_and_quadratic():
    net = tiny_net(seed=9)
    state = fresh_ewc_state(net, lam=2.0)
    state = dataclasses.replace(state, fisher_acc=np.ones_like(state.fisher_acc))
    assert float(shared_kl_node(net, state.prior).data) == pytest.approx(0.0, abs=1e-15)
    net.shared[0].weight_mu.data[0, 0] += 3.0
    # (lam/2) * f * delta^2 = (2/2) * 1 * 9
    assert float(shared_kl_node(net, state.prior).data) == pytest.approx(9.0, abs=1e-12)


def test_ewc_loss_n_task_divides_penalty():
    net = tiny_net(seed=10)
    x, y = batch(seed=11)
    state = fresh_ewc_state(net, lam=1.0)
    state = dataclasses.replace(
        state,
        fisher_acc=np.ones_like(state.fisher_acc),
        anchor_mu=state.anchor_mu + 1.0,
    )
    nll = float(obj.nll_node(net, "a", x, y, None).data)
    pen = float(shared_kl_node(net, state.prior).data)
    full = float(ewc_loss(net, "a", x, y, state).data)
    scaled = float(ewc_loss(net, "a", x, y, state, n_task=10).data)
    assert full == pytest.approx(nll + pen, rel=1e-12)
    assert scaled == pytest.approx(nll + pen / 10, rel=1e-12)


def test_ewc_loss_rejects_mismatched_state():
    net = tiny_net(seed=12)
    state = fresh_ewc_state(net)
    state = dataclasses.replace(state, fisher_acc=np.zeros(3))
    x, y = batch()
    with pytest.raises(ValueError):
        ewc_loss(net, "a", x, y, state)


def test_ewc_update_gamma_decay_and_clip_warning():
    state = obj.EWCState(np.array([4.0, 2.0]), np.zeros(2), lam=1.0, gamma=0.5)
    new = ewc_update_state(state, np.array([1.0, 1.0]), np.array([1.0, -1.0]))
    assert np.allclose(new.fisher_acc, [3.0, 2.0])
    assert np.allclose(new.anchor_mu, [1.0, -1.0])
    with pytest.warns(UserWarning):
        clipped = ewc_update_state(state, np.array([-1.0, 1.0]), np.zeros(2))
    assert np.allclose(clipped.fisher_acc, [2.0, 2.0])
    with pytest.raises(ValueError):
        ewc_update_state(state, np.ones(3), np.zeros(2))


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


def test_fisher_model_mode_draws_labels_from_one_generator(monkeypatch):
    # rng=None means one default_rng(0) per call: the subsample and every
    # sampled label come from the same stream, not a fresh seed per example
    net = tiny_net(seed=13)
    x, y = batch(seed=14, n=12)
    drawn = []
    nll = obj.nll_node

    def spy(net, task, xi, yi, noise):
        drawn.append(int(yi[0]))
        return nll(net, task, xi, yi, noise)

    monkeypatch.setattr(obj, "nll_node", spy)
    f_default = fisher_diag(net, "a", x, y, mode="model", max_samples=10)
    labels_default = drawn[:]
    drawn.clear()
    f_seeded = fisher_diag(net, "a", x, y, mode="model", max_samples=10,
                           rng=np.random.default_rng(0))
    assert labels_default == drawn
    assert np.array_equal(f_default, f_seeded)
    assert len(set(labels_default)) > 1


def _op_nodes(loss):
    """Non-leaf graph nodes reachable from a loss."""
    seen, stack, ops = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops += node._op != "leaf"
        stack.extend(node._parents)
    return ops


@pytest.mark.parametrize("arch,limit", [
    # criterion 7: 12-8 MLP with FiLM and a task head
    (Architecture.mlp(input_dim=12, hidden=(8,)), 11),
    # criterion 4: the 2-D logistic net
    (Architecture.logistic(), 8),
    # the Split-MNIST 784-256-256 FiLM MLP
    (Architecture.mlp(), 14),
])
def test_elbo_graph_stays_fused(arch, limit):
    # the draw, each dense layer, the KL and the binary NLL are one node
    # each; a refactor that splits them into elementwise ops again fails here
    net = init_net(arch, 0)
    rng = np.random.default_rng(1)
    net.add_task("a", 3, rng)
    prior = posterior_to_prior(net, 1.0, lam=2.0)
    n_in = arch.layers[0].dims[0]
    x = rng.normal(size=(5, n_in))
    y = rng.integers(0, 3 if arch.head_in else 2, size=5)
    loss = beta_elbo_loss(net, "a", x, y, prior, GVCLConfig(beta=0.5), 5, rng)
    assert _op_nodes(loss) <= limit
