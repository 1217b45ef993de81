import numpy as np
import pytest

from gvcl import autodiff as ad
from gvcl.gaussians import DiagGaussian, kl_diag
from gvcl.nets import (
    Architecture,
    init_net,
    load_checkpoint,
    predict,
    prune_diagnostics,
    save_checkpoint,
)
from gvcl.objectives import initial_prior, shared_kl_node


def small_net(seed=0, film=True, hidden=(6, 5)):
    arch = Architecture.mlp(input_dim=3, hidden=hidden)
    net = init_net(arch, seed)
    net.film_enabled = film
    rng = np.random.default_rng(seed + 1)
    net.add_task("a", 4, rng)
    net.add_task("b", 3, rng)
    return net


def test_identity_film_matches_disabled_bitwise():
    net = small_net()
    x = np.random.default_rng(2).normal(size=(7, 3))
    with_film = net.forward_sample("a", x).data
    net.film_enabled = False
    without = net.forward_sample("a", x).data
    assert np.array_equal(with_film, without)


def test_scale_shift_arithmetic():
    h = ad.Tensor(np.array([[1.0, 2.0]]))
    out = ad.dense(h, ad.Tensor(np.eye(2)), ad.Tensor(np.zeros(2)),
                   ad.Tensor(np.array([2.0, 2.0])), ad.Tensor(np.array([1.0, 1.0])),
                   relu=False)
    assert np.array_equal(out.data, [[3.0, 5.0]])


def test_task_isolation_is_bitwise():
    net = small_net()
    x = np.random.default_rng(3).normal(size=(5, 3))
    before = net.forward_sample("a", x).data.copy()
    # perturb every parameter owned by task b
    for t in net.task_params("b"):
        t.data = t.data + 0.5
    after = net.forward_sample("a", x).data
    assert np.array_equal(before, after)


def test_zero_noise_equals_mean_forward():
    net = small_net()
    x = np.random.default_rng(4).normal(size=(4, 3))
    noise = [np.zeros_like(e) for e in net.sample_noise("a", np.random.default_rng(0))]
    sampled = net.forward_sample("a", x, noise=noise).data
    mean = net.forward_sample("a", x, noise=None).data
    assert np.allclose(sampled, mean, atol=1e-12)


def test_sample_noise_is_one_list_in_draw_order():
    # weight then bias per layer, the shared layers first, then the task's
    # head: the same arrays as sequential draws from the same seed
    net = small_net()
    noise = net.sample_noise("b", np.random.default_rng(3))
    rng = np.random.default_rng(3)
    shapes = [(3, 6), (6,), (6, 5), (5,), (5, 3), (3,)]
    want = [rng.standard_normal(shape) for shape in shapes]
    assert len(noise) == len(want)
    for got, w in zip(noise, want):
        assert np.array_equal(got, w)


def test_sampled_loglik_gradient_matches_finite_differences():
    net = small_net(seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 4, size=6)
    noise = net.sample_noise("a", rng)  # fixed noise draw
    params = net.trainable_params("a")
    loss = ad.tmean(ad.softmax_cross_entropy(net.forward_sample("a", x, noise=noise), y))
    ad.backward(loss)
    analytic = [None if p.grad is None else p.grad.copy() for p in params]

    def value():
        out = ad.tmean(ad.softmax_cross_entropy(net.forward_sample("a", x, noise=noise), y))
        return float(out.data)

    eps = 1e-6
    rng2 = np.random.default_rng(7)
    for p, g in zip(params, analytic):
        if g is None:
            continue
        flat_idx = rng2.integers(0, p.size, size=min(4, p.size))
        for fi in flat_idx:
            ix = np.unravel_index(fi, p.shape)
            p.data[ix] += eps
            up = value()
            p.data[ix] -= 2 * eps
            dn = value()
            p.data[ix] += eps
            num = (up - dn) / (2 * eps)
            assert num == pytest.approx(g[ix], rel=1e-4, abs=1e-7)


def test_shared_kl_additivity():
    net = small_net(seed=8)
    # move the posterior off its init so the KL is generic
    rng = np.random.default_rng(9)
    for layer in net.shared:
        layer.weight_mu.data = rng.normal(size=layer.weight_mu.shape)
        layer.weight_logvar.data = rng.uniform(-2, 0.5, layer.weight_logvar.shape)
        layer.bias_mu.data = rng.normal(size=layer.bias_mu.shape)
        layer.bias_logvar.data = rng.uniform(-2, 0.5, layer.bias_logvar.shape)
    prior = initial_prior(net, 1.0)
    node_val = float(shared_kl_node(net, prior).data)
    per_layer = sum(_kl_to_std_normal(_posterior([layer])) for layer in net.shared)
    flat = _kl_to_std_normal(_posterior(net.shared))
    assert node_val == pytest.approx(per_layer, rel=1e-12)
    assert node_val == pytest.approx(flat, rel=1e-12)


def _posterior(layers):
    """DiagGaussian over the weights and biases of `layers`, flattened in order."""
    pairs = [
        pair for l in layers
        for pair in ((l.weight_mu, l.weight_logvar), (l.bias_mu, l.bias_logvar))
    ]
    mu = np.concatenate([m.data.ravel() for m, _ in pairs])
    var = np.exp(np.concatenate([lv.data.ravel() for _, lv in pairs]))
    return DiagGaussian(mu, var)


def _kl_to_std_normal(q):
    return kl_diag(q, DiagGaussian(np.zeros(q.dim), np.ones(q.dim)))


def test_predict_rows_sum_to_one():
    net = small_net(seed=10)
    x = np.random.default_rng(11).normal(size=(9, 3))
    for mode, ns in (("mean", 1), ("sampled", 5)):
        probs = predict(net, "a", x, num_samples=ns, mode=mode, rng=np.random.default_rng(0))
        assert probs.shape == (9, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)


def test_predict_mc_average_self_consistent():
    net = small_net(seed=12)
    # widen the posterior so sampling actually matters
    for layer in net.shared:
        layer.weight_logvar.data[:] = np.log(0.05)
    x = np.random.default_rng(13).normal(size=(3, 3))
    draws = np.stack(
        [
            predict(net, "a", x, num_samples=1, rng=np.random.default_rng(s))
            for s in range(400)
        ]
    )
    big = predict(net, "a", x, num_samples=400, rng=np.random.default_rng(99))
    se = draws.std(axis=0) / np.sqrt(400)
    assert np.all(np.abs(big - draws.mean(axis=0)) <= 3 * se + 1e-3)


def test_predict_records_no_graph(monkeypatch):
    net = small_net(seed=15)
    x = np.random.default_rng(16).normal(size=(4, 3))
    logits = []
    forward = net.forward_sample

    def spy(*args, **kwargs):
        logits.append(forward(*args, **kwargs))
        return logits[-1]

    monkeypatch.setattr(net, "forward_sample", spy)
    predict(net, "a", x, num_samples=2, rng=np.random.default_rng(0))
    predict(net, "b", x, mode="mean")
    assert len(logits) == 3
    for out in logits:
        assert not out.requires_grad and out._parents == () and out._backward is None
    assert net.forward_sample("a", x)._parents  # outside predict a graph is built


def test_initial_kl_finite_positive():
    net = small_net(seed=14)
    val = float(shared_kl_node(net, initial_prior(net, 1.0)).data)
    assert np.isfinite(val) and val > 0


def test_prune_scores_zero_at_prior():
    net = small_net(seed=15)
    for layer in net.shared:
        layer.weight_mu.data[:] = 0.0
        layer.weight_logvar.data[:] = 0.0  # var = 1
    rows = prune_diagnostics(net, prior_var=1.0, task="a")
    for row in rows:
        assert np.allclose(row["scores"], 0.0, atol=1e-12)


def test_prune_scores_grow_with_deviation():
    net = small_net(seed=16)
    for layer in net.shared:
        layer.weight_mu.data[:] = 0.0
        layer.weight_logvar.data[:] = 0.0
    base = prune_diagnostics(net, 1.0, "a")[0]["scores"].copy()
    net.shared[0].weight_mu.data[:, 0] = 2.0
    moved = prune_diagnostics(net, 1.0, "a")[0]["scores"]
    assert moved[0] > base[0] + 1.0
    assert np.allclose(moved[1:], base[1:])


def _edited_checkpoint(path, out, edit):
    """Copy the .npz at `path` to `out` after `edit` mutates its array dict."""
    with np.load(path) as doc:
        arrays = {k: doc[k] for k in doc.files}
    edit(arrays)
    np.savez(out, **arrays)
    return out


def test_checkpoint_round_trip_bitwise(tmp_path):
    net = small_net(seed=17)
    rng = np.random.default_rng(18)
    for t in net.named_params().values():
        t.data = rng.normal(size=t.shape)
    before = {k: t.data.copy() for k, t in net.named_params().items()}
    path = tmp_path / "ckpt.npz"
    save_checkpoint(net, path)
    other = small_net(seed=99)
    load_checkpoint(other, path)
    for k, t in other.named_params().items():
        assert np.array_equal(t.data, before[k]), k


def test_checkpoint_errors(tmp_path):
    net = small_net(seed=19)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(net, path)

    bad = _edited_checkpoint(
        path, tmp_path / "bad_version.npz", lambda a: a.update(__version__=np.array(1))
    )
    with pytest.raises(ValueError):
        load_checkpoint(small_net(), bad)

    def bad_shape(arrays):
        first = next(k for k in arrays if not k.startswith("__"))
        arrays[first] = np.zeros((1, 1))

    bad2 = _edited_checkpoint(path, tmp_path / "bad_shape.npz", bad_shape)
    with pytest.raises(ValueError):
        load_checkpoint(small_net(), bad2)

    # net missing task "b" lacks the checkpoint's head/film params
    arch = Architecture.mlp(input_dim=3, hidden=(6, 5))
    smaller = init_net(arch, 0)
    smaller.add_task("a", 4, np.random.default_rng(1))
    with pytest.raises(KeyError):
        load_checkpoint(smaller, path)


def test_checkpoint_bad_file_loads_nothing(tmp_path):
    net = small_net(seed=20)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(net, path)
    partial = _edited_checkpoint(
        path, tmp_path / "partial.npz", lambda a: a.pop("shared.1.bias_logvar")
    )
    other = small_net(seed=21)
    before = {k: t.data.copy() for k, t in other.named_params().items()}
    with pytest.raises(KeyError, match="shared.1.bias_logvar"):
        load_checkpoint(other, partial)

    def bad_last_shape(arrays):  # the last entry is bad
        arrays[list(arrays)[-1]] = np.zeros((1, 1))

    bad_last = _edited_checkpoint(path, tmp_path / "bad_last.npz", bad_last_shape)
    with pytest.raises(ValueError):
        load_checkpoint(other, bad_last)
    for k, t in other.named_params().items():  # nothing was loaded
        assert np.array_equal(t.data, before[k]), k


def test_add_task_twice_raises():
    net = small_net()
    with pytest.raises(ValueError):
        net.add_task("a", 4, np.random.default_rng(0))


def test_forward_unknown_task_raises():
    net = small_net()
    with pytest.raises(KeyError):
        net.forward_sample("zzz", np.zeros((1, 3)))


def test_predict_validation():
    net = small_net()
    with pytest.raises(ValueError):
        predict(net, "a", np.zeros((1, 3)), num_samples=0)
    with pytest.raises(ValueError):
        predict(net, "a", np.zeros((1, 3)), mode="bogus")
