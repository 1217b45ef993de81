import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.stats import norm

from gvcl.gaussians import (
    DiagGaussian,
    diag_approx_by_precision,
    film_optimal_scale,
    kl_diag,
    kl_lambda,
    low_rank_kl_cost,
    low_rank_select,
    scaled_kl,
    temper,
)
from oracles import ClippedPrecisionPrior, kl_lambda_tilde


def random_gaussian(rng, d):
    return DiagGaussian(rng.normal(size=d), rng.uniform(0.3, 3.0, d))


def test_kl_diag_matches_quadrature_oracle():
    rng = np.random.default_rng(0)
    q = random_gaussian(rng, 3)
    p = random_gaussian(rng, 3)
    total = 0.0
    for i in range(3):
        qi = norm(q.mu[i], np.sqrt(q.var[i]))
        pi = norm(p.mu[i], np.sqrt(p.var[i]))
        f = lambda x: qi.pdf(x) * (qi.logpdf(x) - pi.logpdf(x))
        total += quad(f, q.mu[i] - 12 * np.sqrt(q.var[i]), q.mu[i] + 12 * np.sqrt(q.var[i]))[0]
    assert abs(kl_diag(q, p) - total) < 1e-8


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_kl_diag_nonnegative(seed):
    rng = np.random.default_rng(seed)
    q = random_gaussian(rng, 4)
    p = random_gaussian(rng, 4)
    assert kl_diag(q, p) >= 0.0


def test_kl_diag_zero_iff_equal():
    rng = np.random.default_rng(1)
    q = random_gaussian(rng, 5)
    assert kl_diag(q, q) == 0.0
    p = DiagGaussian(q.mu + 1e-3, q.var)
    assert kl_diag(q, p) > 0.0


def test_kl_diag_dimension_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        kl_diag(random_gaussian(rng, 2), random_gaussian(rng, 3))


def test_diag_gaussian_validation():
    with pytest.raises(ValueError):
        DiagGaussian(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiagGaussian(np.zeros((2, 1)), np.ones((2, 1)))


# -- tempering ---------------------------------------------------------------


def test_tempering_identity_bulk():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = rng.integers(1, 8)
        q = random_gaussian(rng, d)
        p = random_gaussian(rng, d)
        lam = rng.uniform(1.0, 20.0)
        assert abs(kl_diag(temper(q, lam), temper(p, lam)) - kl_lambda(q, p, lam)) < 1e-12


def test_temper_power_of_two_round_trip_is_exact():
    rng = np.random.default_rng(4)
    q = random_gaussian(rng, 6)
    back = temper(temper(q, 2.0), 0.5)
    assert np.array_equal(back.mu, q.mu)
    assert np.array_equal(back.var, q.var)


def test_temper_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        temper(DiagGaussian(np.zeros(1), np.ones(1)), 0.0)


def test_kl_lambda_reduces_to_kl_diag():
    rng = np.random.default_rng(5)
    q, p = random_gaussian(rng, 4), random_gaussian(rng, 4)
    assert kl_lambda(q, p, 1.0) == pytest.approx(kl_diag(q, p), abs=1e-14)


def test_kl_lambda_warns_below_one():
    rng = np.random.default_rng(6)
    q, p = random_gaussian(rng, 2), random_gaussian(rng, 2)
    with pytest.warns(UserWarning):
        kl_lambda(q, p, 0.5)


# -- clipped-precision prior ---------------------------------------------------


def test_clipped_precision_formula():
    base = DiagGaussian(np.zeros(3), np.array([0.5, 2.0, 1.0]))
    prior = ClippedPrecisionPrior(base, np.ones(3), lam=4.0)
    # data precision: max(0, 1/var - 1) = [1, 0, 0]
    assert np.allclose(prior.effective_precision(), [5.0, 1.0, 1.0])


def test_kl_lambda_tilde_hand_example():
    # q = N(1, 1), base = N(0, 0.5), prior0 var 1, lam = 2:
    # effective precision = 2 * (2 - 1) + 1 = 3
    # KL = 0.5 * (3 * 1 + 1/0.5 + log(0.5/1) - 1)
    q = DiagGaussian(np.array([1.0]), np.array([1.0]))
    prior = ClippedPrecisionPrior(DiagGaussian(np.array([0.0]), np.array([0.5])), np.ones(1), 2.0)
    expected = 0.5 * (3.0 + 2.0 + np.log(0.5) - 1.0)
    assert kl_lambda_tilde(q, prior) == pytest.approx(expected, abs=1e-14)


def test_kl_lambda_tilde_lambda_independent_without_data():
    rng = np.random.default_rng(7)
    q = random_gaussian(rng, 4)
    base = DiagGaussian(rng.normal(size=4), np.full(4, 1.7))
    vals = [
        kl_lambda_tilde(q, ClippedPrecisionPrior(base, np.full(4, 1.7), lam))
        for lam in (1.0, 10.0, 100.0)
    ]
    assert vals[0] == pytest.approx(kl_diag(q, base), abs=1e-12)
    assert max(vals) - min(vals) < 1e-12


def test_kl_lambda_tilde_lambda_one_is_plain_kl():
    rng = np.random.default_rng(8)
    q = random_gaussian(rng, 5)
    base = random_gaussian(rng, 5)
    prior = ClippedPrecisionPrior(base, np.ones(5), 1.0)
    # with lam=1 the clip only raises precision where var > prior0_var
    manual = kl_diag(q, base) + 0.5 * np.sum(
        (np.maximum(0.0, 1.0 / base.var - 1.0) + 1.0 - 1.0 / base.var) * (q.mu - base.mu) ** 2
    )
    assert kl_lambda_tilde(q, prior) == pytest.approx(manual, abs=1e-12)


# -- diagonal / low-rank approximations ----------------------------------------


def test_diag_approx_matches_numerical_minimizer():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        a = rng.normal(size=(d, d))
        h = a @ a.T + d * np.eye(d)

        def obj(log_v):
            v = np.exp(log_v)
            return 0.5 * (np.sum(np.diag(h) * v) - np.sum(log_v))

        res = minimize(obj, np.zeros(d), method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14})
        assert np.allclose(np.exp(res.x), diag_approx_by_precision(h), atol=1e-4)


def test_diag_approx_rejects_bad_diagonal():
    with pytest.raises(ValueError):
        diag_approx_by_precision(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_low_rank_select_keeps_largest():
    vals, vecs = low_rank_select(np.diag([3.0, 2.0, 1.0]), 1)
    assert vals[0] == pytest.approx(3.0)
    assert np.allclose(np.abs(vecs[:, 0]), [1, 0, 0])


def test_low_rank_select_matches_exhaustive_subsets():
    from itertools import combinations

    rng = np.random.default_rng(12)
    delta = 1e-6
    for _ in range(30):
        p = int(rng.integers(2, 7))
        a = rng.normal(size=(p, p))
        h = a @ a.T + 0.1 * np.eye(p)
        k = int(rng.integers(1, p))
        vals, _ = low_rank_select(h, k, delta)
        all_vals = np.linalg.eigvalsh(h)
        best = min(combinations(range(p), k), key=lambda idx: low_rank_kl_cost(h, idx, delta))
        assert np.allclose(sorted(vals), sorted(all_vals[list(best)]), rtol=1e-10)


def test_low_rank_select_validation():
    h = np.eye(3)
    with pytest.raises(ValueError):
        low_rank_select(h, 0)
    with pytest.raises(ValueError):
        low_rank_select(h, 3)
    with pytest.raises(ValueError):
        low_rank_select(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)
    with pytest.raises(ValueError):
        low_rank_select(np.diag([1.0, -1.0, 2.0]), 1)


# -- FiLM scale optimum ----------------------------------------------------------


def test_film_optimal_scale_hand_value():
    q = DiagGaussian(np.array([2.0]), np.array([1.0]))
    prior = DiagGaussian(np.array([0.0]), np.array([1.0]))
    # a = 1 + 4 = 5, b = 0 -> c* = sqrt(d/a) = sqrt(1/5)
    assert film_optimal_scale(q, prior) == pytest.approx(np.sqrt(0.2), abs=1e-12)


def test_film_optimal_scale_is_stationary_and_minimal():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        q = random_gaussian(rng, d)
        prior = random_gaussian(rng, d)
        c = film_optimal_scale(q, prior)
        eps = 1e-5
        deriv = (scaled_kl(q, prior, c + eps) - scaled_kl(q, prior, c - eps)) / (2 * eps)
        assert abs(deriv) < 1e-6
        assert scaled_kl(q, prior, c) <= scaled_kl(q, prior, c * 1.05)
        assert scaled_kl(q, prior, c) <= scaled_kl(q, prior, c * 0.95)


def test_scaled_kl_at_one_is_plain_kl():
    rng = np.random.default_rng(14)
    q, p = random_gaussian(rng, 4), random_gaussian(rng, 4)
    assert scaled_kl(q, p, 1.0) == pytest.approx(kl_diag(q, p), abs=1e-14)
