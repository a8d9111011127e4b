import numpy as np
import pytest

from odx.mc import DiffusionSpec, check_structure
from odx.tree import ModelError
from support import (deflate_paths, kw_regress, martingale_test, scalar_spec,
                     simulate)


def test_simulation_deterministic_per_seed():
    spec = scalar_spec(0.05, 0.2, steps=16, paths=500, seed=7)
    a = simulate(spec)
    b = simulate(spec)
    assert np.array_equal(a.X, b.X)
    c = simulate(scalar_spec(0.05, 0.2, steps=16, paths=500, seed=8))
    assert not np.array_equal(a.X, c.X)


def test_zero_vol_is_deterministic_drift():
    spec = scalar_spec(0.3, 0.0, steps=10, paths=4, seed=1)
    ens = simulate(spec)
    np.testing.assert_allclose(ens.X[:, -1, 0], 0.3, rtol=1e-12)
    np.testing.assert_allclose(ens.X[:, 5, 0], 0.15, rtol=1e-12)


def test_terminal_drift_clt_bound():
    spec = scalar_spec(0.05, 0.2, steps=32, paths=20000, seed=3)
    ens = simulate(spec)
    term = ens.X[:, -1, 0]
    se = term.std(ddof=1) / np.sqrt(spec.paths)
    assert abs(term.mean() - 0.05) < 4 * se


def test_structural_rho_constant_coefficients():
    spec = scalar_spec(0.05, 0.2)
    x = np.zeros((10, 1))
    rho = check_structure(spec, x, 0)
    np.testing.assert_allclose(rho, 1.25)
    # degenerate c = 0 gives rho = 0, not a division error (the drift is
    # then off the range of c, so the arbitrage check is switched off)
    flat = scalar_spec(0.05, 0.0)
    np.testing.assert_allclose(check_structure(flat, x, 0, tol=np.inf), 0.0)


def test_structural_rho_multidim():
    spec = DiffusionSpec(drift=[0.3, -0.1], sigma=np.eye(2), T=1.0,
                         steps=4, paths=2, seed=0, x0=[0.0, 0.0])
    rho = check_structure(spec, np.zeros((5, 2)), 0)
    np.testing.assert_allclose(rho, np.broadcast_to([0.3, -0.1], (5, 2)))


def test_deflate_driftless_gives_unit_wealth():
    spec = scalar_spec(0.0, 0.2, steps=16, paths=1000, seed=2)
    ens = deflate_paths(simulate(spec))
    assert np.max(np.abs(ens.V_hat - 1.0)) == 0.0
    assert ens.abort_fraction == 0.0


def test_deflated_wealth_mean_near_one():
    spec = scalar_spec(0.05, 0.2, steps=64, paths=20000, seed=11)
    ens = deflate_paths(simulate(spec))
    y = ens.Y_hat[ens.alive, -1]
    se = y.std(ddof=1) / np.sqrt(y.size)
    assert abs(y.mean() - 1.0) < 4 * se


def test_martingale_test_detects_drift():
    rng = np.random.default_rng(0)
    P, n = 20000, 32
    noise = rng.normal(0, 0.1, (P, n)).cumsum(axis=1)
    Z = np.hstack([np.zeros((P, 1)), noise])
    assert martingale_test(Z)["passed"]
    drift = Z + np.linspace(0, 0.05, n + 1)
    rep = martingale_test(drift)
    assert not rep["passed"]
    assert rep["max_abs_t"] > 4.0


def test_martingale_test_constant_paths():
    Z = np.ones((50, 9))
    rep = martingale_test(Z)
    assert rep["passed"] and rep["max_abs_t"] == 0.0


def test_kw_regress_pure_hedge():
    rng = np.random.default_rng(4)
    P, n = 5000, 8
    dM = rng.normal(0, 0.1, (P, n, 1))
    U = np.concatenate([np.zeros((P, 1)), dM[:, :, 0].cumsum(axis=1)], axis=1)
    theta, B, n_norm = kw_regress(U, dM)
    np.testing.assert_allclose(theta, 1.0, atol=1e-10)
    np.testing.assert_allclose(B, 0.0, atol=1e-10)
    assert n_norm < 1e-10


def test_kw_regress_recovers_drift():
    rng = np.random.default_rng(5)
    P, n = 5000, 8
    dM = rng.normal(0, 0.1, (P, n, 1))
    dt = 1.0 / n
    dU = dM[:, :, 0] - 0.05 * dt
    U = np.concatenate([np.zeros((P, 1)), dU.cumsum(axis=1)], axis=1)
    theta, B, n_norm = kw_regress(U, dM)
    np.testing.assert_allclose(theta, 1.0, atol=1e-10)
    np.testing.assert_allclose(B[-1], 0.05, atol=1e-10)
    assert n_norm < 1e-10


def _kw_regress_per_step(U, dM):
    """The per-step loop that ``kw_regress`` batches."""
    P, n1 = U.shape
    theta, dB, sq = [], [], 0.0
    for step in range(n1 - 1):
        y = U[:, step + 1] - U[:, step]
        x = dM[:, step, :]
        xc = x - x.mean(axis=0)
        th = (np.linalg.pinv(xc.T @ xc / P, hermitian=True)
              @ (xc.T @ (y - y.mean()) / P))
        resid = y - x @ th
        theta.append(th)
        dB.append(-resid.mean())
        sq += np.mean((resid - resid.mean()) ** 2)
    return (np.array(theta), np.concatenate([[0.0], np.cumsum(dB)]),
            np.sqrt(sq / (n1 - 1)))


def test_kw_regress_matches_per_step_loop():
    rng = np.random.default_rng(6)
    P, n, d = 400, 6, 2
    dM = rng.normal(0, 0.1, (P, n, d))
    dM[:, 3, 1] = 2.0 * dM[:, 3, 0]  # a rank-deficient step
    dU = dM @ [0.7, -0.3] + rng.normal(0, 0.05, (P, n)) - 0.01
    U = np.concatenate([np.zeros((P, 1)), dU.cumsum(axis=1)], axis=1)
    for got, want in zip(kw_regress(U, dM), _kw_regress_per_step(U, dM)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)


def test_spec_validation():
    with pytest.raises(ModelError, match="steps"):
        scalar_spec(0.0, 0.1, steps=0)
    with pytest.raises(ModelError, match="x0"):
        DiffusionSpec(drift=[0.0, 0.0], sigma=np.eye(2), T=1.0, x0=[0.0])


@pytest.mark.parametrize("coeffs", [
    dict(drift=[0.0, 0.0], sigma=[0.2, 0.2]),
    dict(drift=[0.0], sigma=np.eye(2)),
    dict(drift=[0.0, 0.0], sigma=np.eye(2), slope=[[1.0, 0.0]]),
])
def test_spec_coefficient_shapes(coeffs):
    with pytest.raises(ModelError, match="need sigma"):
        DiffusionSpec(T=1.0, x0=[0.0, 0.0], **coeffs)


def test_linear_coefficients_run():
    spec = DiffusionSpec(drift=[0.0], slope=[[-0.5]], sigma=[[0.2]], T=1.0,
                         steps=32, paths=200, seed=6, x0=[1.0])
    ens = simulate(spec)
    # mean reversion toward 0 from x0 = 1: mean ends well below start
    assert ens.X[:, -1, 0].mean() < 0.8


def test_structural_rho_subnormal_variance_is_rank_zero():
    # sigma^2 = 5.3e-309 is subnormal: its reciprocal overflows, so c
    # counts as rank 0 and rho = 0 in one dimension as in two (with the
    # arbitrage check off, as the drift is then off the range of c)
    x = np.zeros((3, 1))
    rho = check_structure(scalar_spec(0.05, 7.3e-155), x, 0, tol=np.inf)
    assert np.array_equal(rho, np.zeros((3, 1)))
    spec2 = DiffusionSpec(drift=[0.05, 0.05], sigma=7.3e-155 * np.eye(2),
                          T=1.0, x0=[0.0, 0.0])
    assert np.array_equal(check_structure(spec2, np.zeros((3, 2)), 0,
                                          tol=np.inf),
                          np.zeros((3, 2)))
