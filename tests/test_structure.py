import numpy as np
import pytest

from odx.structure import (Characteristics, extract_characteristics,
                           psd_pinv_apply, riskless_gain, solve_structure)
from odx.tree import AdaptedProcess, ModelError, PredictableProcess, build_tree


def _chars_on_one_step(a, c):
    """Single-step Characteristics carrying the given (a, c), dG = 1."""
    a = np.atleast_1d(np.asarray(a, float))
    d = a.shape[0]
    tree = build_tree([[0.5, 0.5]])
    a_vals = np.zeros((3, d))
    a_vals[0] = a
    c_vals = np.zeros((3, d * d))
    c_vals[0] = np.asarray(c, float).ravel()
    dg = np.zeros((3, 1))
    dg[0] = 1.0
    return Characteristics(a=PredictableProcess(tree, a_vals),
                           c=PredictableProcess(tree, c_vals),
                           dG=PredictableProcess(tree, dg))


def test_extract_b1(b1):
    _, X = b1
    ch = extract_characteristics(X)
    np.testing.assert_allclose(ch.a.values[0], [0.02])
    np.testing.assert_allclose(ch.c.values[0], [0.0096])
    assert ch.dG.values[0, 0] == 1.0


def test_extract_t1(t1):
    _, X = t1
    ch = extract_characteristics(X)
    np.testing.assert_allclose(ch.a.values[0], [0.0], atol=1e-15)
    np.testing.assert_allclose(ch.c.values[0], [0.02 / 3])


def test_extract_deterministic():
    tree = build_tree([[0.5, 0.5]])
    X = AdaptedProcess(tree, np.array([0.0, 0.3, 0.3]))
    ch = extract_characteristics(X)
    np.testing.assert_allclose(ch.a.values[0], [0.3])
    np.testing.assert_allclose(ch.c.values[0], [0.0], atol=1e-15)


def test_solve_identity():
    ch = _chars_on_one_step([0.3, -0.1], np.eye(2))
    rep = solve_structure(ch)
    assert rep.solvable
    np.testing.assert_allclose(rep.rho.values[0], [0.3, -0.1])


def test_solve_rank_one_min_norm():
    ch = _chars_on_one_step([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
    rep = solve_structure(ch)
    assert rep.solvable
    np.testing.assert_allclose(rep.rho.values[0], [0.5, 0.5], atol=1e-12)


def test_solve_kernel_arbitrage():
    ch = _chars_on_one_step([0.0, 1.0], np.diag([1.0, 0.0]))
    rep = solve_structure(ch)
    assert rep.status == "ARBITRAGE"
    zeta = rep.zeta.values[0]
    np.testing.assert_allclose(zeta, [0.0, 1.0])
    C = ch.c_matrix(0)
    assert np.max(np.abs(C @ zeta)) == 0.0
    assert zeta @ ch.a.values[0] == 1.0


def test_arbitrage_gain_is_riskless(a1):
    _, X = a1
    rep = solve_structure(extract_characteristics(X))
    assert rep.status == "ARBITRAGE"
    g = riskless_gain(X, rep.zeta)
    kids = X.tree.children(0)
    assert np.ptp(g[kids]) == 0.0       # zero conditional variance
    assert np.min(g[kids]) > 0.0        # strictly positive gain


def test_scaling_invariance():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(2, 2))
    c = B @ B.T
    a = c @ rng.normal(size=2)
    rho, _ = psd_pinv_apply(c, a)
    for lam in (1e-4, 7.0, 1e5):
        rho_s, _ = psd_pinv_apply(lam * c, lam * a)
        np.testing.assert_allclose(rho_s, rho, rtol=1e-8)


def test_pinv_subnormal_eigenvalue_counts_as_zero():
    c = np.array([[5.3e-309, 0.0], [0.0, 0.0]])
    x, kernel_part = psd_pinv_apply(c, np.zeros(2))
    np.testing.assert_array_equal(x, [0.0, 0.0])
    np.testing.assert_array_equal(kernel_part, [0.0, 0.0])


def test_range_membership_when_solvable():
    rng = np.random.default_rng(11)
    for _ in range(20):
        B = rng.normal(size=(2, 1))
        c = B @ B.T  # rank 1
        a = c @ rng.normal(size=2)
        ch = _chars_on_one_step(a, c)
        rep = solve_structure(ch)
        assert rep.solvable
        rho = rep.rho.values[0]
        assert np.max(np.abs(c @ rho - a)) <= 1e-7 * max(1, np.abs(a).max())


def test_non_psd_rejected():
    ch = _chars_on_one_step([0.0], [[-1.0]])
    with pytest.raises(ModelError, match="PSD"):
        solve_structure(ch)


def test_mass_finite_on_trees(b1):
    _, X = b1
    rep = solve_structure(extract_characteristics(X))
    assert not rep.mass_flag
    # mass = <rho, c rho> accumulated: (0.02^2 / 0.0096)
    np.testing.assert_allclose(rep.mass.values[1, 0], 0.02**2 / 0.0096)
