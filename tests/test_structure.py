import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from odx import mc
from odx.random_models import random_market, random_tree
from odx.structure import (PINV_RELTOL, Characteristics,
                           extract_characteristics, solve_factor,
                           solve_structure)
from odx.tree import (AdaptedProcess, ArbitrageError, ModelError,
                      PredictableProcess, build_tree, step_gains)
from support import covariances


def _chars_on_one_step(a, B):
    """Single-step Characteristics carrying the drift a and the factor B,
    (m, d), of the covariance c = B^T B."""
    a = np.atleast_1d(np.asarray(a, float))
    d = a.shape[0]
    tree = build_tree([[0.5, 0.5]])
    a_vals = np.zeros((3, d))
    a_vals[0] = a
    return Characteristics(a=PredictableProcess(tree, a_vals),
                           B=(np.asarray(B, float).reshape(1, -1, d),))


def test_extract_b1(b1):
    _, X = b1
    ch = extract_characteristics(X)
    np.testing.assert_allclose(ch.a.values[0], [0.02])
    np.testing.assert_allclose(covariances(ch)[0].ravel(), [0.0096])


def test_extract_t1(t1):
    _, X = t1
    ch = extract_characteristics(X)
    np.testing.assert_allclose(ch.a.values[0], [0.0], atol=1e-15)
    np.testing.assert_allclose(covariances(ch)[0].ravel(), [0.02 / 3])


def test_extract_deterministic():
    tree = build_tree([[0.5, 0.5]])
    X = AdaptedProcess(tree, np.array([0.0, 0.3, 0.3]))
    ch = extract_characteristics(X)
    np.testing.assert_allclose(ch.a.values[0], [0.3])
    np.testing.assert_allclose(covariances(ch)[0].ravel(), [0.0], atol=1e-15)


def test_solve_identity():
    ch = _chars_on_one_step([0.3, -0.1], np.eye(2))
    rep = solve_structure(ch)
    assert rep.solvable
    np.testing.assert_allclose(rep.rho.values[0], [0.3, -0.1])


def test_solve_rank_one_min_norm():
    # c = [[1, 1], [1, 1]]
    ch = _chars_on_one_step([1.0, 1.0], [[1.0, 1.0]])
    rep = solve_structure(ch)
    assert rep.solvable
    np.testing.assert_allclose(rep.rho.values[0], [0.5, 0.5], atol=1e-12)


def test_solve_kernel_arbitrage():
    ch = _chars_on_one_step([0.0, 1.0], np.diag([1.0, 0.0]))
    rep = solve_structure(ch)
    assert rep.status == "ARBITRAGE"
    zeta = rep.zeta.values[0]
    np.testing.assert_allclose(zeta, [0.0, 1.0])
    C = covariances(ch)[0]
    assert np.max(np.abs(C @ zeta)) == 0.0
    assert zeta @ ch.a.values[0] == 1.0


def test_arbitrage_gain_is_riskless(a1):
    _, X = a1
    rep = solve_structure(extract_characteristics(X))
    assert rep.status == "ARBITRAGE"
    g = step_gains(X, rep.zeta.values)
    kids = X.tree.children(0)
    assert np.ptp(g[kids]) == 0.0       # zero conditional variance
    assert np.min(g[kids]) > 0.0        # strictly positive gain


def test_scaling_invariance():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(2, 2))
    c = B @ B.T  # of the factor B^T
    a = c @ rng.normal(size=2)
    rho, _, _ = solve_factor(B.T, a)
    for lam in (1e-4, 7.0, 1e5):
        rho_s, _, _ = solve_factor(np.sqrt(lam) * B.T, lam * a)
        np.testing.assert_allclose(rho_s, rho, rtol=1e-8)


@pytest.mark.parametrize("units", [1e-6, 1e-7, 1e-8])
def test_small_units_of_one_asset_keep_the_market_solvable(units):
    """Arbitrage-free d = 2 markets with asset 0 in small units: B's rank
    is decided once, per column, so no solve drops the small asset and
    reads a false arbitrage from the drift it leaves."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng)
        X = random_market(rng, tree, d=2)
        X = AdaptedProcess(tree, X.values * [units, 1.0])
        assert solve_structure(extract_characteristics(X)).solvable, seed


@pytest.mark.parametrize("k", [2, 3, 4])
def test_theta_of_a_badly_scaled_factor_is_the_least_squares_one(k):
    """B = M diag(1e-8, 1) keeps both columns (each is judged against its
    own norm), so theta is the minimum-norm solution of B^T theta = a."""
    rng = np.random.default_rng(1)
    B = rng.standard_normal((k, 2)) * [1e-8, 1.0]
    a = rng.standard_normal(2)
    _, _, theta = solve_factor(B, a)
    want = np.linalg.lstsq(B.T, a, rcond=None)[0]
    assert np.linalg.norm(theta - want) <= 1e-6 * np.linalg.norm(want)


def test_rho_of_a_tiny_first_column_is_the_pseudo_inverse():
    """sigma = (1e-12, 1)^T: rho = c^+ a = sigma <sigma, a> / |sigma|^4 to
    1e-12 relative, though the first column of B = sigma^T is tiny."""
    sigma = np.array([1e-12, 1.0])
    a = np.array([2.0, 2.0])
    rho, _, _ = solve_factor(sigma[None], a)
    np.testing.assert_allclose(rho, sigma * (sigma @ a) / (sigma @ sigma)**2,
                               rtol=1e-12, atol=0.0)


def test_pinv_subnormal_eigenvalue_counts_as_zero():
    # the factor of c = diag(5.3e-309, 0)
    B = np.diag([np.sqrt(5.3e-309), 0.0])
    x, kernel_part, _ = solve_factor(B, np.zeros(2))
    np.testing.assert_array_equal(x, [0.0, 0.0])
    np.testing.assert_array_equal(kernel_part, [0.0, 0.0])


@st.composite
def _degenerate_markets(draw):
    """A random market of d = 1..3 assets on a tree of up to 4 children
    per node, with its last asset a combination of the others (a redundant
    asset) or its values rounded to 0.05 (tied increments), scaled by 10^u
    for u in [-150, 150]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    tree = random_tree(rng, max_periods=2, max_branches=4)
    X = random_market(rng, tree, d=d).values.copy()
    if d > 1 and draw(st.booleans()):
        X[:, -1] = X[:, :-1] @ rng.normal(size=d - 1)
    else:
        X = np.round(X / 0.05) * 0.05
    return AdaptedProcess(tree, 10.0 ** draw(st.floats(-150.0, 150.0)) * X)


@settings(max_examples=300, deadline=None)
@given(_degenerate_markets())
def test_covariance_is_symmetric_and_psd_by_construction(X):
    """c = B^T B of the factor B = sqrt(p) dM, which ``check_finite``
    judges by its diagonal only: every c of a market it accepts is
    symmetric and PSD to the tolerances of the symmetry and eigenvalue
    checks it replaces, 1e-12 and 1e-10 of max(1, max |c|) of its node."""
    ch = extract_characteristics(X)
    try:
        ch.check_finite()
    except ModelError:
        assume(False)
    C = covariances(ch)[X.tree.nonleaf_nodes]
    C = C / np.maximum(1.0, np.max(np.abs(C), axis=(1, 2)))[:, None, None]
    assert np.max(np.abs(C - C.mT)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(0.5 * (C + C.mT))) >= -1e-10


def test_characteristics_are_formed_once_per_market(b1):
    """The step data is kept on X, whose panel is read-only, so it cannot
    go stale."""
    _, X = b1
    assert extract_characteristics(X) is extract_characteristics(X)
    with pytest.raises(ValueError, match="read-only"):
        X.values[1] = 0.2


def test_range_membership_when_solvable():
    rng = np.random.default_rng(11)
    for _ in range(20):
        B = rng.normal(size=(2, 1))
        c = B @ B.T  # rank 1
        a = c @ rng.normal(size=2)
        ch = _chars_on_one_step(a, B.T)
        rep = solve_structure(ch)
        assert rep.solvable
        rho = rep.rho.values[0]
        assert np.max(np.abs(c @ rho - a)) <= 1e-7 * max(1, np.abs(a).max())


def test_mass_finite_on_trees(b1):
    _, X = b1
    rep = solve_structure(extract_characteristics(X))
    assert not rep.mass_flag
    # mass = <rho, c rho> accumulated: (0.02^2 / 0.0096)
    np.testing.assert_allclose(rep.mass.values[1, 0], 0.02**2 / 0.0096)


@st.composite
def _shared_matrix_and_rows(draw):
    """One (d, m) B of quarters, so that c = B B^T is exact and often
    rank-deficient, with rows V (P, d) and a slice [i, j) of them."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    P = draw(st.integers(1, 40))
    B = draw(arrays(np.float64, (d, m),
                    elements=st.integers(-12, 12).map(lambda k: k / 4)))
    kind = draw(st.sampled_from(["any", "zero_row", "collinear", "zero"]))
    if kind == "zero_row":
        B[-1, :] = 0.0
    elif kind == "collinear" and d > 1:
        B[1, :] = 2.5 * B[0, :]
    elif kind == "zero":
        B[:] = 0.0
    V = draw(arrays(np.float64, (P, d), elements=st.one_of(
        st.just(0.0), st.floats(-5.0, 5.0, allow_nan=False,
                                allow_subnormal=False))))
    i = draw(st.integers(0, P - 1))
    j = draw(st.integers(i + 1, P))
    return B, V, i, j


@settings(max_examples=200, deadline=None)
@given(_shared_matrix_and_rows())
def test_pinv_of_one_matrix_is_the_same_per_row(case):
    """One factor B^T of c = B B^T against many rows: a row's bits do not
    depend on the rows solved with it, x is c^+ v and the kernel part is in
    ker c."""
    B, V, i, j = case
    c = B @ B.T

    def solve(rows):
        return solve_factor(np.broadcast_to(B.T, rows.shape[:-1] + B.T.shape),
                            rows)

    x, kernel_part, _ = solve(V)
    for k in range(V.shape[0]):
        row = solve(V[k])
        assert row[0].tobytes() == x[k].tobytes()
        assert row[1].tobytes() == kernel_part[k].tobytes()
    part = solve(V[i:j])
    assert part[0].tobytes() == x[i:j].tobytes()
    assert part[1].tobytes() == kernel_part[i:j].tobytes()

    w = np.linalg.eigvalsh(c)
    top = max(w[-1], 0.0)
    assert np.max(np.abs(c @ kernel_part.T), initial=0.0) <= (
        1e-12 * top * np.max(np.abs(V)))
    # pinv cuts at the same relative level; compare only where no
    # eigenvalue is near the cut and the kept ones are well conditioned
    kept = w[w > PINV_RELTOL * top]
    assume(not np.any((np.abs(w) > 1e-14 * top) & (np.abs(w) <= 1e-3 * top)))
    c_plus = np.linalg.pinv(c, rcond=PINV_RELTOL, hermitian=True)
    scale = (1.0 / kept[0] if kept.size else 0.0) * np.linalg.norm(V, axis=1)
    err = np.linalg.norm(x - V @ c_plus, axis=1)
    assert np.all(err <= 1e-12 * scale)


@st.composite
def _sigma_drift_tol(draw):
    """sigma (d, m), m <= d <= 3, of small integers, so c = sigma sigma^T
    is often singular; a drift a = sigma u in the range of c, or that plus
    a vector of the kernel of c, 1e-12 to 1 times as large, off the range;
    each of sigma and a scaled by 1e-6 to 1e6; and a tolerance."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, d))
    small = st.integers(-3, 3).map(float)
    sigma = draw(arrays(np.float64, (d, m), elements=small))
    u = draw(arrays(np.float64, (m,), elements=small))
    rank = int(np.linalg.matrix_rank(sigma))
    kernel = np.linalg.svd(sigma)[0][:, rank:]  # the kernel of sigma^T
    w = draw(arrays(np.float64, (d - rank,), elements=small))
    off = draw(st.just(0.0) | st.floats(-12.0, 0.0).map(lambda e: 10.0**e))
    a = sigma @ u + off * (kernel @ w)
    s_sigma, s_a = (10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(2))
    tol = draw(st.sampled_from([1e-10, 1e-8, 1e-6]))
    return s_sigma * sigma, s_a * a, tol


@settings(max_examples=300, deadline=None)
@given(_sigma_drift_tol())
def test_trees_and_paths_share_the_drift_condition(case):
    """A tree node and the paths of a constant-drift diffusion with the
    same sigma, a and tol: ``solve_structure`` flags the node exactly when
    ``mc.check_structure`` raises ArbitrageError.  Drifts whose kernel part
    lies within 0.1 % of the cut are left out: the node's solve and the
    paths' maps of the unit drifts may round them apart."""
    sigma, a, tol = case
    _, zeta, _ = solve_factor(sigma.T, a)
    ratio = np.max(np.abs(zeta)) / (tol * max(1.0, np.max(np.abs(a))))
    assume(not 0.999 < ratio < 1.001)
    flagged = solve_structure(_chars_on_one_step(a, sigma.T), tol).status
    spec = mc.DiffusionSpec(drift=a, sigma=sigma, T=1.0, steps=1, paths=3,
                            x0=np.zeros(a.size))
    try:
        mc.check_structure(spec, np.zeros((3, a.size)), 0, tol)
        raised = False
    except ArbitrageError:
        raised = True
    assert (flagged == "ARBITRAGE") == raised
