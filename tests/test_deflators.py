import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odx.deflators import (build_deflator_family, implied_measure,
                           numeraire_portfolio, orthogonal_jump_martingale,
                           stochastic_exponential)
from odx.random_models import (random_admissible_strategy, random_market,
                               random_tree, strategy_wealth)
from odx.tree import (AdaptedProcess, ArbitrageError, ModelError, build_tree,
                      child_weighted_sums, path_cumprod)
from support import doob_decompose, quadratic_covariation, verify_deflator


def _chain(dZ_steps):
    """Single-path chain tree carrying the scalar jumps dZ_steps."""
    tree = build_tree([[0.5, 0.5]] * len(dZ_steps))
    vals = np.zeros(tree.n_nodes)
    # walk the leftmost path; mirror values on every node at same depth
    for i in range(1, tree.n_nodes):
        vals[i] = vals[tree.parent[i]] + dZ_steps[tree.time[i] - 1]
    return tree, AdaptedProcess(tree, vals)


def test_exponential_identity():
    tree, Z = _chain([0.0, 0.0])
    E = stochastic_exponential(Z)
    assert np.max(np.abs(E.values - 1.0)) == 0.0


def test_exponential_product_path():
    tree, Z = _chain([0.1, -0.2])
    E = stochastic_exponential(Z)
    path = [0, tree.children(0)[0]]
    path.append(tree.children(path[-1])[0])
    np.testing.assert_allclose(E.values[path, 0], [1.0, 1.1, 0.88])
    # closed form exp(Z) * prod (1+dZ)exp(-dZ) agrees ( [Z,Z]^c = 0 here )
    dZ = Z.increments()[:, 0]
    closed = np.exp(Z.values[:, 0]) * path_cumprod(tree, (1 + dZ) * np.exp(-dZ))
    np.testing.assert_allclose(E.values[:, 0], closed, rtol=1e-12)


def test_exponential_absorption_and_strict_mode():
    tree, Z = _chain([-1.0, 0.3])
    E = stochastic_exponential(Z)
    assert np.max(np.abs(E.values[1:])) == 0.0
    with pytest.raises(ModelError, match="positive"):
        stochastic_exponential(Z, strict=True)
    tree, Zbad = _chain([-1.5])
    with pytest.raises(ModelError, match="-1"):
        stochastic_exponential(Zbad)


def test_exponential_rejects_nonzero_start(b1):
    tree, _ = b1
    Z = AdaptedProcess(tree, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ModelError, match="Z\\(0\\)"):
        stochastic_exponential(Z)


def test_yor_formula():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, max_periods=3)
    z1 = np.clip(rng.normal(0, 0.2, tree.n_nodes), -0.8, None)
    z2 = np.clip(rng.normal(0, 0.2, tree.n_nodes), -0.8, None)
    z1[0] = z2[0] = 0.0
    from odx.tree import path_cumsum
    Z1 = AdaptedProcess(tree, path_cumsum(tree, z1))
    Z2 = AdaptedProcess(tree, path_cumsum(tree, z2))
    qv = quadratic_covariation(Z1, Z2)
    Zsum = AdaptedProcess(tree, Z1.values + Z2.values + qv.values)
    lhs = stochastic_exponential(Z1).values * stochastic_exponential(Z2).values
    rhs = stochastic_exponential(Zsum).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11)


def test_numeraire_b1(b1):
    _, X = b1
    rho, Vh = numeraire_portfolio(X)
    np.testing.assert_allclose(rho.values[0], [2.0], atol=1e-11)
    np.testing.assert_allclose(Vh.values.ravel(), [1.0, 1.2, 0.8], atol=1e-11)
    Yh = 1.0 / Vh.values.ravel()
    np.testing.assert_allclose(Yh, [1.0, 1 / 1.2, 1.25], atol=1e-11)
    q = X.tree.p[1:] * Yh[1:]
    np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-11)


def test_numeraire_symmetric_and_fair(t1):
    _, X = t1
    rho, Vh = numeraire_portfolio(X)
    assert np.max(np.abs(rho.values)) <= 1e-11
    assert np.max(np.abs(Vh.values - 1.0)) <= 1e-11
    fair = build_tree([[0.5, 0.5]])
    Xf = AdaptedProcess(fair, np.array([0.0, 0.1, -0.1]))
    rho, _ = numeraire_portfolio(Xf)
    assert np.max(np.abs(rho.values)) <= 1e-11


def test_numeraire_detects_node_arbitrage(a1):
    _, X = a1
    with pytest.raises(ArbitrageError) as exc:
        numeraire_portfolio(X)
    assert exc.value.node == 0


def _random_model(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=3, max_branches=4)
    return random_market(rng, tree, d=1 + seed % 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.integers(-60, 60), min_size=3, max_size=3))
@example(seed=0, k=[-60, 60, 0])
def test_numeraire_in_units_of_powers_of_two(seed, k):
    """Each asset in units 2^k: the Newton iteration runs on dX with each
    column divided by a power of two near its largest entry, which is
    exact, so V_hat keeps its bits, and so does rho_hat * 2^k wherever dX
    has full rank (elsewhere rho_hat is the minimum-norm solution in X's
    own units, which depends on them)."""
    X = _random_model(seed)
    units = 2.0 ** np.array(k[:X.dim])
    rho, V_hat = numeraire_portfolio(X)
    rho_k, V_hat_k = numeraire_portfolio(
        AdaptedProcess(X.tree, X.values * units))
    assert V_hat_k.values.tobytes() == V_hat.values.tobytes()
    for node in X.tree.nonleaf_nodes:
        dX = X.values[X.tree.children(node)] - X.values[node]
        if np.linalg.matrix_rank(dX, rtol=1e-8) == X.dim:
            assert (rho_k.values[node] * units).tobytes() == (
                rho.values[node].tobytes())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3))
@example(seed=0, u=[-8.0, -8.0, -8.0])
@example(seed=1, u=[8.0, -100.0, 0.0])
def test_numeraire_in_decimal_units(seed, u):
    """Each asset in units 10^u, |u| <= 100: the market is arbitrage-free
    as X is, so no false ``log-utility unbounded``, and V_hat moves by
    rounding alone."""
    X = _random_model(seed)
    units = 10.0 ** np.array(u[:X.dim])
    _, V_hat = numeraire_portfolio(X)
    _, V_hat_u = numeraire_portfolio(AdaptedProcess(X.tree, X.values * units))
    np.testing.assert_allclose(V_hat_u.values, V_hat.values, rtol=1e-12,
                               atol=0.0)


def test_orthogonal_jump_martingale_t1(t1):
    tree, X = t1
    _, M = doob_decompose(X)
    # hand-built direction (1, -2, 1) scaled to (0.3, -0.6, 0.3)
    L = AdaptedProcess(tree, np.array([0.0, 0.3, -0.6, 0.3]))
    dL = L.increments()[:, 0]
    p = tree.p[tree.children(0)]
    dM = M.increments()[1:, 0]
    assert abs(p @ dL[1:]) < 1e-15
    assert abs(p @ (dL[1:] * dM)) < 1e-15
    E = stochastic_exponential(L, strict=True)
    Y = AdaptedProcess(tree, E.values[:, 0])  # V_hat = 1 on T1
    np.testing.assert_allclose(Y.values.ravel(), [1.0, 1.3, 0.4, 1.3])
    assert verify_deflator(Y, X)["passed"]


def test_orthogonal_sampler_binary_degenerate(b1):
    _, X = b1
    (L,) = orthogonal_jump_martingale(X, np.random.default_rng(0))
    assert np.max(np.abs(L.values)) == 0.0  # two constraints, two unknowns


def test_orthogonal_sampler_satisfies_constraints(t1):
    tree, X = t1
    Ls = orthogonal_jump_martingale(X, np.random.default_rng(42), n_samples=5)
    for L in Ls:
        dL = L.increments()[:, 0]
        kids = tree.children(0)
        assert abs(tree.p[kids] @ dL[kids]) < 1e-12
        assert np.min(dL) >= -0.9 - 1e-12


@pytest.mark.parametrize("seed, units", [
    pytest.param(seed, units,
                 id=f"{seed}" + (f"-{units:g}" if units < 1 else ""))
    for units in (1.0, 1e-10, 1e-13) for seed in (61, 62, 66, 72)])
def test_sampler_centres_dX_by_its_drift(seed, units):
    """The sampler forms dM = dX - a from X: on a drifting market, X and its
    Doob martingale part M give the same L, and dL meets sum w dL = 0 and
    sum w dL (dX - a)^T = 0 under the implied weights w, also with asset 0
    in small units, where each asset's row is judged against its own norm:
    |sum w dL dM_i| <= 1e-9 max |dM_i| at every node."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=3, max_branches=6)
    X = random_market(rng, tree, d=2)
    X = AdaptedProcess(tree, X.values * [units, 1.0])
    a = child_weighted_sums(tree, X.increments())
    assert np.max(np.abs(a)) > 1e-3  # X drifts under p
    _, M = doob_decompose(X)
    q = implied_measure(numeraire_portfolio(X)[1])
    Ls, LMs = (orthogonal_jump_martingale(Z, np.random.default_rng(seed),
                                          weights=q, n_samples=3)
               for Z in (X, M))
    assert max(np.max(np.abs(L.values)) for L in Ls) > 0.1
    for L, LM in zip(Ls, LMs):
        np.testing.assert_allclose(L.values, LM.values, rtol=0, atol=1e-13)
        dL = L.increments()[:, 0]
        for i, node in enumerate(tree.nonleaf_nodes):
            kids = tree.children(node)
            wdL = q[kids] * dL[kids]
            dM = X.values[kids] - X.values[node] - a[i]
            assert abs(wdL.sum()) < 1e-12
            assert np.max(np.abs(wdL @ dM)) < 1e-12
            assert np.all(np.abs(wdL @ dM)
                          <= 1e-9 * np.max(np.abs(dM), axis=0))


def test_family_deflators_pass_verification():
    rng = np.random.default_rng(8)
    for k in range(5):
        tree = random_tree(rng)
        X = random_market(rng, tree, d=1 + k % 2)
        fam = build_deflator_family(X, n_extras=4, seed=k)
        for Y in fam.all_deflators():
            rep = verify_deflator(Y, X)
            assert rep["passed"], rep


def test_verify_rejects_constant_on_drifting_market(b1):
    tree, X = b1
    Y = AdaptedProcess(tree, np.ones(3))
    rep = verify_deflator(Y, X)
    assert not rep["passed"]
    np.testing.assert_allclose(rep["max_YX_defect"], 0.02)


def test_numeraire_property_random_wealth():
    rng = np.random.default_rng(21)
    tree = random_tree(rng)
    X = random_market(rng, tree, d=2)
    _, Vh = numeraire_portfolio(X)
    leaves = tree.leaves
    for _ in range(50):
        pi = random_admissible_strategy(rng, X)
        W = strategy_wealth(X, pi)
        ratio = W.values[leaves, 0] / Vh.values[leaves, 0]
        assert tree.path_prob[leaves] @ ratio <= 1.0 + 1e-9


def _near_redundant_market(seed, eps):
    """X = (Y0, Y0 + eps Y1) for an arbitrage-free random d = 2 market Y:
    arbitrage-free too, with nearly collinear assets."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=3, max_branches=5)
    Y = random_market(rng, tree, d=2).values
    return AdaptedProcess(tree, np.column_stack([Y[:, 0],
                                                 Y[:, 0] + eps * Y[:, 1]]))


@pytest.mark.parametrize("eps, seed", [
    (eps, seed) for eps in (1e-2, 1e-3, 1e-4) for seed in range(40)])
def test_numeraire_on_near_redundant_markets(eps, seed):
    X = _near_redundant_market(seed, eps)
    _, V_hat = numeraire_portfolio(X)
    Y = AdaptedProcess(X.tree, 1.0 / V_hat.values[:, 0])
    assert verify_deflator(Y, X, tol=1e-9)["passed"]
