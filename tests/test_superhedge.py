import numpy as np
import pytest

from odx.decompose import reconstruct
from odx.random_models import random_market, random_tree
from odx.superhedge import (AMERICAN, EUROPEAN, Claim, asset_prices,
                            portfolio_view, snell_envelope, superhedge,
                            vanilla_claim)
from odx.tree import AdaptedProcess, ModelError, build_tree


def test_asset_prices_binomial(binomial2):
    tree, X = binomial2
    S = asset_prices(X)
    np.testing.assert_allclose(S.values.ravel(),
                               [1.0, 1.1, 0.9, 1.21, 0.99, 0.99, 0.81],
                               rtol=1e-14)


def test_american_put_values(binomial2):
    tree, X = binomial2
    claim = vanilla_claim(X, "put", 1.05, kind=AMERICAN)
    env = snell_envelope(claim, X)
    np.testing.assert_allclose(env.values.ravel(),
                               [0.09, 0.03, 0.15, 0.0, 0.06, 0.06, 0.24],
                               atol=1e-12)
    res = superhedge(claim, X)
    assert abs(res.price - 0.09) < 1e-12
    np.testing.assert_allclose(res.decomposition.H.values[0], [-0.6],
                               atol=1e-11)
    assert np.max(np.abs(res.decomposition.C.values)) <= 1e-11


def test_t1_european_price_one(t1):
    tree, X = t1
    pay = AdaptedProcess(tree, np.array([0.0, 1.0, 0.0, 1.0]))
    claim = Claim(kind=EUROPEAN, payoff=pay)
    res = superhedge(claim, X)
    assert abs(res.price - 1.0) < 1e-12
    np.testing.assert_allclose(res.decomposition.H.values[0], [0.0],
                               atol=1e-11)
    np.testing.assert_allclose(res.decomposition.C.increments()[1:, 0],
                               [0.0, 1.0, 0.0], atol=1e-11)


def test_constant_payoff(binomial2):
    tree, X = binomial2
    pay = AdaptedProcess(tree, np.full(tree.n_nodes, 0.3))
    res = superhedge(Claim(kind=AMERICAN, payoff=pay), X)
    assert abs(res.price - 0.3) < 1e-12
    assert np.max(np.abs(res.decomposition.H.values)) <= 1e-12
    assert np.max(np.abs(res.decomposition.C.values)) <= 1e-12


def test_zero_claim(binomial2):
    tree, X = binomial2
    pay = AdaptedProcess(tree, np.zeros(tree.n_nodes))
    assert superhedge(Claim(kind=EUROPEAN, payoff=pay), X).price == 0.0


def test_claim_validation(binomial2):
    tree, X = binomial2
    pay = AdaptedProcess(tree, np.zeros(tree.n_nodes))
    with pytest.raises(ModelError, match="kind"):
        Claim(kind="bermudan", payoff=pay)
    bad = AdaptedProcess(tree, np.full(tree.n_nodes, -np.inf))
    with pytest.raises(ModelError, match="bounded"):
        Claim(kind=EUROPEAN, payoff=bad)
    with pytest.raises(ModelError, match="formula"):
        vanilla_claim(X, "straddle", 1.0)


def test_american_equals_european_on_fair_model(binomial2):
    # convex payoff, driftless prices: early exercise never strictly helps
    tree, X = binomial2
    for strike in (0.9, 1.0, 1.05, 1.2):
        am = superhedge(vanilla_claim(X, "put", strike, kind=AMERICAN), X)
        eu = superhedge(vanilla_claim(X, "put", strike, kind=EUROPEAN), X)
        assert abs(am.price - eu.price) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_domination_invariant(seed):
    rng = np.random.default_rng(300 + seed)
    tree = random_tree(rng, max_periods=3)
    X = random_market(rng, tree, d=1 + seed % 2)
    pay = AdaptedProcess(tree, np.abs(rng.normal(0.0, 1.0, tree.n_nodes)))
    kind = AMERICAN if seed % 2 else EUROPEAN
    res = superhedge(Claim(kind=kind, payoff=pay), X)
    dec = res.decomposition
    wealth = reconstruct(dec.V0, dec.H, AdaptedProcess(
        tree, np.zeros(tree.n_nodes)), X)
    check = tree.leaves if kind == EUROPEAN else np.arange(tree.n_nodes)
    assert np.min(wealth.values[check, 0] - pay.values[check, 0]) >= -1e-9
    assert np.min(dec.C.increments()) >= -1e-10


def test_portfolio_view_identities(binomial2):
    tree, X = binomial2
    view = portfolio_view(X)
    np.testing.assert_allclose(view.shares.values * view.S.values,
                               view.currency.values, atol=1e-12)
    rng = np.random.default_rng(9)
    tree2 = random_tree(rng)
    X2 = random_market(rng, tree2, d=2)
    v2 = portfolio_view(X2)
    np.testing.assert_allclose(v2.shares.values * v2.S.values,
                               v2.currency.values, atol=1e-12)


def test_envelope_is_smallest_dominating(t1):
    tree, X = t1
    pay = AdaptedProcess(tree, np.array([0.0, 1.0, 0.0, 1.0]))
    env = snell_envelope(Claim(kind=EUROPEAN, payoff=pay), X)
    from odx.decompose import is_supermartingale_under_all
    assert is_supermartingale_under_all(env, X).passed
    smaller = AdaptedProcess(tree, env.values[:, 0] - np.array([1e-3, 0, 0, 0]))
    assert not is_supermartingale_under_all(smaller, X).passed


@pytest.mark.filterwarnings("error")
def test_portfolio_view_zero_price_holds_no_shares():
    # two-period trinomial, d = 2: every node's third child has dX = (-1, -1),
    # so S = E(X) is 0 there, at leaves and at the interior node 3
    tree = build_tree([[1 / 3] * 3, [1 / 3] * 3])
    steps = np.array([[1.2, 0.0], [0.0, 1.2], [-1.0, -1.0]])
    X = np.zeros((tree.n_nodes, 2))
    X[1:4] = steps
    X[4:] = X[1:4].repeat(3, axis=0) + np.tile(steps, (3, 1))
    X = AdaptedProcess(tree, X)
    view = portfolio_view(X)
    S, currency = view.S.values, view.currency.values
    zero = S == 0.0
    assert zero[3].all() and np.any(currency[3] != 0.0)
    assert np.all(view.shares.values[zero] == 0.0)
    # wherever S != 0 the shares are currency / S to the bit
    with np.errstate(divide="ignore", invalid="ignore"):
        plain = currency / S
    inner = ~zero & ~np.isin(np.arange(tree.n_nodes), tree.leaves)[:, None]
    assert np.array_equal(view.shares.values[inner], plain[inner])
