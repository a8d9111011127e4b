"""Seeded random trees, arbitrage-free markets, and wealth processes.

Used by the property/acceptance suite and handy for fuzzing user models.
Markets are built arbitrage-free by centering the child increments at
each node under a strictly positive auxiliary measure; because that
measure differs from the tree probabilities, the market still drifts.
"""
from __future__ import annotations

import numpy as np

from .decompose import MarketLP
from .superhedge import EUROPEAN, Claim, snell_envelope
from .tree import (AdaptedProcess, PredictableProcess, build_tree,
                   path_cumprod, path_cumsum, step_gains)

STRATEGY_FLOOR = 0.05
COMPLETE_PERIODS = 3


def random_tree(rng, max_periods=4, max_branches=4):
    """Random tree with per-node branching in [2, max_branches] and
    Dirichlet branch probabilities (strictly positive)."""

    def node_spec(t):
        if t >= periods:
            return None
        k = int(rng.integers(2, max_branches + 1))
        probs = rng.dirichlet(np.full(k, 2.0))
        probs = np.clip(probs, 0.02, None)
        probs /= probs.sum()
        return {"probs": probs, "children": [node_spec(t + 1) for _ in range(k)]}

    periods = int(rng.integers(1, max_periods + 1))
    return build_tree(node_spec(0))


def random_market(rng, tree, d=1, vol=0.1):
    """Arbitrage-free d-dimensional market X on the tree, generically
    drifting under the tree probabilities."""
    vals = np.zeros((tree.n_nodes, d))
    for node in tree.nonleaf_nodes:
        kids = tree.children(node)
        k = kids.size
        dX = rng.normal(0.0, vol, size=(k, d))
        w = rng.dirichlet(np.full(k, 2.0))
        w = np.clip(w, 0.05, None)
        w /= w.sum()
        dX -= w @ dX  # interior martingale measure w => no arbitrage
        vals[kids] = vals[node] + dX
    return AdaptedProcess(tree, vals)


def random_admissible_strategy(rng, X):
    """Random proportional portfolio pi with 1 + <pi, dX> >=
    :data:`STRATEGY_FLOOR` at every branch (scaled down where needed), so
    the generated wealth stays strictly positive."""
    tree = X.tree
    d = X.dim
    pi = np.zeros((tree.n_nodes, d))
    for node in tree.nonleaf_nodes:
        kids = tree.children(node)
        dX = X.values[kids] - X.values[node]
        cand = rng.normal(0.0, 3.0, size=d)
        worst = np.min(dX @ cand)
        if worst < STRATEGY_FLOOR - 1.0:
            cand *= (1.0 - STRATEGY_FLOOR) / (-worst)
        pi[node] = cand
    return PredictableProcess(tree, pi)


def strategy_wealth(X, pi):
    """Wealth E(integral <pi, dX>) of a proportional strategy, started at 1."""
    return AdaptedProcess(X.tree,
                          path_cumprod(X.tree, 1.0 + step_gains(X, pi.values)))


def random_hedge_consumption(rng, X):
    """Random (V0, H, C) with H arbitrary predictable and C nondecreasing."""
    tree = X.tree
    d = X.dim
    H = np.zeros((tree.n_nodes, d))
    H[tree.nonleaf_nodes] = rng.normal(0.0, 2.0, size=(tree.nonleaf_nodes.size, d))
    dC = np.abs(rng.normal(0.0, 0.3, size=tree.n_nodes))
    dC *= rng.random(tree.n_nodes) < 0.7  # some steps consume nothing
    dC[0] = 0.0
    V0 = float(rng.normal(0.0, 1.0))
    return (V0, PredictableProcess(tree, H),
            AdaptedProcess(tree, path_cumsum(tree, dC)))


def random_universal_supermartingale(rng, X, lp=None):
    """Backward construction by vertex-measure mixing: at each node the
    value is the best vertex expectation of the child values plus a
    nonnegative slack, hence a supermartingale under every measure in the
    polytope."""
    tree = X.tree
    lp = lp if lp is not None else MarketLP(X)
    V = np.zeros(tree.n_nodes)
    V[tree.leaves] = rng.normal(0.0, 1.0, size=tree.leaves.size)
    for level in reversed(tree.levels[:-1]):
        best = lp.maxima(level, V)
        for node, b in zip(level, best):  # the draws stay in node order
            slack = abs(rng.normal(0.0, 0.2)) if rng.random() < 0.5 else 0.0
            V[node] = b + slack
    return AdaptedProcess(tree, V)


def random_complete_binary_model(rng):
    """Binary tree of :data:`COMPLETE_PERIODS` periods, with a 1-d market
    of nondegenerate increments at every node: every node is complete."""
    def node_spec(t):
        if t >= COMPLETE_PERIODS:
            return None
        q = float(rng.uniform(0.25, 0.75))
        return {"probs": [q, 1.0 - q],
                "children": [node_spec(t + 1), node_spec(t + 1)]}

    tree = build_tree(node_spec(0))
    vals = np.zeros((tree.n_nodes, 1))
    for node in tree.nonleaf_nodes:
        kids = tree.children(node)
        up = float(rng.uniform(0.05, 0.3))
        dn = -float(rng.uniform(0.05, 0.3))
        vals[kids[0]] = vals[node] + up
        vals[kids[1]] = vals[node] + dn
    return tree, AdaptedProcess(tree, vals)


def martingale_value_process(rng, X, lp=None):
    """Value process of a random terminal payoff under per-node maximizing
    vertex measures with zero slack (on complete trees: the unique
    replication value, so both decomposition routes coincide with C = 0)."""
    tree = X.tree
    payoff = np.zeros(tree.n_nodes)
    payoff[tree.leaves] = rng.normal(0.0, 1.0, size=tree.leaves.size)
    return snell_envelope(Claim(EUROPEAN, AdaptedProcess(tree, payoff)), X,
                          lp=lp)
