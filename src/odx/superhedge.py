"""Claims, Snell envelopes under the full measure family, and superhedging.

The envelope is the backward recursion V(node) = max(payoff, best child
expectation over the node's martingale-measure polytope); its root value is
the superhedging price, and the hedge/consumption schedule comes from the
LP decomposition of the envelope.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import (Decomposition, MarketLP, decompose_lp,
                        is_supermartingale_under_all)
from .deflators import numeraire_portfolio, stochastic_exponential
from .tree import AdaptedProcess, ModelError, PredictableProcess

EUROPEAN = "european"
AMERICAN = "american"


@dataclass(frozen=True)
class Claim:
    """Exercise values per node.  For European claims only the leaf values
    are read; American claims may be exercised at any node."""

    kind: str
    payoff: AdaptedProcess

    def __post_init__(self):
        if self.kind not in (EUROPEAN, AMERICAN):
            raise ModelError(f"unknown claim kind {self.kind!r}")
        if self.payoff.dim != 1:
            raise ModelError("claim payoff must be scalar")
        if not np.all(np.isfinite(self.payoff.values)):
            raise ModelError("claim payoff must be bounded below (finite)")


def asset_prices(X):
    """Prices S_i = E(X_i - X_i(0)): the exponential reads the increments
    of X alone."""
    cols = [stochastic_exponential(AdaptedProcess(X.tree, z)).values[:, 0]
            for z in (X.values - X.values[0]).T]
    return AdaptedProcess(X.tree, np.column_stack(cols))


def vanilla_claim(X, formula, strike, kind=EUROPEAN, asset=0):
    """Built-in put/call claims on the price S_asset of
    :func:`asset_prices`."""
    S = asset_prices(X).values[:, asset]
    if formula == "put":
        pay = np.maximum(strike - S, 0.0)
    elif formula == "call":
        pay = np.maximum(S - strike, 0.0)
    else:
        raise ModelError(f"unknown claim formula {formula!r}")
    return Claim(kind=kind, payoff=AdaptedProcess(X.tree, pay))


def snell_envelope(claim, X):
    """Smallest universal supermartingale dominating the claim.

    American: dominates the payoff at every node.  European: dominates at
    the leaves only; interior values are the pure polytope suprema, of
    X's one :class:`MarketLP`.
    """
    tree = X.tree
    lp = X.once(MarketLP)
    V = np.zeros(tree.n_nodes)
    V[tree.leaves] = claim.payoff.values[tree.leaves, 0]
    # every leaf sits at the horizon, so the earlier levels are non-leaf
    for level in reversed(tree.levels[:-1]):
        cont = lp.maxima(level, V)
        if claim.kind == AMERICAN:
            pay = claim.payoff.values[level, 0]
            cont = np.where(pay > cont, pay, cont)  # max(cont, pay) per node
        V[level] = cont
    return AdaptedProcess(tree, V)


@dataclass(frozen=True)
class PortfolioView:
    """Share/currency bookkeeping of the numeraire portfolio against the
    implied asset prices S_i = E(X_i - X_i(0))."""

    S: AdaptedProcess
    shares: PredictableProcess    # (V_hat / S_i) rho_i
    currency: PredictableProcess  # V_hat rho_i


def portfolio_view(X):
    rho_hat, V_hat = numeraire_portfolio(X)
    S = asset_prices(X)
    vh = V_hat.values[:, 0][:, None]
    currency = vh * rho_hat.values
    # S = E(X) is zero after a return of -1; no shares are held there
    shares = np.divide(currency, S.values, out=np.zeros_like(currency),
                       where=S.values != 0.0)
    tree = X.tree
    return PortfolioView(S=S,
                         shares=PredictableProcess(tree, shares),
                         currency=PredictableProcess(tree, currency))


@dataclass(frozen=True)
class SuperhedgeResult:
    price: float
    envelope: AdaptedProcess
    decomposition: Decomposition
    view: PortfolioView
    duality_gap: float  # of the envelope


def superhedge(claim, X):
    """Superhedging price, hedge/consumption schedule, and portfolio view."""
    env = snell_envelope(claim, X)
    gap = is_supermartingale_under_all(env, X).duality_gap
    dec = decompose_lp(env, X)
    view = portfolio_view(X)
    return SuperhedgeResult(price=float(env.values[0, 0]), envelope=env,
                            decomposition=dec, view=view, duality_gap=gap)
