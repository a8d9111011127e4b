"""Stochastic exponentials, the log-optimal numeraire, and deflator families.

On a tree the stochastic exponential is the running product of (1 + dZ).
The numeraire portfolio is solved exactly per node from the first-order
condition of log-wealth (one Newton iteration per branch group, with
per-node stopping), which makes 1/V_hat and X_i/V_hat exact
martingales; product deflators (1/V_hat) * E(L) are generated from jump
martingales orthogonal (under the implied martingale measure) to the
martingale part of the market.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .structure import (_columns, _min_norm_solutions, _substitute,
                        extract_characteristics)
from .tree import (AdaptedProcess, ArbitrageError, ModelError,
                   PredictableProcess, _sum_products, path_cumprod,
                   path_cumsum)

NEWTON_TOL = 1e-15
NEWTON_MAXITER = 100
RHO_CAP = 1e8
NUMERAIRE_TOL = 1e-10
MARGIN = 0.1
DEFAULT_EXTRAS = 8


def stochastic_exponential(Z, strict=False):
    """E(Z) as the running product of (1 + dZ) along each path.

    Z must be scalar with Z(0) = 0.  The exponential absorbs at zero after
    a jump dZ = -1; with ``strict=True`` any jump dZ <= -1 is rejected so
    the result is strictly positive.  The error names the first such node.
    """
    if Z.dim != 1:
        raise ModelError("stochastic exponential is defined for scalar Z")
    if abs(Z.values[0, 0]) > 0.0:
        raise ModelError("Z(0) must be 0")
    dZ = Z.increments()[:, 0]
    bad = np.flatnonzero(dZ <= -1.0 if strict else dZ < -1.0)
    if bad.size:
        raise ModelError(f"node {bad[0]}: jump dZ = {float(dZ[bad[0]])!r} " + (
            "<= -1: exponential would not stay positive" if strict
            else "< -1: exponential would turn negative"))
    vals = path_cumprod(Z.tree, 1.0 + dZ)
    return AdaptedProcess(Z.tree, vals)


def _log_optimal(p, U):
    """Damped Newton solve of sum_c p_c U_c / (1 + <rho, U_c>) = 0 at a
    stack of nodes: p is (n, k), U is (n, k, d) with orthonormal or zero
    columns, so |U| <= 1 and no rule needs a unit scale.

    Each node stops once its gradient is below :data:`NEWTON_TOL`, when its
    step stalls at the floating-point floor, when |rho| passes RHO_CAP, or
    after :data:`NEWTON_MAXITER` steps.  The step is the minimum-norm solve
    of the Hessian sum_c p_c U_c U_c^T / w_c^2 by ``_min_norm_solutions``,
    and every sum a ``_sum_products``.  Returns each node's iterate of
    smallest gradient, its growth factors w_c = 1 + <rho, U_c>, and where
    log-wealth is unbounded: a gradient there above NUMERAIRE_TOL, or an
    iterate past RHO_CAP."""
    n, _, d = U.shape
    rho = np.zeros((n, d))
    best_rho = rho.copy()
    best_norm = np.full(n, np.inf)
    live = np.arange(n)
    for _ in range(NEWTON_MAXITER):
        x, pl, r = U[live], p[live], rho[live]
        w = 1.0 + _sum_products(x, r[:, None])
        grad = _sum_products(x.mT, (pl / w)[:, None])
        g_norm = np.max(np.abs(grad), axis=1)
        better = g_norm < best_norm[live]
        best_rho[live[better]] = r[better]
        best_norm[live[better]] = g_norm[better]
        go = g_norm > NEWTON_TOL
        live, x, pl, r, w, grad = live[go], x[go], pl[go], r[go], w[go], grad[go]
        if live.size == 0:
            break
        hess = _sum_products(x.mT[:, :, None],
                             ((pl / w**2)[:, None] * x.mT)[:, None])
        step = _min_norm_solutions(hess, grad)[0]
        # halve until wealth stays positive and log-wealth does not drop
        obj = _sum_products(pl, np.log(w))
        todo = np.arange(live.size)
        for _ in range(60):
            w_new = 1.0 + _sum_products(x[todo], (r + step)[todo, None])
            ok = np.min(w_new, axis=1) > 1e-12
            ok[ok] = (_sum_products(pl[todo[ok]], np.log(w_new[ok]))
                      >= obj[todo[ok]] - 1e-13)
            todo = todo[~ok]
            if todo.size == 0:
                break
            step[todo] *= 0.5
        # stalled at the floating-point floor of rho
        moving = (np.max(np.abs(step), axis=1)
                  > 1e-16 * np.max(np.abs(r), axis=1))
        r = r + step
        rho[live] = r
        live = live[moving & (np.max(np.abs(r), axis=1) <= RHO_CAP)]
    w = 1.0 + _sum_products(U, best_rho[:, None])
    return best_rho, w, ((best_norm > NUMERAIRE_TOL)
                         | (np.max(np.abs(rho), axis=1) > RHO_CAP))


def _in_units(rho, L, units):
    """The minimum-norm rho_hat with <rho_hat, dX_c> = <rho, U_c>, for
    dX / units = U L^T: y / units, L^T y = rho, projected off ker(dX).  Each
    e_j - z, L^T z = L^T e_j, is exactly 0 where column j was kept, and
    those of the dropped columns span ker(dX / units)."""
    d = len(L)
    kernel = []
    for j, row in enumerate(L):
        z = _substitute(L, row + [0.0] * (d - 1 - j), upper=True)
        kernel.append((np.eye(d)[j] - np.stack(z, axis=-1)) / units)
    y = np.stack(_substitute(L, list(rho.T), upper=True), axis=-1)
    return _min_norm_solutions(np.stack(kernel, axis=-2), v=y / units)[2]


def numeraire_portfolio(X):
    """Growth-optimal portfolio rho_hat and its wealth V_hat (V_hat(0) = 1).

    Each node's :func:`_log_optimal` runs on U, the orthonormal columns of
    :func:`~odx.structure._columns` on dX with each asset's column divided
    by a power of two near its largest |dX|, which is exact, so the iterates
    do not depend on X's units.  V_hat is the running product of the
    iteration's growth factors, and rho_hat the iterate in X's units
    (:func:`_in_units`).  Raises :class:`ArbitrageError` with the offending
    node when log-wealth is unbounded there (the node admits arbitrage).
    """
    tree = X.tree
    rho_vals = np.zeros((tree.n_nodes, X.dim))
    growth = np.ones(tree.n_nodes)
    unbounded = np.zeros(tree.n_nodes, dtype=bool)
    for g, dX in zip(tree.branch_groups, extract_characteristics(X).dX):
        units = np.ldexp(1.0, np.frexp(np.max(np.abs(dX), axis=1))[1])
        Q, L = _columns(dX / units[:, None])
        rho, growth[g.kids], unbounded[g.nodes] = _log_optimal(
            g.p, np.stack(Q, axis=-1))
        rho_vals[g.nodes] = _in_units(rho, L, units)
    if np.any(unbounded):
        node = int(np.argmax(unbounded))
        raise ArbitrageError(
            f"log-utility unbounded at node {node} (no numeraire portfolio)",
            node=node)
    V_hat = AdaptedProcess(tree, path_cumprod(tree, growth))
    if np.min(V_hat.values) <= 0.0:
        raise ArbitrageError("numeraire wealth not strictly positive")
    return PredictableProcess(tree, rho_vals), V_hat


def implied_measure(V_hat):
    """Branch weights of the martingale measure induced by the numeraire.

    Returns (n_nodes,) q with q[child] = p * Y_hat(child)/Y_hat(parent),
    renormalized within each sibling group (the renormalization removes
    the Newton residual, which is below 1e-12).
    """
    tree = V_hat.tree
    vh = V_hat.values[:, 0]
    q = np.ones(tree.n_nodes)
    for g in tree.branch_groups:
        raw = g.p * vh[g.nodes][:, None] / vh[g.kids]
        q[g.kids] = raw / raw.sum(axis=1, keepdims=True)
    return q


@dataclass(frozen=True)
class DeflatorFamily:
    """The numeraire deflator Y_hat = 1/V_hat plus product deflators
    Y_hat * E(L) built from orthogonal jump martingales L."""

    X: AdaptedProcess
    rho_hat: PredictableProcess
    V_hat: AdaptedProcess
    Y_hat: AdaptedProcess
    q: np.ndarray  # implied branch weights, (n_nodes,)
    extras: tuple = field(default_factory=tuple)  # of (L, Y) pairs

    def all_deflators(self):
        return [self.Y_hat] + [Y for _, Y in self.extras]


def orthogonal_jump_martingale(X, rng, weights=None, n_samples=1):
    """Sample jump martingales L orthogonal to the martingale part of X.

    At each non-leaf node, dL takes its children's rows of one
    (n_nodes, n_samples) standard normal draw of the Generator ``rng`` (so
    a seed gives the same deflators in any group layout), projects them off
    the rows of {sum w dL = 0, sum w dL dM^T = 0}, dM = dX - a the
    martingale increment of X's characteristics, and scales them to
    sup-norm 1 - :data:`MARGIN`, so 1 + dL >= MARGIN > 0.
    Binary nodes admit only dL = 0.  ``weights`` defaults to the tree
    probabilities; pass the implied martingale-measure weights to make
    Y_hat * E(L) an exact deflator on drifting markets.

    Returns a list of ``n_samples`` scalar AdaptedProcess L with L(0) = 0.
    A sample count whose increments numpy cannot allocate is a
    :class:`ModelError` naming the count.
    """
    tree = X.tree
    try:
        dL_all = rng.standard_normal((tree.n_nodes, n_samples))
    except (ValueError, MemoryError) as exc:
        raise ModelError(
            f"cannot hold {n_samples} jump martingales: {exc}") from exc
    dL_all[0] = 0.0  # the root's; each child's row is replaced by its dL
    w_all = tree.p if weights is None else np.asarray(weights, dtype=np.float64)
    for g, dM in zip(tree.branch_groups, extract_characteristics(X).dM):
        w = w_all[g.kids]
        cons = np.concatenate([w[:, None, :], (w[:, :, None] * dM).mT], axis=1)
        _, _, dL = _min_norm_solutions(cons[:, None], v=dL_all[g.kids].mT)
        sup = np.max(np.abs(dL), axis=-1, keepdims=True)
        nz = sup > 1e-14
        dL_all[g.kids] = np.where(
            nz, dL * ((1.0 - MARGIN) / np.where(nz, sup, 1.0)), 0.0).mT
    L = path_cumsum(tree, dL_all)
    return [AdaptedProcess(tree, L[:, s].copy()) for s in range(n_samples)]


def build_deflator_family(X, n_extras=DEFAULT_EXTRAS, seed=0):
    """Numeraire deflator plus ``n_extras`` seeded product deflators."""
    tree = X.tree
    rho_hat, V_hat = numeraire_portfolio(X)
    Y_hat = AdaptedProcess(tree, 1.0 / V_hat.values[:, 0])
    q = implied_measure(V_hat)
    rng = np.random.default_rng(seed)
    extras = []
    if n_extras > 0:
        Ls = orthogonal_jump_martingale(X, rng, weights=q, n_samples=n_extras)
        for L in Ls:
            E = stochastic_exponential(L, strict=True)
            Y = AdaptedProcess(tree, Y_hat.values[:, 0] * E.values[:, 0])
            extras.append((L, Y))
    return DeflatorFamily(X=X, rho_hat=rho_hat, V_hat=V_hat, Y_hat=Y_hat,
                          q=q, extras=tuple(extras))
