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

from .structure import extract_characteristics, psd_pinv_apply
from .tree import (AdaptedProcess, ArbitrageError, ModelError,
                   PredictableProcess, child_weighted_sums, path_cumprod,
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
    the result is strictly positive.
    """
    if Z.dim != 1:
        raise ModelError("stochastic exponential is defined for scalar Z")
    if abs(Z.values[0, 0]) > 0.0:
        raise ModelError("Z(0) must be 0")
    dZ = Z.increments()[:, 0]
    if strict and np.any(dZ <= -1.0):
        raise ModelError("jump dZ <= -1: exponential would not stay positive")
    if np.any(dZ < -1.0):
        raise ModelError("jump dZ < -1 is not supported on this backend")
    vals = path_cumprod(Z.tree, 1.0 + dZ)
    return AdaptedProcess(Z.tree, vals)


def _log_optimal(p, dX):
    """Damped Newton solve of sum_c p_c dX_c / (1 + <rho, dX_c>) = 0 at a
    stack of nodes: p is (n, k), dX is (n, k, d).

    Every node runs its own iteration: it stops once its gradient is below
    :data:`NEWTON_TOL` times its increment scale, when its Hessian is not
    finite (a riskless gain past 1e154 overflows it), when its step stalls
    at the floating-point floor, when |rho| passes RHO_CAP, or after
    :data:`NEWTON_MAXITER` steps.  The step is the minimum-norm solve of
    the PSD Hessian by ``psd_pinv_apply``, so directions that the Hessian
    cannot see (dX of lower rank than d) are left alone.  Returns the
    iterate of smallest gradient of each node and the gradient there.
    """
    n, _, d = dX.shape
    rho = np.zeros((n, d))
    scale = np.maximum(1.0, np.max(np.abs(dX), axis=(1, 2)))
    best_rho = rho.copy()
    best_norm = np.full(n, np.inf)
    live = np.arange(n)
    for _ in range(NEWTON_MAXITER):
        x, pl, r = dX[live], p[live], rho[live]
        w = 1.0 + np.matvec(x, r)
        grad = np.vecmat(pl / w, x)
        g_norm = np.max(np.abs(grad), axis=1)
        better = g_norm < best_norm[live]
        best_rho[live[better]] = r[better]
        best_norm[live[better]] = g_norm[better]
        go = g_norm > NEWTON_TOL * scale[live]
        live, x, pl, r, w, grad = live[go], x[go], pl[go], r[go], w[go], grad[go]
        with np.errstate(over="ignore", invalid="ignore"):
            hess = x.mT @ ((pl / w**2)[:, :, None] * x)
        ok = np.isfinite(hess).all(axis=(1, 2))
        live, x, pl, r, w, grad, hess = (
            v[ok] for v in (live, x, pl, r, w, grad, hess))
        if live.size == 0:
            break
        step, _ = psd_pinv_apply(hess, grad)
        # halve until wealth stays positive and log-wealth does not drop
        obj = np.vecdot(pl, np.log(w))
        todo = np.arange(live.size)
        for _ in range(60):
            w_new = 1.0 + np.matvec(x[todo], r[todo] + step[todo])
            ok = np.min(w_new, axis=1) > 1e-12
            ok[ok] = (np.vecdot(pl[todo[ok]], np.log(w_new[ok]))
                      >= obj[todo[ok]] - 1e-13)
            todo = todo[~ok]
            if todo.size == 0:
                break
            step[todo] *= 0.5
        # stalled at the floating-point floor
        moving = (np.max(np.abs(step), axis=1)
                  > 1e-16 * np.maximum(1.0, np.max(np.abs(r), axis=1)))
        r = r + step
        rho[live] = r
        live = live[moving & (np.max(np.abs(r), axis=1) <= RHO_CAP)]
        if live.size == 0:
            break
    w = 1.0 + np.matvec(dX, best_rho)
    return best_rho, np.vecmat(p / w, dX)


def numeraire_portfolio(X):
    """Growth-optimal portfolio rho_hat and its wealth V_hat (V_hat(0) = 1).

    Raises :class:`ArbitrageError` with the offending node when log-wealth
    is unbounded there (the node admits arbitrage).
    """
    tree = X.tree
    d = X.dim
    rho_vals = np.zeros((tree.n_nodes, d))
    factors = np.ones(tree.n_nodes)
    unbounded = np.zeros(tree.n_nodes, dtype=bool)
    for g, dX in zip(tree.branch_groups, extract_characteristics(X).dX):
        rho, grad = _log_optimal(g.p, dX)
        scale = np.maximum(1.0, np.max(np.abs(dX), axis=(1, 2)))
        unbounded[g.nodes] = ((np.max(np.abs(grad), axis=1)
                               > NUMERAIRE_TOL * scale)
                              | (np.max(np.abs(rho), axis=1) > RHO_CAP))
        rho_vals[g.nodes] = rho
        factors[g.kids] = 1.0 + np.matvec(dX, rho)
    if np.any(unbounded):
        node = int(np.argmax(unbounded))
        raise ArbitrageError(
            f"log-utility unbounded at node {node} (no numeraire portfolio)",
            node=node)
    V_hat = AdaptedProcess(tree, path_cumprod(tree, factors))
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

    At each non-leaf node, dL is drawn by the Generator ``rng`` from the
    affine subspace {sum w dL = 0, sum w dL dM^T = 0}, where dM = dX - a
    is the martingale increment of X's characteristics, and scaled to
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
        dL_all = np.zeros((tree.n_nodes, n_samples))
    except (ValueError, MemoryError) as exc:
        raise ModelError(
            f"cannot hold {n_samples} jump martingales: {exc}") from exc
    w_all = tree.p if weights is None else np.asarray(weights, dtype=np.float64)
    # per node: the rank of the constraints and the right singular vectors,
    # whose trailing rows span {sum w dL = 0, sum w dL dM^T = 0}
    free = np.zeros(tree.n_nodes, dtype=np.int64)
    svd = []
    for g, dM in zip(tree.branch_groups, extract_characteristics(X).dM):
        w = w_all[g.kids]
        cons = np.concatenate([w[:, None, :], (w[:, :, None] * dM).mT], axis=1)
        _, sv, vh = np.linalg.svd(cons, full_matrices=True)
        r = np.sum(sv > np.max(sv, axis=1, keepdims=True) * 1e-12, axis=1)
        free[g.nodes] = g.k - r
        svd.append((g, r, vh))
    # the normals are drawn node by node in id order, one (free, n_samples)
    # block per node, so a seed gives the same deflators in any layout
    offset = np.concatenate([[0], np.cumsum(free * n_samples)])
    normals = rng.standard_normal(offset[-1])
    for g, r, vh in svd:
        for rk in np.flatnonzero(np.bincount(r)):
            dim = g.k - rk
            if dim == 0:
                continue
            sel = r == rk
            nodes = g.nodes[sel]
            coeff = normals[offset[nodes][:, None]
                            + np.arange(dim * n_samples)]
            dL = vh[sel, rk:, :].mT @ coeff.reshape(-1, dim, n_samples)
            sup = np.max(np.abs(dL), axis=1, keepdims=True)
            nz = sup > 1e-14
            dL_all[g.kids[sel]] = np.where(
                nz, dL * ((1.0 - MARGIN) / np.where(nz, sup, 1.0)), 0.0)
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


def verify_deflator(Y, X, tol=1e-10):
    """Exact martingale check of Y and Y * X_i at every non-leaf node.

    Returns a dict with the maximal conditional-mean defects and a
    ``passed`` flag (both defects <= tol).
    """
    if Y.dim != 1:
        raise ModelError("deflators are scalar processes")
    if np.min(Y.values) <= 0.0:
        raise ModelError("deflator must be strictly positive")
    if abs(Y.values[0, 0] - 1.0) > 1e-12:
        raise ModelError("deflator must start at 1")
    tree = X.tree
    YX = AdaptedProcess(tree, Y.values * X.values)
    y_defect = np.abs(child_weighted_sums(tree, Y.increments()))
    yx_defect = np.abs(child_weighted_sums(tree, YX.increments()))
    max_y = float(np.max(y_defect, initial=0.0))
    max_yx = float(np.max(yx_defect, initial=0.0))
    return {"max_Y_defect": max_y, "max_YX_defect": max_yx,
            "passed": max_y <= tol and max_yx <= tol}
