"""The decomposition theorem as code.

A process V passes the universal-supermartingale test when, at every
non-leaf node, the best expectation of its child values over the closed
polytope of one-step martingale measures does not exceed V at the node.
Passing processes split as V(0) + sum <H, dX> - C with C nondecreasing:
the LP route builds H per node as the minimum-norm superhedging vector,
the KW route mirrors the deflate / project / drift-removal proof and must
agree on complete nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .deflators import numeraire_portfolio
from .structure import (_factor, _min_norm_solutions, _substitute,
                        extract_characteristics)
from .tree import (AdaptedProcess, ArbitrageError, ModelError,
                   PredictableProcess, SolverError, _sum_products,
                   path_cumsum, spread_to_children, step_gains)

SUPERMART_TOL = 1e-10
FEAS_TOL = 1e-9
KW_DEFER_TOL = 1e-8
UNIQUENESS_TOL = 1e-8
VERTEX_ENUM_BUDGET = 10_000  # support weights per node, see _enum_cost
VERTEX_ENUM_BLOCK = 1 << 21  # support weights per enumerated block


class _HiGHS:
    """scipy's linprog, imported on first use (past VERTEX_ENUM_BUDGET); an
    object, so perfbench's tracer counts each call once."""

    def __call__(self, *args, **kwargs):
        from scipy.optimize import linprog
        return linprog(*args, **kwargs)


linprog = _HiGHS()


# ---------------------------------------------------------------------------
# Martingale-measure polytopes, one branch group at a time
# ---------------------------------------------------------------------------

def _enum_cost(k, d):
    """Support weights :func:`_group_vertices` allocates per node of k
    children and d assets: one k-wide candidate per support of 1..d + 1
    children.  The enumeration's time and memory grow roughly with it; at
    VERTEX_ENUM_BUDGET a node takes about as long as one HiGHS solve."""
    return k * sum(comb(k, m) for m in range(1, min(k, d + 1) + 1))


def _blocks(n, cost):
    """Slices of n nodes, each of at most VERTEX_ENUM_BLOCK support weights
    at ``cost`` weights a node, and of at least one node; none for n = 0."""
    rows = max(1, VERTEX_ENUM_BLOCK // cost)
    return [slice(at, at + rows) for at in range(0, n, rows)]


def _group_vertices(dX):
    """Vertices of {q >= 0, sum q = 1, sum q dX = 0} for every node of an
    (n, k, d) stack of child increments.

    Returns the (n, m_max, k) vertex stack, zero-padded past each node's
    count, and the (n,) counts.  Vertices have at most d + 1 positive
    weights on linearly independent columns (1, dX_c), so supports of size
    m = 1..d + 1 are solved, one size at a time for the whole group, by
    :func:`_min_norm_solutions`; supports of rank below m are rejected, and
    exactly solved, nonnegative q are kept unless within 1e-10 of an
    earlier kept vertex.  Supports run over the children sorted by their
    rows of dX, so the vertices round the same way in any child order.
    """
    n, k, d = dX.shape
    order = np.lexsort(np.moveaxis(dX, -1, 0)[::-1], axis=-1)
    cols = np.concatenate([np.ones((n, k, 1)),
                           np.take_along_axis(dX, order[..., None], axis=1)],
                          axis=2)  # (n, k, d + 1): the columns (1, dX_c)
    e0 = np.eye(d + 1)[0]
    cand, ok = [], []
    for m in range(1, min(k, d + 1) + 1):
        S = np.array(list(combinations(range(k), m)))
        A = cols[:, S].mT  # (n, s, d + 1, m)
        q, rank, _ = _min_norm_solutions(A, np.broadcast_to(e0, A.shape[:-1]))
        resid = np.abs(_sum_products(A, q[..., None, :]) - e0).max(axis=-1)
        good = ((rank == m) & (np.min(q, axis=-1) >= -1e-11)
                & (resid <= FEAS_TOL))
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.clip(q, 0.0, None)
            q /= q.sum(axis=-1, keepdims=True)
        full = np.zeros((n, S.shape[0], k))
        full[:, np.arange(S.shape[0])[:, None], S] = np.where(
            good[..., None], q, 0.0)
        cand.append(full)
        ok.append(good)
    # the valid candidates first, in support order, then a greedy dedupe
    ok = np.concatenate(ok, axis=1)
    at = np.argsort(~ok, axis=1, kind="stable")[:, :ok.sum(axis=1).max()]
    cand = np.take_along_axis(np.concatenate(cand, axis=1), at[..., None],
                              axis=1)
    keep = np.take_along_axis(ok, at, axis=1)
    for j in range(1, keep.shape[1]):
        close = np.max(np.abs(cand[:, :j] - cand[:, j, None]), axis=-1) < 1e-10
        keep[:, j] &= ~np.any(close & keep[:, :j], axis=1)
    counts = keep.sum(axis=1)
    at = np.argsort(~keep, axis=1, kind="stable")[:, :counts.max()]
    verts = np.take_along_axis(cand, at[..., None], axis=1)
    verts[np.arange(at.shape[1]) >= counts[:, None]] = 0.0
    # back to each node's own child order
    out = np.empty_like(verts)
    np.put_along_axis(out, np.broadcast_to(order[:, None], verts.shape),
                      verts, axis=2)
    return out, counts


class MarketLP:
    """Per-node martingale-measure polytopes of a market process X.

    Nodes whose :func:`_enum_cost` is within :data:`VERTEX_ENUM_BUDGET`
    are handled by their vertex sets, enumerated by :func:`_group_vertices`
    in blocks of a branch group of at most :data:`VERTEX_ENUM_BLOCK` support
    weights, down to one node: a node's vertices do not depend on its block.
    Each block's padded vertex stack is kept with its node axis flattened,
    and ``node_max`` looks a node's rows up by their span.  Nodes past the
    budget fall back to a simplex solve.  An empty polytope at some node
    signals arbitrage.  Callers take node maxima through ``maxima``, and a
    FAIL witness its attaining vertex through ``node_max``.  Every stage
    takes the market's one instance, ``X.once(MarketLP)``.
    """

    def __init__(self, X):
        self.X = X
        self.tree = X.tree
        self._stacks = []  # one (n_block * m_max, k) vertex stack per block
        # node -> (stack, first row, end row); stack -1 for the simplex
        self._span = np.full((self.tree.n_nodes, 3), -1)
        for g, dX in zip(self.tree.branch_groups,
                         extract_characteristics(X).dX):
            cost = _enum_cost(g.k, X.dim)
            if cost > VERTEX_ENUM_BUDGET:
                continue
            for b in _blocks(g.nodes.size, cost):
                verts, counts = _group_vertices(dX[b])
                lo = np.arange(counts.size) * verts.shape[1]
                self._span[g.nodes[b]] = np.column_stack(
                    [np.full_like(lo, len(self._stacks)), lo, lo + counts])
                self._stacks.append(verts.reshape(-1, g.k))

    def node_max(self, node, child_values):
        """(max over polytope of q . child_values, attaining vertex q).

        Raises :class:`ArbitrageError` when the polytope is empty.
        """
        node = int(node)
        stack, lo, hi = self._span[node].tolist()
        if stack >= 0:
            verts = self._stacks[stack][lo:hi]
            if not verts.size:
                raise ArbitrageError(
                    f"no martingale measure at node {node}", node=node)
            vals = _sum_products(verts, np.asarray(child_values, dtype=float))
            i = int(np.argmax(vals))
            return float(vals[i]), verts[i]
        A_eq = self._equality_rows(node)
        res = linprog(-np.asarray(child_values, dtype=float), A_eq=A_eq,
                      b_eq=np.eye(A_eq.shape[0])[0], bounds=(0, None),
                      method="highs")
        if res.status == 2:
            raise ArbitrageError(f"no martingale measure at node {node}",
                                 node=node)
        if not res.success:
            raise SolverError(f"LP failed at node {node}: {res.message}",
                              node=node)
        return -res.fun, res.x

    def _equality_rows(self, node):
        """[1; dX^T] at a node: its martingale measures solve it = e_0."""
        kids = self.tree.children(node)
        return np.vstack([np.ones(kids.size),
                          (self.X.values[kids] - self.X.values[node]).T])

    def maxima(self, nodes, values):
        """The polytope maxima at ``nodes``, one ``node_max`` each."""
        return np.array([self.node_max(n, values[self.tree.children(n)])[0]
                         for n in nodes])


@dataclass(frozen=True)
class SupermartingaleCertificate:
    verdict: str  # "PASS" | "FAIL"
    witness: dict | None
    # max(0, V(node) - polytope max of its child values) over the nodes
    duality_gap: float

    @property
    def passed(self):
        return self.verdict == "PASS"


def is_supermartingale_under_all(V, X):
    """Test whether V is a supermartingale under every martingale measure.

    Per non-leaf node the closed-polytope LP max of the child values is
    compared against V at the node; a node fails where the excess exceeds
    SUPERMART_TOL * max(1, |V(node)|, max |V(children)|), so the verdict
    does not depend on the units of V.  FAIL carries the failing node of
    largest excess (the first on ties) and the maximizing vertex measure.
    The duality gap comes from the same node maxima, of X's one
    :class:`MarketLP`.
    """
    if V.dim != 1:
        raise ModelError("V must be scalar")
    if not np.all(np.isfinite(V.values)):
        raise ModelError("V must be finite (locally bounded below)")
    lp = X.once(MarketLP)
    nodes = X.tree.nonleaf_nodes
    v = V.values[:, 0]
    best = lp.maxima(nodes, v)
    violation = best - v[nodes]
    gap = max(0.0, float(np.max(v[nodes] - best, initial=0.0)))  # not -0.0
    # children are contiguous, so one reduceat gives each node's child max
    kid_max = np.maximum.reduceat(np.abs(v), X.tree.first_child[nodes])
    scale = np.maximum(1.0, np.maximum(np.abs(v[nodes]), kid_max))
    failed = violation > SUPERMART_TOL * scale
    if np.any(failed):
        i = int(np.argmax(np.where(failed, violation, -np.inf)))
        node = int(nodes[i])
        _, q = lp.node_max(node, v[X.tree.children(node)])
        return SupermartingaleCertificate("FAIL", {
            "node": node, "violation": float(violation[i]),
            "measure": np.asarray(q).tolist()}, gap)
    return SupermartingaleCertificate("PASS", None, gap)


def _min_norm_superhedges(dX, dV):
    """Minimum-norm H with <H, dX_c> >= dV_c for every child c, node by node.

    dX is an (n, k, d) stack of child increments and dV the (n, k) value
    increments.  Returns (H, feasible) of shapes (n, d) and (n,); H is zero
    where infeasible.  For any number of assets the minimizer is the
    minimum-norm solution of the equalities on a linearly independent
    active set of at most d rows, so every row subset of size 0..min(k, d)
    is tried, lexicographically within each size, and the feasible solution
    of least norm is kept, the first one on ties.  A row is met when its
    slack is at least -FEAS_TOL * max(1, max |dV|) of its node.  Nodes are
    solved in blocks of at most :data:`VERTEX_ENUM_BLOCK` slack entries,
    ``_enum_cost(k, d - 1)`` a node; every sum is a ``_sum_products``, so a
    node's H does not depend on its group or its block.
    """
    n, k, d = dX.shape
    blocks = _blocks(n, _enum_cost(k, d - 1))
    if len(blocks) > 1:
        parts = [_min_norm_superhedges(dX[b], dV[b]) for b in blocks]
        return tuple(np.concatenate(part) for part in zip(*parts))
    tol = FEAS_TOL * np.maximum(1.0, np.max(np.abs(dV), axis=1))
    H = np.zeros((n, d))
    best = np.where(np.all(dV <= tol[:, None], axis=1), 0.0, np.inf)
    for m in range(1, min(k, d) + 1):
        S = np.array(list(combinations(range(k), m)))
        cand, rank, _ = _min_norm_solutions(dX[:, S], dV[:, S])  # (n, s, d)
        slack = _sum_products(cand[:, :, None], dX[:, None]) - dV[:, None]
        feasible = (rank == m) & np.all(slack >= -tol[:, None, None], axis=2)
        norm = np.where(feasible, _sum_products(cand, cand), np.inf)
        i = np.argmin(norm, axis=1)
        better = norm.min(axis=1) < best
        H[better] = cand[better, i[better]]
        best[better] = norm[better, i[better]]
    return H, np.isfinite(best)


@dataclass(frozen=True)
class Decomposition:
    """V = V0 + sum <H, dX> - C with C nondecreasing along every path."""

    V0: float
    H: PredictableProcess
    C: AdaptedProcess
    diagnostics: dict = field(default_factory=dict)


def _assemble(tree, V0, H_vals, dC, diagnostics):
    dC = np.clip(dC, 0.0, None)
    dC[0] = 0.0
    C = AdaptedProcess(tree, path_cumsum(tree, dC))
    return Decomposition(V0=float(V0), H=PredictableProcess(tree, H_vals),
                         C=C, diagnostics=diagnostics)


def decompose_lp(V, X):
    """Hedge/consumption split via per-node minimum-norm superhedging.

    Requires (and reproduces) the universal-supermartingale property; the
    per-child slack <H, dX> - dV becomes the consumption increment, so the
    reconstruction is exact by construction.  Raises :class:`SolverError`
    naming the first node whose hedge cannot be solved.
    """
    tree = X.tree
    v = V.values[:, 0]
    H_vals = np.zeros((tree.n_nodes, X.dim))
    infeasible = np.zeros(tree.n_nodes, dtype=bool)
    dV_scale = np.ones(tree.n_nodes)
    for g, dX in zip(tree.branch_groups, extract_characteristics(X).dX):
        dV = g.increments(v)
        H, feasible = _min_norm_superhedges(dX, dV)
        H_vals[g.nodes] = H
        infeasible[g.nodes] = ~feasible
        dV_scale[g.kids] = np.maximum(1.0, np.abs(dV).max(axis=1))[:, None]
    dC = step_gains(X, H_vals) - V.increments()[:, 0]
    failed = infeasible.copy()
    failed[tree.parent[1:][dC[1:] < -1e-8 * dV_scale[1:]]] = True
    if np.any(failed):
        node = int(np.argmax(failed))  # the first failed node
        if not infeasible[node]:
            raise SolverError(f"negative consumption at node {node}",
                              node=node)
        lp = X.once(MarketLP)
        (best,) = lp.maxima([node], v)
        raise SolverError(
            f"least-distance hedge infeasible at node {node}, where the "
            f"polytope maximum is {float(best)!r} against V {float(v[node])!r}"
            f" (condition number of [1; dX^T] "
            f"{np.linalg.cond(lp._equality_rows(node)):.3g})", node=node)
    return _assemble(tree, v[0], H_vals, dC, {"route": "LP"})


def decompose_kw(V, X):
    """Hedge/consumption split along the proof route: deflate by the
    numeraire wealth, project the compounded deflated increments
    (1 + <rho_hat, dX>) dU on the martingale part, remove the drift; as
    the step size shrinks this is the continuous-time projection.

    That projection gives the diagnostics theta, B and N.  H is the
    p-weighted regression of dV on dM in the same substitution, equal in
    exact arithmetic to V_hat (U rho_hat + theta), whose terms cancel.  On
    nodes where N exceeds :data:`KW_DEFER_TOL` (incomplete nodes: the proof
    has no discrete counterpart there) H is the LP route's, and those nodes
    are listed in the diagnostics.  C is the slack <H, dX> - dV at every
    node, and every gain <., dX> a :func:`~odx.tree.step_gains`.
    """
    tree = X.tree
    rho_hat, V_hat = numeraire_portfolio(X)
    U = V.values[:, 0] / V_hat.values[:, 0]
    ch = extract_characteristics(X)
    a = ch.a.values  # predictable step drift of X
    growth = 1.0 + step_gains(X, rho_hat.values)

    H_vals = np.zeros((tree.n_nodes, X.dim))
    theta_vals = np.zeros((tree.n_nodes, X.dim))
    dB_steps = np.zeros(tree.n_nodes)  # per-step drift, indexed by parent node
    n_sq = np.zeros(tree.n_nodes)      # conditional second moment of dN
    defer = np.zeros(tree.n_nodes, dtype=bool)
    infeasible = np.zeros(tree.n_nodes, dtype=bool)
    for g, dX, dM, B in zip(tree.branch_groups, ch.dX, ch.dM, ch.B):
        nodes, p = g.nodes, g.p
        W = growth[g.kids] * g.increments(U)
        dV = g.increments(V.values[:, 0])
        # p-weighted regressions on dM: B^+ sqrt(p) y, B = Q^T T P
        Q, T, P = _factor(B)
        y = np.sqrt(p) * np.stack([W, dV])
        z = _substitute(T, [_sum_products(q, y) for q in Q])
        theta, H = sum(r * zj[..., None] for r, zj in zip(P, z))
        resid = W - _sum_products(dM, theta[:, None])
        alpha = _sum_products(p, resid)
        dN = resid - alpha[:, None]
        dB = _sum_products(theta, a[nodes]) - alpha
        theta_vals[nodes] = theta
        dB_steps[nodes] = dB
        n_sq[nodes] = _sum_products(p, dN**2)
        scale = np.maximum(1.0, np.max(np.abs(W), axis=1))
        defer[nodes] = np.max(np.abs(dN), axis=1) > KW_DEFER_TOL * scale
        H_vals[nodes] = H
        # incomplete nodes take the least-distance hedge instead
        lp_rows = defer[nodes]
        H_vals[nodes[lp_rows]], feasible = _min_norm_superhedges(
            dX[lp_rows], dV[lp_rows])
        infeasible[nodes[lp_rows]] = ~feasible
    if np.any(infeasible):
        node = int(np.flatnonzero(infeasible)[0])
        raise SolverError(f"deferred LP infeasible at node {node}", node=node)
    dC = step_gains(X, H_vals) - V.increments()[:, 0]
    nonleaf = tree.nonleaf_nodes
    n_norm = float(np.sqrt(np.mean(n_sq[nonleaf]))) if nonleaf.size else 0.0
    diags = {
        "route": "KW",
        "theta": PredictableProcess(tree, theta_vals),
        "B": AdaptedProcess(tree, path_cumsum(
            tree, spread_to_children(tree, dB_steps))),
        "N_norm": n_norm,
        "node_N_norm": dict(zip(nonleaf.tolist(),
                                np.sqrt(n_sq[nonleaf]).tolist())),
        "min_dB": float(np.min(dB_steps[nonleaf])) if nonleaf.size else 0.0,
        "deferred_nodes": tuple(np.flatnonzero(defer).tolist()),
    }
    return _assemble(tree, V.values[0, 0], H_vals, dC, diags)


def reconstruct(V0, H, C, X):
    """V(node) = V0 + sum over the path of <H(parent), dX> - C(node)."""
    return AdaptedProcess(X.tree, float(V0) + gains_process(H, X).values[:, 0]
                          - C.values[:, 0])


def gains_process(H, X):
    """Running stochastic integral sum <H, dX> as an AdaptedProcess."""
    return AdaptedProcess(X.tree,
                          path_cumsum(X.tree, step_gains(X, H.values)))


def check_uniqueness(d1, d2, X):
    """Compare two decompositions of the same V in the theorem's sense:
    equal consumption and equal stochastic integrals (H may differ off the
    support of dX), each to UNIQUENESS_TOL s with s = max(1, max |V|).  A
    reconstruction gap above 1e-7 s is a :class:`SolverError` at its node."""
    G1, G2 = (gains_process(d.H, X).values[:, 0] for d in (d1, d2))
    V1 = float(d1.V0) + G1 - d1.C.values[:, 0]
    V2 = float(d2.V0) + G2 - d2.C.values[:, 0]
    node = int(np.argmax(np.abs(V1 - V2)))
    scale = max(1.0, float(np.max(np.abs(V1))))
    if abs(V1[node] - V2[node]) > 1e-7 * scale:
        raise SolverError(f"decompositions reconstruct different processes"
                          f" at node {node}: {float(V1[node])!r} against "
                          f"{float(V2[node])!r}", node=node)
    c_gap = float(np.max(np.abs(d1.C.values - d2.C.values)))
    g_gap = float(np.max(np.abs(G1 - G2)))
    return {"C_gap": c_gap, "integral_gap": g_gap,
            "passed": max(c_gap, g_gap) <= UNIQUENESS_TOL * scale}
