"""Library code that only the tests call, kept out of the installed package.

The package keeps one path per job: ``odx.mc.stream_deflated`` for the
Monte Carlo, ``odx.structure.extract_characteristics`` for the per-node
step data, and ``odx.decompose`` for the universal-supermartingale test.
The second paths that the tests check them against live here:

* ``conditional_moment``, ``doob_decompose`` and ``quadratic_covariation``,
  exact per-node moments, drift and bracket of a process on a tree;
* ``verify_deflator``, the exact martingale check of a deflator Y and of
  Y * X at every non-leaf node;
* ``simulate``, ``deflate_paths`` and ``martingale_test``, the full-panel
  Monte Carlo that ``stream_deflated`` must match to the bit, with its
  ``PathEnsemble`` and the one-dimensional ``scalar_spec``;
* ``kw_regress``, a cross-sectional surrogate of the Kunita-Watanabe
  projection on Monte Carlo paths, and ``covariances``, the c = B^T B that
  the package keeps as its factor B;
* ``exact_regression``, the KW hedge of one node in ``Fraction``
  arithmetic, which the float regression of ``odx.decompose`` must match.

The panel functions call the step kernels of ``odx.mc`` through the module,
so a test that patches one of them there patches the panel too.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from odx import mc
from odx.structure import solve_factor
from odx.tree import (AdaptedProcess, ModelError, child_weighted_sums,
                      path_cumsum, spread_to_children)


def covariances(ch):
    """(n_nodes, d, d) covariances c = B^T B of the factors of the
    Characteristics ``ch``, zero at the leaves."""
    tree = ch.a.tree
    c = np.zeros((tree.n_nodes, ch.a.dim, ch.a.dim))
    for g, B in zip(tree.branch_groups, ch.B):
        c[g.nodes] = B.mT @ B
    return c


def kw_regress(U, dM):
    """Cross-sectional least-squares surrogate of the conditional
    projection: per step, regress dU on dM across paths (one global bin).

    U is (paths, steps+1); dM is (paths, steps, d).  All steps solve in one
    stacked ``solve_factor`` call on the factors of their (d, d) sample
    covariances.
    Returns theta (steps, d), the cumulative drift B (steps+1,) with
    dB = -(mean residual), and the root-mean-square of the residual after
    drift removal (the statistical size of the orthogonal part)."""
    U = np.asarray(U, dtype=np.float64)
    P = U.shape[0]
    x = np.asarray(dM, dtype=np.float64).transpose(1, 0, 2)  # (steps, paths, d)
    y = np.diff(U, axis=1).T                                  # (steps, paths)
    xc = x - x.mean(axis=1, keepdims=True)
    cross = np.vecmat(y - y.mean(axis=1, keepdims=True), xc) / P
    theta = solve_factor(xc / np.sqrt(P), cross)[0]
    resid = y - np.matvec(x, theta)
    dB = -resid.mean(axis=1)
    centered = resid + dB[:, None]
    B = np.concatenate([[0.0], np.cumsum(dB)])
    n_norm = float(np.sqrt(np.mean(np.vecdot(centered, centered)) / P))
    return theta, B, n_norm


def exact_regression(dM, p, dV):
    """The p-weighted regression of dV on dM at one node, in exact
    arithmetic: the minimum-norm h with sum_c p_c dM_c dM_c^T h =
    sum_c p_c dM_c dV_c, each float input read as the Fraction it is, and
    h rounded to floats once at the end.  dM is (k, d), p and dV (k,)."""
    M = [[Fraction(x) for x in row] for row in np.asarray(dM).tolist()]
    w = [Fraction(x) for x in np.asarray(p).tolist()]
    y = [Fraction(x) for x in np.asarray(dV).tolist()]
    d = len(M[0])
    c = [[sum(wc * m[i] * m[j] for wc, m in zip(w, M)) for j in range(d)]
         for i in range(d)]
    b = [sum(wc * m[i] * yc for wc, m, yc in zip(w, M, y)) for i in range(d)]
    # b lies in the range of c, the span of c's row basis A: h = A^T lam
    # with A A^T lam = b on those rows
    rows, reduced = [], []
    for i, row in enumerate(c):
        for j, r in reduced:
            f = row[j] / r[j]
            row = [x - f * z for x, z in zip(row, r)]
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is not None:
            rows.append(i)
            reduced.append((pivot, row))
    A = [c[i] for i in rows]
    aug = [[sum(x * z for x, z in zip(r, s)) for s in A] + [b[i]]
           for r, i in zip(A, rows)]
    for j in range(len(A)):  # Gauss-Jordan; A A^T is positive definite
        aug[j] = [x / aug[j][j] for x in aug[j]]
        for i in range(len(A)):
            if i != j:
                aug[i] = [x - aug[i][j] * z for x, z in zip(aug[i], aug[j])]
    lam = [row[-1] for row in aug]
    return np.array([float(sum(l * r[j] for l, r in zip(lam, A)))
                     for j in range(d)])


# ---------------------------------------------------------------------------
# Conditional moments, Doob decomposition, quadratic covariation
# ---------------------------------------------------------------------------

def conditional_moment(X, node, order):
    """Exact conditional moment of the one-step increment of X at a node.

    order 1 returns sum_children p * dX (a vector); order 2 returns
    sum_children p * dX dX^T (a matrix).
    """
    tree = X.tree
    if tree.is_leaf(node):
        raise ModelError(f"node {node} is a leaf")
    kids = tree.children(node)
    dX = X.values[kids] - X.values[node]
    w = tree.p[kids]
    if order == 1:
        return w @ dX
    if order == 2:
        return (w[:, None] * dX).T @ dX
    raise ModelError("order must be 1 or 2")


def doob_decompose(X):
    """Doob decomposition X = A + M with A predictable-increment and A(0)=0.

    dA on the step out of a node equals the exact conditional mean of dX,
    held constant across the node's siblings; M := X - A then has zero
    conditional one-step mean at every non-leaf node.
    """
    tree = X.tree
    means = np.zeros_like(X.values)
    means[tree.nonleaf_nodes] = child_weighted_sums(tree, X.increments())
    drift = path_cumsum(tree, spread_to_children(tree, means))
    A = AdaptedProcess(tree, drift)
    M = AdaptedProcess(tree, X.values - drift)
    return A, M


def quadratic_covariation(M, N):
    """Pathwise quadratic covariation [M, N].

    Returns an AdaptedProcess of dimension dim(M) * dim(N) holding the
    row-major flattened matrix sum over the path of dM dN^T.
    """
    if M.tree is not N.tree:
        raise ModelError("mismatched trees")
    tree = M.tree
    dM = M.increments()
    dN = N.increments()
    step = dM[:, :, None] * dN[:, None, :]
    return AdaptedProcess(tree, path_cumsum(tree, step.reshape(tree.n_nodes, -1)))


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


# ---------------------------------------------------------------------------
# The full-panel Monte Carlo
# ---------------------------------------------------------------------------

def scalar_spec(a, sigma, T=1.0, steps=mc.DEFAULT_STEPS,
                paths=mc.DEFAULT_PATHS, seed=0, x0=0.0):
    """Constant-coefficient 1-dimensional spec (the workhorse test case)."""
    return mc.DiffusionSpec(drift=[a], sigma=[[sigma]], T=T, steps=steps,
                            paths=paths, seed=seed, x0=[x0])


@dataclass(frozen=True)
class PathEnsemble:
    spec: mc.DiffusionSpec
    X: np.ndarray          # (paths, steps+1, d)
    V_hat: np.ndarray | None = None  # (paths, steps+1)
    Y_hat: np.ndarray | None = None
    alive: np.ndarray | None = None  # paths surviving deflation
    abort_fraction: float = 0.0


def simulate(spec):
    """The Euler panel X (paths, steps+1, d) of the streaming kernel, with
    seeded draws from one sequential Generator: path i is the same whatever
    the chunking of the normals.  Memory is paths x steps;
    ``stream_deflated`` avoids the panel."""
    X = np.empty((spec.paths, spec.steps + 1, spec.d))
    for step, (x, _) in enumerate(mc._euler_states(spec)):
        X[:, step, :] = x
    return PathEnsemble(spec=spec, X=X)


def deflate_paths(ens):
    """Numeraire wealth V_hat along the panel ``ens.X`` and Y_hat = 1/V_hat;
    paths whose wealth would hit zero or go negative are aborted (recorded,
    expected O(dt) fraction)."""
    P, n1, _ = ens.X.shape
    V = np.ones((P, n1))
    states = ((x, None) for x in ens.X.transpose(1, 0, 2))
    for step, (_, v, alive) in enumerate(mc._wealth(ens.spec, states)):
        V[:, step] = v
    frac = mc._abort_fraction(alive)
    with np.errstate(divide="ignore"):
        Y = 1.0 / V
    return PathEnsemble(spec=ens.spec, X=ens.X, V_hat=V, Y_hat=Y,
                        alive=alive, abort_fraction=frac)


def martingale_test(Z):
    """t-statistics of mean increments per coarse time bucket.

    Z is (paths, steps+1); PASS iff every bucket |t| <= ``mc.T_MAX``.
    Only the columns at ``mc.bucket_edges(steps)`` are read, so Z may be
    just those columns.
    """
    Z = np.asarray(Z, dtype=np.float64)
    edges = mc.bucket_edges(Z.shape[1] - 1)
    return mc._t_report([mc._bucket_t(Z[:, hi] - Z[:, lo])
                         for lo, hi in zip(edges[:-1], edges[1:])])
