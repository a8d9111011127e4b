"""Per-step characteristics and the structural drift condition.

A step's covariance c enters only through a factor B = sqrt(p) dM, or
sigma^T on a diffusion, with c = B^T B.  ``solve_structure`` either produces
a predictable ``rho`` with ``a = c rho`` (minimum-norm, by Gram-Schmidt on
B) or an arbitrage certificate ``zeta`` in the kernel of ``c`` with a
strictly positive drift gain.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tree import (AdaptedProcess, ModelError, PredictableProcess,
                   _sum_products, child_weighted_sums, path_cumsum,
                   spread_to_children)

# the rank cut of _min_norm_solutions (rows) and of _columns
PINV_RELTOL = 1e-13
DEFAULT_STRUCT_TOL = 1e-8
MASS_THRESHOLD = 1e6


@dataclass(frozen=True)
class Characteristics:
    """Drift a per step, with per-branch-group stacks in the order of
    ``tree.branch_groups``: the (n_k, k, d) child increments dX, the
    martingale increments dM = dX - a and the factor B = sqrt(p) dM of the
    covariance c = B^T B, which is never formed.  A Characteristics built
    from a and B alone has no dX or dM."""

    a: PredictableProcess
    B: tuple = ()
    dX: tuple = ()
    dM: tuple = ()

    def check_finite(self):
        """Raise at the first non-leaf node whose a or c is not finite,
        judged from c's diagonal sum p dM_i^2, which is finite exactly when
        c is: it overflows once |dX| passes about 1e154."""
        tree = self.a.tree
        finite = np.isfinite(self.a.values).all(axis=1)
        with np.errstate(over="ignore"):
            for g, B in zip(tree.branch_groups, self.B):
                diag = _sum_products(B.mT, B.mT)
                finite[g.nodes] &= np.isfinite(diag).all(axis=1)
        nodes = tree.nonleaf_nodes
        bad = nodes[~finite[nodes]]
        if bad.size:
            raise ModelError(f"node {bad[0]}: drift or covariance not finite")
        return self


@dataclass(frozen=True)
class StructureReport:
    status: str  # "SOLVABLE" | "ARBITRAGE"
    rho: PredictableProcess | None
    zeta: PredictableProcess | None
    mass: AdaptedProcess
    mass_flag: bool
    bad_nodes: tuple = field(default_factory=tuple)

    @property
    def solvable(self):
        return self.status == "SOLVABLE"


def extract_characteristics(X):
    """The market's step data, formed once per X and kept on it: the
    :class:`Characteristics` with a the conditional mean of dX, the sum the
    Doob drift takes, and the per-group stacks dX, dM = dX - a and
    B = sqrt(p) dM that every stage reads."""
    return X.once(_characteristics)


def _characteristics(X):
    tree = X.tree
    a = np.zeros((tree.n_nodes, X.dim))
    a[tree.nonleaf_nodes] = child_weighted_sums(tree, X.increments())
    groups = tree.branch_groups
    dX = tuple(g.increments(X.values) for g in groups)
    dM = tuple(x - a[g.nodes][:, None] for g, x in zip(groups, dX))
    B = tuple(np.sqrt(g.p)[:, :, None] * m for g, m in zip(groups, dM))
    return Characteristics(a=PredictableProcess(tree, a), B=B, dX=dX, dM=dM)


def _gram_schmidt(rows, keep):
    """(Q, L) of Gram-Schmidt on a sequence of rows (..., n), each taken
    twice off the rows before it: row j = sum_{i <= j} L[j][i] Q[i], the
    Q[i] orthonormal or zero.  Row j is kept, as Q[j] = r / |r| with
    L[j][j] = |r| for its residual r, where ``keep(|r|^2, |row|^2)``;
    else Q[j] and L[j][j] are 0.  Each dot and norm is a ``_sum_products``,
    so a system's bits are its own whatever its stack."""
    Q, L = [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for v in rows:
            norm2 = _sum_products(v, v)
            v, coeffs = _project_off(v, Q)
            r2 = _sum_products(v, v)
            kept = keep(r2, norm2)
            r = np.where(kept, np.sqrt(r2), 0.0)
            Q.append(np.where(kept[..., None], v / r[..., None], 0.0))
            L.append(coeffs + [r])
    return Q, L


def _project_off(v, Q):
    """(v minus its projections on a sequence Q of orthonormal or zero rows
    (..., n), taken twice, and the list of their coefficients)."""
    coeffs = [0.0] * len(Q)
    for i, q in [*enumerate(Q)] * 2:  # twice keeps Q orthonormal
        c = _sum_products(v, q)
        v = v - c[..., None] * q
        coeffs[i] = coeffs[i] + c
    return v, coeffs


def _substitute(L, b, upper=False):
    """y with L y = b, or L^T y = b if ``upper``, for the triangular L of
    :func:`_gram_schmidt` and a sequence b of m right-hand sides: y_j is 0
    where L[j][j] is 0, the equation of a row that was not kept."""
    m = len(L)
    y = [None] * m
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in (range(m)[::-1] if upper else range(m)):
            s = b[j]
            for i in (range(j + 1, m) if upper else range(j)):
                s = s - (L[i][j] if upper else L[j][i]) * y[i]
            y[j] = np.where(L[j][j] != 0.0, s / L[j][j], 0.0)
    return y


def _min_norm_solutions(A, b=None, v=None):
    """(x, rank, v_off) for a stack A of (m, n) systems: the minimum-norm x
    with A x = b (b zero if None), the number of rows kept, and the part of
    v (..., n) orthogonal to them (None without v), for the vertices, the
    hedges and the extra deflators.  A row counts where its Gram-Schmidt
    residual r after the rows before it has r > ``PINV_RELTOL`` times its
    norm; else it is skipped, its equation dropped, and callers that need
    every equation reject a rank below m."""
    Q, L = _gram_schmidt(np.moveaxis(A, -2, 0), lambda r2, norm2:
                         np.sqrt(r2) > PINV_RELTOL * np.sqrt(norm2))
    b = np.zeros(A.shape[:-1]) if b is None else b
    y = _substitute(L, np.moveaxis(b, -1, 0))
    rank = sum(row[-1] != 0.0 for row in L)
    if v is not None:
        v = _project_off(v, Q)[0]
    return sum(q * yj[..., None] for q, yj in zip(Q, y)), rank, v


def _columns(B):
    """(Q, L) with B = Q^T L^T of :func:`_gram_schmidt` on the columns of a
    stack of (k, d) factors B, which decides B's rank: a column counts where
    its residual r has r^2 > ``PINV_RELTOL`` |column|^2 and 1/r^2 finite."""
    return _gram_schmidt(np.moveaxis(B, -1, 0), lambda r2, norm2:
                         (r2 > PINV_RELTOL * norm2) & np.isfinite(1.0 / r2))


def _factor(B):
    """(Q, T, P) with B = Q^T T P for a stack of (k, d) factors B: the L^T
    of :func:`_columns`, zero in the rows of dropped columns, splits as
    L^T = T P by a pass without a cut on its rows."""
    Q, L = _columns(B)
    zero = np.zeros_like(L[0][0])
    R = [np.stack([row[j] if j < len(row) else zero for row in L], axis=-1)
         for j in range(len(L))]
    P, T = _gram_schmidt(R, lambda r2, norm2: r2 > 0.0)
    return Q, T, P


def solve_factor(B, a):
    """(rho, zeta, theta) of a = c rho, c = B^T B, for a stack of (k, d)
    factors B: zeta is the part of a off the range of c, the market price
    of risk theta solves B^T theta = a - zeta and rho solves B rho = theta,
    both with minimum norm, so rho = c^+ a and rho^T c rho = |theta|^2.
    theta and rho are substitutions on the T of :func:`_factor`, so the
    solve works at the condition of B, not of c, and decides B's rank once."""
    Q, T, P = _factor(B)
    zeta, u = _project_off(a, P)
    s = _substitute(T, u, upper=True)
    rho = sum(p * t[..., None] for p, t in zip(P, _substitute(T, s)))
    return rho, zeta, sum(q * sj[..., None] for q, sj in zip(Q, s))


def off_range(a, zeta, tol):
    """Rows of the drifts a (n, d) off the range of c, given the parts zeta
    of a in the kernel of c: where some |zeta_i| > tol * max(1, max |a|).
    The one structure rule, of tree nodes and Monte Carlo paths alike."""
    abs_zeta = np.abs(zeta)
    # no row is off while every |zeta_i| <= tol: skips a slow row-wise max
    if np.max(abs_zeta, initial=0.0) <= tol:
        return np.empty(0, dtype=np.intp)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=-1))
    return np.flatnonzero(np.max(abs_zeta, axis=-1) > tol * scale)


def solve_structure(ch, tol=DEFAULT_STRUCT_TOL):
    """Solve a = c rho per step, or certify failure.

    :func:`solve_factor` gives rho and the part zeta of a in the kernel of
    c at each node, on its factor B.  A step fails where :func:`off_range`
    flags it; its zeta (zero on all other steps) has c zeta = 0 and
    <zeta, a> = |zeta|^2 > 0, i.e. a conditionally riskless strictly
    positive gain.
    """
    ch.check_finite()
    tree = ch.a.tree
    a = ch.a.values
    rho = np.zeros_like(a)
    zeta = np.zeros_like(a)
    step_mass = np.zeros(tree.n_nodes)
    for g, B in zip(tree.branch_groups, ch.B):
        rho[g.nodes], zeta[g.nodes], theta = solve_factor(B, a[g.nodes])
        step_mass[g.nodes] = _sum_products(theta, theta)
    nodes = tree.nonleaf_nodes
    bad = nodes[off_range(a[nodes], zeta[nodes], tol)]
    # the step mass sits on the children so it accumulates along paths
    mass = AdaptedProcess(tree, path_cumsum(tree,
                                            spread_to_children(tree, step_mass)))
    mass_flag = bool(np.max(mass.values) > MASS_THRESHOLD)
    if bad.size:
        zeta_vals = np.zeros_like(a)
        zeta_vals[bad] = zeta[bad]
        return StructureReport(status="ARBITRAGE", rho=None,
                               zeta=PredictableProcess(tree, zeta_vals),
                               mass=mass, mass_flag=mass_flag,
                               bad_nodes=tuple(bad.tolist()))
    return StructureReport(status="SOLVABLE",
                           rho=PredictableProcess(tree, rho),
                           zeta=None, mass=mass, mass_flag=mass_flag)
