"""Per-step characteristics (a, c) and the structural drift condition.

``solve_structure`` either produces a predictable ``rho`` with ``a = c rho``
(minimum-norm, via a PSD pseudoinverse) or an arbitrage certificate
``zeta`` living in the kernel of ``c`` with a strictly positive drift gain.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tree import (AdaptedProcess, ModelError, PredictableProcess,
                   child_weighted_sums, path_cumsum, spread_to_children)

# the one rank rule of psd_pinv_apply: relative eigenvalue cutoff
PINV_RELTOL = 1e-13
DEFAULT_STRUCT_TOL = 1e-8
MASS_THRESHOLD = 1e6


@dataclass(frozen=True)
class Characteristics:
    """Drift a and covariance c (flattened d x d) per step, with the
    per-branch-group stacks they are formed from, one per group of
    ``tree.branch_groups`` and in its order: the (n_k, k, d) child
    increments dX and the martingale increments dM = dX - a.  c is formed
    as sum p dM dM^T, symmetric and PSD by construction; a Characteristics
    built from (a, c) alone has no stacks."""

    a: PredictableProcess
    c: PredictableProcess  # (n_nodes, d*d) row-major
    dX: tuple = ()
    dM: tuple = ()

    @property
    def d(self):
        return self.a.dim

    def c_matrix(self, node):
        d = self.d
        return self.c.values[node].reshape(d, d)

    def c_stack(self, nodes):
        """(len(nodes), d, d) covariance matrices at the given nodes."""
        d = self.d
        return self.c.values[nodes].reshape(-1, d, d)

    def check_finite(self):
        """Raise at the first non-leaf node whose a or c is not finite: c
        overflows once |dX| passes about 1e154."""
        nodes = self.a.tree.nonleaf_nodes
        finite = (np.isfinite(self.a.values[nodes]).all(axis=1)
                  & np.isfinite(self.c.values[nodes]).all(axis=1))
        if not finite.all():
            raise ModelError(f"node {nodes[finite.argmin()]}: drift or "
                             "covariance not finite")
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
    Doob drift takes, c = sum p dM dM^T over the children, and the per-group
    stacks dX and dM = dX - a that every stage reads."""
    return X.once(_characteristics)


def _characteristics(X):
    tree = X.tree
    d = X.dim
    a_vals = np.zeros((tree.n_nodes, d))
    a_vals[tree.nonleaf_nodes] = child_weighted_sums(tree, X.increments())
    c_vals = np.zeros((tree.n_nodes, d * d))
    dXs, dMs = [], []
    for g in tree.branch_groups:
        dX = g.increments(X.values)
        dM = dX - a_vals[g.nodes][:, None]
        with np.errstate(over="ignore"):  # check_finite() names the node
            c = (g.p[:, :, None] * dM).mT @ dM
        c_vals[g.nodes] = c.reshape(-1, d * d)
        dXs.append(dX)
        dMs.append(dM)
    return Characteristics(a=PredictableProcess(tree, a_vals),
                           c=PredictableProcess(tree, c_vals),
                           dX=tuple(dXs), dM=tuple(dMs))


def _sum_products(a, b):
    """sum_i a[..., i] * b[..., i], broadcast, added left to right: each
    entry is rounded by itself, whatever the batch or layout it is in."""
    s = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        s = s + a[..., i] * b[..., i]
    return s


def psd_pinv_apply(C, v):
    """Minimum-norm solution of C x = v for symmetric PSD C, plus the
    residual projection of v onto the kernel of C.

    This is the package's one pseudo-inverse: the drift condition, the
    numeraire's Newton step and the KW projections all solve through it.
    C may be one (d, d) matrix or a (..., d, d) stack, with v of shape (d,)
    or (..., d).  Eigenvalues at or below ``PINV_RELTOL * lambda_max`` of
    their own matrix are treated as zero, so rank decisions are stable
    under uniform scaling of C.  An eigenvalue whose reciprocal overflows
    (a subnormal one) counts as zero too.  Every shape takes one ``eigh`` of
    the symmetric part 0.5 C + 0.5 C^T, each term halved before the sum, so
    a finite C does not overflow there; on a 1 x 1 matrix that is w = c and
    Q = [[1]], but for a subnormal c the halving may round its last bit.
    One (d, d) matrix against many right-hand sides is applied by
    :func:`_sum_products`, so the bits of a row do not depend on the batch
    it is solved in; a stack keeps its per-matrix products.
    """
    w, Q = np.linalg.eigh(0.5 * C + 0.5 * C.mT)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / w
    # eigh sorts ascending
    keep = (w > PINV_RELTOL * np.maximum(w[..., -1:], 0.0)) & np.isfinite(inv)
    scale = np.where(keep, inv, 0.0)
    if C.ndim > 2:
        coeff = np.vecmat(v, Q)
        return (np.matvec(Q, scale * coeff),
                np.matvec(Q, np.where(keep, 0.0, coeff)))
    # v Q, then (.) Q^T, a column at a time; the columns of v Q are stored
    # contiguous, which the second products read fastest
    coeff = np.moveaxis(np.stack([_sum_products(v, q) for q in Q.T]), 0, -1)
    return tuple(np.stack([_sum_products(u, q) for q in Q], axis=-1)
                 for u in (scale * coeff, np.where(keep, 0.0, coeff)))


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

    ``psd_pinv_apply`` gives rho and the part zeta of a in the kernel of c.
    A step fails where :func:`off_range` flags it; its zeta (zero on all
    other steps) has c zeta = 0 and <zeta, a> = |zeta|^2 > 0, i.e. a
    conditionally riskless strictly positive gain.
    """
    ch.check_finite()
    tree = ch.a.tree
    d = ch.d
    nodes = tree.nonleaf_nodes
    C = ch.c_stack(nodes)
    a = ch.a.values[nodes]
    rho, kernel_part = psd_pinv_apply(C, a)
    C_rho = np.matvec(C, rho)
    flagged = off_range(a, kernel_part, tol)
    bad = nodes[flagged].tolist()
    rho_vals = np.zeros((tree.n_nodes, d))
    rho_vals[nodes] = rho
    zeta_vals = np.zeros((tree.n_nodes, d))
    zeta_vals[nodes[flagged]] = kernel_part[flagged]
    step_mass = np.zeros(tree.n_nodes)
    step_mass[nodes] = np.vecdot(rho, C_rho)
    # the step mass sits on the children so it accumulates along paths
    mass = AdaptedProcess(tree, path_cumsum(tree,
                                            spread_to_children(tree, step_mass)))
    mass_flag = bool(np.max(mass.values) > MASS_THRESHOLD)
    if bad:
        return StructureReport(status="ARBITRAGE", rho=None,
                               zeta=PredictableProcess(tree, zeta_vals),
                               mass=mass, mass_flag=mass_flag,
                               bad_nodes=tuple(bad))
    return StructureReport(status="SOLVABLE",
                           rho=PredictableProcess(tree, rho_vals),
                           zeta=None, mass=mass, mass_flag=mass_flag)

