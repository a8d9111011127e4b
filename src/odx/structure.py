"""Per-step characteristics (a, c, dG) and the structural drift condition.

``solve_structure`` either produces a predictable ``rho`` with ``a = c rho``
(minimum-norm, via a PSD pseudoinverse) or an arbitrage certificate
``zeta`` living in the kernel of ``c`` with a strictly positive drift gain.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tree import (AdaptedProcess, ModelError, PredictableProcess,
                   _first_failure, doob_decompose, path_cumsum,
                   spread_to_children, step_gains)

SYM_TOL = 1e-12  # symmetry and PSD tolerances of c, each times
EIG_TOL = 1e-10  # max(1, max |c|) of its node
# the one rank rule of psd_pinv_apply: relative eigenvalue cutoff
PINV_RELTOL = 1e-13
DEFAULT_STRUCT_TOL = 1e-8
MASS_THRESHOLD = 1e6


@dataclass(frozen=True)
class Characteristics:
    """Drift a, covariance c (flattened d x d) and clock increment dG per step."""

    a: PredictableProcess
    c: PredictableProcess  # (n_nodes, d*d) row-major
    dG: PredictableProcess  # positive scalar per step

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

    def validate(self):
        nodes = self.a.tree.nonleaf_nodes
        C = self.check_finite().c_stack(nodes)
        C = C / np.maximum(1.0, np.max(np.abs(C), axis=(1, 2)))[:, None, None]
        failure = _first_failure([
            (np.max(np.abs(C - C.mT), axis=(1, 2)) > SYM_TOL,
             "covariance not symmetric"),
            (np.min(np.linalg.eigvalsh(0.5 * (C + C.mT)), axis=1) < -EIG_TOL,
             "covariance not PSD"),
            (~(self.dG.values[nodes, 0] > 0.0), "dG must be positive"),
        ])
        if failure is not None:
            i, msg = failure
            raise ModelError(f"node {nodes[i]}: {msg}")
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
    """Per-step (a, c, dG) of a market process, with unit clock dG = 1."""
    tree = X.tree
    d = X.dim
    _, M = doob_decompose(X)
    a_vals = np.zeros((tree.n_nodes, d))
    c_vals = np.zeros((tree.n_nodes, d * d))
    dG_vals = np.zeros((tree.n_nodes, 1))
    for g in tree.branch_groups:
        w = tree.p[g.kids]
        dM = g.increments(M.values)
        a_vals[g.nodes] = np.vecmat(w, g.increments(X.values))
        with np.errstate(over="ignore"):  # validate() names the node
            c = (w[:, :, None] * dM).mT @ dM
        c_vals[g.nodes] = c.reshape(-1, d * d)
        dG_vals[g.nodes, 0] = 1.0
    return Characteristics(a=PredictableProcess(tree, a_vals),
                           c=PredictableProcess(tree, c_vals),
                           dG=PredictableProcess(tree, dG_vals))


def _column_sums(cols, M):
    """The columns of v M for one (d, d) matrix M, from the d columns of
    v: each a plain left-to-right sum of products, so the bits of a row do
    not depend on the rows computed with it."""
    out = []
    for j in range(M.shape[1]):
        s = cols[0] * M[0, j]
        for i in range(1, M.shape[0]):
            s = s + cols[i] * M[i, j]
        out.append(s)
    return out


def psd_pinv_apply(C, v):
    """Minimum-norm solution of C x = v for symmetric PSD C, plus the
    residual projection of v onto the kernel of C.

    This is the package's one pseudo-inverse: the drift condition, the
    numeraire's Newton step and the KW projections all solve through it.
    C may be one (d, d) matrix or a (..., d, d) stack, with v of shape (d,)
    or (..., d).  Eigenvalues at or below ``PINV_RELTOL * lambda_max`` of
    their own matrix are treated as zero, so rank decisions are stable
    under uniform scaling of C.  An eigenvalue whose reciprocal overflows
    (a subnormal one) counts as zero too.  A 1 x 1 stack takes the closed
    form v * (1/c), which is what the eigendecomposition computes there.
    One (d, d) matrix against many right-hand sides is applied by plain
    sums of products over its short axis, so the bits of a row do not
    depend on the batch it is solved in; a stack keeps its per-matrix
    products.
    """
    d = C.shape[-1]
    if d == 1:
        w = C[..., 0]
    else:
        w, Q = np.linalg.eigh(0.5 * (C + C.mT))
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / w
    # eigh sorts ascending
    keep = (w > PINV_RELTOL * np.maximum(w[..., -1:], 0.0)) & np.isfinite(inv)
    scale = np.where(keep, inv, 0.0)
    if d == 1:
        return scale * v, np.where(keep, 0.0, v)
    if C.ndim > 2:
        coeff = np.vecmat(v, Q)
        return (np.matvec(Q, scale * coeff),
                np.matvec(Q, np.where(keep, 0.0, coeff)))
    coeff = _column_sums(np.moveaxis(v, -1, 0), Q)
    x = _column_sums([s * c for s, c in zip(scale, coeff)], Q.T)
    kernel_part = _column_sums(
        [np.zeros_like(c) if k else c for k, c in zip(keep, coeff)], Q.T)
    return np.stack(x, axis=-1), np.stack(kernel_part, axis=-1)


def solve_structure(ch, tol=DEFAULT_STRUCT_TOL):
    """Solve a = c rho per step, or certify failure.

    ``psd_pinv_apply`` gives rho and the part zeta of a in the kernel of c.
    A step fails where some |zeta_i| > tol * max(1, max |a|); its zeta
    (zero on all other steps) has c zeta = 0 and <zeta, a> = |zeta|^2 > 0,
    i.e. a conditionally riskless strictly positive gain.
    """
    ch.validate()
    tree = ch.a.tree
    d = ch.d
    nodes = tree.nonleaf_nodes
    C = ch.c_stack(nodes)
    a = ch.a.values[nodes]
    rho, kernel_part = psd_pinv_apply(C, a)
    C_rho = np.matvec(C, rho)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=1))
    flagged = np.max(np.abs(kernel_part), axis=1) > tol * scale
    bad = nodes[flagged].tolist()
    rho_vals = np.zeros((tree.n_nodes, d))
    rho_vals[nodes] = rho
    zeta_vals = np.zeros((tree.n_nodes, d))
    zeta_vals[nodes[flagged]] = kernel_part[flagged]
    step_mass = np.zeros(tree.n_nodes)
    step_mass[nodes] = np.vecdot(rho, C_rho) * ch.dG.values[nodes, 0]
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


def riskless_gain(X, zeta):
    """One-step gains <zeta, dX> of an arbitrage certificate, per node.

    Returns (n_nodes,) gains; at a flagged node the gains across children
    have zero conditional variance and strictly positive conditional mean.
    """
    return step_gains(X, zeta.values)
