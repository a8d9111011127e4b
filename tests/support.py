"""Library code that only the tests call, kept out of the installed package.

``kw_regress`` is a cross-sectional surrogate of the Kunita-Watanabe
projection on Monte Carlo paths; no command runs it.  ``covariances`` forms
the c = B^T B that the package keeps as its factor B.
"""
import numpy as np

from odx.deflators import _psd_pinv_apply


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
    stacked ``_psd_pinv_apply`` call on their (d, d) sample covariances.
    Returns theta (steps, d), the cumulative drift B (steps+1,) with
    dB = -(mean residual), and the root-mean-square of the residual after
    drift removal (the statistical size of the orthogonal part)."""
    U = np.asarray(U, dtype=np.float64)
    P = U.shape[0]
    x = np.asarray(dM, dtype=np.float64).transpose(1, 0, 2)  # (steps, paths, d)
    y = np.diff(U, axis=1).T                                  # (steps, paths)
    xc = x - x.mean(axis=1, keepdims=True)
    cov = xc.mT @ xc / P
    cross = np.vecmat(y - y.mean(axis=1, keepdims=True), xc) / P
    theta = _psd_pinv_apply(cov, cross)
    resid = y - np.matvec(x, theta)
    dB = -resid.mean(axis=1)
    centered = resid + dB[:, None]
    B = np.concatenate([[0.0], np.cumsum(dB)])
    n_norm = float(np.sqrt(np.mean(np.vecdot(centered, centered)) / P))
    return theta, B, n_norm
