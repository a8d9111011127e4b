"""Euler-discretized diffusions, pathwise deflation, and statistical checks.

This is the continuous-time face of the library: drift is removed with the
pointwise solution rho = c^+ a of the structural condition, the numeraire
wealth accumulates through the discrete product form of its integral
equation, and martingale properties are asserted statistically.

Everything runs on one streaming step kernel: the Euler step and the
deflation step are each written once and advance all paths together, one
step at a time.  Normals are drawn from counter-based Philox in chunks of
steps, so a run holds paths x chunk normals rather than paths x steps, and
path i sees the same draws however the steps are chunked.
``stream_deflated`` keeps only the columns it is asked for; ``simulate``
and ``deflate_paths`` are the full-panel consumers of the same steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .structure import DEFAULT_STRUCT_TOL, psd_pinv_apply
from .tree import ArbitrageError, ModelError

DEFAULT_PATHS = 100_000
DEFAULT_STEPS = 256
ABORT_FRACTION_LIMIT = 0.01
# Byte budget of one chunk of normals; a chunk holds at least one step.
NORMAL_CHUNK_BYTES = 4 * 2**20
N_BUCKETS = 16
T_MAX = 4.0


@dataclass(frozen=True)
class DiffusionSpec:
    """d-dimensional diffusion dX = a(x) dt + sigma dW, Euler-discretized,
    with drift a(x) = drift + slope x and a constant (d, m) sigma."""

    drift: np.ndarray      # (d,)
    sigma: np.ndarray      # (d, m)
    T: float
    steps: int = DEFAULT_STEPS
    paths: int = DEFAULT_PATHS
    seed: int = 0
    x0: np.ndarray = field(default_factory=lambda: np.zeros(1))
    slope: np.ndarray | None = None  # (d, d), or None for a constant drift

    def __post_init__(self):
        if self.steps < 1 or self.paths < 1:
            raise ModelError("need steps >= 1 and paths >= 1")
        for name in ("drift", "sigma", "x0", "slope"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name,
                                   np.asarray(value, dtype=np.float64))
        object.__setattr__(self, "x0", self.x0.reshape(-1))
        if (self.sigma.ndim != 2 or self.drift.shape != (self.d,)
                or self.slope is not None
                and self.slope.shape != (self.d, self.d)):
            raise ModelError("need sigma (d, m), drift (d,) and slope (d, d)")
        if self.x0.shape[0] != self.d:
            raise ModelError("x0 dimension mismatch")

    @property
    def d(self):
        return self.sigma.shape[0]

    @property
    def m(self):
        return self.sigma.shape[1]

    def drift_at(self, x):
        """a(x), (paths, d), at the states x (paths, d)."""
        if self.slope is None:
            return np.broadcast_to(self.drift, x.shape)
        return self.drift + x @ self.slope.T


def scalar_spec(a, sigma, T=1.0, steps=DEFAULT_STEPS, paths=DEFAULT_PATHS,
                seed=0, x0=0.0):
    """Constant-coefficient 1-dimensional spec (the workhorse test case)."""
    return DiffusionSpec(drift=[a], sigma=[[sigma]], T=T, steps=steps,
                         paths=paths, seed=seed, x0=[x0])


@dataclass(frozen=True)
class PathEnsemble:
    spec: DiffusionSpec
    X: np.ndarray          # (paths, steps+1, d)
    V_hat: np.ndarray | None = None  # (paths, steps+1)
    Y_hat: np.ndarray | None = None
    alive: np.ndarray | None = None  # paths surviving deflation
    abort_fraction: float = 0.0


@dataclass(frozen=True)
class StreamRecord:
    """The columns ``stream_deflated`` keeps of a deflated run."""

    Y_hat: np.ndarray      # (paths, k) deflator at the k recorded steps
    YX: np.ndarray         # (paths, k) Y_hat * X[..., 0] at those steps
    X_head: np.ndarray     # (head, steps+1) X[..., 0] of the first paths
    alive: np.ndarray      # paths surviving deflation
    abort_fraction: float


def _normals(spec):
    """The (paths, m) standard normals of each step, in step order, drawn
    from Philox in chunks of steps that fit ``NORMAL_CHUNK_BYTES``."""
    n, P, m = spec.steps, spec.paths, spec.m
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    chunk = max(1, NORMAL_CHUNK_BYTES // (8 * P * m))
    for lo in range(0, n, chunk):
        yield from rng.standard_normal((min(chunk, n - lo), P, m))


def _euler_states(spec):
    """X at steps 0..n of the Euler scheme dX = a dt + sigma sqrt(dt) xi,
    one (paths, d) array per step."""
    dt = spec.T / spec.steps
    sqdt = np.sqrt(dt)
    x = np.empty((spec.paths, spec.d))
    x[:] = spec.x0
    yield x
    for step, xi in enumerate(_normals(spec)):
        # overflow shows as a non-finite increment, reported below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            dX = (spec.drift_at(x) * dt
                  + np.einsum("ij,...j->...i", spec.sigma, xi) * sqdt)
        if not np.all(np.isfinite(dX)):
            bad = np.argwhere(~np.isfinite(dX))[0]
            raise ModelError(
                f"non-finite increment at step {step}, path {int(bad[0])}")
        x = x + dX
        yield x


def _wealth(spec, states, tol=DEFAULT_STRUCT_TOL):
    """(x, V_hat, alive) at steps 0..n along the states X_0..X_n.

    V_hat is the numeraire wealth, the discrete product of its integral
    equation with growth 1 + <rho, dX>.  A path whose growth would be zero
    or negative is aborted: its growth is taken as 1 and it leaves
    ``alive``, which is updated in place.  rho is that of
    :func:`check_structure`: of a constant drift once, before any path
    moves, and of a linear one once at each step 0..n-1."""
    states = iter(states)
    x = next(states)
    rho = _numeraire_rho(spec, x, 0, tol)
    V = np.ones(x.shape[0])
    alive = np.ones(x.shape[0], dtype=bool)
    yield x, V, alive
    for step, x_next in enumerate(states):
        if step and spec.slope is not None:
            rho = _numeraire_rho(spec, x, step, tol)
        growth = 1.0 + np.einsum("pd,pd->p", rho, x_next - x)
        dead = growth <= 0.0
        alive &= ~dead
        V = V * np.where(dead, 1.0, growth)
        x = x_next
        yield x, V, alive


def _numeraire_rho(spec, x, step, tol):
    """rho of :func:`check_structure` at one step, for the wealth.  Where
    c^+ a(x) overflows (a finite but large drift, a small eigenvalue of c),
    the wealth would be NaN: that is a :class:`ModelError` naming the step
    and the first such path, raised without a floating-point warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        rho = check_structure(spec, x, step, tol)
    if not np.isfinite(rho).all():
        path = int(np.argwhere(~np.isfinite(rho))[0, 0])
        raise ModelError(
            f"non-finite numeraire rho at step {step}, path {path}")
    return rho


def _abort_fraction(alive):
    frac = 1.0 - alive.mean()
    if frac > ABORT_FRACTION_LIMIT:
        raise ModelError(f"excessive deflation abort fraction {frac:.4f}")
    return float(frac)


def simulate(spec):
    """The Euler panel X (paths, steps+1, d) of the streaming kernel, with
    counter-based, seeded draws: path i is the same whatever the chunking
    of the normals.  Memory is paths x steps; ``stream_deflated`` avoids
    the panel."""
    X = np.empty((spec.paths, spec.steps + 1, spec.d))
    for step, x in enumerate(_euler_states(spec)):
        X[:, step, :] = x
    return PathEnsemble(spec=spec, X=X)


def check_structure(spec, x, step, tol=DEFAULT_STRUCT_TOL):
    """Pointwise rho = c^+ a(x), (paths, d), at the states x (paths, d) of
    one step.  c = sigma sigma^T is one (d, d) matrix, so one
    ``psd_pinv_apply`` solve serves all paths; it applies c's eigenbasis by
    plain sums, so a path's rho does not depend on the paths solved with
    it.  The solve also gives the part zeta of a(x) in the kernel of c.  A
    path fails, by the rule of ``solve_structure``, where some
    |zeta_i| > tol * max(1, max |a|): :class:`ArbitrageError` then names
    the step, the first such path, its zeta and <zeta, a> > 0.  A drift
    that is not finite (it overflows at large x) is a :class:`ModelError`
    naming the step and the first such path."""
    c = np.einsum("ik,jk->ij", spec.sigma, spec.sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        a = spec.drift_at(x)
    if not np.isfinite(a).all():
        path = int(np.argwhere(~np.isfinite(a))[0, 0])
        raise ModelError(f"non-finite drift at step {step}, path {path}")
    rho, zeta = psd_pinv_apply(c, a)
    # no path fails below tol; a max over the short last axis is slow
    if np.max(np.abs(zeta)) > tol:
        scale = np.maximum(1.0, np.max(np.abs(a), axis=-1))
        bad = np.flatnonzero(np.max(np.abs(zeta), axis=-1) > tol * scale)
        if bad.size:
            path = int(bad[0])
            raise ArbitrageError(
                f"drift outside the range of c at step {step}, path {path}: "
                f"zeta = {zeta[path].tolist()}, <zeta, a> = "
                f"{float(zeta[path] @ a[path])!r}")
    return rho


def deflate_paths(ens):
    """Numeraire wealth V_hat along the panel ``ens.X`` and Y_hat = 1/V_hat;
    paths whose wealth would hit zero or go negative are aborted (recorded,
    expected O(dt) fraction)."""
    P, n1, _ = ens.X.shape
    V = np.ones((P, n1))
    states = ens.X.transpose(1, 0, 2)
    for step, (_, v, alive) in enumerate(_wealth(ens.spec, states)):
        V[:, step] = v
    frac = _abort_fraction(alive)
    with np.errstate(divide="ignore"):
        Y = 1.0 / V
    return PathEnsemble(spec=ens.spec, X=ens.X, V_hat=V, Y_hat=Y,
                        alive=alive, abort_fraction=frac)


def stream_deflated(spec, record_steps, head=0, tol=DEFAULT_STRUCT_TOL):
    """Simulate and deflate in one pass, keeping only some columns.

    Y_hat and Y_hat * X[..., 0] are kept at the step indices
    ``record_steps``, and X[..., 0] of the first ``head`` paths at every
    step.  The values are those of ``deflate_paths(simulate(spec))``, but
    memory is paths x (chunk + recorded columns), not paths x steps.
    ``tol`` bounds the drift check of :func:`check_structure`."""
    column = {int(s): k for k, s in enumerate(record_steps)}
    P = spec.paths
    Y = np.empty((P, len(column)))
    YX = np.empty((P, len(column)))
    X_head = np.empty((min(head, P), spec.steps + 1))
    for step, (x, v, alive) in enumerate(
            _wealth(spec, _euler_states(spec), tol)):
        X_head[:, step] = x[:head, 0]
        k = column.get(step)
        if k is not None:
            with np.errstate(divide="ignore"):
                Y[:, k] = 1.0 / v
            YX[:, k] = Y[:, k] * x[:, 0]
    return StreamRecord(Y_hat=Y, YX=YX, X_head=X_head, alive=alive,
                        abort_fraction=_abort_fraction(alive))


def bucket_edges(n_steps):
    """Step indices bounding the coarse time buckets of ``martingale_test``
    (at most :data:`N_BUCKETS`, and at most one per step)."""
    return np.linspace(0, n_steps, min(N_BUCKETS, n_steps) + 1).astype(int)


def martingale_test(Z):
    """t-statistics of mean increments per coarse time bucket.

    Z is (paths, steps+1); PASS iff every bucket |t| <= :data:`T_MAX`.
    Only the columns at ``bucket_edges(steps)`` are read, so Z may be just
    those columns.
    """
    Z = np.asarray(Z, dtype=np.float64)
    P, n1 = Z.shape
    edges = bucket_edges(n1 - 1)
    stats = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        D = Z[:, hi] - Z[:, lo]
        sd = D.std(ddof=1)
        t = 0.0 if sd == 0.0 else float(D.mean() / (sd / np.sqrt(P)))
        stats.append(t)
    stats = np.asarray(stats)
    return {"t_stats": stats, "max_abs_t": float(np.max(np.abs(stats))),
            "passed": bool(np.all(np.abs(stats) <= T_MAX))}


def kw_regress(U, dM):
    """Cross-sectional least-squares surrogate of the conditional
    projection: per step, regress dU on dM across paths (one global bin).

    U is (paths, steps+1); dM is (paths, steps, d).  All steps solve in one
    stacked ``psd_pinv_apply`` call on their (d, d) sample covariances.
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
    theta, _ = psd_pinv_apply(cov, cross)
    resid = y - np.matvec(x, theta)
    dB = -resid.mean(axis=1)
    centered = resid + dB[:, None]
    B = np.concatenate([[0.0], np.cumsum(dB)])
    n_norm = float(np.sqrt(np.mean(np.vecdot(centered, centered)) / P))
    return theta, B, n_norm
