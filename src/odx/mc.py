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
from typing import Callable

import numpy as np

from .structure import psd_pinv_apply
from .tree import ModelError

DEFAULT_PATHS = 100_000
DEFAULT_STEPS = 256
ABORT_FRACTION_LIMIT = 0.01
# Byte budget of one chunk of normals; a chunk holds at least one step.
NORMAL_CHUNK_BYTES = 4 * 2**20


def const_fn(value):
    value = np.asarray(value, dtype=np.float64)

    def f(t, x):
        return np.broadcast_to(value, x.shape[:-1] + value.shape).copy()

    return f


def linear_fn(intercept, slope):
    """Affine coefficient t, x -> intercept + x @ slope^T (slope acts on x)."""
    b = np.asarray(intercept, dtype=np.float64)
    A = np.asarray(slope, dtype=np.float64)

    def f(t, x):
        return b + x @ A.T

    return f


@dataclass(frozen=True)
class DiffusionSpec:
    """d-dimensional diffusion dX = a dt + sigma dW, Euler-discretized."""

    d: int
    drift: Callable  # (t, x[..., d]) -> a[..., d]
    sigma: Callable  # (t, x[..., d]) -> sigma[..., d, m]
    m: int
    T: float
    steps: int = DEFAULT_STEPS
    paths: int = DEFAULT_PATHS
    seed: int = 0
    x0: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        if self.steps < 1 or self.paths < 1:
            raise ModelError("need steps >= 1 and paths >= 1")
        x0 = np.asarray(self.x0, dtype=np.float64).reshape(-1)
        if x0.shape[0] != self.d:
            raise ModelError("x0 dimension mismatch")
        object.__setattr__(self, "x0", x0)


def scalar_spec(a, sigma, T=1.0, steps=DEFAULT_STEPS, paths=DEFAULT_PATHS,
                seed=0, x0=0.0):
    """Constant-coefficient 1-dimensional spec (the workhorse test case)."""
    return DiffusionSpec(d=1, drift=const_fn([a]), sigma=const_fn([[sigma]]),
                         m=1, T=T, steps=steps, paths=paths, seed=seed,
                         x0=[x0])


@dataclass(frozen=True)
class PathEnsemble:
    spec: DiffusionSpec
    t: np.ndarray          # (steps+1,)
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


def _time_grid(spec):
    return np.linspace(0.0, spec.T, spec.steps + 1)


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
    n, P, d, m = spec.steps, spec.paths, spec.d, spec.m
    dt = spec.T / n
    sqdt = np.sqrt(dt)
    t = _time_grid(spec)
    x = np.empty((P, d))
    x[:] = spec.x0
    yield x
    for step, xi in enumerate(_normals(spec)):
        # overflow shows as a non-finite increment, reported below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            a = spec.drift(t[step], x)
            sig = spec.sigma(t[step], x)
            dX = a * dt + np.einsum("...ij,...j->...i",
                                    np.broadcast_to(sig, (P, d, m)), xi) * sqdt
        if not np.all(np.isfinite(dX)):
            bad = np.argwhere(~np.isfinite(dX))[0]
            raise ModelError(
                f"non-finite increment at step {step}, path {int(bad[0])}")
        x = x + dX
        yield x


def _wealth(spec, t, states):
    """(x, V_hat, alive) at steps 0..n along the states X_0..X_n.

    V_hat is the numeraire wealth, the discrete product of its integral
    equation with growth 1 + <rho, dX>.  A path whose growth would be zero
    or negative is aborted: its growth is taken as 1 and it leaves
    ``alive``, which is updated in place."""
    states = iter(states)
    x = next(states)
    V = np.ones(x.shape[0])
    alive = np.ones(x.shape[0], dtype=bool)
    yield x, V, alive
    for step, x_next in enumerate(states):
        rho = structural_rho(spec, t[step], x)
        growth = 1.0 + np.einsum("pd,pd->p", rho, x_next - x)
        dead = growth <= 0.0
        alive &= ~dead
        V = V * np.where(dead, 1.0, growth)
        x = x_next
        yield x, V, alive


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
    return PathEnsemble(spec=spec, t=_time_grid(spec), X=X)


def structural_rho(spec, t, x):
    """Pointwise rho = c^+ a with c = sigma sigma^T, batched over paths."""
    a = spec.drift(t, x)
    sig = spec.sigma(t, x)
    sig = np.broadcast_to(sig, x.shape[:-1] + (spec.d, spec.m))
    c = np.einsum("...ik,...jk->...ij", sig, sig)
    if spec.d == 1:
        cc = c[..., 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(cc > 0.0, a[..., 0] / np.where(cc > 0, cc, 1.0), 0.0)
        return rho[..., None]
    rho, _ = psd_pinv_apply(c, a)
    return rho


def deflate_paths(ens):
    """Numeraire wealth V_hat along the panel ``ens.X`` and Y_hat = 1/V_hat;
    paths whose wealth would hit zero or go negative are aborted (recorded,
    expected O(dt) fraction)."""
    P, n1, _ = ens.X.shape
    V = np.ones((P, n1))
    states = ens.X.transpose(1, 0, 2)
    for step, (_, v, alive) in enumerate(_wealth(ens.spec, ens.t, states)):
        V[:, step] = v
    frac = _abort_fraction(alive)
    with np.errstate(divide="ignore"):
        Y = 1.0 / V
    return PathEnsemble(spec=ens.spec, t=ens.t, X=ens.X, V_hat=V, Y_hat=Y,
                        alive=alive, abort_fraction=frac)


def stream_deflated(spec, record_steps, head=0):
    """Simulate and deflate in one pass, keeping only some columns.

    Y_hat and Y_hat * X[..., 0] are kept at the step indices
    ``record_steps``, and X[..., 0] of the first ``head`` paths at every
    step.  The values are those of ``deflate_paths(simulate(spec))``, but
    memory is paths x (chunk + recorded columns), not paths x steps."""
    column = {int(s): k for k, s in enumerate(record_steps)}
    P = spec.paths
    Y = np.empty((P, len(column)))
    YX = np.empty((P, len(column)))
    X_head = np.empty((min(head, P), spec.steps + 1))
    states = _euler_states(spec)
    for step, (x, v, alive) in enumerate(_wealth(spec, _time_grid(spec),
                                                 states)):
        X_head[:, step] = x[:head, 0]
        k = column.get(step)
        if k is not None:
            with np.errstate(divide="ignore"):
                Y[:, k] = 1.0 / v
            YX[:, k] = Y[:, k] * x[:, 0]
    return StreamRecord(Y_hat=Y, YX=YX, X_head=X_head, alive=alive,
                        abort_fraction=_abort_fraction(alive))


def bucket_edges(n_steps, n_buckets=16):
    """Step indices bounding the coarse time buckets of ``martingale_test``
    (at most one bucket per step)."""
    return np.linspace(0, n_steps, min(n_buckets, n_steps) + 1).astype(int)


def martingale_test(Z, n_buckets=16, t_max=4.0):
    """t-statistics of mean increments per coarse time bucket.

    Z is (paths, steps+1); PASS iff every bucket |t| <= t_max.  Only the
    columns at ``bucket_edges(steps, n_buckets)`` are read, so Z may be
    just those columns.  Means are accumulated in extended precision
    (pairwise + math.fsum semantics via numpy double on double input;
    inputs are already float64 here).
    """
    Z = np.asarray(Z, dtype=np.float64)
    P, n1 = Z.shape
    edges = bucket_edges(n1 - 1, n_buckets)
    stats = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        D = Z[:, hi] - Z[:, lo]
        sd = D.std(ddof=1)
        t = 0.0 if sd == 0.0 else float(D.mean() / (sd / np.sqrt(P)))
        stats.append(t)
    stats = np.asarray(stats)
    return {"t_stats": stats, "max_abs_t": float(np.max(np.abs(stats))),
            "passed": bool(np.all(np.abs(stats) <= t_max))}


def kw_regress(U, dM):
    """Cross-sectional least-squares surrogate of the conditional
    projection: per step, regress dU on dM across paths (one global bin).

    U is (paths, steps+1); dM is (paths, steps, d).  Returns theta
    (steps, d), the cumulative drift B (steps+1,) with dB = -(mean
    residual), and the root-mean-square of the residual after drift
    removal (the statistical size of the orthogonal part)."""
    U = np.asarray(U, dtype=np.float64)
    dM = np.asarray(dM, dtype=np.float64)
    P, n1 = U.shape
    n = n1 - 1
    d = dM.shape[2]
    theta = np.zeros((n, d))
    dB = np.zeros(n)
    sq = 0.0
    for step in range(n):
        y = U[:, step + 1] - U[:, step]
        x = dM[:, step, :]
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / P
        cross = xc.T @ (y - y.mean()) / P
        th = np.linalg.pinv(cov, rcond=1e-12, hermitian=True) @ cross
        resid = y - x @ th
        theta[step] = th
        dB[step] = -resid.mean()
        centered = resid - resid.mean()
        sq += float(centered @ centered) / P
    B = np.concatenate([[0.0], np.cumsum(dB)])
    n_norm = float(np.sqrt(sq / n))
    return theta, B, n_norm
