"""Euler-discretized diffusions, pathwise deflation, and statistical checks.

This is the continuous-time face of the library: drift is removed with the
pointwise solution rho = c^+ a of the structural condition, the numeraire
wealth accumulates through the discrete product form of its integral
equation, and martingale properties are asserted statistically.

Everything runs on one streaming step kernel: the Euler step and the
deflation step are each written once and advance all paths together, one
step at a time.  Normals are drawn from one sequential SFC64 Generator in
consecutive chunks of steps, so a run holds paths x chunk normals rather
than paths x steps, and path i sees the same draws however the steps are
chunked.  A one-thread ``concurrent.futures`` pool draws the next chunk
while the steps of the current one run; both the fill and numpy's loops
over the paths release the GIL.  ``concurrent.futures`` is imported only
when a run starts: it loads ``logging``, which no tree command needs.
``stream_deflated`` takes the martingale tests as the run goes and keeps no
panel.  The full-panel reference it must match to the bit, ``simulate``,
``deflate_paths`` and ``martingale_test`` over the same steps, lives with
the tests in ``tests/support.py``.
"""
from __future__ import annotations

import ctypes
import os
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .structure import DEFAULT_STRUCT_TOL, off_range, solve_factor
from .tree import ArbitrageError, ModelError, _sum_products

DEFAULT_PATHS = 100_000
DEFAULT_STEPS = 256
ABORT_FRACTION_LIMIT = 0.01
# Byte budget of the normals alive at once: the chunk in use and the one
# drawn ahead, half each; a chunk holds at least one step.
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

    @cached_property
    def drift_maps(self):
        """(rho_map, zeta_map), (d, d): row i is c^+ e_i and the part of e_i
        in the kernel of c = sigma sigma^T, of one solve on sigma^T, formed
        once and kept."""
        B = np.broadcast_to(self.sigma.T, (self.d, self.m, self.d))
        return solve_factor(B, np.eye(self.d))[:2]

    def drift_at(self, x):
        """a(x), (paths, d), at the states x (paths, d), by plain sums along
        the paths, so its bits do not depend on the BLAS kernels.  A drift
        that overflows is inf or nan, without a floating-point warning."""
        if self.slope is None:
            return np.broadcast_to(self.drift, x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.drift[:, None]
                    + _sum_products(self.slope[:, None], x[None])).T


@dataclass(frozen=True)
class StreamRecord:
    """What ``stream_deflated`` keeps of a deflated run: the martingale
    test reports (:func:`_t_report`) of Y_hat and Y_hat * X[..., 0] over the
    paths alive at the end, and Y_hat of those paths at the last step."""

    test_Y: dict           # martingale test report of Y_hat
    test_YX: dict          # martingale test report of Y_hat * X[..., 0]
    Y_terminal: np.ndarray  # (alive,) Y_hat at the last step
    X_head: np.ndarray     # (head, steps+1) X[..., 0] of the first paths
    alive: np.ndarray      # paths surviving deflation
    abort_fraction: float


def _leave_creator_cpu():
    """Move the calling thread to another CPU it may use, if there is one,
    then allow it every CPU again.  Linux starts a thread on its creator's
    CPU; on a 2-vCPU VM it left the worker there for most of a second, so
    the draws took turns with the steps instead of overlapping them."""
    if not hasattr(os, "sched_setaffinity"):  # Linux only
        return
    allowed = os.sched_getaffinity(0)
    others = allowed - {ctypes.CDLL(None).sched_getcpu()}
    if others:
        os.sched_setaffinity(0, others)
        os.sched_setaffinity(0, allowed)


def _normals(spec):
    """The (paths, m) standard normals of each step, in step order: one
    SFC64 Generator's draws, chunk after chunk, as if drawn at once.

    A one-thread pool fills each chunk of half ``NORMAL_CHUNK_BYTES``.  The
    consumer allocates it, a fresh array it may keep, when it takes the one
    before, so the chunk in use and the one ahead fit the budget, and the
    chunks stay in the consumer's malloc arena.  A fill's exception is
    raised here by ``Future.result()``; every exit, ``close()`` too, shuts
    the pool down and joins its thread."""
    # imported here: concurrent.futures loads logging, which no tree
    # command needs
    from concurrent.futures import ThreadPoolExecutor
    n, P, m = spec.steps, spec.paths, spec.m
    rng = np.random.Generator(np.random.SFC64(spec.seed))
    chunk = max(1, NORMAL_CHUNK_BYTES // (16 * P * m))
    with ThreadPoolExecutor(1, "odx.mc normals", _leave_creator_cpu) as pool:
        ahead = pool.submit(rng.standard_normal,
                            out=np.empty((min(chunk, n), P, m)))
        for lo in range(chunk, n + chunk, chunk):  # the next chunk's start
            block = ahead.result()
            if lo < n:
                ahead = pool.submit(rng.standard_normal,
                                    out=np.empty((min(chunk, n - lo), P, m)))
            yield from block


def _euler_states(spec):
    """(X, a(X)) at steps 0..n of the Euler scheme dX = a dt + sigma sqrt(dt)
    xi, two (paths, d) arrays per step.  The drift a is formed once per
    step, for the step and for :func:`check_structure`; at step n, where no
    step follows, it is None."""
    dt = spec.T / spec.steps
    sqdt = np.sqrt(dt)
    x = np.empty((spec.paths, spec.d))
    x[:] = spec.x0
    a = spec.drift_at(x)
    yield x, a
    step = 0
    # no enumerate: its cached tuple would keep xi's chunk alive while
    # _normals allocates the next one
    for xi in _normals(spec):
        # overflow shows as a non-finite increment, reported below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            dX = a * dt + np.einsum("ij,...j->...i", spec.sigma, xi) * sqdt
        del xi
        if not np.all(np.isfinite(dX)):
            bad = np.argwhere(~np.isfinite(dX))[0]
            raise ModelError(
                f"non-finite increment at step {step}, path {int(bad[0])}")
        x = x + dX
        step += 1
        a = spec.drift_at(x) if step < spec.steps else None
        yield x, a


def _wealth(spec, states, tol=DEFAULT_STRUCT_TOL):
    """(x, V_hat, alive) at steps 0..n along the states (X_k, a(X_k)) of
    :func:`_euler_states`, or (X_k, None) to have the drift formed here.

    V_hat is the numeraire wealth, the discrete product of its integral
    equation with growth 1 + <rho, dX>.  A path whose growth would be zero
    or negative is aborted: its growth is taken as 1 and it leaves
    ``alive``, which is updated in place.  rho is that of
    :func:`check_structure`: of a constant drift once, before any path
    moves, and of a linear one at each step 0..n-1."""
    states = iter(states)
    x, a = next(states)
    rho = check_structure(spec, x, 0, tol, a)
    V = np.ones(x.shape[0])
    alive = np.ones(x.shape[0], dtype=bool)
    yield x, V, alive
    for step, (x_next, a_next) in enumerate(states):
        if step and spec.slope is not None:
            rho = check_structure(spec, x, step, tol, a)
        growth = 1.0 + np.einsum("pd,pd->p", rho, x_next - x)
        dead = growth <= 0.0
        alive &= ~dead
        V = V * np.where(dead, 1.0, growth)
        x, a = x_next, a_next
        yield x, V, alive


def _abort_fraction(alive):
    frac = 1.0 - alive.mean()
    if frac > ABORT_FRACTION_LIMIT:
        raise ModelError(f"excessive deflation abort fraction {frac:.4f}")
    return float(frac)


def check_structure(spec, x, step, tol=DEFAULT_STRUCT_TOL, a=None):
    """Pointwise rho = c^+ a(x), (paths, d), at the states x (paths, d) of
    one step, with ``a`` the drift there if the caller formed it: each path
    applies the spec's ``drift_maps`` by plain sums, so its rho and zeta do
    not depend on the paths solved with it.  A path that
    :func:`~odx.structure.off_range` flags is an :class:`ArbitrageError`
    naming the step, the first such path, its zeta and <zeta, a> > 0.  A
    drift that is not finite (it overflows at large x), or a rho (a large
    drift over a small eigenvalue of c), is a :class:`ModelError` naming the
    step and the first such path, raised without a floating-point warning."""
    rho_map, zeta_map = spec.drift_maps
    if a is None:
        a = spec.drift_at(x)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(a).all():
            path = int(np.argwhere(~np.isfinite(a))[0, 0])
            raise ModelError(f"non-finite drift at step {step}, path {path}")
        # row i of each map is the image of the unit drift e_i; the sums
        # run along the paths, (d, paths), and are read back transposed
        rho = _sum_products(rho_map.T[:, None], a[None]).T
        zeta = _sum_products(zeta_map.T[:, None], a[None]).T
        bad = off_range(a, zeta, tol)
        if bad.size:
            path = int(bad[0])
            raise ArbitrageError(
                f"drift outside the range of c at step {step}, path {path}: "
                f"zeta = {zeta[path].tolist()}, <zeta, a> = "
                f"{float(zeta[path] @ a[path])!r}")
    if not np.isfinite(rho).all():
        path = int(np.argwhere(~np.isfinite(rho))[0, 0])
        raise ModelError(
            f"non-finite numeraire rho at step {step}, path {path}")
    return rho


def stream_deflated(spec, head=0, tol=DEFAULT_STRUCT_TOL):
    """Simulate and deflate, keeping the martingale tests and not the paths.

    The reports, Y_hat at the last step and X[..., 0] of the first ``head``
    paths are those of the full-panel reference of ``tests/support.py``,
    ``deflate_paths(simulate(spec))``, to the bit, but memory is a fixed
    number of (paths,) arrays plus the chunk of normals.
    The tests are over the paths alive at the end, so a run in which some
    path aborts runs twice, with the same draws.  ``tol`` bounds the drift
    check of :func:`check_structure`.  A path count that numpy cannot
    allocate is a :class:`ModelError` naming it."""
    P = spec.paths
    try:
        edge = np.empty((2, P))  # Y_hat and Y_hat * X_0 at the edge before
        X_head = np.empty((min(head, P), spec.steps + 1))
    except (ValueError, MemoryError) as exc:
        raise ModelError(
            f"cannot hold the columns of {P} paths: {exc}") from exc
    t_Y, t_YX, alive = _deflated_pass(spec, tol, slice(None), edge, X_head)
    frac = _abort_fraction(alive)
    if frac:
        t_Y, t_YX, alive = _deflated_pass(spec, tol, alive, edge, X_head)
    return StreamRecord(test_Y=_t_report(t_Y), test_YX=_t_report(t_YX),
                        Y_terminal=edge[0, alive], X_head=X_head,
                        alive=alive, abort_fraction=frac)


def _deflated_pass(spec, tol, rows, edge, X_head):
    """One run of the steps: the t-statistic of each bucket of Y_hat and of
    Y_hat * X_0 over the paths ``rows``, taken as the run passes the
    bucket's end, and the paths alive at the end.  ``edge`` ends with the
    values at the last step, and ``X_head`` with X_0 of its first paths."""
    edges = set(bucket_edges(spec.steps).tolist())
    t_Y, t_YX = [], []
    head = X_head.shape[0]
    # closed here: a traceback that holds _wealth's frame, as an
    # ArbitrageError's does, keeps the states and their pool's thread running
    with closing(_euler_states(spec)) as states:
        for step, (x, v, alive) in enumerate(_wealth(spec, states, tol)):
            X_head[:, step] = x[:head, 0]
            if step in edges:
                with np.errstate(divide="ignore"):
                    y = 1.0 / v
                yx = y * x[:, 0]
                if step:
                    t_Y.append(_bucket_t((y - edge[0])[rows]))
                    t_YX.append(_bucket_t((yx - edge[1])[rows]))
                edge[0], edge[1] = y, yx
                del y, yx  # held to the next edge, they would double edge
    return t_Y, t_YX, alive


def bucket_edges(n_steps):
    """Step indices bounding the coarse time buckets of the martingale
    tests of ``stream_deflated`` and of its full-panel reference in
    ``tests/support.py`` (at most :data:`N_BUCKETS`, and at most one per
    step)."""
    return np.linspace(0, n_steps, min(N_BUCKETS, n_steps) + 1).astype(int)


def _bucket_t(D):
    """t-statistic of the mean of one bucket's increments D (paths,)."""
    sd = D.std(ddof=1)
    return 0.0 if sd == 0.0 else float(D.mean() / (sd / np.sqrt(D.size)))


def _t_report(t_stats):
    t_stats = np.asarray(t_stats)
    return {"t_stats": t_stats, "max_abs_t": float(np.max(np.abs(t_stats))),
            "passed": bool(np.all(np.abs(t_stats) <= T_MAX))}
