"""Output checks for the benchmark, computed without importing ``odx``.

Trees are held as breadth-first arrays (children of a node have contiguous
ids, every parent precedes its children), which is the layout the ``odx``
model format prescribes.  Every check raises :class:`CheckError` naming the
first property that does not hold.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

RECON_TOL = 1e-9      # reconstruction of V from (V0, H, C)
DC_TOL = 1e-10        # consumption increments may dip below zero by this
MARTINGALE_TOL = 1e-10
PRICE_TOL = 1e-12
STRUCTURE_TOL = 1e-10
ABORT_LIMIT = 0.01
MEAN_Y_SE = 3.0


class CheckError(AssertionError):
    """An output of the program does not have a property it must have."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Tree:
    """Breadth-first event tree: ``parent[0] == -1`` and ``p[0] == 1``."""

    parent: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        parent = np.asarray(self.parent, dtype=np.int64)
        require(parent[0] == -1 and np.all(np.diff(parent[1:]) >= 0)
                and np.all(parent[1:] < np.arange(1, parent.size)),
                "tree ids are not breadth-first")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        time = np.zeros(parent.size, dtype=np.int64)
        for i in range(1, parent.size):  # parents precede children
            time[i] = time[parent[i]] + 1
        object.__setattr__(self, "time", time)
        kids = np.bincount(parent[1:], minlength=parent.size)
        object.__setattr__(self, "n_children", kids)
        first = np.full(parent.size, -1, dtype=np.int64)
        first[parent[:0:-1]] = np.arange(parent.size - 1, 0, -1)
        object.__setattr__(self, "first_child", first)

    @property
    def n_nodes(self):
        return self.parent.size

    @property
    def nonleaf(self):
        return np.flatnonzero(self.n_children > 0)

    @property
    def levels(self):
        """Node ids per time index, root first."""
        return [np.flatnonzero(self.time == t)
                for t in range(int(self.time.max()) + 1)]

    def to_json(self):
        nodes = [{"id": 0, "time": 0, "parent": None, "p": None}]
        nodes += [{"id": i, "time": int(self.time[i]),
                   "parent": int(self.parent[i]), "p": float(self.p[i])}
                  for i in range(1, self.n_nodes)]
        return {"odx_schema": 1, "horizon": int(self.time.max()),
                "nodes": nodes}


def node_map(values):
    """(n, m) array -> the ``{"node": [..]}`` document form."""
    values = np.asarray(values, dtype=np.float64).reshape(len(values), -1)
    return {str(i): [float(v) for v in row] for i, row in enumerate(values)}


def from_node_map(obj, n):
    require(isinstance(obj, dict) and len(obj) == n,
            f"expected a map of {n} nodes, got {len(obj)}")
    return np.array([obj[str(i)] for i in range(n)], dtype=np.float64)


def json_documents(text):
    """Every JSON document in ``text`` (the CLI prints one after another)."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    text = text.strip()
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


def increments(tree, values):
    out = values - values[np.maximum(tree.parent, 0)]
    out[0] = 0.0
    return out


def path_sum(tree, terms):
    """Running sum of per-node terms down every path, one level at a time."""
    out = np.array(terms, dtype=np.float64)
    for level in tree.levels[1:]:
        out[level] += out[tree.parent[level]]
    return out


def child_mean(tree, values):
    """p-weighted sum over the children of every non-leaf node."""
    values = np.asarray(values, dtype=np.float64)
    weights = tree.p.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.add.reduceat(weights * values, tree.first_child[tree.nonleaf],
                           axis=0)


def gains(tree, X, H):
    """Per-node <H(parent), dX> (zero at the root)."""
    g = np.einsum("nd,nd->n", increments(tree, X), H[np.maximum(tree.parent, 0)])
    g[0] = 0.0
    return g


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------

def binary_american_envelope(tree, X, payoff):
    """Snell envelope of an American claim on a binary one-asset tree.

    Each binary node has exactly one martingale measure,
    q_up = -dx_down / (dx_up - dx_down), so the envelope is the plain
    backward induction V = max(payoff, q_up V_up + q_down V_down).
    """
    require(np.all(tree.n_children[tree.nonleaf] == 2), "tree is not binary")
    dx = increments(tree, X)[:, 0]
    V = np.array(payoff, dtype=np.float64)
    for level in reversed(tree.levels[:-1]):
        up = tree.first_child[level]
        dn = up + 1
        q_up = -dx[dn] / (dx[up] - dx[dn])
        cont = q_up * V[up] + (1.0 - q_up) * V[dn]
        V[level] = np.maximum(payoff[level], cont)
    return V


def asset_prices(tree, X):
    """S = E(X): running product of (1 + dX) along each path, S(0) = 1."""
    factors = 1.0 + increments(tree, X)
    for level in tree.levels[1:]:
        factors[level] *= factors[tree.parent[level]]
    return factors


def characteristics(tree, X):
    """Per non-leaf node: drift a = E[dX] and covariance c = Cov[dX]."""
    dX = increments(tree, X)
    a = child_mean(tree, dX)
    row = np.zeros(tree.n_nodes, dtype=np.int64)
    row[tree.nonleaf] = np.arange(tree.nonleaf.size)
    dM = dX - a[row[tree.parent]]
    dM[0] = 0.0
    c = child_mean(tree, dM[:, :, None] * dM[:, None, :])
    return a, c


# ---------------------------------------------------------------------------
# Checks of command outputs
# ---------------------------------------------------------------------------

def check_decomposition(tree, X, V, doc, what):
    """(V0, H, C) reproduces V; C is nondecreasing; <H, dX> - dV = dC >= 0."""
    n = tree.n_nodes
    H = from_node_map(doc["H"], n)
    C = from_node_map(doc["C"], n)[:, 0]
    recon = float(doc["V0"]) + path_sum(tree, gains(tree, X, H)) - C
    err = float(np.max(np.abs(recon - V)))
    require(err <= RECON_TOL, f"{what}: V0 + sum <H, dX> - C misses V by {err:.3e}")
    dC = increments(tree, C[:, None])[:, 0]
    require(float(np.min(dC)) >= -DC_TOL,
            f"{what}: C decreases by {-float(np.min(dC)):.3e}")
    slack = gains(tree, X, H) - increments(tree, V[:, None])[:, 0]
    gap = float(np.max(np.abs(slack - dC)))
    require(gap <= RECON_TOL, f"{what}: <H, dX> - dV differs from dC by {gap:.3e}")
    require(float(np.min(slack)) >= -DC_TOL,
            f"{what}: <H, dX> - dV is negative ({float(np.min(slack)):.3e})")


def check_deflator(tree, X, Y, what):
    """Y > 0, Y(0) = 1, and Y and Y X have zero p-weighted child mean."""
    require(float(np.min(Y)) > 0.0, f"{what}: deflator not strictly positive")
    require(abs(Y[0] - 1.0) <= PRICE_TOL, f"{what}: deflator starts at {Y[0]!r}")
    y_defect = float(np.max(np.abs(child_mean(tree, increments(tree, Y[:, None])))))
    yx = Y[:, None] * X
    yx_defect = float(np.max(np.abs(child_mean(tree, increments(tree, yx)))))
    require(y_defect <= MARTINGALE_TOL,
            f"{what}: Y drifts by {y_defect:.3e} at some node")
    require(yx_defect <= MARTINGALE_TOL,
            f"{what}: Y X drifts by {yx_defect:.3e} at some node")


def check_deflate(tree, X, text):
    (doc,) = json_documents(text)
    n = tree.n_nodes
    check_deflator(tree, X, from_node_map(doc["Y_hat"], n)[:, 0], "Y_hat")
    for j, extra in enumerate(doc["extras"]):
        check_deflator(tree, X, from_node_map(extra["Y"], n)[:, 0], f"extra {j}")


def check_analyze(tree, X, text):
    (doc,) = json_documents(text)
    require(doc.get("status") == "SOLVABLE",
            f"analyze: status {doc.get('status')!r}, expected SOLVABLE")
    rho = from_node_map(doc["rho"], tree.n_nodes)[tree.nonleaf]
    a, c = characteristics(tree, X)
    resid = float(np.max(np.abs(np.einsum("nij,nj->ni", c, rho) - a)))
    require(resid <= STRUCTURE_TOL, f"analyze: |c rho - a| reaches {resid:.3e}")


def check_superhedge(tree, X, envelope, text):
    (doc,) = json_documents(text)
    gap = abs(float(doc["price"]) - envelope[0])
    require(gap <= PRICE_TOL, f"superhedge: price {doc['price']!r} differs "
            f"from the backward induction {envelope[0]!r} by {gap:.3e}")
    check_decomposition(tree, X, envelope, doc["decomposition"], "superhedge")


def check_decompose(tree, X, V, text):
    docs = json_documents(text)
    routes = sorted(d["route"] for d in docs if "route" in d)
    require(routes == ["kw", "lp"], f"decompose: routes {routes}, expected lp and kw")
    for doc in docs:
        if "route" in doc:
            check_decomposition(tree, X, V, doc, f"decompose {doc['route']}")
    require(any("uniqueness" in d for d in docs),
            "decompose: no uniqueness report")


def check_simulate(text):
    (doc,) = json_documents(text)
    require(doc["abort_fraction"] <= ABORT_LIMIT,
            f"simulate: abort fraction {doc['abort_fraction']}")
    for test in ("martingale_test_Y", "martingale_test_YX"):
        require(doc[test]["passed"],
                f"simulate: {test} fails (max |t| {doc[test]['max_abs_t']:.2f})")
    gap = abs(doc["mean_Y_terminal"] - 1.0)
    require(gap <= MEAN_Y_SE * doc["se_Y_terminal"],
            f"simulate: |mean Y_T - 1| = {gap:.3e} exceeds "
            f"{MEAN_Y_SE:g} standard errors ({doc['se_Y_terminal']:.3e})")
