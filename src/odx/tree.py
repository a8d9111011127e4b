"""Finite event trees and the process algebra living on them.

A tree node carries a time index, a parent, and the transition probability
from its parent.  Node ids are breadth-first, the one order a tree accepts:
node i's parent is never below node i - 1's.  So ids are sorted by time and
the children of any node occupy a contiguous id range; several hot loops
exploit that via ``np.add.reduceat`` style segment sums.  Per-node work runs
over two precomputed layouts instead of one node at a time: the time levels
(path accumulation, one step per level) and the branch groups (all non-leaf
nodes with the same number of children, as one child-index matrix).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12


class ModelError(ValueError):
    """Invalid tree specification, process panel, or input file."""


class ArbitrageError(RuntimeError):
    """The market admits a riskless gain; carries the offending node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SolverError(RuntimeError):
    """A per-node solve failed on valid input; carries the offending node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


def _first_failure(checks):
    """(index, message) of the lowest index failing any check, with the
    message of the first check it fails; None when all pass.

    ``checks`` is a sequence of (boolean mask, message) pairs over the same
    index range, in the order a per-index loop would test them.
    """
    masks = [np.asarray(mask) for mask, _ in checks]
    failing = np.flatnonzero(np.logical_or.reduce(masks))
    if failing.size == 0:
        return None
    i = int(failing[0])
    return i, next(msg for mask, (_, msg) in zip(masks, checks) if mask[i])


@dataclass(frozen=True)
class BranchGroup:
    """The non-leaf nodes with the same number k of children.

    ``nodes`` is (n_k,) ascending; ``kids`` is the (n_k, k) matrix of their
    child ids in sibling order, and ``p`` the (n_k, k) matrix of their
    branch probabilities.
    """

    nodes: np.ndarray
    kids: np.ndarray
    p: np.ndarray

    @property
    def k(self):
        return self.kids.shape[1]

    def increments(self, values):
        """(n_k, k, ...) stack of child value minus node value."""
        return values[self.kids] - values[self.nodes][:, None]


@dataclass(frozen=True, eq=False)
class EventTree:
    """Finite filtered probability space with breadth-first node ids;
    trees compare by identity.

    Attributes
    ----------
    horizon : int
        Number of periods; all leaves sit at this time index.
    time : (n,) int array, node -> time index.
    parent : (n,) int array, node -> parent id (-1 at the root).
    p : (n,) float array, transition probability from the parent (1 at root).
    first_child, n_children : (n,) int arrays; n_children == 0 at leaves.
    path_prob : (n,) float array, path probability, cached ``path_cumprod``.
    """

    horizon: int
    time: np.ndarray
    parent: np.ndarray
    p: np.ndarray
    first_child: np.ndarray
    n_children: np.ndarray

    @property
    def n_nodes(self):
        return self.time.shape[0]

    def is_leaf(self, node):
        return self.n_children[node] == 0

    def children(self, node):
        lo = self.first_child[node]
        return np.arange(lo, lo + self.n_children[node])

    @property
    def nonleaf_nodes(self):
        return np.flatnonzero(self.n_children > 0)

    @property
    def leaves(self):
        return np.flatnonzero(self.n_children == 0)

    @cached_property
    def levels(self):
        """Node ids per time index, root level first."""
        return tuple(np.split(np.arange(self.n_nodes),
                              np.cumsum(np.bincount(self.time))[:-1]))

    @cached_property
    def path_prob(self):
        return path_cumprod(self, self.p)

    @cached_property
    def branch_groups(self):
        """One :class:`BranchGroup` per branching factor, by increasing k."""
        nonleaf = self.nonleaf_nodes
        ks = self.n_children[nonleaf]
        groups = []
        for k in np.flatnonzero(np.bincount(ks)):
            nodes = nonleaf[ks == k]
            kids = self.first_child[nodes][:, None] + np.arange(k)
            groups.append(BranchGroup(nodes, kids, self.p[kids]))
        return tuple(groups)


def _finalize_tree(time, parent, p):
    time = np.asarray(time, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    p = np.array(p, dtype=np.float64)
    n = time.shape[0]
    if n == 0:
        raise ModelError("empty tree")
    p[0] = 1.0  # the root has no transition; path_prob starts from it
    if time[0] != 0 or parent[0] != -1:
        raise ModelError("node 0 must be the root at time 0")
    if np.count_nonzero(parent == -1) != 1:
        raise ModelError("exactly one root required")

    par = parent[1:]
    bad_parent = (par < 0) | (par >= np.arange(1, n))
    par = np.where(bad_parent, 0, par)
    failure = _first_failure([
        (bad_parent, "node {}: parent must precede it (breadth-first ids)"),
        (time[1:] != time[par] + 1, "node {}: child time must be parent time + 1"),
        (~(p[1:] > 0.0), "node {}: zero or negative branch probability "
                         "violates measure equivalence"),
        (par < parent[:-1], "node {}: parent id below that of the node "
                            "before it (ids must be breadth-first)"),
    ])
    if failure is not None:
        i, msg = failure
        raise ModelError(msg.format(i + 1))
    n_children = np.bincount(par, minlength=n)
    first_child = 1 + np.cumsum(n_children) - n_children

    horizon = int(time.max())
    leaf = n_children == 0
    if np.any(time[leaf] != horizon):
        raise ModelError("all leaves must sit at the horizon")
    sums = np.bincount(par, weights=p[1:], minlength=n)
    bad = np.flatnonzero(~leaf & (np.abs(sums - 1.0) > PROB_TOL))
    if bad.size:
        raise ModelError(f"node {bad[0]}: probabilities must sum to 1 "
                         f"(got {sums[bad[0]]!r})")
    return EventTree(horizon=horizon, time=time, parent=parent, p=p,
                     first_child=first_child, n_children=n_children)


def build_tree(spec):
    """Build an :class:`EventTree` from a branching description.

    Two forms are accepted:

    * a list of probability rows, one per period, applied homogeneously:
      ``[[0.6, 0.4]]`` is a one-period binary tree;
    * a nested dict ``{"probs": [...], "children": [sub, ...]}`` where
      ``children`` (optional, same length as ``probs``) carries the
      sub-specs of the child nodes.

    Nodes are numbered breadth-first, each node's children in the order of
    its ``probs`` row: the one node order a tree accepts.
    """
    if isinstance(spec, dict):
        nested = spec
    else:
        rows = [np.asarray(r, dtype=np.float64) for r in spec]
        if not rows:
            raise ModelError("branching description is empty")
        nested = None
        for row in reversed(rows):
            kids = None if nested is None else [nested] * len(row)
            nested = {"probs": row, "children": kids}

    time = [0]
    parent = [-1]
    p = [1.0]
    queue = [(0, nested)]
    while queue:
        next_queue = []
        for node, sub in queue:
            if sub is None:
                continue
            probs = np.asarray(sub["probs"], dtype=np.float64)
            if probs.ndim != 1 or probs.size == 0:
                raise ModelError("probability row must be a non-empty vector")
            kids = sub.get("children")
            if kids is not None and len(kids) != probs.size:
                raise ModelError("children list must match probability row")
            for j, pr in enumerate(probs):
                cid = len(time)
                time.append(time[node] + 1)
                parent.append(node)
                p.append(float(pr))
                next_queue.append((cid, None if kids is None else kids[j]))
        queue = next_queue
    return _finalize_tree(time, parent, p)


# ---------------------------------------------------------------------------
# Node-indexed process panels
# ---------------------------------------------------------------------------

def _panel(tree, values, name):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if (values.ndim != 2 or values.shape[0] != tree.n_nodes
            or values.shape[1] == 0):
        raise ModelError(f"{name}: need one nonempty fixed-dimension "
                         "vector per node")
    return values


@dataclass(frozen=True)
class AdaptedProcess:
    """Node-indexed real-vector panel: one value per node.  The panel is a
    read-only view, so what :meth:`once` builds from it cannot go stale."""

    tree: EventTree
    values: np.ndarray  # (n_nodes, dim)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        values = _panel(self.tree, self.values, "AdaptedProcess").view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def once(self, build):
        """``build(self)``, formed on the first call and kept, for data
        that is a function of this panel alone."""
        if build not in self._memo:
            self._memo[build] = build(self)
        return self._memo[build]

    @property
    def dim(self):
        return self.values.shape[1]

    def increments(self):
        """(n_nodes, dim) array of value minus parent value; zero at the root."""
        out = self.values - self.values[np.maximum(self.tree.parent, 0)]
        out[0] = 0.0
        return out

    def component(self, i):
        return AdaptedProcess(self.tree, self.values[:, i].copy())


@dataclass(frozen=True)
class PredictableProcess:
    """Parent-node-indexed panel: the value in force on the step from a
    non-leaf node to its children.  Rows at leaves are ignored (zero)."""

    tree: EventTree
    values: np.ndarray  # (n_nodes, dim)

    def __post_init__(self):
        vals = _panel(self.tree, self.values, "PredictableProcess")
        vals = vals.copy()
        vals[self.tree.leaves] = 0.0
        object.__setattr__(self, "values", vals)

    @property
    def dim(self):
        return self.values.shape[1]


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


def child_weighted_sums(tree, node_values):
    """For each non-leaf node, sum of p * value over its children.

    ``node_values`` is (n_nodes, m); returns (n_nonleaf, m) aligned with
    ``tree.nonleaf_nodes``.  Ids are breadth-first, so each node's children
    are one segment and the segments follow in node order: a single
    reduceat sweep.
    """
    vals = np.asarray(node_values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    weighted = tree.p[:, None] * vals
    nonleaf = tree.nonleaf_nodes
    starts = tree.first_child[nonleaf]
    out = np.add.reduceat(weighted, starts, axis=0)
    return out[:, 0] if squeeze else out


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


def spread_to_children(tree, node_values):
    """Per-node values moved onto the children: row i of the result is the
    value at the parent of i (zero at the root)."""
    out = np.asarray(node_values)[np.maximum(tree.parent, 0)]
    out[0] = 0.0
    return out


def step_gains(X, H_vals):
    """Per-node one-step gains <H(parent), dX> of the per-node vectors
    ``H_vals`` ((n, d)) against X (zero at the root)."""
    return np.vecdot(X.increments(), spread_to_children(X.tree, H_vals))


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


def path_cumsum(tree, node_terms):
    """Running sum along each path of per-node terms ((n,) or (n, m))."""
    out = np.array(node_terms, dtype=np.float64)
    for level in tree.levels[1:]:
        out[level] += out[tree.parent[level]]
    return out


def path_cumprod(tree, node_factors):
    """Running product along each path of per-node factors ((n,) or (n, m))."""
    out = np.array(node_factors, dtype=np.float64)
    for level in tree.levels[1:]:
        out[level] *= out[tree.parent[level]]
    return out
