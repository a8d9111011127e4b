import numpy as np
import pytest

from odx.tree import AdaptedProcess, build_tree


@pytest.fixture
def b1():
    """One period, two branches, p = (0.6, 0.4), dX = (+0.1, -0.1)."""
    tree = build_tree([[0.6, 0.4]])
    X = AdaptedProcess(tree, np.array([0.0, 0.1, -0.1]))
    return tree, X


@pytest.fixture
def t1():
    """One period, three symmetric branches, dX = (+0.1, 0, -0.1)."""
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3]])
    X = AdaptedProcess(tree, np.array([0.0, 0.1, 0.0, -0.1]))
    return tree, X


@pytest.fixture
def binomial2():
    """Two-period fair binomial with +-0.1 return increments."""
    tree = build_tree([[0.5, 0.5], [0.5, 0.5]])
    vals = np.array([0.0, 0.1, -0.1, 0.2, 0.0, 0.0, -0.2])
    return tree, AdaptedProcess(tree, vals)


@pytest.fixture
def a1():
    """One-step 2-asset model with drift outside the covariance range."""
    tree = build_tree([[0.5, 0.5]])
    X = AdaptedProcess(tree, np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]]))
    return tree, X


@pytest.fixture
def b1_claim(b1):
    """Replicable claim on B1: payoff 0.06 up / 0.24 down, value 0.15."""
    tree, X = b1
    V = AdaptedProcess(tree, np.array([0.15, 0.06, 0.24]))
    return tree, X, V


# ---------------------------------------------------------------------------
# Markets as nested {"probs", "dx", "children"} specs, so children can be
# permuted and each node found again by its path
# ---------------------------------------------------------------------------

def spec_of(X):
    """The nested spec of X's tree and increments."""
    tree = X.tree

    def node(i):
        if tree.n_children[i] == 0:
            return None
        kids = tree.children(i)
        return {"probs": tree.p[kids], "dx": X.values[kids] - X.values[i],
                "children": [node(c) for c in kids]}

    return node(0)


def permuted(spec, rng):
    """The same market with the children of every node in a random order."""
    if spec is None:
        return None
    order = rng.permutation(len(spec["probs"]))
    return {"probs": spec["probs"][order], "dx": spec["dx"][order],
            "children": [permuted(spec["children"][i], rng) for i in order]}


def realise(spec, d):
    """(tree, X, paths): paths[i] is the sequence of (probability, increment)
    steps leading to node i, which identifies a node across child
    permutations."""
    tree = build_tree(spec)
    X = np.zeros((tree.n_nodes, d))
    paths = [()]
    queue = [(0, spec)]
    while queue:  # the breadth-first order of build_tree
        nxt = []
        for node, sub in queue:
            if sub is None:
                continue
            for j, child in enumerate(sub["children"]):
                cid = len(paths)
                X[cid] = X[node] + sub["dx"][j]
                paths.append(paths[node] + ((sub["probs"][j],
                                             tuple(sub["dx"][j])),))
                nxt.append((cid, child))
        queue = nxt
    return tree, AdaptedProcess(tree, X), paths
