"""Property tests of the per-branch-group kernels against plain per-node
reference loops, on random trees with mixed branching (1 to 6 children)
and 1 to 3 assets."""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import permuted, realise
from odx import decompose, random_models
from odx.decompose import (FEAS_TOL, SUPERMART_TOL, MarketLP,
                           _enum_cost, _group_vertices,
                           _min_norm_superhedges,
                           is_supermartingale_under_all)
from odx.deflators import numeraire_portfolio
from odx.random_models import random_universal_supermartingale
from odx.structure import extract_characteristics
from odx.superhedge import (AMERICAN, EUROPEAN, Claim, snell_envelope,
                            superhedge)
from odx.tree import (AdaptedProcess, ArbitrageError, ModelError,
                      _finalize_tree, child_weighted_sums, path_cumprod,
                      path_cumsum)

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(1, 3)
PROPERTY = settings(max_examples=40, deadline=None)


# ---------------------------------------------------------------------------
# Random markets given as nested specs, so children can be permuted
# ---------------------------------------------------------------------------

def random_spec(rng, d, depth):
    """Nested {"probs", "dx", "children"} spec of an arbitrage-free market.

    Increments are centred under an interior measure, so a node with one
    child has dx = 0; some nodes get one child with dx exactly 0.
    """
    if depth == 0:
        return None
    k = int(rng.integers(1, 7))
    probs = rng.dirichlet(np.full(k, 2.0))
    probs = np.clip(probs, 0.02, None)
    probs /= probs.sum()
    dx = rng.normal(0.0, 0.1, size=(k, d))
    w = np.clip(rng.dirichlet(np.full(k, 2.0)), 0.05, None)
    w /= w.sum()
    dx -= w @ dx
    if k > 2 and rng.random() < 0.3:
        z = int(rng.integers(k))
        rest = np.arange(k) != z
        dx[z] = 0.0
        dx[rest] -= (w[rest] / w[rest].sum()) @ dx[rest]
    return {"probs": probs, "dx": dx,
            "children": [random_spec(rng, d, depth - 1) for _ in range(k)]}


def random_market(seed, d):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, d, int(rng.integers(1, 4)))
    return rng, spec, realise(spec, d)


# ---------------------------------------------------------------------------
# Per-node references
# ---------------------------------------------------------------------------

def reference_newton(p, dX, tol=1e-15, max_iter=100):
    """The per-node damped Newton iteration of the numeraire."""
    d = dX.shape[1]
    rho = np.zeros(d)
    scale = max(1.0, np.max(np.abs(dX)))
    best_rho, best_norm = rho, np.inf
    for _ in range(max_iter):
        w = 1.0 + dX @ rho
        grad = (p / w) @ dX
        g_norm = np.max(np.abs(grad))
        if g_norm < best_norm:
            best_rho, best_norm = rho, g_norm
        if g_norm <= tol * scale:
            return rho, grad
        hess = dX.T @ ((p / w**2)[:, None] * dX)
        step = np.linalg.pinv(hess, rcond=1e-13) @ grad
        obj = p @ np.log(w)
        for _ in range(60):
            w_new = 1.0 + dX @ (rho + step)
            if np.min(w_new) > 1e-12 and p @ np.log(w_new) >= obj - 1e-13:
                break
            step *= 0.5
        if np.max(np.abs(step)) <= 1e-16 * max(1.0, np.max(np.abs(rho))):
            break
        rho = rho + step
        if np.max(np.abs(rho)) > 1e8:
            break
    w = 1.0 + dX @ best_rho
    return best_rho, (p / w) @ dX


def reference_line_vertices(x):
    """Basic feasible solutions of {q >= 0, sum q = 1, sum q x = 0}: supports
    of one or two children with linearly independent columns."""
    k = x.size
    verts = []
    for size in (1, 2):
        for S in combinations(range(k), size):
            A = np.vstack([np.ones(size), x[list(S)]])
            if size == 1:
                if x[S[0]] != 0.0:
                    continue
                q_s = np.ones(1)
            else:
                if x[S[0]] == x[S[1]]:
                    continue
                q_s = np.linalg.solve(A, [1.0, 0.0])
            if np.all(q_s > 0.0):
                q = np.zeros(k)
                q[list(S)] = q_s
                verts.append(q)
    return np.array(verts).reshape(-1, k)


def reference_node_vertices(dX):
    """Vertices of {q >= 0, sum q = 1, sum q dX = 0} for dX of shape (k, d),
    as the rows of an (m, k) array.

    Basic feasible solutions have at most rank + 1 positive weights, so we
    enumerate supports up to size d + 1 and keep exactly-solved ones.  The
    enumeration runs over the children sorted by their rows of dX, so the
    vertices round the same way in any child order.
    """
    k, d = dX.shape
    order = np.lexsort(dX.T[::-1])
    A = np.vstack([np.ones((1, k)), dX[order].T])  # (d+1, k)
    b = np.zeros(d + 1)
    b[0] = 1.0
    verts = []
    for size in range(1, min(k, d + 1) + 1):
        for S in combinations(range(k), size):
            As = A[:, S]
            q_s, *_ = np.linalg.lstsq(As, b, rcond=None)
            if np.min(q_s) < -1e-11:
                continue
            if np.max(np.abs(As @ q_s - b)) > FEAS_TOL:
                continue
            q = np.zeros(k)
            q[list(S)] = np.clip(q_s, 0.0, None)
            q /= q.sum()
            if not any(np.max(np.abs(q - v)) < 1e-10 for v in verts):
                verts.append(q)
    # back to the node's own child order
    return np.array(verts).reshape(-1, k)[:, np.argsort(order)]


def assert_same_rows(got, ref, atol):
    """The rows of ``got`` and ``ref`` are the same set, to ``atol``, in
    any order."""
    assert got.shape == ref.shape
    if ref.size:
        dist = np.max(np.abs(got[:, None] - ref[None]), axis=2)
        assert np.max(np.min(dist, axis=0)) <= atol
        assert np.max(np.min(dist, axis=1)) <= atol


def random_increments(rng, d, k, n, degenerate):
    """(n, k, d) child increments at scale 1 or 1e-3, most of them centred
    under an interior measure (so the polytope is not empty), with
    ``degenerate`` rows turned into zero, repeated or collinear ones."""
    dX = rng.normal(size=(n, k, d)) * rng.choice([1.0, 1e-3])
    centred = rng.random(n) < 0.8
    w = rng.dirichlet(np.ones(k), size=n)
    dX[centred] -= np.vecmat(w, dX)[centred, None]
    for _ in range(degenerate if k > 1 else 0):
        i, j = rng.choice(k, 2, replace=False)
        dX[:, i] = dX[:, j] * rng.choice([0.0, 1.0, 2.0, -1.0])
    return dX


def reference_snell(claim, X, lp):
    """The Snell envelope by one ``node_max`` per node, level by level."""
    tree = X.tree
    V = np.zeros(tree.n_nodes)
    V[tree.leaves] = claim.payoff.values[tree.leaves, 0]
    for level in reversed(tree.levels[:-1]):
        for node in level:
            cont, _ = lp.node_max(node, V[tree.children(node)])
            if claim.kind == AMERICAN:
                cont = max(cont, claim.payoff.values[node, 0])
            V[node] = cont
    return V


def reference_witness(v, X, lp):
    """The first node of largest violation, by one ``node_max`` per node;
    a node fails past SUPERMART_TOL * max(1, |v(node)|, max |v(children)|)."""
    worst = None
    for node in X.tree.nonleaf_nodes:
        kids = v[X.tree.children(node)]
        best, q = lp.node_max(node, kids)
        violation = best - v[node]
        scale = max(1.0, abs(v[node]), np.max(np.abs(kids)))
        if violation > SUPERMART_TOL * scale and (
                worst is None or violation > worst["violation"]):
            worst = {"node": int(node), "violation": float(violation),
                     "measure": np.asarray(q).tolist()}
    return worst


def reference_gap(v, X, lp):
    gap = 0.0
    for node in X.tree.nonleaf_nodes:
        best, _ = lp.node_max(node, v[X.tree.children(node)])
        gap = max(gap, v[node] - best)
    return float(gap)


def reference_supermartingale(rng, X, lp):
    """``random_universal_supermartingale`` with its per-node loop."""
    tree = X.tree
    V = np.zeros(tree.n_nodes)
    V[tree.leaves] = rng.normal(0.0, 1.0, size=tree.leaves.size)
    for level in reversed(tree.levels[:-1]):
        for node in level:
            best, _ = lp.node_max(node, V[tree.children(node)])
            slack = abs(rng.normal(0.0, 0.2)) if rng.random() < 0.5 else 0.0
            V[node] = best + slack
    return V


def reference_path_prob(tree):
    """The level loop that built ``EventTree.path_prob``; the root is 1
    whatever its p."""
    path_prob = np.ones(tree.n_nodes)
    for level in tree.levels[1:]:
        path_prob[level] = path_prob[tree.parent[level]] * tree.p[level]
    return path_prob


def parent_walk(tree, terms, op):
    out = np.array(terms, dtype=np.float64)
    for i in range(1, tree.n_nodes):
        out[i] = op(out[tree.parent[i]], out[i])
    return out


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@PROPERTY
@given(SEEDS, DIMS)
def test_numeraire_matches_per_node_newton(seed, d):
    _, _, (tree, X, _) = random_market(seed, d)
    rho_hat, V_hat = numeraire_portfolio(X)
    for node in tree.nonleaf_nodes:
        kids = tree.children(node)
        dX = X.values[kids] - X.values[node]
        p = tree.p[kids]
        rho_ref, _ = reference_newton(p, dX)
        rho = rho_hat.values[node]
        grad = (p / (1.0 + dX @ rho)) @ dX
        assert np.max(np.abs(grad)) <= 1e-10 * max(1.0, np.max(np.abs(dX)))
        # the wealth factors are unique; rho is where dX has full rank
        np.testing.assert_allclose(dX @ rho, dX @ rho_ref, rtol=0, atol=1e-12)
        if np.linalg.matrix_rank(dX) == d:
            np.testing.assert_allclose(rho, rho_ref, rtol=1e-9, atol=1e-9)


@PROPERTY
@given(SEEDS, DIMS)
def test_characteristics_match_per_node_moments(seed, d):
    _, _, (tree, X, _) = random_market(seed, d)
    ch = extract_characteristics(X)
    for node in tree.nonleaf_nodes:
        kids = tree.children(node)
        p = tree.p[kids]
        dX = X.values[kids] - X.values[node]
        a = p @ dX
        dM = dX - a
        np.testing.assert_allclose(ch.a.values[node], a, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(ch.c_matrix(node), (p[:, None] * dM).T @ dM,
                                   rtol=1e-12, atol=1e-15)


@PROPERTY
@given(SEEDS)
def test_line_vertices_match_enumeration(seed):
    _, _, (tree, X, _) = random_market(seed, 1)
    for g in tree.branch_groups:
        verts, counts = _group_vertices(g.increments(X.values))
        for row, v, m in zip(g.increments(X.values)[:, :, 0], verts, counts):
            assert_same_rows(v[:m], reference_line_vertices(row), atol=1e-14)


@settings(max_examples=300, deadline=None)
@given(SEEDS, DIMS, st.integers(1, 8))
def test_group_vertices_match_per_node_enumeration(seed, d, k):
    """At most one zero, repeated or collinear row per node: the same
    vertex sets as the per-node enumeration, padded with zeros."""
    rng = np.random.default_rng(seed)
    dX = random_increments(rng, d, k, int(rng.integers(1, 5)),
                           int(rng.random() < 0.5))
    verts, counts = _group_vertices(dX)
    assert verts.shape == (dX.shape[0], counts.max(), k)
    for dx, v, m in zip(dX, verts, counts):
        assert_same_rows(v[:m], reference_node_vertices(dx), atol=1e-12)
        np.testing.assert_array_equal(v[m:], 0.0)


@settings(max_examples=100, deadline=None)
@given(SEEDS, DIMS, st.integers(2, 8))
def test_group_vertices_keep_node_maxima_on_degenerate_nodes(seed, d, k):
    """With several degenerate rows, rank-deficient supports can add
    non-vertex points of the polytope to the lstsq reference list, but
    every kept vertex stands on linearly independent columns (1, dX_c);
    the maxima over both lists agree."""
    rng = np.random.default_rng(seed)
    dX = random_increments(rng, d, k, 3, int(rng.integers(2, 4)))
    verts, counts = _group_vertices(dX)
    for dx, v, m in zip(dX, verts, counts):
        ref = reference_node_vertices(dx)
        assert (m == 0) == (ref.shape[0] == 0)
        cols = np.column_stack([np.ones(k), dx])
        for q in v[:m]:
            support = np.flatnonzero(q > 0.0)
            assert np.linalg.matrix_rank(cols[support]) == support.size
        if m:
            vals = rng.normal(size=k)
            assert np.max(v[:m] @ vals) == pytest.approx(
                np.max(ref @ vals), rel=0, abs=1e-12 * np.max(np.abs(vals)))


@PROPERTY
@given(SEEDS, DIMS, st.booleans())
def test_node_maxima_layer_matches_per_node_loops(seed, d, american):
    """Snell envelope, supermartingale witness, duality gaps and random
    supermartingales through ``MarketLP.maxima``: bitwise the values of
    the per-node ``node_max`` loops."""
    rng, _, (tree, X, _) = random_market(seed, d)
    lp = MarketLP(X)
    payoff = AdaptedProcess(tree, rng.normal(size=tree.n_nodes))
    claim = Claim(AMERICAN if american else EUROPEAN, payoff)
    env = snell_envelope(claim, X).values[:, 0]
    assert env.tobytes() == reference_snell(claim, X, lp).tobytes()
    # lowered at some nodes, the envelope fails the test there
    low = env - 0.1 * (rng.random(tree.n_nodes) < 0.3)
    cert = is_supermartingale_under_all(AdaptedProcess(tree, low), X)
    assert repr(cert.witness) == repr(reference_witness(low, X, lp))
    gap = reference_gap(env, X, lp)
    cert = is_supermartingale_under_all(AdaptedProcess(tree, env), X)
    assert repr(cert.duality_gap) == repr(gap)
    assert superhedge(claim, X).duality_gap == gap
    seeded = np.random.default_rng(seed)
    V = random_universal_supermartingale(seeded, X).values[:, 0]
    ref = reference_supermartingale(np.random.default_rng(seed), X, lp)
    assert V.tobytes() == ref.tobytes()


@PROPERTY
@given(SEEDS, DIMS, st.integers(1, 3000))
@example(seed=0, d=3, block=1)  # one node per block
def test_vertex_blocks_leave_node_maxima_unchanged(seed, d, block):
    """Enumerated in blocks of VERTEX_ENUM_BLOCK support weights, down to
    one node per block, every node keeps bitwise the maximum and the
    vertex of its whole branch group."""
    rng = np.random.default_rng(seed)
    tree = random_models.random_tree(rng, max_periods=3, max_branches=6)
    X = random_models.random_market(rng, tree, d=d)
    whole = MarketLP(X)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "VERTEX_ENUM_BLOCK", block)
        blocked = MarketLP(X)
    V = rng.normal(size=tree.n_nodes)
    for node in tree.nonleaf_nodes:
        v = V[tree.children(node)]
        try:
            best, q = whole.node_max(node, v)
        except ArbitrageError:
            with pytest.raises(ArbitrageError):
                blocked.node_max(node, v)
            continue
        best_b, q_b = blocked.node_max(node, v)
        assert repr(best_b) == repr(best)
        assert q_b.tobytes() == q.tobytes()


@settings(max_examples=100, deadline=None)
@given(SEEDS, DIMS, st.integers(1, 10), st.integers(1, 6))
@example(seed=1, d=3, k=5, n=4)
def test_node_solves_do_not_depend_on_group_or_block(seed, d, k, n):
    """A node's vertices and count, and its minimum-norm hedge H and
    feasibility, are bitwise the same solved alone, in its whole group and
    in any block split of it, with zero, repeated or collinear rows."""
    rng = np.random.default_rng(seed)
    dX = random_increments(rng, d, k, n, int(rng.integers(0, 4)))
    # feasible hedges by construction at most nodes, random dV at the rest
    dV = (np.matvec(dX, rng.normal(0.0, 10.0, size=(n, d)))
          - np.abs(rng.normal(size=(n, k))) * (rng.random((n, k)) < 0.5))
    redrawn = rng.random(n) < 0.3
    dV[redrawn] = rng.normal(size=(redrawn.sum(), k))
    edges = [0, *np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)),
                                    replace=False)).tolist(), n]
    cuts = [_group_vertices(dX[a:b]) for a, b in zip(edges, edges[1:])]
    split = [(v, m) for verts, counts in cuts for v, m in zip(verts, counts)]
    block = int(rng.integers(1, n * _enum_cost(k, d - 1) + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "VERTEX_ENUM_BLOCK", block)
        H_split, feasible_split = _min_norm_superhedges(dX, dV)
    verts, counts = _group_vertices(dX)
    H, feasible = _min_norm_superhedges(dX, dV)
    for i in range(n):
        (v_alone,), (m_alone,) = _group_vertices(dX[i:i + 1])
        (H_alone,), (f_alone,) = _min_norm_superhedges(dX[i:i + 1],
                                                       dV[i:i + 1])
        m = counts[i]
        for v_other, m_other in [(v_alone, m_alone), split[i]]:
            assert m_other == m
            assert v_other[:m].tobytes() == verts[i, :m].tobytes()
            np.testing.assert_array_equal(v_other[m:], 0.0)
        assert f_alone == feasible[i] == feasible_split[i]
        assert H_alone.tobytes() == H[i].tobytes() == H_split[i].tobytes()


@PROPERTY
@given(SEEDS, DIMS)
def test_path_accumulation_matches_parent_walk(seed, d):
    rng, _, (tree, _, _) = random_market(seed, d)
    terms = rng.normal(size=(tree.n_nodes, d))
    np.testing.assert_array_equal(path_cumsum(tree, terms),
                                  parent_walk(tree, terms, np.add))
    factors = rng.uniform(0.5, 1.5, size=tree.n_nodes)
    np.testing.assert_array_equal(path_cumprod(tree, factors),
                                  parent_walk(tree, factors, np.multiply))


@PROPERTY
@given(SEEDS)
def test_path_prob_matches_level_loop(seed):
    """``path_prob`` is bitwise the level loop that it replaced, also when
    the tree's input gives the root a p of its own."""
    _, _, (tree, _, _) = random_market(seed, 1)
    ref = reference_path_prob(tree).tobytes()
    assert tree.path_prob.tobytes() == ref
    p = tree.p.copy()
    p[0] = 0.5
    assert _finalize_tree(tree.time, tree.parent, p).path_prob.tobytes() == ref


@PROPERTY
@given(SEEDS, DIMS)
@example(seed=536870913, d=2)  # vertex enumeration in child order rounded apart
def test_child_order_leaves_numeraire_and_node_max_unchanged(seed, d):
    rng, spec, (tree, X, paths) = random_market(seed, d)
    tree2, X2, paths2 = realise(permuted(spec, rng), d)
    match = {path: i for i, path in enumerate(paths)}
    to_first = np.array([match[path] for path in paths2])
    V = rng.normal(size=tree.n_nodes)
    V2 = V[to_first]
    rho, V_hat = numeraire_portfolio(X)
    rho2, V_hat2 = numeraire_portfolio(X2)
    np.testing.assert_allclose(V_hat2.values, V_hat.values[to_first],
                               rtol=1e-12)
    lp, lp2 = MarketLP(X), MarketLP(X2)
    for node2 in tree2.nonleaf_nodes:
        node = to_first[node2]
        dX = X.values[tree.children(node)] - X.values[node]
        if np.linalg.matrix_rank(dX) == d:
            np.testing.assert_allclose(rho2.values[node2], rho.values[node],
                                       rtol=1e-9, atol=1e-9)
        best, _ = lp.node_max(node, V[tree.children(node)])
        best2, _ = lp2.node_max(node2, V2[tree2.children(node2)])
        assert best2 == pytest.approx(best, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Tree validation against the per-node loop it replaces
# ---------------------------------------------------------------------------

def reference_validation(time, parent, p):
    """Message of the first ModelError the per-node loop raised, or None."""
    n = len(time)
    if np.count_nonzero(parent == -1) != 1:
        return "exactly one root required"
    n_children = np.zeros(n, dtype=np.int64)
    sums = np.zeros(n)
    for i in range(1, n):
        par = parent[i]
        if par < 0 or par >= i:
            return f"node {i}: parent must precede it (breadth-first ids)"
        if time[i] != time[par] + 1:
            return f"node {i}: child time must be parent time + 1"
        if not (p[i] > 0.0):
            return (f"node {i}: zero or negative branch probability "
                    "violates measure equivalence")
        if par < parent[i - 1]:
            return f"node {i}: parent id below that of the node before it"
        n_children[par] += 1
        sums[par] += p[i]
    horizon = max(time)
    if any(time[i] != horizon for i in range(n) if n_children[i] == 0):
        return "all leaves must sit at the horizon"
    for i in range(n):
        if n_children[i] and abs(sums[i] - 1.0) > 1e-12:
            return f"node {i}: probabilities must sum to 1"
    return None


def relabelled(tree, rng):
    """The tree's (time, parent, p) columns under a random id order in
    which parents precede children and siblings are consecutive: the
    breadth-first order, a depth-first one, or anything between."""
    new = np.zeros(tree.n_nodes, dtype=np.int64)  # old id -> new id
    frontier, n_labelled = [0], 1
    while frontier:
        node = frontier.pop(int(rng.integers(len(frontier))))
        kids = tree.children(node)
        new[kids] = np.arange(n_labelled, n_labelled + kids.size)
        n_labelled += kids.size
        frontier.extend(kids.tolist())
    old = np.argsort(new)
    parent = np.where(tree.parent[old] < 0, -1, new[tree.parent[old]])
    return tree.time[old], parent, tree.p[old]


def mutated_columns(seed, field):
    """The (time, parent, p) columns of a random tree, with one entry of
    ``field`` changed, or every id relabelled."""
    rng = np.random.default_rng(seed)
    _, _, (tree, _, _) = random_market(seed, 1)
    if field == "ids":
        return rng, relabelled(tree, rng)
    cols = {"time": tree.time.copy(), "parent": tree.parent.copy(),
            "p": tree.p.copy()}
    i = int(rng.integers(1, tree.n_nodes)) if tree.n_nodes > 1 else 0
    col = cols[field]
    if field == "p":
        col[i] = rng.choice([0.0, -0.5, col[i] * 1.5, col[i]])
    else:
        col[i] = rng.choice([col[i] - 1, col[i] + 1, 0, tree.n_nodes, col[i]])
    return rng, (cols["time"], cols["parent"], cols["p"])


MUTATIONS = st.sampled_from(["parent", "time", "p", "ids"])


@settings(max_examples=200, deadline=None)
@given(SEEDS, MUTATIONS)
def test_tree_validation_matches_per_node_loop(seed, field):
    _, cols = mutated_columns(seed, field)
    expected = reference_validation(*cols)
    try:
        _finalize_tree(*cols)
        got = None
    except ModelError as exc:
        got = str(exc)
    if expected is None or got is None:
        assert got == expected
    else:
        assert got.startswith(expected)


@settings(max_examples=200, deadline=None)
@given(SEEDS, MUTATIONS)
def test_accepted_trees_sum_children_as_a_per_node_loop(seed, field):
    """Whatever tree _finalize_tree accepts, the one reduceat sweep of
    child_weighted_sums adds up exactly the children that name each node
    their parent."""
    rng, cols = mutated_columns(seed, field)
    try:
        tree = _finalize_tree(*cols)
    except ModelError:
        return
    vals = rng.normal(size=(tree.n_nodes, 2))
    got = child_weighted_sums(tree, vals)
    assert got.shape[0] == np.unique(tree.parent[1:]).size
    for row, node in zip(got, tree.nonleaf_nodes):
        kids = np.flatnonzero(tree.parent == node)
        assert tree.children(node).tolist() == kids.tolist()
        want = sum(tree.p[kid] * vals[kid] for kid in kids)
        np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)
