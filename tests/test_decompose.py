import tracemalloc
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from odx import decompose
from odx.decompose import (FEAS_TOL, SUPERMART_TOL, MarketLP,
                           _min_norm_superhedges, check_uniqueness,
                           decompose_kw, decompose_lp,
                           is_supermartingale_under_all, reconstruct)
from odx.deflators import build_deflator_family, numeraire_portfolio
from odx.random_models import (martingale_value_process,
                               random_complete_binary_model,
                               random_hedge_consumption, random_market,
                               random_tree, random_universal_supermartingale)
from odx.structure import (PINV_RELTOL, extract_characteristics,
                           solve_structure)
from odx.tree import (AdaptedProcess, ArbitrageError, PredictableProcess,
                      SolverError, build_tree, child_weighted_sums)


def test_polytope_vertices_t1(t1):
    tree, X = t1
    lp = MarketLP(X)
    stack, lo, hi = lp._span[0]
    verts = sorted(lp._stacks[stack][lo:hi], key=lambda q: q[0])
    np.testing.assert_allclose(verts[0], [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(verts[1], [0.5, 0.0, 0.5], atol=1e-12)


def test_supermartingale_t1_pass_and_fail(t1):
    tree, X = t1
    V = AdaptedProcess(tree, np.array([1.0, 1.0, 0.0, 1.0]))
    cert = is_supermartingale_under_all(V, X)
    assert cert.passed
    Vbad = AdaptedProcess(tree, np.array([0.9, 1.0, 0.0, 1.0]))
    cert = is_supermartingale_under_all(Vbad, X)
    assert not cert.passed
    assert cert.witness["node"] == 0
    assert abs(cert.witness["violation"] - 0.1) < 1e-9
    np.testing.assert_allclose(cert.witness["measure"], [0.5, 0.0, 0.5],
                               atol=1e-9)


def test_supermartingale_martingale_case(t1):
    tree, X = t1
    V = AdaptedProcess(tree, np.array([2 / 3, 1.0, 0.0, 1.0]))
    # V(root) = sum p V(child) under the tree probabilities fails the
    # polytope test (the sup is 1), but the polytope-mean version passes
    cert = is_supermartingale_under_all(V, X)
    assert not cert.passed
    Vq = AdaptedProcess(tree, np.array([1.0, 1.0, 1.0, 1.0]))
    assert is_supermartingale_under_all(Vq, X).passed


def test_no_martingale_measure_signals_arbitrage(a1):
    tree, X = a1
    V = AdaptedProcess(tree, np.ones(3))
    with pytest.raises(ArbitrageError):
        is_supermartingale_under_all(V, X)


def test_min_norm_superhedge_interval():
    dX = np.array([[0.1], [0.0], [-0.1]])
    dV = np.array([0.0, -1.0, 0.0])
    (H,), (feasible,) = _min_norm_superhedges(dX[None], dV[None])
    assert feasible
    np.testing.assert_allclose(H, [0.0], atol=1e-14)
    _, (feasible,) = _min_norm_superhedges(dX[None],
                                           np.array([[0.0, 0.1, 0.0]]))
    assert not feasible


def test_decompose_lp_t1(t1):
    tree, X = t1
    V = AdaptedProcess(tree, np.array([1.0, 1.0, 0.0, 1.0]))
    dec = decompose_lp(V, X)
    np.testing.assert_allclose(dec.H.values[0], [0.0], atol=1e-12)
    np.testing.assert_allclose(dec.C.increments()[1:, 0], [0.0, 1.0, 0.0],
                               atol=1e-12)
    assert is_supermartingale_under_all(V, X).duality_gap <= 1e-10
    recon = reconstruct(dec.V0, dec.H, dec.C, X)
    np.testing.assert_allclose(recon.values, V.values, atol=1e-12)


def test_decompose_lp_b1_replication(b1_claim):
    tree, X, V = b1_claim
    dec = decompose_lp(V, X)
    np.testing.assert_allclose(dec.H.values[0], [-0.9], atol=1e-11)
    assert np.max(np.abs(dec.C.values)) <= 1e-11


def test_decompose_lp_constant(b1):
    tree, X = b1
    V = AdaptedProcess(tree, np.full(3, 0.7))
    dec = decompose_lp(V, X)
    assert np.max(np.abs(dec.H.values)) <= 1e-12
    assert np.max(np.abs(dec.C.values)) <= 1e-12


def test_decompose_kw_b1_matches_lp(b1_claim):
    tree, X, V = b1_claim
    kw = decompose_kw(V, X)
    np.testing.assert_allclose(kw.H.values[0], [-0.9], atol=1e-10)
    assert kw.diagnostics["N_norm"] <= 1e-12
    assert np.max(np.abs(kw.C.values)) <= 1e-10
    assert not kw.diagnostics["deferred_nodes"]
    # the gap depends on V alone: the certificate reports it for both
    # routes, and it is zero on a replicable claim
    assert "duality_gap" not in kw.diagnostics
    assert is_supermartingale_under_all(V, X).duality_gap <= 1e-12


def test_decompose_kw_t1_defers(t1):
    tree, X = t1
    V = AdaptedProcess(tree, np.array([1.0, 1.0, 0.0, 1.0]))
    kw = decompose_kw(V, X)
    assert kw.diagnostics["N_norm"] > 0.1
    assert kw.diagnostics["deferred_nodes"] == (0,)
    # residual is (1/3, -2/3, 1/3): conditional second moment 2/9
    np.testing.assert_allclose(kw.diagnostics["N_norm"], np.sqrt(2 / 9))
    # deferred hedge equals the LP one
    lp = decompose_lp(V, X)
    assert check_uniqueness(kw, lp, X)["passed"]


def test_decompose_kw_deferred_infeasible_raises(t1):
    tree, X = t1
    V = AdaptedProcess(tree, np.array([0.9, 1.0, 0.0, 1.0]))
    with pytest.raises(SolverError) as exc:
        decompose_kw(V, X)
    assert exc.value.node == 0


def test_decompose_kw_self_deflation(b1):
    tree, X = b1
    rho, Vh = numeraire_portfolio(X)
    kw = decompose_kw(Vh, X)
    np.testing.assert_allclose(kw.diagnostics["theta"].values[0], [0.0],
                               atol=1e-10)
    np.testing.assert_allclose(kw.H.values[0], Vh.values[0, 0] * rho.values[0],
                               atol=1e-9)
    assert np.max(np.abs(kw.C.values)) <= 1e-10
    assert abs(kw.diagnostics["min_dB"]) <= 1e-12


def test_reconstruct_trivial(b1):
    tree, X = b1
    H = PredictableProcess(tree, np.zeros((3, 1)))
    C = AdaptedProcess(tree, np.zeros(3))
    V = reconstruct(0.4, H, C, X)
    assert np.max(np.abs(V.values - 0.4)) == 0.0


def test_uniqueness_tampered(b1_claim):
    tree, X, V = b1_claim
    d1 = decompose_lp(V, X)
    C2 = AdaptedProcess(tree, d1.C.values[:, 0] + np.array([0.0, 0.01, 0.01]))
    from odx.decompose import Decomposition
    d2 = Decomposition(V0=d1.V0, H=d1.H, C=C2, diagnostics={})
    with pytest.raises(SolverError) as exc:
        # tampered C changes the reconstructed process
        check_uniqueness(d1, d2, X)
    assert exc.value.node in (1, 2)  # both moved by 0.01, up to rounding


@pytest.mark.parametrize("seed", range(8))
def test_theorem_roundtrip_both_directions(seed):
    rng = np.random.default_rng(100 + seed)
    tree = random_tree(rng)
    X = random_market(rng, tree, d=1 + seed % 2)
    # (2) => (1): any hedge/consumption wealth is a universal supermartingale
    V0, H, C = random_hedge_consumption(rng, X)
    V = reconstruct(V0, H, C, X)
    assert is_supermartingale_under_all(V, X).passed
    # (1) => (2): every universal supermartingale decomposes
    V = random_universal_supermartingale(rng, X)
    dec = decompose_lp(V, X)
    assert np.min(dec.C.increments()) >= -1e-10
    recon = reconstruct(dec.V0, dec.H, dec.C, X)
    assert np.max(np.abs(recon.values - V.values)) <= 1e-9


def test_deflated_supermartingale_property():
    rng = np.random.default_rng(55)
    tree = random_tree(rng)
    X = random_market(rng, tree, d=1)
    fam = build_deflator_family(X, n_extras=4, seed=3)
    V = random_universal_supermartingale(rng, X)
    assert is_supermartingale_under_all(V, X).passed
    # a universal supermartingale deflated by any family member is a
    # supermartingale under the tree probabilities
    for Y in fam.all_deflators():
        yv = Y.values[:, 0] * V.values[:, 0]
        d_yv = yv - yv[np.maximum(tree.parent, 0)]
        d_yv[0] = 0.0
        assert np.max(child_weighted_sums(tree, d_yv)) <= SUPERMART_TOL


def _enumeration_edge(d):
    """The most children a node of d assets can have and be enumerated."""
    budget = decompose.VERTEX_ENUM_BUDGET
    return next(k for k in count(1) if decompose._enum_cost(k + 1, d) > budget)


def _mixed_market(rng, d, wide=False):
    """Random market in which about half the nodes are centred under an
    interior measure (arbitrage-free) and the rest keep raw normal
    increments (often arbitrage).  A wide market has two periods: the root
    has the most children that are enumerated, and each of them 2 to that
    many."""
    if wide:
        edge = _enumeration_edge(d)
        tree = build_tree({"probs": [1 / edge] * edge, "children": [
            {"probs": [1 / k] * k, "children": [None] * k}
            for k in rng.integers(2, edge + 1, size=edge)]})
    else:
        tree = random_tree(rng, max_periods=3, max_branches=6)
    vals = np.zeros((tree.n_nodes, d))
    for node in tree.nonleaf_nodes:
        kids = tree.children(node)
        dX = rng.normal(0.0, 0.1, size=(kids.size, d))
        if rng.random() < 0.5:
            dX -= rng.dirichlet(np.full(kids.size, 2.0)) @ dX
        vals[kids] = vals[node] + dX
    return AdaptedProcess(tree, vals)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_highs_fallback_matches_vertex_enumeration(seed, d, wide):
    rng = np.random.default_rng(seed)
    X = _mixed_market(rng, d, wide)
    tree = X.tree
    enum = MarketLP(X)
    assert np.all(enum._span[tree.nonleaf_nodes, 0] >= 0)  # all enumerated
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "VERTEX_ENUM_BUDGET", 0)
        highs = MarketLP(X)
    V = rng.normal(size=tree.n_nodes)
    for node in tree.nonleaf_nodes:
        v = V[tree.children(node)]
        try:
            best, _ = enum.node_max(node, v)
        except ArbitrageError:
            with pytest.raises(ArbitrageError):
                highs.node_max(node, v)
            continue
        best_highs, _ = highs.node_max(node, v)
        assert best_highs == pytest.approx(
            best, rel=1e-9, abs=1e-9 * np.max(np.abs(v)))


def test_kw_complete_nodes_checks():
    rng = np.random.default_rng(77)
    for _ in range(5):
        tree, X = random_complete_binary_model(rng)
        V = random_universal_supermartingale(rng, X)
        kw = decompose_kw(V, X)
        assert kw.diagnostics["N_norm"] <= 1e-10
        assert kw.diagnostics["min_dB"] >= -1e-10
        assert not kw.diagnostics["deferred_nodes"]
        # with strictly positive consumption the split of the slack across
        # siblings is not pinned down; the decomposition is unique exactly
        # on replication values, where C vanishes and both routes coincide
        V = martingale_value_process(rng, X)
        kw = decompose_kw(V, X)
        lpdec = decompose_lp(V, X)
        assert np.max(np.abs(kw.C.values)) <= 1e-9
        rep = check_uniqueness(kw, lpdec, X)
        assert rep["passed"], rep


@pytest.fixture(scope="module")
def trinomial_market():
    """Uniform trinomial tree, 8 periods, d = 2: the model on which the
    least-distance hedge used to fail at node 260 (node 2114 under the
    row orders of seed 1)."""
    tree = build_tree([[1 / 3] * 3] * 8)
    rng = np.random.default_rng(1)
    X = random_market(rng, tree, d=2)
    return X, random_universal_supermartingale(rng, X)


def test_ldp_solves_every_trinomial_node(trinomial_market):
    X, V = trinomial_market
    dec = decompose_lp(V, X)
    assert np.min(dec.C.increments()) >= 0.0
    recon = reconstruct(dec.V0, dec.H, dec.C, X)
    assert np.max(np.abs(recon.values - V.values)) <= 1e-9


@pytest.mark.parametrize("seed", [8, 10, 15, 16, 17, 29])
def test_low_volatility_hedges(seed):
    """d = 3 markets with vol 1e-3, where the hedge solve used to fail."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=3, max_branches=6)
    X = random_market(rng, tree, d=3, vol=1e-3)
    V = random_universal_supermartingale(rng, X)
    dec = decompose_lp(V, X)
    assert np.min(dec.C.increments()) >= -1e-10
    recon = reconstruct(dec.V0, dec.H, dec.C, X)
    assert np.max(np.abs(recon.values - V.values)) <= 1e-9


def assert_min_norm_superhedge(H, dX, dV):
    """H is feasible, and optimal by KKT: H is a nonnegative combination of
    its active rows (multipliers from scipy's NNLS)."""
    slack = dX @ H - dV
    scale = max(1.0, np.max(np.abs(dV)))
    assert np.min(slack) >= -FEAS_TOL * scale
    active = slack <= 1e-7 * scale
    if not np.any(active):  # scipy's nnls cannot take zero columns
        np.testing.assert_array_equal(H, 0.0)
        return
    _, resid = nnls(dX[active].T, H)
    assert resid <= 1e-7 * np.linalg.norm(H)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]),
       st.integers(2, 10), st.floats(1e-6, 1e3))
def test_min_norm_superhedge_is_exact_and_scales(seed, d, k, s):
    rng = np.random.default_rng(seed)
    dX = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 0, size=d)
    if rng.random() < 0.3:  # a zero, repeated or collinear row
        i, j = rng.choice(k, 2, replace=False)
        dX[i] = dX[j] * rng.choice([0.0, 1.0, 2.0, -1.0])
    # feasible by construction; about half the rows touch the hedge H0
    H0 = rng.normal(0.0, 10.0, size=d)
    dV = dX @ H0 - np.abs(rng.normal(size=k)) * (rng.random(k) < 0.5)
    (H,), (feasible,) = _min_norm_superhedges(dX[None], dV[None])
    assert feasible
    assert_min_norm_superhedge(H, dX, dV)
    assert H @ H <= H0 @ H0 * (1.0 + 1e-9)
    (Hs,), (feasible,) = _min_norm_superhedges(s * dX[None], dV[None])
    assert feasible
    np.testing.assert_allclose(Hs, H / s,
                               rtol=1e-7, atol=1e-9 * np.abs(H).max() / s)


def test_min_norm_superhedges_memory_is_bounded():
    """200 nodes of 30 children and 3 assets: every row subset of the whole
    group at once traced 398 MB; blocks of VERTEX_ENUM_BLOCK keep it near
    32 MB, whatever the number of nodes."""
    rng = np.random.default_rng(8)
    dX = rng.normal(size=(200, 30, 3))
    dV = (np.matvec(dX, rng.normal(size=(200, 3)))
          - np.abs(rng.normal(size=(200, 30))))
    tracemalloc.start()
    try:
        _, feasible = _min_norm_superhedges(dX, dV)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feasible.all()
    assert peak < 100 * 2**20


def _market_in_units(seed, d, s):
    """(X, V, sX, sV) on a random tree of up to 3 periods and 4 branches,
    V a universal supermartingale."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=3, max_branches=4)
    X = random_market(rng, tree, d=d)
    V = random_universal_supermartingale(rng, X)
    return (X, V, AdaptedProcess(tree, s * X.values),
            AdaptedProcess(tree, s * V.values))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]),
       st.floats(-6.0, 6.0))
def test_analyze_verdict_and_rho_follow_the_units_of_X(seed, d, e):
    """X -> sX with s log-uniform in [1e-6, 1e6]: ``analyze`` stays
    SOLVABLE and rho becomes rho / s.  rho at a node is determined to about
    eps * kappa, where kappa is the largest eigenvalue of c over the least
    one ``psd_pinv_apply`` keeps."""
    s = 10.0 ** e
    X, _, Xs, _ = _market_in_units(seed, d, s)
    ch = extract_characteristics(X)
    rep = solve_structure(extract_characteristics(Xs))
    assert rep.solvable, rep.bad_nodes
    nodes = X.tree.nonleaf_nodes
    rho = solve_structure(ch).rho.values[nodes]
    lam = np.linalg.eigvalsh(ch.c_stack(nodes))
    kappa = lam[:, -1] / np.min(
        np.where(lam > PINV_RELTOL * lam[:, -1:], lam, np.inf), axis=1)
    err = np.max(np.abs(s * rep.rho.values[nodes] - rho), axis=1)
    assert np.all(err <= 1e-10 * kappa
                  * np.maximum(1.0, np.max(np.abs(rho), axis=1)))


def _check_decompose_lp_in_units(seed, d, s):
    X, V, Xs, Vs = _market_in_units(seed, d, s)
    assert is_supermartingale_under_all(Vs, Xs).passed
    C = decompose_lp(V, X).C.values
    Cs = decompose_lp(Vs, Xs).C.values
    assert np.max(np.abs(Cs / s - C)) <= 1e-10 * max(1.0, np.max(np.abs(C)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]),
       st.floats(-4.0, 4.0))
def test_decompose_lp_follows_the_units_of_X_and_V(seed, d, e):
    """X -> sX and V -> sV with s log-uniform in [1e-4, 1e4]:
    the test passes and ``decompose_lp`` succeeds, and C becomes s C.
    Further out the absolute floors of FEAS_TOL fail it, as the two pinned
    cases below show."""
    _check_decompose_lp_in_units(seed, d, 10.0 ** e)


@pytest.mark.parametrize("seed, d, e", [(26, 1, 4.0), (17, 2, 4.0)])
def test_decompose_lp_in_units_of_1e4(seed, d, e):
    """Universal supermartingales that an absolute SUPERMART_TOL failed
    at s = 1e4."""
    _check_decompose_lp_in_units(seed, d, 10.0 ** e)


def test_supermartingale_verdict_in_units_of_1e6():
    """The test's verdict alone at s = 1e6, over the seeds and asset
    counts on which an absolute SUPERMART_TOL failed 68 of 120."""
    for seed in range(40):
        for d in (1, 2, 3):
            _, _, Xs, Vs = _market_in_units(seed, d, 1e6)
            assert is_supermartingale_under_all(Vs, Xs).passed, (seed, d)


@pytest.mark.parametrize("seed, d, e", [
    pytest.param(382241744, 2, -5.787830344386164, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the hedge rows are met to FEAS_TOL * max(1, max |dV|), "
               "absolute below unit scale: C moves by 0.3 of 3.1")),
    pytest.param(1806241980, 3, 5.162716493646688, marks=pytest.mark.xfail(
        strict=True, raises=ArbitrageError,
        reason="the vertex residual test is FEAS_TOL on the dX rows, "
               "absolute: the supermartingale test of sV finds no "
               "martingale measure at node 3")),
])
def test_decompose_lp_at_extreme_units(seed, d, e):
    _check_decompose_lp_in_units(seed, d, 10.0 ** e)


@pytest.mark.parametrize("seed, node, norm2", [(19, 4, 19_801_335),
                                               (134, 9, 11_885_757)])
def test_min_norm_hedge_low_volatility(seed, node, norm2):
    """d = 2, vol = 1e-3: nodes where the hedge used to be feasible but not
    minimal (squared norms 19,830,585 and 11,952,606)."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=3, max_branches=6)
    X = random_market(rng, tree, d=2, vol=1e-3)
    V = random_universal_supermartingale(rng, X)
    H = decompose_lp(V, X).H.values[node]
    kids = tree.children(node)
    assert_min_norm_superhedge(H, X.values[kids] - X.values[node],
                               V.values[kids, 0] - V.values[node, 0])
    assert H @ H == pytest.approx(norm2, rel=1e-6)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("vol", [0.1, 1e-3])
def test_fuzz_grid_decomposes(d, vol, monkeypatch):
    """Every universal supermartingale of the fuzz grid decomposes, on
    narrow trees and on wide ones whose nodes past VERTEX_ENUM_BUDGET (16
    or more children at d = 2, 13 or more at d = 3) take the HiGHS
    fallback."""
    highs_calls = 0
    linprog = decompose.linprog

    def counting_linprog(*args, **kwargs):
        nonlocal highs_calls
        highs_calls += 1
        return linprog(*args, **kwargs)

    monkeypatch.setattr(decompose, "linprog", counting_linprog)
    for max_periods, max_branches, n_seeds in [(3, 6, 200), (2, 18, 30)]:
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            tree = random_tree(rng, max_periods=max_periods,
                               max_branches=max_branches)
            X = random_market(rng, tree, d=d, vol=vol)
            V = random_universal_supermartingale(rng, X)
            dec = decompose_lp(V, X)
            assert np.min(dec.C.increments()) >= -1e-10
    assert highs_calls > 0
