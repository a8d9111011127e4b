"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with ``pytest -v tests/test_acceptance.py``.  Each test prints
``criterion N: PASS/FAIL`` with the measured quantities so the gate can be
read off the log without digging into tracebacks.
"""
import itertools
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import permuted, realise, spec_of
from odx.decompose import (Decomposition, check_uniqueness, decompose_kw,
                           decompose_lp, is_supermartingale_under_all,
                           reconstruct)
from odx.deflators import build_deflator_family, numeraire_portfolio
from odx.random_models import (martingale_value_process,
                               random_admissible_strategy,
                               random_complete_binary_model,
                               random_hedge_consumption, random_market,
                               random_tree, random_universal_supermartingale,
                               strategy_wealth)
from odx.structure import extract_characteristics, solve_structure
from odx.superhedge import AMERICAN, EUROPEAN, Claim, superhedge, vanilla_claim
from odx.tree import AdaptedProcess, PredictableProcess, build_tree, step_gains
from support import deflate_paths, martingale_test, scalar_spec, simulate

N_TREES = 200


@pytest.fixture(scope="module")
def seeded_markets():
    """The 200 seeded random markets shared by criteria 1, 2, and 7."""
    out = []
    for seed in range(N_TREES):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_periods=4, max_branches=4)
        X = random_market(rng, tree, d=1 + seed % 2)
        out.append((tree, X))
    return out


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _deflator_defects(X, n_extras, seed):
    fam = build_deflator_family(X, n_extras=n_extras, seed=seed)
    worst_y = worst_yx = 0.0
    for Y in fam.all_deflators():
        y = Y.values[:, 0]
        tree = X.tree
        dY = y - y[np.maximum(tree.parent, 0)]
        dY[0] = 0.0
        from odx.tree import child_weighted_sums
        worst_y = max(worst_y, float(np.max(np.abs(
            child_weighted_sums(tree, dY)), initial=0.0)))
        yx = y[:, None] * X.values
        dYX = yx - yx[np.maximum(tree.parent, 0)]
        dYX[0] = 0.0
        worst_yx = max(worst_yx, float(np.max(np.abs(
            child_weighted_sums(tree, dYX)), initial=0.0)))
    return worst_y, worst_yx


def test_criterion_1_exact_deflators(seeded_markets):
    t0 = time.perf_counter()
    tree = build_tree([[0.6, 0.4]])
    b1 = AdaptedProcess(tree, np.array([0.0, 0.1, -0.1]))
    worst = 0.0
    for X in [b1] + [X for _, X in seeded_markets]:
        wy, wyx = _deflator_defects(X, n_extras=3, seed=1)
        worst = max(worst, wy, wyx)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(1, ok, f"max defect {worst:.2e}, {elapsed:.1f}s over "
                    f"{N_TREES + 1} markets")


def test_criterion_2_theorem_equivalence(seeded_markets):
    t0 = time.perf_counter()
    worst_dc, worst_recon = 0.0, 0.0
    for seed, (tree, X) in enumerate(seeded_markets):
        rng = np.random.default_rng(10_000 + seed)
        for _ in range(20):
            V0, H, C = random_hedge_consumption(rng, X)
            V = reconstruct(V0, H, C, X)
            assert is_supermartingale_under_all(V, X).passed
        for _ in range(20):
            V = random_universal_supermartingale(rng, X)
            dec = decompose_lp(V, X)
            worst_dc = min(worst_dc, float(np.min(dec.C.increments())))
            back = reconstruct(dec.V0, dec.H, dec.C, X)
            worst_recon = max(worst_recon, float(np.max(
                np.abs(back.values - V.values))))
    elapsed = time.perf_counter() - t0
    ok = worst_dc >= -1e-10 and worst_recon <= 1e-9 and elapsed < 60.0
    _verdict(2, ok, f"min dC {worst_dc:.2e}, max recon err {worst_recon:.2e}, "
                    f"{elapsed:.1f}s")


def test_criterion_3_hand_instance_t1():
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3]])
    X = AdaptedProcess(tree, np.array([0.0, 0.1, 0.0, -0.1]))
    V = AdaptedProcess(tree, np.array([1.0, 1.0, 0.0, 1.0]))
    dec = decompose_lp(V, X)
    h_err = float(np.max(np.abs(dec.H.values[0])))
    dc_err = float(np.max(np.abs(dec.C.increments()[1:, 0] - [0.0, 1.0, 0.0])))
    Vbad = AdaptedProcess(tree, np.array([0.9, 1.0, 0.0, 1.0]))
    cert = is_supermartingale_under_all(Vbad, X)
    viol_err = (abs(cert.witness["violation"] - 0.1)
                if not cert.passed and cert.witness["node"] == 0 else np.inf)
    ok = h_err <= 1e-9 and dc_err <= 1e-9 and viol_err <= 1e-9
    _verdict(3, ok, f"|H| {h_err:.1e}, dC err {dc_err:.1e}, "
                    f"violation err {viol_err:.1e}")


def _complete_instances():
    tree = build_tree([[0.6, 0.4]])
    X = AdaptedProcess(tree, np.array([0.0, 0.1, -0.1]))
    V = AdaptedProcess(tree, np.array([0.15, 0.06, 0.24]))
    yield X, V
    rng = np.random.default_rng(42)
    for _ in range(10):
        tree, X = random_complete_binary_model(rng)
        yield X, martingale_value_process(rng, X)


def test_criterion_4_uniqueness():
    worst_c = worst_int = 0.0
    for X, V in _complete_instances():
        kw = decompose_kw(V, X)
        lpdec = decompose_lp(V, X)
        rep = check_uniqueness(kw, lpdec, X)
        worst_c = max(worst_c, rep["C_gap"])
        worst_int = max(worst_int, rep["integral_gap"])
    # LP route under child order on all instances (complete and incomplete
    # alike): each market again with every node's children permuted, its
    # decomposition mapped back to the first market's ids
    rng = np.random.default_rng(7)
    for seed in range(10):
        d = 1 + seed % 2
        spec = spec_of(random_market(rng, random_tree(rng), d=d))
        tree, X, paths = realise(spec, d)
        V = random_universal_supermartingale(rng, X)
        tree2, X2, paths2 = realise(permuted(spec, rng), d)
        node_of = {path: i for i, path in enumerate(paths2)}
        to_second = np.array([node_of[path] for path in paths])
        V2 = AdaptedProcess(tree2, V.values[np.argsort(to_second)])
        d1, d2 = decompose_lp(V, X), decompose_lp(V2, X2)
        d2 = Decomposition(
            V0=d2.V0, H=PredictableProcess(tree, d2.H.values[to_second]),
            C=AdaptedProcess(tree, d2.C.values[to_second]))
        rep = check_uniqueness(d1, d2, X)
        worst_c = max(worst_c, rep["C_gap"])
        worst_int = max(worst_int, rep["integral_gap"])
    ok = worst_c <= 1e-8 and worst_int <= 1e-8
    _verdict(4, ok, f"max C gap {worst_c:.2e}, max integral gap "
                    f"{worst_int:.2e}")


def test_criterion_5_proof_steps():
    worst_n = 0.0
    worst_db = 0.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        tree, X = random_complete_binary_model(rng)
        V = random_universal_supermartingale(rng, X)
        kw = decompose_kw(V, X)
        worst_n = max(worst_n, kw.diagnostics["N_norm"])
        worst_db = min(worst_db, kw.diagnostics["min_dB"])
        assert not kw.diagnostics["deferred_nodes"]
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3]])
    X = AdaptedProcess(tree, np.array([0.0, 0.1, 0.0, -0.1]))
    V = AdaptedProcess(tree, np.array([1.0, 1.0, 0.0, 1.0]))
    kw = decompose_kw(V, X)
    t1_n = kw.diagnostics["N_norm"]
    t1_deferred = kw.diagnostics["deferred_nodes"] == (0,)
    ok = (worst_n <= 1e-10 and worst_db >= -1e-10
          and t1_n > 0.1 and t1_deferred)
    _verdict(5, ok, f"complete N_norm {worst_n:.2e}, min dB {worst_db:.2e}, "
                    f"incomplete N_norm {t1_n:.3f} deferred={t1_deferred}")


def test_criterion_6_arbitrage_certificate():
    tree = build_tree([[0.5, 0.5]])
    X = AdaptedProcess(tree, np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]]))
    ch = extract_characteristics(X)
    rep = solve_structure(ch)
    assert rep.status == "ARBITRAGE"
    zeta = rep.zeta.values[0]
    B = ch.B[0][0]  # the factor of node 0: c = B^T B
    c_zeta = float(np.max(np.abs((B.T @ B) @ zeta)))
    pairing = float(zeta @ ch.a.values[0])
    # simulate the strategy: sample branches by the tree probabilities and
    # collect the one-step gains; riskless means zero spread, all positive
    g = step_gains(X, rep.zeta.values)
    rng = np.random.default_rng(0)
    kids = tree.children(0)
    draws = rng.choice(kids, size=10_000, p=tree.p[kids])
    gains = g[draws]
    ok = (c_zeta == 0.0 and abs(pairing - 1.0) <= 1e-12
          and np.ptp(gains) == 0.0 and np.min(gains) > 0.0)
    _verdict(6, ok, f"|c zeta| {c_zeta:.1e}, <zeta,a> {pairing}, "
                    f"simulated gain {gains[0]} riskless over 10000 draws")


def test_criterion_7_numeraire_property(seeded_markets):
    worst = 0.0
    for seed, (tree, X) in enumerate(seeded_markets[:50]):
        rng = np.random.default_rng(20_000 + seed)
        _, Vh = numeraire_portfolio(X)
        leaves = tree.leaves
        w = tree.path_prob[leaves]
        for _ in range(100):
            pi = random_admissible_strategy(rng, X)
            W = strategy_wealth(X, pi)
            ratio = float(w @ (W.values[leaves, 0] / Vh.values[leaves, 0]))
            worst = max(worst, ratio)
    ok = worst <= 1.0 + 1e-9
    _verdict(7, ok, f"max E[V_pi(T)/V_hat(T)] = {worst:.12f} over "
                    "50 trees x 100 strategies")


def _one_period_sup(dX, payoff):
    """Independent superhedging price on a one-period model via a direct
    simplex solve (not the vertex enumerator under test)."""
    k = dX.shape[0]
    A_eq = np.vstack([np.ones((1, k)), dX.T])
    b_eq = np.zeros(A_eq.shape[0])
    b_eq[0] = 1.0
    res = linprog(-payoff, A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    assert res.success
    return -res.fun


def _binomial_american_oracle(tree, S, payoff, q=0.5):
    """Max over all exercise policies of the expected stopped payoff under
    the unique martingale measure (brute-force stopping-time enumeration)."""
    interior = [n for n in tree.nonleaf_nodes]
    best = -np.inf
    for mask in itertools.product([False, True], repeat=len(interior)):
        stop = dict(zip(interior, mask))

        def value(node):
            if tree.n_children[node] == 0 or stop[node]:
                return payoff[node]
            kids = tree.children(node)
            return q * value(kids[0]) + (1 - q) * value(kids[1])

        best = max(best, value(0))
    return best


def test_criterion_8_superhedging_duality():
    tree = build_tree([[0.5, 0.5], [0.5, 0.5]])
    X = AdaptedProcess(tree, np.array([0.0, 0.1, -0.1, 0.2, 0.0, 0.0, -0.2]))
    claim = vanilla_claim(X, "put", 1.05, kind=AMERICAN)
    res = superhedge(claim, X)
    price_err = abs(res.price - 0.09)
    h_err = abs(res.decomposition.H.values[0, 0] + 0.6)
    c_max = float(np.max(np.abs(res.decomposition.C.values)))
    from odx.superhedge import asset_prices
    S = asset_prices(X).values[:, 0]
    oracle = _binomial_american_oracle(tree, S, claim.payoff.values[:, 0])
    am_gap = abs(res.price - oracle)

    t1 = build_tree([[1 / 3, 1 / 3, 1 / 3]])
    Xt = AdaptedProcess(t1, np.array([0.0, 0.1, 0.0, -0.1]))
    pay = np.array([0.0, 1.0, 0.0, 1.0])
    eu = superhedge(Claim(kind=EUROPEAN,
                          payoff=AdaptedProcess(t1, pay)), Xt)
    dual = _one_period_sup(Xt.increments()[1:], pay[1:])
    eu_gap = abs(eu.price - dual)
    ok = (price_err <= 1e-10 and h_err <= 1e-10 and c_max <= 1e-10
          and am_gap <= 1e-8 and abs(eu.price - 1.0) <= 1e-10
          and eu_gap <= 1e-8)
    _verdict(8, ok, f"put price err {price_err:.1e}, root hedge err "
                    f"{h_err:.1e}, |C| {c_max:.1e}, stopping-oracle gap "
                    f"{am_gap:.1e}, T1 duality gap {eu_gap:.1e}")


def test_criterion_9_mc_consistency():
    t0 = time.perf_counter()
    a, sigma = 0.05, 0.2
    spec = scalar_spec(a, sigma, T=1.0, steps=256, paths=100_000, seed=0)
    ens = deflate_paths(simulate(spec))
    y = ens.Y_hat[ens.alive, -1]
    se = float(y.std(ddof=1) / np.sqrt(y.size))
    mean_gap = abs(float(y.mean()) - 1.0)
    yx = ens.Y_hat * ens.X[:, :, 0]
    yx_rep = martingale_test(yx[ens.alive])

    def tree_rho_gap(n):
        dt = 1.0 / n
        tree = build_tree([[0.5, 0.5]])
        dx = np.array([0.0, a * dt + sigma * np.sqrt(dt),
                       a * dt - sigma * np.sqrt(dt)])
        rho, _ = numeraire_portfolio(AdaptedProcess(tree, dx))
        return abs(float(rho.values[0, 0]) - a / sigma**2)

    ratio = tree_rho_gap(256) / tree_rho_gap(512)
    elapsed = time.perf_counter() - t0
    ok = (mean_gap <= 3 * se and yx_rep["passed"]
          and 1.5 <= ratio <= 3.0 and elapsed < 120.0)
    _verdict(9, ok, f"mean Y gap {mean_gap:.2e} (3se {3 * se:.2e}), "
                    f"YX max |t| {yx_rep['max_abs_t']:.2f}, "
                    f"rho gap halving ratio {ratio:.2f}, {elapsed:.0f}s")
