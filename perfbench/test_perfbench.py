"""Tests of the benchmark's own code: the oracles on hand-checked trees, the
generated inputs, and the span arithmetic of the tracer."""
import importlib
import json

import numpy as np
import pytest

import oracles
import tracing
import workloads
from oracles import CheckError, Tree, node_map


@pytest.fixture
def b1():
    """One period, p = (0.6, 0.4), dX = (+0.1, -0.1)."""
    return Tree([-1, 0, 0], [1.0, 0.6, 0.4]), np.array([[0.0], [0.1], [-0.1]])


@pytest.fixture
def binomial2():
    """Two fair periods with +-0.1 return increments."""
    tree = Tree([-1, 0, 0, 1, 1, 2, 2], [1.0] + [0.5] * 6)
    X = np.array([0.0, 0.1, -0.1, 0.2, 0.0, 0.0, -0.2])[:, None]
    return tree, X


def _doc(V0, H, C):
    return {"V0": V0, "H": node_map(H), "C": node_map(C)}


def test_tree_layout(binomial2):
    tree, _ = binomial2
    assert tree.time.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert tree.first_child[:3].tolist() == [1, 3, 5]
    assert tree.nonleaf.tolist() == [0, 1, 2]
    with pytest.raises(CheckError):
        Tree([-1, 0, 1, 0], [1.0, 0.5, 1.0, 0.5])  # children not contiguous


def test_b1_claim_decomposes_with_zero_consumption(b1):
    """The B1 claim 0.06 up / 0.24 down is replicated: V0 = 0.15, H = -0.9."""
    tree, X = b1
    V = np.array([0.15, 0.06, 0.24])
    oracles.check_decomposition(tree, X, V, _doc(0.15, [[-0.9], [0], [0]],
                                                 [[0], [0], [0]]), "B1")
    with pytest.raises(CheckError, match="misses V"):
        oracles.check_decomposition(tree, X, V, _doc(0.15, [[-0.8], [0], [0]],
                                                     [[0], [0], [0]]), "B1")


def test_consumption_must_not_decrease(b1):
    tree, X = b1
    H, C = [[-0.9], [0], [0]], [[0], [0.01], [-0.01]]
    V = 0.15 + np.array([0.0, -0.09, 0.09]) - np.array([0.0, 0.01, -0.01])
    with pytest.raises(CheckError, match="C decreases"):
        oracles.check_decomposition(tree, X, V, _doc(0.15, H, C), "B1")


def test_american_put_envelope(binomial2):
    """Hand-computed American put, K = 1.05 (0.09 at the root)."""
    tree, X = binomial2
    S = oracles.asset_prices(tree, X)[:, 0]
    np.testing.assert_allclose(S, [1.0, 1.1, 0.9, 1.21, 0.99, 0.99, 0.81])
    env = oracles.binary_american_envelope(tree, X, np.maximum(1.05 - S, 0.0))
    np.testing.assert_allclose(env, [0.09, 0.03, 0.15, 0.0, 0.06, 0.06, 0.24],
                               atol=1e-15)


def test_structure_condition_on_b1(b1):
    tree, X = b1
    a, c = oracles.characteristics(tree, X)
    np.testing.assert_allclose(a, [[0.02]])
    np.testing.assert_allclose(c, [[[0.0096]]])
    doc = {"status": "SOLVABLE", "rho": node_map([[0.02 / 0.0096], [0], [0]])}
    oracles.check_analyze(tree, X, json.dumps(doc))
    doc["rho"] = node_map([[2.0], [0], [0]])
    with pytest.raises(CheckError, match="c rho - a"):
        oracles.check_analyze(tree, X, json.dumps(doc))


def test_b1_deflator(b1):
    """The unique martingale measure of B1 is (1/2, 1/2), so Y = q / p."""
    tree, X = b1
    Y = np.array([1.0, 0.5 / 0.6, 0.5 / 0.4])
    doc = {"Y_hat": node_map(Y), "extras": [{"Y": node_map(Y)}]}
    oracles.check_deflate(tree, X, json.dumps(doc))
    doc["extras"] = [{"Y": node_map([1.0, 1.0, 1.0])}]
    with pytest.raises(CheckError, match="extra 0: Y X drifts"):
        oracles.check_deflate(tree, X, json.dumps(doc))


def test_documents_printed_back_to_back():
    text = json.dumps({"a": 1}, indent=2) + "\n" + json.dumps([2]) + "\n"
    assert oracles.json_documents(text) == [{"a": 1}, [2]]


def test_simulate_check():
    doc = {"abort_fraction": 0.0, "mean_Y_terminal": 1.001,
           "se_Y_terminal": 0.001,
           "martingale_test_Y": {"passed": True, "max_abs_t": 1.0},
           "martingale_test_YX": {"passed": True, "max_abs_t": 1.0}}
    oracles.check_simulate(json.dumps(doc))
    doc["mean_Y_terminal"] = 1.004
    with pytest.raises(CheckError, match="standard errors"):
        oracles.check_simulate(json.dumps(doc))


def test_wide_market_shape():
    rng = np.random.default_rng(0)
    parent = workloads.wide_tree(np.random.default_rng(workloads.WIDE_SHAPE_SEED))
    tree, X = workloads.wide_market(rng, parent)
    lo, hi = workloads.WIDE_NODES
    assert lo <= tree.n_nodes <= hi
    k = tree.n_children[tree.nonleaf]
    assert k.min() >= 2 and k.max() <= workloads.WIDE_BRANCHES[1]
    np.testing.assert_allclose(oracles.child_mean(tree, np.ones(tree.n_nodes)), 1.0)
    V = workloads.hedge_minus_consumption(rng, tree, X)
    assert V.shape == (tree.n_nodes,)


def test_trinomial_fault_input():
    tree, X, V = workloads.trinomial_fault_input()
    assert tree.n_nodes == 9841 and X.shape == (9841, 2) and V.shape == (9841,)
    assert set(tree.n_children[tree.nonleaf].tolist()) == {3}


def test_self_time_and_groups():
    tr = tracing.Tracer()
    tr.spans = [["decompose.decompose_lp", 0.0, 10.0, -1],
                ["decompose.min_norm_superhedge", 1.0, 3.0, 0],
                ["tree.child_increments", 1.5, 2.0, 1],
                ["tree.path_cumsum", 4.0, 5.0, 0]]
    rep = tr.report(nonleaf_nodes=4)
    assert rep["decompose.lp_route_s"] == pytest.approx(7.0)
    assert rep["decompose.ldp_s"] == pytest.approx(2.0)  # includes its helper
    assert rep["tree.path_accum_s"] == pytest.approx(1.0)
    assert rep["tree.self_s"] == pytest.approx(1.5)
    assert rep["decompose.self_s"] == pytest.approx(8.5)
    assert rep["decompose.ldp_per_node"] == pytest.approx(0.25)
    assert rep["tree.path_accum_calls"] == 1


def test_tracer_wraps_every_binding_and_restores_them():
    odx = pytest.importorskip("odx")
    # the package re-exports a function named superhedge over the module
    decompose = importlib.import_module("odx.decompose")
    superhedge = importlib.import_module("odx.superhedge")

    tree = odx.build_tree([[0.5, 0.5], [0.5, 0.5]])
    X = odx.AdaptedProcess(tree, np.array([0.0, 0.1, -0.1, 0.2, 0.0, 0.0, -0.2]))
    originals = (superhedge.numeraire_portfolio, odx.superhedge,
                 decompose.MarketLP.node_max)
    with tracing.Tracer() as tr:
        price = odx.superhedge(odx.vanilla_claim(X, "put", 1.05, kind="american"),
                               X).price
    assert price == pytest.approx(0.09)
    names = {s[0] for s in tr.spans}
    assert {"superhedge.superhedge", "superhedge.snell_envelope",
            "decompose.MarketLP.__init__", "decompose.MarketLP.node_max",
            "deflators.numeraire_portfolio"} <= names
    assert (superhedge.numeraire_portfolio, odx.superhedge,
            decompose.MarketLP.node_max) == originals
    rep = tr.report(nonleaf_nodes=3)
    assert rep["decompose.node_max_per_node"] == pytest.approx(2.0)
    assert rep["deflators.numeraire_calls"] == 1
