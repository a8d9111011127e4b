import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from odx import decompose
from odx import io as odx_io
from odx.cli import main
from odx.decompose import MarketLP, is_supermartingale_under_all
from odx.random_models import (random_market, random_tree,
                               random_universal_supermartingale)
from odx.superhedge import AMERICAN, superhedge, vanilla_claim
from odx.tree import AdaptedProcess, build_tree


def _write(tmp_path, name, obj):
    path = tmp_path / name
    odx_io.dump_json(obj, path=path)
    return str(path)


@pytest.fixture
def b1_model(tmp_path):
    tree = build_tree([[0.6, 0.4]])
    X = AdaptedProcess(tree, np.array([0.0, 0.1, -0.1]))
    return _write(tmp_path, "b1.json", odx_io.model_to_json(X))


@pytest.fixture
def t1_model(tmp_path):
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3]])
    X = AdaptedProcess(tree, np.array([0.0, 0.1, 0.0, -0.1]))
    return _write(tmp_path, "t1.json", odx_io.model_to_json(X))


@pytest.fixture
def a1_model(tmp_path):
    tree = build_tree([[0.5, 0.5]])
    X = AdaptedProcess(tree, np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]]))
    return _write(tmp_path, "a1.json", odx_io.model_to_json(X))


def test_analyze_ok(b1_model, capsys):
    assert main(["analyze", b1_model]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "SOLVABLE"
    np.testing.assert_allclose(doc["rho"]["0"], [0.02 / 0.0096], rtol=1e-10)


def test_analyze_arbitrage_exit_2(a1_model, capsys):
    assert main(["analyze", a1_model]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ARBITRAGE"
    np.testing.assert_allclose(doc["zeta"]["0"], [0.0, 1.0], atol=1e-12)
    assert doc["nodes"] == [0]


def test_analyze_price_units_exit_0(tmp_path, capsys):
    # zero is inside the triangle of the increments: no arbitrage.  In
    # price units c = (w dM)^T dM is symmetric only up to its rounding.
    tree = build_tree([[0.2, 0.3, 0.5]])
    X = AdaptedProcess(tree, [[0.0, 0.0], [158.0, 171.0], [-192.0, 49.0],
                              [199.0, -154.0]])
    model = _write(tmp_path, "prices.json", odx_io.model_to_json(X))
    assert main(["analyze", model]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["status"] == "SOLVABLE" and err == ""


PRICE_UNITS_X = [[0.0, 0.0], [158.0, 171.0], [-192.0, 49.0], [199.0, -154.0]]


def _price_units_model(tmp_path, X):
    X = AdaptedProcess(build_tree([[0.2, 0.3, 0.5]]), X)
    return _write(tmp_path, "model.json", odx_io.model_to_json(X))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["analyze", "deflate"])
def test_non_finite_market_exit_1(tmp_path, capsys, bad, command):
    """json.load takes NaN and Infinity; X must still be finite.  analyze
    printed SOLVABLE with a NaN rho and deflate a LinAlgError traceback."""
    X = np.array(PRICE_UNITS_X)
    X[2, 1] = bad
    assert main([command, _price_units_model(tmp_path, X)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: X: non-finite value at node 2\n"


@pytest.mark.parametrize("command", [["analyze"], ["deflate"],
                                     ["decompose", "V", "--route", "both"]],
                         ids=["analyze", "deflate", "decompose"])
def test_overflowing_covariance_exit_1(tmp_path, capsys, command):
    """At 1e160 the entries of X are finite but c overflows: analyze
    printed SOLVABLE with a NaN rho and warned from the PSD check, deflate
    printed a false ARBITRAGE and decompose a false "no martingale
    measure"; every command now stops at load."""
    X = 1e160 * np.array(PRICE_UNITS_X)
    value = _write(tmp_path, "v.json", {str(i): [1.0] for i in range(4)})
    argv = [value if a == "V" else a for a in command]
    argv.insert(1, _price_units_model(tmp_path, X))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: node 0: drift or covariance not "
                            "finite\n")


EMPTY_X_MODEL = {"odx_schema": 1, "tree": {"horizon": 1, "nodes": [
    {"id": 0, "time": 0, "parent": None, "p": None},
    {"id": 1, "time": 1, "parent": 0, "p": 0.5},
    {"id": 2, "time": 1, "parent": 0, "p": 0.5}]},
    "X": {"0": [], "1": [], "2": []}}


@pytest.mark.parametrize("command", [["analyze"], ["deflate"],
                                     ["decompose", "V", "--route", "both"],
                                     ["superhedge", "claim"]],
                         ids=["analyze", "deflate", "decompose", "superhedge"])
def test_empty_vectors_exit_1(tmp_path, capsys, command):
    """X with zero-length vectors: analyze and deflate ended in ValueError
    tracebacks, decompose in a TypeError and superhedge read 'asset must be
    one of 0..-1'."""
    files = {"V": _write(tmp_path, "v.json",
                         {str(i): [1.0] for i in range(3)}),
             "claim": _write(tmp_path, "claim.json",
                             {"odx_schema": 1, "kind": "european",
                              "formula": "put", "strike": 1.0})}
    argv = [files.get(a, a) for a in command]
    argv.insert(1, _write(tmp_path, "model.json", EMPTY_X_MODEL))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: X: empty vector at node 0\n"


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter that imports odx from source."""
    src = str(Path(odx_io.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)


def test_scipy_is_imported_only_for_highs():
    """A fresh process imports odx.cli without scipy; a one-asset node at
    the edge of VERTEX_ENUM_BUDGET is enumerated without it, and the node
    just past the budget still solves through HiGHS."""
    code = """if True:
        import sys
        from itertools import count
        import numpy as np
        import odx.cli
        from odx import decompose
        from odx.tree import AdaptedProcess, build_tree
        def scipy_loaded():
            return any(m.split(".")[0] == "scipy" for m in sys.modules)
        assert not scipy_loaded()
        k = next(k for k in count(1) if decompose._enum_cost(k, 1)
                 > decompose.VERTEX_ENUM_BUDGET)
        for k in (k - 1, k):
            tree = build_tree([[1 / k] * k])
            X = AdaptedProcess(tree, np.r_[0.0, np.linspace(-1.0, 1.0, k)])
            best, q = decompose.MarketLP(X).node_max(0, np.arange(k) % 2.0)
            print(repr(best), scipy_loaded())
        assert "scipy.optimize" in sys.modules
    """
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    (edge, edge_scipy), (past, past_scipy) = (
        line.split() for line in run.stdout.splitlines())
    assert (edge_scipy, past_scipy) == ("False", "True")
    assert float(edge) == pytest.approx(1.0)
    assert float(past) == pytest.approx(1.0)


def test_wide_decompose_loads_neither_scipy_nor_numpy_ma(tmp_path):
    """decompose --route both on a d = 3 tree of 9 and 10 children per node,
    in a fresh process: every node is enumerated, so neither scipy nor
    numpy.ma is imported."""
    rng = np.random.default_rng(5)

    def spec(t):
        if t == 2:
            return None
        k = int(rng.integers(9, 11))
        return {"probs": rng.dirichlet(np.full(k, 2.0)),
                "children": [spec(t + 1) for _ in range(k)]}

    tree = build_tree(spec(0))
    X = random_market(rng, tree, d=3)
    V = random_universal_supermartingale(rng, X)
    model = _write(tmp_path, "model.json", odx_io.model_to_json(X))
    value = _write(tmp_path, "value.json", V)
    code = f"""if True:
        import sys
        from odx.cli import main
        rc = main(["--out", {str(tmp_path / "out")!r}, "decompose",
                   {model!r}, {value!r}, "--route", "both"])
        print(rc, sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy" or m == "numpy.ma"))
    """
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"
    assert set(np.unique(tree.n_children)) == {0, 9, 10}


def test_malformed_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"tree": \n  oops}')
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 1


def test_deflate(b1_model, capsys):
    assert main(["--seed", "3", "deflate", b1_model, "--extras", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["rho_hat"]["0"], [2.0], atol=1e-10)
    np.testing.assert_allclose(doc["V_hat"]["1"], [1.2], atol=1e-10)
    assert len(doc["extras"]) == 2


def test_decompose_both_routes(t1_model, tmp_path, capsys):
    value = _write(tmp_path, "v.json",
                   {"0": [1.0], "1": [1.0], "2": [0.0], "3": [1.0]})
    out = tmp_path / "out"
    code = main(["--out", str(out), "decompose", t1_model, value,
                 "--route", "both"])
    assert code == 0
    lp_doc = json.loads((out / "decomposition_lp.json").read_text())
    kw_doc = json.loads((out / "decomposition_kw.json").read_text())
    np.testing.assert_allclose(lp_doc["H"]["0"], [0.0], atol=1e-10)
    assert kw_doc["diagnostics"]["deferred_nodes"] == [0]
    uniq = json.loads((out / "uniqueness.json").read_text())
    assert uniq["uniqueness"]["passed"]
    assert (out / "decomposition_lp.csv").exists()


def test_decompose_fail_witness(t1_model, tmp_path, capsys):
    value = _write(tmp_path, "v.json",
                   {"0": [0.9], "1": [1.0], "2": [0.0], "3": [1.0]})
    assert main(["decompose", t1_model, value]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "FAIL"
    assert doc["witness"]["node"] == 0
    assert abs(doc["witness"]["violation"] - 0.1) < 1e-9


def test_superhedge_put(tmp_path, capsys):
    tree = build_tree([[0.5, 0.5], [0.5, 0.5]])
    X = AdaptedProcess(tree,
                       np.array([0.0, 0.1, -0.1, 0.2, 0.0, 0.0, -0.2]))
    model = _write(tmp_path, "binom.json", odx_io.model_to_json(X))
    claim = _write(tmp_path, "claim.json",
                   {"odx_schema": 1, "kind": "american", "formula": "put",
                    "strike": 1.05})
    assert main(["superhedge", model, claim]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["price"] - 0.09) < 1e-10
    np.testing.assert_allclose(doc["decomposition"]["H"]["0"], [-0.6],
                               atol=1e-10)


def test_superhedge_european_call(binomial2, tmp_path, capsys):
    """A call with K = 1 on S = E(X) pays 0.21 only after two up moves, so
    replication under q = 1/2 prices it at 0.21 / 4 = 0.0525 with root hedge
    (0.105 - 0) / 0.2 = 0.525."""
    _, X = binomial2
    model = _write(tmp_path, "binom.json", odx_io.model_to_json(X))
    claim = _write(tmp_path, "claim.json",
                   {"odx_schema": 1, "kind": "european", "formula": "call",
                    "strike": 1.0})
    assert main(["superhedge", model, claim]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["price"] == pytest.approx(0.0525, abs=1e-12)
    np.testing.assert_allclose(doc["decomposition"]["H"]["0"], [0.525],
                               atol=1e-12)


def test_superhedge_out_dir(binomial2, tmp_path, capsys):
    """--out writes superhedge.json as printed and hedge_schedule.csv with
    one row per node, V the Snell envelope."""
    tree, X = binomial2
    model = _write(tmp_path, "binom.json", odx_io.model_to_json(X))
    claim = _write(tmp_path, "claim.json",
                   {"odx_schema": 1, "kind": "american", "formula": "put",
                    "strike": 1.05})
    out = tmp_path / "out"
    assert main(["--out", str(out), "superhedge", model, claim]) == 0
    assert (out / "superhedge.json").read_text() == capsys.readouterr().out
    with open(out / "hedge_schedule.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["node", "time", "V", "H_0", "dC", "dB", "N_norm"]
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(tree.n_nodes)]
    envelope = superhedge(vanilla_claim(X, "put", 1.05, kind=AMERICAN),
                          X).envelope.values[:, 0]
    assert [float(r[2]) for r in rows[1:]] == envelope.tolist()


def test_superhedge_explicit_payoff(binomial2, tmp_path, capsys):
    """A payoff map equal to the put's payoff at every node prices and
    hedges to the same bytes as the built-in put; a map that misses a
    node is an input error."""
    _, X = binomial2
    model = _write(tmp_path, "binom.json", odx_io.model_to_json(X))
    put = {"odx_schema": 1, "kind": "american", "formula": "put",
           "strike": 1.05}
    payoff = {str(i): row for i, row in enumerate(
        vanilla_claim(X, "put", 1.05, kind=AMERICAN).payoff.values.tolist())}
    explicit = {"odx_schema": 1, "kind": "american", "payoff": payoff}
    assert main(["superhedge", model, _write(tmp_path, "put.json", put)]) == 0
    expected = capsys.readouterr().out
    assert main(["superhedge", model,
                 _write(tmp_path, "payoff.json", explicit)]) == 0
    assert capsys.readouterr().out == expected
    del payoff["4"]
    assert main(["superhedge", model,
                 _write(tmp_path, "partial.json", explicit)]) == 1
    assert "payoff: missing value at node 4" in capsys.readouterr().err


def test_verify_pass_and_tampered(t1_model, tmp_path, capsys):
    value = _write(tmp_path, "v.json",
                   {"0": [1.0], "1": [1.0], "2": [0.0], "3": [1.0]})
    out = tmp_path / "out"
    assert main(["--out", str(out), "decompose", t1_model, value]) == 0
    dec_path = out / "decomposition_lp.json"
    assert main(["verify", t1_model, value, str(dec_path)]) == 0
    doc = json.loads(dec_path.read_text())
    doc["C"]["2"] = [doc["C"]["2"][0] + 0.01]
    tampered = _write(tmp_path, "tampered.json", doc)
    capsys.readouterr()
    assert main(["verify", t1_model, value, tampered]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "FAIL"
    assert any(p["check"] == "reconstruction" for p in rep["problems"])


def test_verify_decreasing_consumption_exit_2(b1_model, tmp_path, capsys):
    # V = 1 - C with C(1) = -0.01 < 0 = C(0); V is still a universal
    # supermartingale (q = (1/2, 1/2) gives 0.98 <= 1) and reconstructs
    value = _write(tmp_path, "v.json", {"0": [1.0], "1": [1.01], "2": [0.95]})
    dec = _write(tmp_path, "dec.json",
                 {"odx_schema": 1, "V0": 1.0, "H": {"0": [0.0]},
                  "C": {"0": [0.0], "1": [-0.01], "2": [0.05]}})
    assert main(["verify", b1_model, value, dec]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "FAIL"
    assert rep["problems"] == [{"check": "C nondecreasing", "node": 1,
                                "min_dC": -0.01}]


def test_verify_not_a_supermartingale_exit_2(t1_model, tmp_path, capsys):
    # no split with nondecreasing C exists, so C decreases to reconstruct V
    value = _write(tmp_path, "v.json",
                   {"0": [0.9], "1": [1.0], "2": [0.0], "3": [1.0]})
    dec = _write(tmp_path, "dec.json",
                 {"odx_schema": 1, "V0": 0.9, "H": {"0": [0.0]},
                  "C": {"0": [0.0], "1": [-0.1], "2": [0.9], "3": [-0.1]}})
    assert main(["verify", t1_model, value, dec]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "FAIL"
    (sm,) = [p for p in rep["problems"] if p["check"] == "supermartingale"]
    assert sm["witness"]["node"] == 0
    assert abs(sm["witness"]["violation"] - 0.1) < 1e-9
    q = np.array(sm["witness"]["measure"])
    assert abs(q.sum() - 1.0) < 1e-12 and abs(q @ [0.1, 0.0, -0.1]) < 1e-12
    assert not any(p["check"] == "reconstruction" for p in rep["problems"])


def _random_model(tmp_path, seed, d, max_periods, max_branches, s=1.0):
    """(model, value, X, V) files and processes of a random market and a
    universal supermartingale on it, both scaled by s."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=max_periods,
                       max_branches=max_branches)
    X = random_market(rng, tree, d=d)
    V = random_universal_supermartingale(rng, X)
    X, V = AdaptedProcess(tree, s * X.values), AdaptedProcess(tree, s * V.values)
    return (_write(tmp_path, "model.json", odx_io.model_to_json(X)),
            _write(tmp_path, "value.json", V), X, V)


@pytest.mark.parametrize("seed, d, s", [(17, 2, 1e3), (26, 1, 1e4)])
def test_decompose_and_verify_in_price_units(tmp_path, capsys, seed, d, s):
    """Universal supermartingales in price units pass the test and both
    routes verify.  For seed 17, max |V| is 2,445 and the KW split
    reconstructs V to 3.7e-9, which verify takes relative to V; seed 26
    failed an absolute SUPERMART_TOL."""
    model, value, _, _ = _random_model(tmp_path, seed, d, 3, 4, s=s)
    out = tmp_path / "out"
    assert main(["--out", str(out), "decompose", model, value,
                 "--route", "both"]) == 0
    for route in ("lp", "kw"):
        dec = str(out / f"decomposition_{route}.json")
        assert main(["verify", model, value, dec]) == 0, route
    capsys.readouterr()


def test_decompose_takes_the_polytope_maxima_of_V_once(tmp_path, capsys,
                                                        monkeypatch):
    """decompose --route both on wide trees: one ``MarketLP.maxima`` pass
    over V, one HiGHS solve per node past VERTEX_ENUM_BUDGET (d = 2 and 16
    or more children), and both routes report the duality gap of the
    supermartingale certificate."""
    calls = {"maxima": 0, "linprog": 0}

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(MarketLP, "maxima",
                        counting("maxima", MarketLP.maxima))
    monkeypatch.setattr(decompose, "linprog",
                        counting("linprog", decompose.linprog))
    wide = 0
    for seed in range(4):
        model, value, X, V = _random_model(tmp_path, seed, 2, 2, 18)
        gap = is_supermartingale_under_all(V, X).duality_gap
        n_wide = sum(decompose._enum_cost(int(k), 2)
                     > decompose.VERTEX_ENUM_BUDGET
                     for k in X.tree.n_children[X.tree.nonleaf_nodes])
        wide += n_wide
        calls.update(maxima=0, linprog=0)
        out = tmp_path / f"out{seed}"
        assert main(["--out", str(out), "decompose", model, value,
                     "--route", "both"]) == 0
        assert calls == {"maxima": 1, "linprog": n_wide}
        for route in ("lp", "kw"):
            doc = json.loads((out / f"decomposition_{route}.json").read_text())
            assert doc["diagnostics"]["duality_gap"] == gap
    assert wide > 0
    capsys.readouterr()


def test_simulate_abort_limit_exit_1(tmp_path, capsys):
    """With drift 1 and sigma 1 over one step, 2.45 % of the paths take the
    numeraire's wealth to zero or below, past the abort limit."""
    spec = _write(tmp_path, "spec.json",
                  {"odx_schema": 1, "d": 1, "m": 1, "T": 1.0,
                   "drift": {"form": "const", "value": [1.0]},
                   "sigma": {"form": "const", "value": [[1.0]]}})
    assert main(["--seed", "1", "simulate", spec,
                 "--paths", "2000", "--steps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: excessive deflation abort "
                            "fraction 0.0245\n")


def test_simulate_small(tmp_path, capsys):
    spec = _write(tmp_path, "spec.json",
                  {"odx_schema": 1, "d": 1, "m": 1, "T": 1.0,
                   "drift": {"form": "const", "value": [0.05]},
                   "sigma": {"form": "const", "value": [[0.2]]}})
    code = main(["--seed", "5", "simulate", spec,
                 "--paths", "2000", "--steps", "32"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["mean_Y_terminal"] - 1.0) < 4 * doc["se_Y_terminal"]
    assert doc["martingale_test_YX"]["passed"]


def test_byte_identical_reruns(b1_model, capsys):
    main(["--seed", "9", "deflate", b1_model])
    first = capsys.readouterr().out
    main(["--seed", "9", "deflate", b1_model])
    second = capsys.readouterr().out
    assert first == second


def test_nonpositive_tol(b1_model):
    # a NaN or infinite tolerance would let an arbitrage node pass
    for tol in ["0", "nan", "inf"]:
        assert main(["--tol", tol, "analyze", b1_model]) == 1


def test_solver_failure_exit_2_with_witness(tmp_path, monkeypatch, capsys):
    import odx.decompose
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3]])
    X = AdaptedProcess(tree, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                       [-1.0, -1.0]]))
    model = _write(tmp_path, "m.json", odx_io.model_to_json(X))
    value = _write(tmp_path, "v.json", {str(i): [1.0] for i in range(4)})
    monkeypatch.setattr(odx.decompose, "_min_norm_superhedges",
                        lambda dX, dV: (np.zeros(dX.shape[::2]),
                                        np.zeros(dX.shape[0], dtype=bool)))
    assert main(["decompose", model, value]) == 2
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["status"] == "SOLVER_ERROR" and doc["node"] == 0
    assert err == ""
    # V = 1 passes the polytope test, so the two checks disagree
    cond = np.linalg.cond([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0],
                           [0.0, 1.0, -1.0]])
    assert doc["error"] == (
        "least-distance hedge infeasible at node 0, where the polytope "
        f"maximum is 1.0 against V 1.0 (condition number of [1; dX^T] "
        f"{cond:.3g})")


def test_simulate_arbitrage_exit_2_with_witness(tmp_path, capsys):
    # one noise for two assets, and a drift off the range of c = sigma sigma^T
    spec = _write(tmp_path, "spec.json",
                  {"odx_schema": 1, "d": 2, "m": 1, "T": 1.0,
                   "drift": {"form": "const", "value": [0.05, -0.03]},
                   "sigma": {"form": "const", "value": [[0.2], [0.1]]}})
    assert main(["simulate", spec, "--paths", "2000", "--steps", "32"]) == 2
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["status"] == "ARBITRAGE" and err == ""
    # zeta spans the kernel of c, (1, -2) / 5 scaled by <(1, -2), a> / 5
    zeta = np.array([0.022, -0.044])
    assert doc["error"].startswith(
        "drift outside the range of c at step 0, path 0: zeta = [")
    got = json.loads(doc["error"].split("zeta = ")[1].split("]")[0] + "]")
    np.testing.assert_allclose(got, zeta, rtol=1e-12)
    gain = float(doc["error"].rsplit("= ", 1)[1])
    assert gain == pytest.approx(zeta @ [0.05, -0.03], rel=1e-12) and gain > 0


SIM_SPEC = {"odx_schema": 1, "d": 2, "m": 2, "T": 1.0,
            "drift": {"form": "linear", "value": [0.04, 0.02],
                      "slope": [[-0.2, 0.05], [0.1, -0.3]]},
            "sigma": {"form": "const", "value": [[0.2, 0.05], [0.03, 0.15]]}}


def _without(obj, *path):
    obj = json.loads(json.dumps(obj))
    *parents, key = path
    target = obj
    for p in parents:
        target = target[p]
    del target[key]
    return obj


def _with(obj, value, *path):
    obj = json.loads(json.dumps(obj))
    *parents, key = path
    target = obj
    for p in parents:
        target = target[p]
    target[key] = value
    return obj


@pytest.mark.parametrize("spec, message", [
    (_without(SIM_SPEC, "d"), "missing 'd'"),
    (_without(SIM_SPEC, "drift", "slope"), "needs 'slope'"),
    (_without(SIM_SPEC, "sigma"), "missing sigma"),
    (_with(SIM_SPEC, [0.04], "drift", "value"), "drift value must be 2"),
    (_with(SIM_SPEC, [[0.1, 0.2, 0.3]], "drift", "slope"),
     "drift slope must be 2 x 2"),
    (_with(SIM_SPEC, [[0.2, 0.05, 0.1]], "sigma", "value"),
     "sigma value must be 2 x 2"),
    (_with(SIM_SPEC, [["a", 0.0], [0.0, 0.1]], "sigma", "value"),
     "sigma value is not a numeric array"),
    (_with(SIM_SPEC, {"form": "linear", "value": [[0.2, 0.0], [0.0, 0.2]],
                      "slope": [[0.0, 0.0], [0.0, 0.0]]}, "sigma"),
     "sigma form 'linear' is not supported"),
    (_with(SIM_SPEC, "two", "d"), "d must be a number"),
    (_with(SIM_SPEC, -1, "T"), "T must be finite and > 0, got -1.0"),
    (_with(SIM_SPEC, float("inf"), "T"), "T must be finite and > 0, got inf"),
    (_with(SIM_SPEC, 1.7, "d"), "d must be an integer, got 1.7"),
    (_with(SIM_SPEC, 2.5, "m"), "m must be an integer, got 2.5"),
    (_with(SIM_SPEC, 8.5, "steps"), "steps must be an integer, got 8.5"),
    (_with(SIM_SPEC, 100.2, "paths"), "paths must be an integer, got 100.2"),
])
def test_simulate_malformed_spec_exit_1(tmp_path, capsys, spec, message):
    path = _write(tmp_path, "spec.json", spec)
    assert main(["simulate", path, "--paths", "50", "--steps", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: diffusion spec: ")
    assert message in err


def test_simulate_non_finite_increment_exit_1(tmp_path, capsys):
    spec = _with(SIM_SPEC, [[1e300, 0.0], [0.0, 1e300]], "drift", "slope")
    path = _write(tmp_path, "spec.json", spec)
    assert main(["simulate", path, "--paths", "50", "--steps", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "input error: non-finite increment at step ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_drift_overflowing_at_x0_exit_1(tmp_path, capsys):
    """a(x0) overflows: the structure solve ran through the inf/NaN drift
    and warned from matmul and matvec before the Euler step stopped the
    run; the drift check now stops it first, naming the step and path."""
    spec = _with(_with(SIM_SPEC, [[-1e10, 0.05], [0.1, -0.3]], "drift",
                       "slope"), [1e300, 0.0], "x0")
    path = _write(tmp_path, "spec.json", spec)
    assert main(["simulate", path, "--paths", "50", "--steps", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: non-finite drift at step 0, path 0\n"


RHO_OVERFLOW_SPEC = {"odx_schema": 1, "d": 2, "m": 2, "T": 1.0,
                     "x0": [1e300, 0.0],
                     "drift": {"form": "linear", "value": [0.0, 0.0],
                               "slope": [[0.5, 0.0], [0.0, 0.5]]},
                     "sigma": {"form": "const",
                               "value": [[1e-5, 0.0], [0.0, 1e-5]]}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_rho_overflowing_at_x0_exit_1(tmp_path, capsys):
    """a(x0) is finite but rho = c^+ a(x0) overflows: simulate printed NaN
    statistics, which are not JSON, after two RuntimeWarnings, and exited
    0; the wealth now stops on the non-finite rho."""
    path = _write(tmp_path, "spec.json", RHO_OVERFLOW_SPEC)
    assert main(["simulate", path, "--paths", "5", "--steps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (captured.err
            == "input error: non-finite numeraire rho at step 0, path 0\n")


@pytest.mark.parametrize("flag", ["--paths", "--steps"])
def test_simulate_zero_count_exit_1(tmp_path, capsys, flag):
    path = _write(tmp_path, "spec.json", SIM_SPEC)
    argv = ["simulate", path, "--paths", "50", "--steps", "4"]
    argv[argv.index(flag) + 1] = "0"
    assert main(argv) == 1
    assert "need steps >= 1 and paths >= 1" in capsys.readouterr().err


def test_simulate_one_path_exit_1(tmp_path, capsys):
    # one path has no standard error: the t-statistics would be NaN
    path = _write(tmp_path, "spec.json", SIM_SPEC)
    assert main(["simulate", path, "--paths", "1", "--steps", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: simulate needs paths >= 2 for its "
                            "standard errors\n")


PUT = {"odx_schema": 1, "kind": "european", "formula": "put", "strike": 1.05}


def _superhedge_argv(claim):
    def argv(tmp_path, model):
        return ["superhedge", model, _write(tmp_path, "claim.json", claim)]
    return argv


def _bad_model_argv(*path):
    def argv(tmp_path, model):
        doc = _with(json.loads(Path(model).read_text()), "x", *path)
        return ["analyze", _write(tmp_path, "bad.json", doc)]
    return argv


B1_ZERO = {str(i): [0.0] for i in range(3)}
B1_DEC = {"odx_schema": 1, "V0": 0.0, "H": B1_ZERO, "C": B1_ZERO}


def _verify_argv(decomposition):
    def argv(tmp_path, model):
        return ["verify", model, _write(tmp_path, "v.json", B1_ZERO),
                _write(tmp_path, "dec.json", decomposition)]
    return argv


def _out_is_file_argv(tmp_path, model):
    taken = tmp_path / "taken"
    taken.write_text("")
    return ["--out", str(taken), "analyze", model]


@pytest.mark.parametrize("argv, message", [
    (_superhedge_argv(_without(PUT, "strike")), "formula needs 'strike'"),
    (_superhedge_argv(_with(PUT, "abc", "strike")),
     "strike must be a number, got 'abc'"),
    (_superhedge_argv(_with(PUT, 3, "asset")),
     "asset must be one of 0..0, got 3"),
    (_superhedge_argv(_with(PUT, 0.5, "asset")),
     "asset must be one of 0..0, got 0.5"),
    (_bad_model_argv("tree", "nodes", 1, "time"),
     "tree: malformed nodes or horizon (invalid literal"),
    (_bad_model_argv("tree", "horizon"),
     "tree: malformed nodes or horizon (invalid literal"),
    (_bad_model_argv("X", "1"), "X: malformed entry '1'"),
    (_verify_argv(_without(B1_DEC, "H")), "need 'V0', 'H' and 'C'"),
    (_verify_argv(_with(B1_DEC, "abc", "V0")),
     "V0 must be a number, got 'abc'"),
    (_out_is_file_argv, "File exists"),
    (lambda tmp_path, model: ["deflate", model, "--extras", "-1"],
     "--extras must be >= 0, got -1"),
], ids=["no-strike", "strike-abc", "asset-3", "asset-0.5", "time-x",
        "horizon-x", "X-value-x", "verify-no-H", "verify-V0-abc",
        "out-is-file", "extras-negative"])
def test_malformed_input_exit_1(tmp_path, b1_model, capsys, argv, message):
    assert main(argv(tmp_path, b1_model)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert message in captured.err and "Traceback" not in captured.err
