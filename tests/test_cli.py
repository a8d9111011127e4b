import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from odx import decompose, deflators, structure
from odx import io as odx_io
from odx import tree as tree_module
from odx.cli import main
from odx.decompose import MarketLP, is_supermartingale_under_all
from odx.random_models import (random_market, random_tree,
                               random_universal_supermartingale)
from odx.superhedge import AMERICAN, superhedge, vanilla_claim
from odx.tree import AdaptedProcess, BranchGroup, build_tree


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


def test_analyze_near_the_float_range_exit_0(tmp_path, capsys):
    """Zero is inside the triangle of the increments, so the market has an
    interior martingale measure.  At 1.2e154 the entries of c are finite but
    near DBL_MAX: the pseudo-inverse's symmetric part overflowed, with a
    RuntimeWarning, into a false ARBITRAGE at node 0."""
    X = 1.2e154 * np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 0.2], [0.1, -1.0]])
    X = AdaptedProcess(build_tree([[1 / 3, 1 / 3, 1 / 3]]), X)
    model = _write(tmp_path, "large.json", odx_io.model_to_json(X))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


@pytest.mark.parametrize("field, value, message", [
    ("time", 10**20, "node time or parent beyond int64"),
    ("time", -10**20, "node time or parent beyond int64"),
    ("parent", 10**20, "node time or parent beyond int64"),
    ("parent", -10**20, "node time or parent beyond int64"),
    ("p", 10**400, "malformed nodes or horizon"),
    ("id", 1.7, "malformed nodes or horizon"),
    ("time", 1.2, "malformed nodes or horizon"),
    ("parent", 0.9, "malformed nodes or horizon"),
    ("horizon", 1.9, "malformed nodes or horizon"),
], ids=["time+", "time-", "parent+", "parent-", "p-huge", "id-1.7",
        "time-1.2", "parent-0.9", "horizon-1.9"])
def test_integer_beyond_int64_exit_1(tmp_path, capsys, field, value, message):
    """A JSON integer past int64 in a node's time or parent ended in an
    OverflowError traceback from the int64 conversion of the tree, and one
    past the float range in its p from float().  A number that is not whole
    in an id, time, parent or the horizon was truncated by int(), and
    analyze exited 0."""
    doc = json.loads(json.dumps(EMPTY_X_MODEL))
    target = doc["tree"] if field == "horizon" else doc["tree"]["nodes"][1]
    target[field] = value
    doc["X"] = {"0": [0.0], "1": [0.1], "2": [-0.1]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: tree: {message} (")
    assert captured.err.count("\n") == 1


def test_whole_floats_in_the_tree_are_integers(tmp_path, capsys):
    """2.0 is the whole number 2 in a tree, as in a diffusion spec."""
    doc = json.loads(json.dumps(EMPTY_X_MODEL))
    doc["X"] = {"0": [0.0], "1": [0.1], "2": [-0.1]}
    assert main(["analyze", _write(tmp_path, "ints.json", doc)]) == 0
    as_ints = capsys.readouterr()
    doc["tree"]["horizon"] = 1.0
    doc["tree"]["nodes"][2].update(id=2.0, time=1.0, parent=0.0)
    assert main(["analyze", _write(tmp_path, "floats.json", doc)]) == 0
    assert capsys.readouterr() == as_ints


# node 1 has one child, so its id, time and p and the parent of node 2 are
# all 1, the value that True spells
ONE_CHILD_MODEL = {"odx_schema": 1, "tree": {"horizon": 2, "nodes": [
    {"id": 0, "time": 0, "parent": None, "p": None},
    {"id": 1, "time": 1, "parent": 0, "p": 1},
    {"id": 2, "time": 2, "parent": 1, "p": 0.6},
    {"id": 3, "time": 2, "parent": 1, "p": 0.4}]},
    "X": {"0": [0.0], "1": [0.0], "2": [0.1], "3": [-0.1]}}
ONE_CHILD_ONES = {str(i): [1.0] for i in range(4)}
# two assets whose moves at node 1 are collinear, so a put on asset 1 has
# a price of its own
TWO_ASSET_MODEL = {**ONE_CHILD_MODEL, "X": {
    "0": [0.0, 0.0], "1": [0.0, 0.0], "2": [0.1, 0.2], "3": [-0.1, -0.2]}}
ONE_CHILD_PUT = {"odx_schema": 1, "kind": "european", "formula": "put",
                 "strike": 1}
ONE_CHILD_DEC = {"odx_schema": 1, "V0": 1,
                 "H": {str(i): [0.0] for i in range(4)},
                 "C": {str(i): [0.0] for i in range(4)}}
SCALAR_SPEC = {"odx_schema": 1, "d": 1, "m": 1, "T": 1, "steps": 4,
               "paths": 50, "drift": {"form": "const", "value": [0.05]},
               "sigma": {"form": "const", "value": [[0.2]]}}
# field: (argv with "doc" for the document that holds it, that document,
# the path to the field, its value as a JSON integer)
SCALAR_FIELDS = {
    "id": (["analyze", "doc"], ONE_CHILD_MODEL, ("tree", "nodes", 1, "id"), 1),
    "time": (["analyze", "doc"], ONE_CHILD_MODEL,
             ("tree", "nodes", 1, "time"), 1),
    "parent": (["analyze", "doc"], ONE_CHILD_MODEL,
               ("tree", "nodes", 2, "parent"), 1),
    "p": (["analyze", "doc"], ONE_CHILD_MODEL, ("tree", "nodes", 1, "p"), 1),
    "horizon": (["analyze", "doc"], ONE_CHILD_MODEL, ("tree", "horizon"), 2),
    "d": (["simulate", "doc"], SCALAR_SPEC, ("d",), 1),
    "m": (["simulate", "doc"], SCALAR_SPEC, ("m",), 1),
    "T": (["simulate", "doc"], SCALAR_SPEC, ("T",), 1),
    "steps": (["simulate", "doc"], SCALAR_SPEC, ("steps",), 1),
    "paths": (["simulate", "doc"], SCALAR_SPEC, ("paths",), 2),
    "strike": (["superhedge", "model", "doc"], ONE_CHILD_PUT, ("strike",), 1),
    "asset": (["superhedge", "model2", "doc"], ONE_CHILD_PUT, ("asset",), 1),
    "V0": (["verify", "model", "ones", "doc"], ONE_CHILD_DEC, ("V0",), 1),
}
INT_FIELDS = ("id", "time", "parent", "horizon", "d", "m", "steps", "paths",
              "asset")
# null is the root's parent and p, or a tree without a horizon field
NULL_MEANS_ABSENT = ("parent", "p", "horizon")


def _scalar_cases():
    """(field, value, message): a spelling of the field's integer value
    with message None, or a value the field refuses with its message."""
    for field, (*_, whole) in SCALAR_FIELDS.items():
        for value in [float(whole), str(whole)] + [True] * (whole == 1):
            yield pytest.param(field, value, None, id=f"{field}={value!r}")
        bad = [1.7] * (field in INT_FIELDS) + ["abc", [1]]
        bad += [None] * (field not in NULL_MEANS_ABSENT)
        for value in bad:
            kind = "an integer" if value == 1.7 else "a number"
            yield pytest.param(field, value,
                               f"{field} must be {kind}, got {value!r}",
                               id=f"{field}={value!r}")


def _run_with_scalar(tmp_path, capsys, field, value):
    argv, doc, path, _ = SCALAR_FIELDS[field]
    files = {"model": ONE_CHILD_MODEL, "model2": TWO_ASSET_MODEL,
             "ones": ONE_CHILD_ONES, "doc": _with(doc, value, *path)}
    code = main([_write(tmp_path, f"{arg}.json", files[arg])
                 if arg in files else arg for arg in argv])
    return code, capsys.readouterr()


@pytest.mark.parametrize("field, value, message", _scalar_cases())
def test_every_scalar_reads_by_one_rule(tmp_path, capsys, field, value,
                                        message):
    """The tree's, the diffusion spec's, the claim's and the
    decomposition's scalars are read by one rule: 2.0, "2" and True (which
    is 1) give the output of the integer they spell, so each of 1.0, "1"
    and True picks asset 1; 1.7 is not an integer and "abc", [1] and null
    are not numbers, each an input error that names the field."""
    code, captured = _run_with_scalar(tmp_path, capsys, field, value)
    if message is None:
        whole = SCALAR_FIELDS[field][3]
        assert (code, captured) == _run_with_scalar(tmp_path, capsys, field,
                                                    whole)
        assert code == 0
        return
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["--seed", "abc", "analyze", "m.json"],
     "argument --seed: invalid seed value: 'abc'"),
    (["simulate", "s.json", "--paths", "1e3"],
     "argument --paths: invalid int value: '1e3'"),
    ([], "the following arguments are required: command"),
], ids=["seed-abc", "paths-1e3", "no-command"])
def test_usage_error_exit_1(capsys, argv, message):
    """argparse exits 2 on a usage error, the code of a mathematical FAIL
    with a witness; odx exits 1 and keeps argparse's message on stderr."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: odx ")
    assert captured.err.endswith(f" error: {message}\n")


def test_help_exit_0(capsys):
    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: odx ")


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


def test_logging_is_imported_only_for_a_run():
    """A fresh process imports odx.cli without concurrent.futures, which
    loads logging; the normals of a Monte Carlo run import both."""
    code = """if True:
        import sys
        import odx.cli
        from odx import mc
        def loaded():
            return [m in sys.modules for m in ("concurrent.futures", "logging")]
        print(loaded())
        list(mc._normals(mc.scalar_spec(0.0, 0.2, steps=2, paths=3)))
        print(loaded())
    """
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[False, False]\n[True, True]\n"


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
    # stdout holds the written documents, in the order they were emitted
    assert capsys.readouterr().out == "".join(
        (out / name).read_text() for name in (
            "decomposition_lp.json", "decomposition_kw.json", "uniqueness.json"))


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


def test_each_command_forms_the_step_data_once(tmp_path, capsys,
                                               monkeypatch):
    """On a market of several branch groups, every tree command builds the
    characteristics once, forms X's increments once per group and its
    drift a, the child sums of X's increments, once, and builds at most one
    ``MarketLP``."""
    model, value, _, _ = _random_model(tmp_path, 0, 2, 2, 4)
    claim = _write(tmp_path, "claim.json", {"odx_schema": 1,
                                            "kind": "european",
                                            "formula": "put", "strike": 1.0})
    out = tmp_path / "out"
    assert main(["--out", str(out), "decompose", model, value]) == 0
    decomposition = str(out / "decomposition_lp.json")
    capsys.readouterr()

    markets, counts = [], {}

    def counting(name, fn, when):
        def call(*args, **kwargs):
            if when(*args):
                key = name(*args) if callable(name) else name
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return call

    def load_model(doc, load=odx_io.load_model):
        tree, X = load(doc)
        markets.append(X)
        return tree, X

    def of_X(tree, values):
        X = markets[-1]
        return tree is X.tree and np.array_equal(values, X.increments())

    monkeypatch.setattr(odx_io, "load_model", load_model)
    monkeypatch.setattr(structure.Characteristics, "__init__", counting(
        "characteristics", structure.Characteristics.__init__,
        lambda *args: True))
    monkeypatch.setattr(BranchGroup, "increments", counting(
        lambda g, values: ("dX", g.k), BranchGroup.increments,
        lambda g, values: values is markets[-1].values))
    monkeypatch.setattr(MarketLP, "__init__", counting(
        "MarketLP", MarketLP.__init__, lambda *args: True))
    sums = tree_module.child_weighted_sums
    for module in (tree_module, structure, deflators, decompose):
        if getattr(module, "child_weighted_sums", None) is sums:
            monkeypatch.setattr(module, "child_weighted_sums",
                                counting("a", sums, of_X))
    for argv in (["analyze", model], ["deflate", model, "--extras", "2"],
                 ["decompose", model, value, "--route", "both"],
                 ["superhedge", model, claim],
                 ["verify", model, value, decomposition]):
        markets.clear()
        counts.clear()
        assert main(argv) == 0, argv
        groups = markets[0].tree.branch_groups
        assert len(groups) >= 2
        assert counts.pop("MarketLP", 0) <= 1, argv
        assert counts == {"characteristics": 1, "a": 1,
                          **{("dX", g.k): 1 for g in groups}}, argv
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


@pytest.mark.parametrize("command", [
    ["deflate", "--extras", "2"], ["analyze"],
    ["decompose", "V", "--route", "both"], ["superhedge", "claim"]],
    ids=["deflate", "analyze", "decompose", "superhedge"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_moving_one_child_node_is_arbitrage(tmp_path, capsys, command, d):
    """One child, which moves X by 1e160 in every asset: a riskless gain
    whose Newton Hessian overflows.  deflate ended in a LinAlgError
    traceback at d = 3 and warned at d <= 2; decompose and superhedge
    warned from the vertex solve at every d."""
    tree = build_tree([[1.0]])
    X = AdaptedProcess(tree, np.vstack([np.zeros(d), np.full(d, 1e160)]))
    files = {"V": {"0": [0.0], "1": [0.0]},
             "claim": {"odx_schema": 1, "kind": "european",
                       "formula": "put", "strike": 1.0}}
    argv = [_write(tmp_path, f"{a}.json", files[a]) if a in files else a
            for a in command]
    argv.insert(1, _write(tmp_path, "m.json", odx_io.model_to_json(X)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["status"] == "ARBITRAGE"
    assert doc.get("nodes", [doc.get("node")]) == [0]
    assert err == ""


def test_route_disagreement_exit_2(tmp_path, capsys):
    """At s = 1e-12 the LP and KW routes reconstruct different processes:
    a fault of the solves on valid input, not an input error (it exited 1
    after printing both route documents).  The check stays at the exit
    code and streams: a sharper LP feasibility test may turn it into a
    FAIL witness."""
    tree = build_tree([[0.24, 0.76]])
    X = AdaptedProcess(tree, 1e-12 * np.array([[-7.73, -7.47, 3.56],
                                               [7.88, 5.04, 6.61],
                                               [12.2, 3.06, 10.24]]))
    model = _write(tmp_path, "m.json", odx_io.model_to_json(X))
    value = _write(tmp_path, "v.json", {"0": [0.2], "1": [0.1], "2": [-0.3]})
    assert main(["decompose", model, value, "--route", "both"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert "input error" not in out


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


def test_simulate_too_many_paths_exit_1(tmp_path, capsys):
    """10^20 paths passed numpy's dimension limit in the allocation of the
    recorded columns and ended in a traceback; it fails before anything is
    allocated."""
    path = _write(tmp_path, "spec.json", SIM_SPEC)
    assert main(["simulate", path, "--paths", str(10**20),
                 "--steps", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"input error: cannot hold the columns of {10**20} paths: ")
    assert captured.err.count("\n") == 1


def test_simulate_too_many_steps_exit_1(tmp_path, capsys):
    """10^20 steps are past numpy's dimension limit: the allocation of X of
    the first paths at every step rejects them, with or without --out,
    before bucket_edges meets a count it cannot convert."""
    path = _write(tmp_path, "spec.json", SIM_SPEC)
    for out in ([], ["--out", str(tmp_path / "out")]):
        assert main([*out, "simulate", path, "--paths", "10",
                     "--steps", str(10**20)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert captured.err.count("\n") == 1


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
B1_PAIRS = {str(i): [0.0, 1.0] for i in range(3)}


def _verify_argv(decomposition):
    def argv(tmp_path, model):
        return ["verify", model, _write(tmp_path, "v.json", B1_ZERO),
                _write(tmp_path, "dec.json", decomposition)]
    return argv


def _out_is_file_argv(tmp_path, model):
    taken = tmp_path / "taken"
    taken.write_text("")
    return ["--out", str(taken), "analyze", model]


def _out_target_is_dir_argv(tmp_path, model):
    (tmp_path / "out" / "structure.json").mkdir(parents=True)
    return ["--out", str(tmp_path / "out"), "analyze", model]


def _out_file_is_dir_argv(command, name, *extra):
    """``odx --out D command`` with the document or CSV ``name`` taken by a
    directory in D."""
    def argv(tmp_path, model):
        (tmp_path / "out" / name).mkdir(parents=True)
        args = {"decompose": [_write(tmp_path, "v.json", B1_ZERO)],
                "superhedge": [_write(tmp_path, "claim.json", PUT)]}[command]
        return ["--out", str(tmp_path / "out"), command, model, *args, *extra]
    return argv


# ids numbered depth-first: node 7, at time 2, comes after nodes 5 and 6,
# at time 3, though every node's children are still consecutive ids
DEPTH_FIRST_MODEL = {"odx_schema": 1, "tree": {"horizon": 3, "nodes": [
    {"id": i, "time": t, "parent": q, "p": w}
    for i, (q, t, w) in enumerate(zip(
        [None, 0, 0, 1, 1, 3, 4, 2, 7], [0, 1, 1, 2, 2, 3, 3, 2, 3],
        [None, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0]))]},
    "X": {str(i): [x] for i, x in enumerate(
        [0.0, 0.1, -0.1, 0.2, 0.0, 0.3, 0.05, -0.2, -0.25])}}


def _unreadable_json_argv(content):
    def argv(tmp_path, model):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        return ["analyze", str(path)]
    return argv


@pytest.mark.parametrize("argv, message", [
    (_superhedge_argv(_without(PUT, "strike")), "formula needs 'strike'"),
    (_superhedge_argv(_with(PUT, "abc", "strike")),
     "strike must be a number, got 'abc'"),
    (_superhedge_argv(_with(PUT, 3, "asset")),
     "asset must be one of 0..0, got 3"),
    (_superhedge_argv(_with(PUT, 0.5, "asset")),
     "asset must be an integer, got 0.5"),
    (_bad_model_argv("tree", "nodes", 1, "time"),
     "tree: malformed nodes or horizon (time must be a number, got 'x')"),
    (_bad_model_argv("tree", "horizon"),
     "tree: malformed nodes or horizon (horizon must be a number, got 'x')"),
    (_bad_model_argv("X", "1"), "X: malformed entry '1'"),
    (_verify_argv(_without(B1_DEC, "H")), "need 'V0', 'H' and 'C'"),
    (_verify_argv(_with(B1_DEC, "abc", "V0")),
     "V0 must be a number, got 'abc'"),
    (_verify_argv(_with(B1_DEC, None, "diagnostics")),
     "diagnostics must be a JSON object, got None"),
    (_verify_argv(_with(B1_DEC, 1.5, "diagnostics")),
     "diagnostics must be a JSON object, got 1.5"),
    (_verify_argv(_with(B1_DEC, "gap", "diagnostics")),
     "diagnostics must be a JSON object, got 'gap'"),
    (_verify_argv(_with(B1_DEC, [], "diagnostics")),
     "diagnostics must be a JSON object, got []"),
    (_verify_argv(_with(B1_DEC, B1_PAIRS, "H")),
     "H vectors must have length 1, the d of X, got 2"),
    (_verify_argv(_with(B1_DEC, B1_PAIRS, "C")),
     "C vectors must have length 1, got 2"),
    (_out_is_file_argv, "File exists"),
    (_out_target_is_dir_argv, "structure.json: Is a directory"),
    # every --out file is written before anything is printed
    (_out_file_is_dir_argv("decompose", "decomposition_lp.csv"),
     "decomposition_lp.csv: Is a directory"),
    (_out_file_is_dir_argv("decompose", "decomposition_kw.json",
                           "--route", "both"),
     "decomposition_kw.json: Is a directory"),
    (_out_file_is_dir_argv("superhedge", "hedge_schedule.csv"),
     "hedge_schedule.csv: Is a directory"),
    (lambda tmp_path, model: [
        "analyze", _write(tmp_path, "depth_first.json", DEPTH_FIRST_MODEL)],
     "input error: node 7: parent id below that of the node before it"),
    # a UnicodeDecodeError, a ValueError and a RecursionError of json.load
    (_unreadable_json_argv(b'{"tree": "\xff\xfe"}'),
     "unreadable.json: malformed JSON ('utf-8' codec can't decode byte 0xff"),
    (_unreadable_json_argv(b"1" * 5000),
     "unreadable.json: malformed JSON (Exceeds the limit (4300 digits)"),
    (_unreadable_json_argv(b"[" * 200_000 + b"]" * 200_000),
     "unreadable.json: malformed JSON (maximum recursion depth exceeded"),
    (lambda tmp_path, model: ["deflate", model, "--extras", "-1"],
     "--extras must be >= 0, got -1"),
    # numpy's "array is too big" and an OverflowError in the int64 offsets
    # of the normals ended these two in tracebacks
    (lambda tmp_path, model: ["deflate", model, "--extras", str(2**62)],
     f"cannot hold {2**62} jump martingales: "),
    (lambda tmp_path, model: ["deflate", model, "--extras", str(10**20)],
     f"cannot hold {10**20} jump martingales: "),
], ids=["no-strike", "strike-abc", "asset-3", "asset-0.5", "time-x",
        "horizon-x", "X-value-x", "verify-no-H", "verify-V0-abc",
        "verify-diagnostics-null", "verify-diagnostics-number",
        "verify-diagnostics-string", "verify-diagnostics-list",
        "verify-H-length-2", "verify-C-length-2", "out-is-file",
        "out-target-is-dir", "decompose-lp-csv-is-dir",
        "decompose-kw-json-is-dir", "superhedge-csv-is-dir",
        "depth-first-ids", "undecodable-bytes", "integer-of-5000-digits",
        "nested-200000-deep", "extras-negative", "extras-2**62",
        "extras-10**20"])
def test_malformed_input_exit_1(tmp_path, b1_model, capsys, argv, message):
    assert main(argv(tmp_path, b1_model)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
