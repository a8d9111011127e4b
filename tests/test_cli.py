import json

import numpy as np
import pytest

from odx import io as odx_io
from odx.cli import main
from odx.tree import AdaptedProcess, build_tree


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
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


def test_bad_threads_env(b1_model, monkeypatch, capsys):
    monkeypatch.setenv("ODX_THREADS", "lots")
    assert main(["analyze", b1_model]) == 1


def test_nonpositive_tol(b1_model):
    assert main(["--tol", "0", "analyze", b1_model]) == 1


def test_solver_failure_exit_2_with_witness(tmp_path, monkeypatch, capsys):
    import odx.decompose
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3]])
    X = AdaptedProcess(tree, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                       [-1.0, -1.0]]))
    model = _write(tmp_path, "m.json", odx_io.model_to_json(X))
    value = _write(tmp_path, "v.json", {str(i): [1.0] for i in range(4)})
    monkeypatch.setattr(odx.decompose, "min_norm_superhedge",
                        lambda dX, dV, order=None: None)
    assert main(["decompose", model, value]) == 2
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["status"] == "SOLVER_ERROR" and doc["node"] == 0
    assert err == ""


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


@pytest.mark.parametrize("flag", ["--paths", "--steps"])
def test_simulate_zero_count_exit_1(tmp_path, capsys, flag):
    path = _write(tmp_path, "spec.json", SIM_SPEC)
    argv = ["simulate", path, "--paths", "50", "--steps", "4"]
    argv[argv.index(flag) + 1] = "0"
    assert main(argv) == 1
    assert "need steps >= 1 and paths >= 1" in capsys.readouterr().err
