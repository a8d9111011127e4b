"""The CLI contract: exit 0 on success, 1 on an input error with one
``input error:`` line on stderr and nothing on stdout, 2 on a mathematical
FAIL with a witness document on stdout.

Each row of :data:`CASES` runs one ``odx`` command through the in-process
``main()`` on the README's JSON examples or on a model that once broke the
contract, and checks its exit code, its stdout and its stderr.  Every
printed document must be ``json.dumps(doc, indent=2, sort_keys=True)`` and
a newline, and every ``--out`` document the printed one, byte for byte.
Run this module with the package installed and no ``PYTHONPATH`` to check
the installed copy; ``test_module_entry_point`` runs ``python -m odx.cli``
in a fresh process.
"""
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import odx
from odx import io as odx_io
from odx.cli import main
from odx.random_models import (random_market, random_tree,
                               random_universal_supermartingale)
from odx.tree import AdaptedProcess, build_tree
from support import documents, model_to_json

README = (Path(__file__).parents[1] / "README.md").read_text()
# the README's model and diffusion spec
MODEL, SPEC = (json.loads(block)
               for block in re.findall(r"```json\n(.*?)```", README, re.S))
PUT = {"odx_schema": 1, "kind": "european", "formula": "put", "strike": 1.05}
EXAMPLES = {"model.json": MODEL, "spec.json": SPEC, "claim.json": PUT,
            "value.json": {str(i): [1.0]
                           for i in range(len(MODEL["tree"]["nodes"]))}}


def _spec(d, m, drift, sigma, **extra):
    return {"odx_schema": 1, "d": d, "m": m, "T": 1.0, **extra,
            "drift": drift, "sigma": {"form": "const", "value": sigma}}


def _one_period(probs, X):
    """The model document of one period with branch probabilities
    ``probs`` and the rows ``X`` of X, the root's first."""
    return model_to_json(AdaptedProcess(build_tree([probs]), X))


def _price_units():
    """A seeded 45-node d = 1 market and a universal supermartingale on it,
    both in units of 1e4."""
    rng = np.random.default_rng(26)
    tree = random_tree(rng, max_periods=3, max_branches=4)
    X = random_market(rng, tree, d=1)
    V = random_universal_supermartingale(rng, X)
    return {"model.json": model_to_json(AdaptedProcess(tree, 1e4 * X.values)),
            "value.json": AdaptedProcess(tree, 1e4 * V.values)}


def _small_units():
    """A seeded d = 2 market with asset 0 in units of 1e-7."""
    rng = np.random.default_rng(1)
    tree = random_tree(rng)
    X = random_market(rng, tree, d=2)
    return {"model.json": model_to_json(
        AdaptedProcess(tree, X.values * [1e-7, 1.0]))}


LINEAR_D2 = _spec(2, 2, {"form": "linear", "value": [0.04, 0.02],
                         "slope": [[-0.2, 0.05], [0.1, -0.3]]},
                  [[0.2, 0.05], [0.03, 0.15]])
# rho = 17: at 20,000 paths x 256 steps and seed 1 some paths abort
ABORT = _spec(1, 1, {"form": "const", "value": [0.68]}, [[0.2]])
# json writes a start at NaN as the bare token NaN
NAN_X0 = _spec(1, 1, {"form": "const", "value": [0.05]}, [[0.2]],
               x0=[float("nan")])
# two children and three independent assets: an arbitrage in any units,
# here 1e-12
DISAGREE = {
    "model.json": _one_period([0.24, 0.76], 1e-12 * np.array(
        [[-7.73, -7.47, 3.56], [7.88, 5.04, 6.61], [12.2, 3.06, 10.24]])),
    "value.json": {"0": [0.2], "1": [0.1], "2": [-0.3]}}
# an interior martingale measure, with asset 0 in units of 1e-8: a Newton
# step on X's own coordinates ended in a false "log-utility unbounded"
UNITS_1E_8 = {
    "model.json": _one_period([1 / 3] * 3, [[0.0, 0.0], [1e-8, 0.5],
                                            [-1e-8, 0.2], [1e-9, -1.0]]),
    "value.json": {"0": [0.2], "1": [0.1], "2": [-0.3], "3": [0.0]},
    "claim.json": PUT}
# the README model moved by X(0) = 0.5: S = E(X - X(0)) reads the
# increments of X alone
SHIFTED = {"model.json": dict(MODEL, X={k: [x + 0.5 for x in v]
                                        for k, v in MODEL["X"].items()}),
           "claim.json": PUT}
PRICE_UNITS = _price_units()
SMALL_UNITS = _small_units()
DECOMPOSE_BOTH = ("--out", "dec", "decompose", "model.json", "value.json",
                  "--route", "both")


def _positive(x):
    return x > 0


@dataclass(frozen=True)
class Case:
    """``odx *argv`` in a directory that holds ``files`` (name -> document),
    after the commands ``before``, each of which must exit
    0.  It exits ``code``.  Its stdout holds one document per entry of
    ``out``, each with that entry's items (a callable item is a test of the
    value), and is empty when ``out`` is.  Its stderr is empty when ``err``
    is None, and else is one line ``input error: `` followed by a text that
    the pattern ``err`` matches from its start."""

    argv: tuple
    files: dict
    code: int = 0
    out: tuple = ()
    err: str | None = None
    before: tuple = ()


CASES = [
    pytest.param(Case(("analyze", "model.json"), EXAMPLES,
                      out=({"status": "SOLVABLE"},)),
                 id="readme-analyze"),
    pytest.param(Case(("--seed", "3", "deflate", "model.json", "--extras",
                       "8"), EXAMPLES, out=({"seed": 3},)),
                 id="readme-deflate"),
    # the README model is binary, so its eight extras repeat Y_hat and one
    # L = 0 map: the text of a repeated map is rendered once and written to
    # both sinks
    pytest.param(Case(("--out", "out", "--seed", "3", "deflate", "model.json",
                       "--extras", "8"), EXAMPLES, out=({"seed": 3},)),
                 id="readme-deflate-out"),
    pytest.param(Case(("--out", "out", "superhedge", "model.json",
                       "claim.json"), EXAMPLES, out=({},)),
                 id="readme-superhedge-out"),
    pytest.param(Case(("--out", "out", "decompose", "model.json", "value.json",
                       "--route", "both"), EXAMPLES,
                      out=({"route": "lp"}, {"route": "kw"}, {})),
                 id="readme-decompose-out"),
    pytest.param(Case(("verify", "model.json", "value.json",
                       "dec/decomposition_lp.json"), EXAMPLES,
                      out=({"verdict": "PASS"},), before=(DECOMPOSE_BOTH,)),
                 id="readme-verify-lp"),
    pytest.param(Case(("verify", "model.json", "value.json",
                       "dec/decomposition_kw.json"), EXAMPLES,
                      out=({"verdict": "PASS"},), before=(DECOMPOSE_BOTH,)),
                 id="readme-verify-kw"),
    # the d = 1 and d = 2 runs print no RuntimeWarning from the step kernel
    pytest.param(Case(("--seed", "1", "simulate", "spec.json", "--paths",
                       "2000", "--steps", "32"), EXAMPLES,
                      out=({"seed": 1},)),
                 id="readme-simulate"),
    pytest.param(Case(("--seed", "1", "simulate", "spec.json", "--paths",
                       "2000", "--steps", "32"), {"spec.json": LINEAR_D2},
                      out=({"seed": 1},)),
                 id="simulate-linear-d2"),
    # a run in which a path aborts takes its tests over the paths left, in
    # a second pass
    pytest.param(Case(("--out", "out", "--seed", "1", "simulate", "abort.json",
                       "--paths", "20000", "--steps", "256"),
                      {"abort.json": ABORT},
                      out=({"abort_fraction": _positive},)),
                 id="simulate-abort-out"),
    pytest.param(Case(("--seed", "1", "simulate", "nan_x0.json", "--paths",
                       "2000", "--steps", "32"), {"nan_x0.json": NAN_X0},
                      code=1, err=r"diffusion spec: x0 must be finite$"),
                 id="simulate-nan-x0"),
    # the numeraire on each node's orthonormal factor finds the arbitrage
    # at 1e-12 too; a Newton step in X's own units stopped early there, and
    # the two routes reconstructed different processes
    pytest.param(Case(("decompose", "model.json", "value.json", "--route",
                       "both"), DISAGREE, code=2,
                      out=({"route": "lp"},
                           {"status": "ARBITRAGE", "node": 0})),
                 id="disagree-decompose"),
    pytest.param(Case(("deflate", "model.json", "--extras", "0"), UNITS_1E_8,
                      out=({"seed": 0},)),
                 id="units-1e-8-deflate"),
    pytest.param(Case(("superhedge", "model.json", "claim.json"), UNITS_1E_8,
                      out=({},)),
                 id="units-1e-8-superhedge"),
    pytest.param(Case(("decompose", "model.json", "value.json", "--route",
                       "kw"), UNITS_1E_8, out=({"route": "kw"},)),
                 id="units-1e-8-decompose-kw"),
    # not "input error: Z(0) must be 0"
    pytest.param(Case(("superhedge", "model.json", "claim.json"), SHIFTED,
                      out=({},)),
                 id="shifted-superhedge"),
    # a 45-node d = 1 market and a universal supermartingale on it, both in
    # units of 1e4: the supermartingale test and verify take their
    # tolerances relative to V
    pytest.param(Case(DECOMPOSE_BOTH, PRICE_UNITS,
                      out=({"route": "lp"}, {"route": "kw"}, {})),
                 id="price-units-decompose"),
    pytest.param(Case(("verify", "model.json", "value.json",
                       "dec/decomposition_lp.json"), PRICE_UNITS,
                      out=({"verdict": "PASS"},), before=(DECOMPOSE_BOTH,)),
                 id="price-units-verify-lp"),
    pytest.param(Case(("verify", "model.json", "value.json",
                       "dec/decomposition_kw.json"), PRICE_UNITS,
                      out=({"verdict": "PASS"},), before=(DECOMPOSE_BOTH,)),
                 id="price-units-verify-kw"),
    # B's rank is decided once, each column against its own norm, so an
    # asset in units of 1e-7 is kept and the market is not a false ARBITRAGE
    pytest.param(Case(("analyze", "model.json"), SMALL_UNITS,
                      out=({"status": "SOLVABLE"},)),
                 id="small-units-analyze"),
]


def _run(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)``; a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_files(files):
    for name, doc in files.items():
        odx_io.dump_json(doc, path=name)


@pytest.mark.parametrize("case", CASES)
def test_contract(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_files(case.files)
    for argv in case.before:
        assert _run(argv, capsys)[0] == 0, argv
    code, out, err = _run(case.argv, capsys)
    assert code == case.code, err
    docs = documents(out)
    assert len(docs) == len(case.out)
    for doc, want in zip(docs, case.out):
        for key, value in want.items():
            assert value(doc[key]) if callable(value) else doc[key] == value
    if case.err is None:
        assert err == ""
    else:
        line = err.removeprefix("input error: ")
        assert err.count("\n") == 1 and line != err
        assert re.match(case.err, line), err
    if "--out" in case.argv:
        out_dir = Path(case.argv[case.argv.index("--out") + 1])
        written = [path.read_text() for path in out_dir.glob("*.json")]
        assert sorted(written) == sorted(
            json.dumps(doc, indent=2, sort_keys=True) + "\n" for doc in docs)


def test_module_entry_point(tmp_path, monkeypatch, capsys):
    """``python -m odx.cli``, in a fresh process that imports the odx this
    module imported, prints the bytes of the in-process ``main()``."""
    monkeypatch.chdir(tmp_path)
    _write_files(EXAMPLES)
    argv = ["analyze", "model.json"]
    code, out, err = _run(argv, capsys)
    env = dict(os.environ, PYTHONPATH=str(Path(odx.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "odx.cli", *argv],
                         capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (code, out, err)
    assert code == 0 and documents(out)[0]["status"] == "SOLVABLE"
