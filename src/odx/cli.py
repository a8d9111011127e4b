"""Command-line front end.

Exit codes: 0 success / PASS, 1 input error, 2 mathematical FAIL
(arbitrage certificate, supermartingale violation, failed verification,
or a per-node solve that failed on valid input) with a machine-readable
witness document on stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as odx_io
from .decompose import (MarketLP, check_uniqueness, decompose_kw,
                        decompose_lp, is_supermartingale_under_all,
                        reconstruct)
from .deflators import build_deflator_family
from .structure import extract_characteristics, solve_structure
from .superhedge import superhedge
from .tree import ArbitrageError, ModelError, SolverError
from . import mc

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ModelError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc


def _out_path(args, name):
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _emit(args, doc, name):
    path = _out_path(args, name)
    odx_io.dump_json(doc, path=path, fh=sys.stdout)


def cmd_analyze(args):
    tree, X = odx_io.load_model(_load_json(args.model))
    ch = extract_characteristics(X)
    report = solve_structure(ch, tol=args.tol)
    doc = {
        "odx_schema": odx_io.SCHEMA_VERSION,
        "status": report.status,
        "mass_max": float(np.max(report.mass.values)),
        "mass_flag": report.mass_flag,
    }
    if report.solvable:
        doc["rho"] = odx_io.process_to_json(report.rho)
    else:
        doc["zeta"] = odx_io.process_to_json(report.zeta)
        doc["nodes"] = list(report.bad_nodes)
    _emit(args, doc, "structure.json")
    return EXIT_OK if report.solvable else EXIT_FAIL


def cmd_deflate(args):
    tree, X = odx_io.load_model(_load_json(args.model))
    fam = build_deflator_family(X, n_extras=args.extras, seed=args.seed)
    doc = {
        "odx_schema": odx_io.SCHEMA_VERSION,
        "seed": args.seed,
        "rho_hat": odx_io.process_to_json(fam.rho_hat),
        "V_hat": odx_io.process_to_json(fam.V_hat),
        "Y_hat": odx_io.process_to_json(fam.Y_hat),
        "extras": [{"L": odx_io.process_to_json(L),
                    "Y": odx_io.process_to_json(Y)} for L, Y in fam.extras],
    }
    _emit(args, doc, "deflators.json")
    return EXIT_OK


def cmd_decompose(args):
    tree, X = odx_io.load_model(_load_json(args.model))
    V = odx_io.adapted_from_json(tree, _load_json(args.value), "V")
    lp = MarketLP(X)
    cert = is_supermartingale_under_all(V, X, lp=lp)
    if not cert.passed:
        _emit(args, {"odx_schema": odx_io.SCHEMA_VERSION, "verdict": "FAIL",
                     "witness": cert.witness}, "witness.json")
        return EXIT_FAIL
    routes = ["lp", "kw"] if args.route == "both" else [args.route]
    decs = {}
    for route in routes:
        if route == "lp":
            decs[route] = decompose_lp(V, X, lp=lp,
                                       tie_break_seed=args.seed)
        else:
            decs[route] = decompose_kw(V, X, lp=lp)
        doc = odx_io.decomposition_to_json(decs[route])
        doc["route"] = route
        _emit(args, doc, f"decomposition_{route}.json")
        csv_path = _out_path(args, f"decomposition_{route}.csv")
        if csv_path:
            odx_io.write_decomposition_csv(csv_path, tree, V, decs[route])
    if len(decs) == 2:
        agree = check_uniqueness(decs["lp"], decs["kw"], X)
        _emit(args, {"odx_schema": odx_io.SCHEMA_VERSION,
                     "uniqueness": agree}, "uniqueness.json")
    return EXIT_OK


def cmd_superhedge(args):
    tree, X = odx_io.load_model(_load_json(args.model))
    claim = odx_io.load_claim(_load_json(args.claim), X)
    res = superhedge(claim, X)
    doc = {
        "odx_schema": odx_io.SCHEMA_VERSION,
        "price": float(res.price),
        "decomposition": odx_io.decomposition_to_json(res.decomposition),
        "view": {
            "S": odx_io.process_to_json(res.view.S),
            "shares": odx_io.process_to_json(res.view.shares),
            "currency": odx_io.process_to_json(res.view.currency),
        },
    }
    _emit(args, doc, "superhedge.json")
    csv_path = _out_path(args, "hedge_schedule.csv")
    if csv_path:
        odx_io.write_decomposition_csv(csv_path, tree, res.envelope,
                                       res.decomposition)
    return EXIT_OK


def cmd_verify(args):
    tree, X = odx_io.load_model(_load_json(args.model))
    V = odx_io.adapted_from_json(tree, _load_json(args.value), "V")
    dec = odx_io.decomposition_from_json(tree, _load_json(args.decomposition))
    problems = []
    dC = dec.C.increments()[:, 0]
    if np.min(dC) < -1e-10:
        problems.append({"check": "C nondecreasing",
                         "min_dC": float(np.min(dC))})
    recon = reconstruct(dec.V0, dec.H, dec.C, X)
    err = float(np.max(np.abs(recon.values - V.values)))
    if err > 1e-9:
        problems.append({"check": "reconstruction", "max_error": err})
    cert = is_supermartingale_under_all(V, X)
    if not cert.passed:
        problems.append({"check": "supermartingale", "witness": cert.witness})
    verdict = "PASS" if not problems else "FAIL"
    _emit(args, {"odx_schema": odx_io.SCHEMA_VERSION, "verdict": verdict,
                 "problems": problems}, "verify.json")
    return EXIT_OK if verdict == "PASS" else EXIT_FAIL


def _coeff(spec_obj, key):
    form = spec_obj[key]
    if form["form"] == "const":
        return mc.const_fn(form["value"])
    if form["form"] == "linear":
        return mc.linear_fn(form["value"], form["slope"])
    raise ModelError(f"unknown {key} form {form['form']!r}")


def cmd_simulate(args):
    obj = _load_json(args.spec)
    odx_io._check_schema(obj, "diffusion spec")
    d = int(obj["d"])
    m = int(obj.get("m", d))
    spec = mc.DiffusionSpec(
        d=d, m=m,
        drift=_coeff(obj, "drift"),
        sigma=_coeff(obj, "sigma"),
        T=float(obj.get("T", 1.0)),
        steps=args.steps or int(obj.get("steps", mc.DEFAULT_STEPS)),
        paths=args.paths or int(obj.get("paths", mc.DEFAULT_PATHS)),
        seed=args.seed,
        x0=obj.get("x0", [0.0] * d),
    )
    ens = mc.deflate_paths(mc.simulate(spec))
    y_term = ens.Y_hat[ens.alive, -1]
    yx = ens.Y_hat[:, :, None] * ens.X
    rep = mc.martingale_test(ens.Y_hat[ens.alive])
    rep_yx = mc.martingale_test(yx[ens.alive, :, 0])
    doc = {
        "odx_schema": odx_io.SCHEMA_VERSION,
        "seed": args.seed, "paths": spec.paths, "steps": spec.steps,
        "abort_fraction": ens.abort_fraction,
        "mean_Y_terminal": float(y_term.mean()),
        "se_Y_terminal": float(y_term.std(ddof=1) / np.sqrt(y_term.size)),
        "martingale_test_Y": {"max_abs_t": rep["max_abs_t"],
                              "passed": rep["passed"]},
        "martingale_test_YX": {"max_abs_t": rep_yx["max_abs_t"],
                               "passed": rep_yx["passed"]},
    }
    _emit(args, doc, "simulate.json")
    csv_path = _out_path(args, "paths.csv")
    if csv_path:
        cap = min(spec.paths, 100)
        cols = ens.X[:cap, :, 0]
        np.savetxt(csv_path, cols, delimiter=",")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="odx",
                                description="Optional-decomposition toolkit: "
                                "deflators, hedge/consumption splits, and "
                                "superhedging on event trees.")
    p.add_argument("--seed", type=lambda s: int(s) & (2**64 - 1), default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="structural drift condition / arbitrage")
    a.add_argument("model")
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("deflate", help="numeraire and product deflators")
    d.add_argument("model")
    d.add_argument("--extras", type=int, default=8)
    d.set_defaults(func=cmd_deflate)

    c = sub.add_parser("decompose", help="hedge/consumption decomposition")
    c.add_argument("model")
    c.add_argument("value", help="JSON node->value map of the process V")
    c.add_argument("--route", choices=["lp", "kw", "both"], default="lp")
    c.set_defaults(func=cmd_decompose)

    s = sub.add_parser("superhedge", help="price and hedge a claim")
    s.add_argument("model")
    s.add_argument("claim")
    s.set_defaults(func=cmd_superhedge)

    v = sub.add_parser("verify", help="check a decomposition file")
    v.add_argument("model")
    v.add_argument("value")
    v.add_argument("decomposition")
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("simulate", help="Euler diffusion + deflation checks")
    m.add_argument("spec")
    m.add_argument("--paths", type=int, default=None)
    m.add_argument("--steps", type=int, default=None)
    m.set_defaults(func=cmd_simulate)
    return p


def main(argv=None):
    # ODX_THREADS caps worker counts; current backends are sequential, so it
    # is validated and otherwise unused.
    threads = os.environ.get("ODX_THREADS")
    if threads is not None:
        try:
            int(threads)
        except ValueError:
            print("ODX_THREADS must be an integer", file=sys.stderr)
            return EXIT_INPUT
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tol <= 0:
        print("tolerances must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (ArbitrageError, SolverError) as exc:
        status = ("ARBITRAGE" if isinstance(exc, ArbitrageError)
                  else "SOLVER_ERROR")
        doc = {"odx_schema": odx_io.SCHEMA_VERSION, "status": status,
               "error": str(exc)}
        if exc.node is not None:
            doc["node"] = exc.node
        odx_io.dump_json(doc, fh=sys.stdout)
        return EXIT_FAIL
    except ModelError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
