"""Command-line front end.

Exit codes: 0 success / PASS, 1 input error, a usage error too, 2
mathematical FAIL (arbitrage certificate, supermartingale violation,
failed verification, or a per-node solve that failed on valid input) with
a machine-readable witness document on stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import replace

import numpy as np

from . import io as odx_io
from .decompose import (check_uniqueness, decompose_kw, decompose_lp,
                        is_supermartingale_under_all, reconstruct)
from .deflators import DEFAULT_EXTRAS, build_deflator_family
from .structure import (DEFAULT_STRUCT_TOL, extract_characteristics,
                        solve_structure)
from .superhedge import superhedge
from .tree import ArbitrageError, ModelError, SolverError
from . import mc

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
# simulate --out writes X[..., 0] of this many leading paths to paths.csv
PATHS_CSV_ROWS = 100


def _load_json(path):
    with open(path, encoding="utf-8") as f:  # main reports an OSError
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: malformed JSON at line {exc.lineno}, "
                             f"column {exc.colno}") from exc
        # undecodable bytes, an integer of too many digits, deep nesting
        except (ValueError, RecursionError) as exc:
            raise ModelError(f"{path}: malformed JSON ({exc})") from exc


def _out_path(args, name):
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_model(args):
    """The model's X, with its characteristics formed: every tree command
    stops here, with exit 1, where a drift or covariance is not finite."""
    _, X = odx_io.load_model(_load_json(args.model))
    extract_characteristics(X).check_finite()
    return X


def _emit(args, doc, name):
    """Print ``doc``, or under --out write it for main to print later."""
    path = _out_path(args, name)
    doc["odx_schema"] = odx_io.SCHEMA_VERSION
    odx_io.dump_json(doc, path=path, fh=None if path else sys.stdout)
    if path:
        args.written.append(path)


def cmd_analyze(args):
    X = _load_model(args)
    report = solve_structure(extract_characteristics(X), tol=args.tol)
    doc = {
        "status": report.status,
        "mass_max": float(np.max(report.mass.values)),
        "mass_flag": report.mass_flag,
    }
    if report.solvable:
        doc["rho"] = report.rho
    else:
        doc["zeta"] = report.zeta
        doc["nodes"] = list(report.bad_nodes)
    _emit(args, doc, "structure.json")
    return EXIT_OK if report.solvable else EXIT_FAIL


def cmd_deflate(args):
    if args.extras < 0:
        raise ModelError(f"--extras must be >= 0, got {args.extras}")
    X = _load_model(args)
    fam = build_deflator_family(X, n_extras=args.extras, seed=args.seed)
    doc = {
        "seed": args.seed, "rho_hat": fam.rho_hat, "V_hat": fam.V_hat,
        "Y_hat": fam.Y_hat,
        "extras": [{"L": L, "Y": Y} for L, Y in fam.extras],
    }
    _emit(args, doc, "deflators.json")
    return EXIT_OK


def cmd_decompose(args):
    X = _load_model(args)
    V = odx_io.adapted_from_json(X.tree, _load_json(args.value), "V")
    cert = is_supermartingale_under_all(V, X)
    if not cert.passed:
        _emit(args, {"verdict": "FAIL", "witness": cert.witness},
              "witness.json")
        return EXIT_FAIL
    routes = ["lp", "kw"] if args.route == "both" else [args.route]
    decs = {}
    for route in routes:
        decs[route] = (decompose_lp if route == "lp" else decompose_kw)(V, X)
        doc = odx_io.decomposition_to_json(decs[route], cert.duality_gap)
        doc["route"] = route
        _emit(args, doc, f"decomposition_{route}.json")
        csv_path = _out_path(args, f"decomposition_{route}.csv")
        if csv_path:
            odx_io.write_decomposition_csv(csv_path, V, decs[route])
    if len(decs) == 2:
        agree = check_uniqueness(decs["lp"], decs["kw"], X)
        _emit(args, {"uniqueness": agree}, "uniqueness.json")
    return EXIT_OK


def cmd_superhedge(args):
    X = _load_model(args)
    claim = odx_io.load_claim(_load_json(args.claim), X)
    res = superhedge(claim, X)
    doc = {
        "price": float(res.price),
        "decomposition": odx_io.decomposition_to_json(res.decomposition,
                                                       res.duality_gap),
        "view": {"S": res.view.S, "shares": res.view.shares,
                 "currency": res.view.currency},
    }
    _emit(args, doc, "superhedge.json")
    csv_path = _out_path(args, "hedge_schedule.csv")
    if csv_path:
        odx_io.write_decomposition_csv(csv_path, res.envelope,
                                       res.decomposition)
    return EXIT_OK


def cmd_verify(args):
    X = _load_model(args)
    V = odx_io.adapted_from_json(X.tree, _load_json(args.value), "V")
    dec = odx_io.decomposition_from_json(X.tree,
                                         _load_json(args.decomposition))
    if dec.H.dim != X.dim:
        raise ModelError(f"decomposition: H vectors must have length "
                         f"{X.dim}, the d of X, got {dec.H.dim}")
    problems = []
    scale = max(1.0, float(np.max(np.abs(V.values))))  # the units of V
    dC = dec.C.increments()[:, 0]
    if np.min(dC) < -1e-10 * scale:
        node = int(np.argmin(dC))
        problems.append({"check": "C nondecreasing", "node": node,
                         "min_dC": float(dC[node])})
    recon = reconstruct(dec.V0, dec.H, dec.C, X)
    err = float(np.max(np.abs(recon.values - V.values)))
    if err > 1e-9 * scale:
        problems.append({"check": "reconstruction", "max_error": err})
    cert = is_supermartingale_under_all(V, X)
    if not cert.passed:
        problems.append({"check": "supermartingale", "witness": cert.witness})
    verdict = "PASS" if not problems else "FAIL"
    _emit(args, {"verdict": verdict, "problems": problems}, "verify.json")
    return EXIT_OK if verdict == "PASS" else EXIT_FAIL


def cmd_simulate(args):
    spec = odx_io.load_diffusion_spec(_load_json(args.spec))
    spec = replace(spec, seed=args.seed,
                   steps=spec.steps if args.steps is None else args.steps,
                   paths=spec.paths if args.paths is None else args.paths)
    if spec.paths < 2:
        raise ModelError("simulate needs paths >= 2 for its standard errors")
    head = PATHS_CSV_ROWS if args.out is not None else 0
    rec = mc.stream_deflated(spec, head=head, tol=args.tol)
    y_term = rec.Y_terminal
    doc = {
        "seed": args.seed, "paths": spec.paths, "steps": spec.steps,
        "abort_fraction": rec.abort_fraction,
        "mean_Y_terminal": float(y_term.mean()),
        "se_Y_terminal": float(y_term.std(ddof=1) / np.sqrt(y_term.size)),
        "martingale_test_Y": {"max_abs_t": rec.test_Y["max_abs_t"],
                              "passed": rec.test_Y["passed"]},
        "martingale_test_YX": {"max_abs_t": rec.test_YX["max_abs_t"],
                               "passed": rec.test_YX["passed"]},
    }
    _emit(args, doc, "simulate.json")
    csv_path = _out_path(args, "paths.csv")
    if csv_path:
        np.savetxt(csv_path, rec.X_head, delimiter=",")
    return EXIT_OK


def seed(text):
    """The --seed integer as a 64-bit Philox key, modulo 2**64."""
    return int(text) & (2**64 - 1)


def build_parser():
    p = argparse.ArgumentParser(prog="odx",
                                description="Optional-decomposition toolkit: "
                                "deflators, hedge/consumption splits, and "
                                "superhedging on event trees.")
    p.add_argument("--seed", type=seed, default=0,
                   help="seed of deflate's extras and simulate's paths")
    p.add_argument("--tol", type=float, default=DEFAULT_STRUCT_TOL)
    p.add_argument("--out", default=None, help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="structural drift condition / arbitrage")
    a.add_argument("model")
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("deflate", help="numeraire and product deflators")
    d.add_argument("model")
    d.add_argument("--extras", type=int, default=DEFAULT_EXTRAS)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error, or -h
        return EXIT_INPUT if exc.code else EXIT_OK
    if not (np.isfinite(args.tol) and args.tol > 0):
        print(f"input error: --tol must be finite and > 0, got {args.tol!r}",
              file=sys.stderr)
        return EXIT_INPUT
    args.written = []  # the --out documents, printed once all are written
    try:
        try:
            code, failure = args.func(args), None
        except (ArbitrageError, SolverError) as exc:
            code, failure = EXIT_FAIL, exc
        for path in args.written:
            with open(path) as f:
                shutil.copyfileobj(f, sys.stdout)
        if failure is not None:
            status = ("ARBITRAGE" if isinstance(failure, ArbitrageError)
                      else "SOLVER_ERROR")
            doc = {"odx_schema": odx_io.SCHEMA_VERSION, "status": status,
                   "error": str(failure)}
            if failure.node is not None:
                doc["node"] = failure.node
            odx_io.dump_json(doc, fh=sys.stdout)
        return code
    except ModelError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # a file that cannot be read or written
        name = "" if exc.filename is None else f"{exc.filename}: "
        print(f"input error: {name}{exc.strerror}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
