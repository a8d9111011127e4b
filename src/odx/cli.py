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
# simulate --out writes X[..., 0] of this many leading paths to paths.csv
PATHS_CSV_ROWS = 100


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


def _spec_array(value, what, shape=None):
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ModelError(f"diffusion spec: {what} is not a numeric "
                         "array") from None
    if shape is not None and arr.shape != shape:
        want = " x ".join(map(str, shape))
        raise ModelError(f"diffusion spec: {what} must be {want}, "
                         f"got shape {arr.shape}")
    return arr


def _coeff(spec_obj, key, shape):
    """Coefficient function of ``key`` whose value has ``shape``; only the
    drift may be linear in x (slope d x d)."""
    form = spec_obj.get(key)
    if not isinstance(form, dict) or "form" not in form:
        raise ModelError(f"diffusion spec: missing {key} form")
    forms = ("const", "linear") if key == "drift" else ("const",)
    if form["form"] not in forms:
        raise ModelError(f"diffusion spec: {key} form {form['form']!r} is "
                         f"not supported (use {' or '.join(forms)})")
    needs = ("value", "slope") if form["form"] == "linear" else ("value",)
    for part in needs:
        if part not in form:
            raise ModelError(f"diffusion spec: {key} form "
                             f"{form['form']!r} needs {part!r}")
    value = _spec_array(form["value"], f"{key} value", shape)
    if form["form"] == "const":
        return mc.const_fn(value)
    d = shape[0]
    return mc.linear_fn(value, _spec_array(form["slope"], f"{key} slope",
                                           (d, d)))


def _spec_number(obj, key, default, kind):
    try:
        return kind(obj.get(key, default))
    except (TypeError, ValueError):
        raise ModelError(f"diffusion spec: {key} must be a number, got "
                         f"{obj[key]!r}") from None


def _diffusion_spec(obj, args):
    odx_io._check_schema(obj, "diffusion spec")
    if "d" not in obj:
        raise ModelError("diffusion spec: missing 'd'")
    d = _spec_number(obj, "d", None, int)
    m = _spec_number(obj, "m", d, int)
    if d < 1 or m < 1:
        raise ModelError("diffusion spec: need d >= 1 and m >= 1")
    steps = args.steps if args.steps is not None else _spec_number(
        obj, "steps", mc.DEFAULT_STEPS, int)
    paths = args.paths if args.paths is not None else _spec_number(
        obj, "paths", mc.DEFAULT_PATHS, int)
    return mc.DiffusionSpec(
        d=d, m=m,
        drift=_coeff(obj, "drift", (d,)),
        sigma=_coeff(obj, "sigma", (d, m)),
        T=_spec_number(obj, "T", 1.0, float),
        steps=steps, paths=paths, seed=args.seed,
        x0=_spec_array(obj.get("x0", [0.0] * d), "x0"),
    )


def cmd_simulate(args):
    spec = _diffusion_spec(_load_json(args.spec), args)
    head = PATHS_CSV_ROWS if args.out is not None else 0
    rec = mc.stream_deflated(spec, mc.bucket_edges(spec.steps), head=head)
    y_term = rec.Y_hat[rec.alive, -1]
    rep = mc.martingale_test(rec.Y_hat[rec.alive])
    rep_yx = mc.martingale_test(rec.YX[rec.alive])
    doc = {
        "odx_schema": odx_io.SCHEMA_VERSION,
        "seed": args.seed, "paths": spec.paths, "steps": spec.steps,
        "abort_fraction": rec.abort_fraction,
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
        np.savetxt(csv_path, rec.X_head, delimiter=",")
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
