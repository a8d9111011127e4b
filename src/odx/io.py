"""File formats: JSON in, JSON + CSV out.  Every emitted document carries
``"odx_schema": 1``; floats round-trip losslessly."""
from __future__ import annotations

import csv
import json
from functools import lru_cache

import numpy as np

from .decompose import Decomposition
from .superhedge import AMERICAN, EUROPEAN, Claim, vanilla_claim
from .tree import (AdaptedProcess, ModelError, PredictableProcess,
                   _finalize_tree)

SCHEMA_VERSION = 1


def _check_schema(obj, what):
    if not isinstance(obj, dict):
        raise ModelError(f"{what}: expected a JSON object")
    version = obj.get("odx_schema", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ModelError(f"{what}: unsupported odx_schema {version!r}")


def tree_to_json(tree):
    nodes = []
    for i in range(tree.n_nodes):
        nodes.append({
            "id": int(i),
            "time": int(tree.time[i]),
            "parent": None if tree.parent[i] < 0 else int(tree.parent[i]),
            "p": None if tree.parent[i] < 0 else float(tree.p[i]),
        })
    return {"odx_schema": SCHEMA_VERSION, "horizon": int(tree.horizon),
            "nodes": nodes}


def tree_from_json(obj):
    _check_schema(obj, "tree")
    try:
        nodes = sorted(obj["nodes"], key=lambda r: int(r["id"]))
        ids = [int(r["id"]) for r in nodes]
        time = [int(r["time"]) for r in nodes]
        parent = [-1 if r.get("parent") is None else int(r["parent"])
                  for r in nodes]
        p = [1.0 if r.get("p") is None else float(r["p"]) for r in nodes]
        horizon = (None if obj.get("horizon") is None
                   else int(obj["horizon"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"tree: malformed nodes or horizon ({exc})") from exc
    if ids != list(range(len(nodes))):
        raise ModelError("tree: node ids must be 0..n-1 (breadth-first)")
    tree = _finalize_tree(time, parent, p)
    if horizon is not None and horizon != tree.horizon:
        raise ModelError("tree: horizon field disagrees with the leaf depth")
    return tree


@lru_cache(maxsize=4)
def _node_keys(n):
    return tuple(map(str, range(n)))


def process_to_json(P):
    vals = P.values
    return dict(zip(_node_keys(vals.shape[0]), vals.tolist()))


def adapted_from_json(tree, obj, name="process"):
    vals = _process_values(tree, obj, name, require_all=True)
    return AdaptedProcess(tree, vals)


def predictable_from_json(tree, obj, name="process"):
    vals = _process_values(tree, obj, name, require_all=False)
    return PredictableProcess(tree, vals)


def _process_values(tree, obj, name, require_all):
    if not isinstance(obj, dict) or not obj:
        raise ModelError(f"{name}: expected a nonempty node->vector map")
    dims = set()
    rows = {}
    for key, v in obj.items():
        try:
            i = int(key)
            row = np.atleast_1d(np.asarray(v, dtype=np.float64))
        except (TypeError, ValueError):
            raise ModelError(f"{name}: malformed entry {key!r}") from None
        if i < 0 or i >= tree.n_nodes:
            raise ModelError(f"{name}: unknown node id {i}")
        dims.add(row.shape[0])
        rows[i] = row
    if len(dims) != 1:
        raise ModelError(f"{name}: vector dimension must be constant")
    dim = dims.pop()
    vals = np.zeros((tree.n_nodes, dim))
    needed = range(tree.n_nodes) if require_all else tree.nonleaf_nodes
    for i in needed:
        if int(i) not in rows:
            raise ModelError(f"{name}: missing value at node {int(i)}")
    for i, row in rows.items():
        vals[i] = row
    return vals


def load_model(obj):
    """Model document: {"odx_schema": 1, "tree": {...}, "X": {node: [..]}}."""
    _check_schema(obj, "model")
    if "tree" not in obj or "X" not in obj:
        raise ModelError("model: need 'tree' and 'X'")
    tree = tree_from_json(obj["tree"])
    X = adapted_from_json(tree, obj["X"], "X")
    return tree, X


def model_to_json(X):
    return {"odx_schema": SCHEMA_VERSION, "tree": tree_to_json(X.tree),
            "X": process_to_json(X)}


def load_claim(obj, X):
    _check_schema(obj, "claim")
    kind = obj.get("kind")
    if kind not in (EUROPEAN, AMERICAN):
        raise ModelError(f"claim: kind must be european or american, got {kind!r}")
    if "payoff" in obj:
        payoff = adapted_from_json(X.tree, obj["payoff"], "payoff")
        return Claim(kind=kind, payoff=payoff)
    if "formula" in obj:
        try:
            strike = float(obj["strike"])
        except KeyError:
            raise ModelError("claim: formula needs 'strike'") from None
        except (TypeError, ValueError):
            raise ModelError(f"claim: strike must be a number, got "
                             f"{obj['strike']!r}") from None
        asset = obj.get("asset", 0)
        if asset not in range(X.dim):
            raise ModelError(f"claim: asset must be one of 0..{X.dim - 1}, "
                             f"got {asset!r}")
        return vanilla_claim(X, obj["formula"], strike, kind=kind,
                             asset=int(asset))
    raise ModelError("claim: need 'payoff' or 'formula'")


def decomposition_to_json(dec):
    out = {
        "odx_schema": SCHEMA_VERSION,
        "V0": float(dec.V0),
        "H": process_to_json(dec.H),
        "C": process_to_json(dec.C),
        "diagnostics": {},
    }
    for key, val in dec.diagnostics.items():
        if isinstance(val, (AdaptedProcess, PredictableProcess)):
            out["diagnostics"][key] = process_to_json(val)
        elif isinstance(val, dict):
            out["diagnostics"][key] = {str(k): v for k, v in val.items()}
        elif isinstance(val, tuple):
            out["diagnostics"][key] = list(val)
        else:
            out["diagnostics"][key] = val
    return out


def decomposition_from_json(tree, obj):
    _check_schema(obj, "decomposition")
    if not {"V0", "H", "C"} <= obj.keys():
        raise ModelError("decomposition: need 'V0', 'H' and 'C'")
    try:
        V0 = float(obj["V0"])
    except (TypeError, ValueError):
        raise ModelError(f"decomposition: V0 must be a number, got "
                         f"{obj['V0']!r}") from None
    H = predictable_from_json(tree, obj["H"], "H")
    C = adapted_from_json(tree, obj["C"], "C")
    return Decomposition(V0=V0, H=H, C=C,
                         diagnostics=dict(obj.get("diagnostics", {})))


def dump_json(obj, path=None, fh=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as f:
            f.write(text + "\n")
    if fh is not None:
        fh.write(text + "\n")
    return text


def write_decomposition_csv(path, tree, V, dec):
    """Per-node schedule: value, hedge, consumption increment, KW drift and
    residual diagnostics where available."""
    d = dec.H.dim
    diag = dec.diagnostics
    B = diag.get("B")
    node_nn = diag.get("node_N_norm", {})
    dC = dec.C.increments()[:, 0]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["node", "time", "V"] + [f"H_{i}" for i in range(d)] + \
                 ["dC", "dB", "N_norm"]
        w.writerow(header)
        dB = B.increments()[:, 0] if B is not None else None
        for i in range(tree.n_nodes):
            row = [i, int(tree.time[i]), repr(float(V.values[i, 0]))]
            row += [repr(float(dec.H.values[i, j])) for j in range(d)]
            row.append(repr(float(dC[i])))
            row.append("" if dB is None else repr(float(dB[i])))
            row.append("" if int(i) not in node_nn else repr(node_nn[int(i)]))
            w.writerow(row)
