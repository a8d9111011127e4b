"""File formats: JSON in, JSON + CSV out.  Every emitted document carries
``"odx_schema": 1``; floats round-trip losslessly."""
from __future__ import annotations

import csv
import json
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter

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
    rows = zip(tree.time.tolist(), tree.parent.tolist(), tree.p.tolist())
    nodes = [{"id": i, "time": t, "parent": None if q < 0 else q,
              "p": None if q < 0 else p} for i, (t, q, p) in enumerate(rows)]
    return {"odx_schema": SCHEMA_VERSION, "horizon": int(tree.horizon),
            "nodes": nodes}


def tree_from_json(obj):
    _check_schema(obj, "tree")
    try:  # one pass over the rows
        rows = [(int(r["id"]), int(r["time"]),
                 -1 if (q := r.get("parent")) is None else int(q),
                 1.0 if (w := r.get("p")) is None else float(w))
                for r in obj["nodes"]]
        horizon = (None if obj.get("horizon") is None
                   else int(obj["horizon"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"tree: malformed nodes or horizon ({exc})") from exc
    ids, time, parent, p = zip(*rows) if rows else [()] * 4
    if ids != tuple(range(len(rows))):  # sorted by id only when out of order
        rows.sort(key=itemgetter(0))
        ids, time, parent, p = zip(*rows)
        if ids != tuple(range(len(rows))):
            raise ModelError("tree: node ids must be 0..n-1 (breadth-first)")
    tree = _finalize_tree(time, parent, p)
    if horizon is not None and horizon != tree.horizon:
        raise ModelError("tree: horizon field disagrees with the leaf depth")
    return tree


@lru_cache(maxsize=4)
def _node_keys(n):
    """Ids of an n-node map in the order of their keys as strings, and the
    '"k": [' head of each."""
    order = sorted(range(n), key=str)
    return np.array(order, dtype=np.intp), [f'"{i}": [' for i in order]


def adapted_from_json(tree, obj, name="process"):
    return AdaptedProcess(tree, _process_values(tree, obj, name, True))


def predictable_from_json(tree, obj, name="process"):
    return PredictableProcess(tree, _process_values(tree, obj, name, False))


def _process_values(tree, obj, name, require_all):
    """The (n_nodes, dim) array of a node->vector map in one numpy step;
    where that step fails, the entry walk names the entry at fault."""
    if not isinstance(obj, dict) or not obj:
        raise ModelError(f"{name}: expected a nonempty node->vector map")
    n = tree.n_nodes
    try:
        ids = np.fromiter(map(int, obj), np.intp, len(obj))
        rows = np.asarray(list(obj.values()), dtype=np.float64)
        rows = rows.reshape(len(obj), -1)  # an entry is a flat vector
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None:
        ids, rows = _walk_entries(obj, name, n)
    unknown = (ids < 0) | (ids >= n)
    if unknown.any():
        raise ModelError(f"{name}: unknown node id {ids[unknown.argmax()]}")
    if rows.shape[1] == 0:
        raise ModelError(f"{name}: empty vector at node {ids.min()}")
    present = np.bincount(ids, minlength=n) > 0
    if np.count_nonzero(present) < ids.size:  # e.g. "1" and "01": last wins
        last = ids.size - 1 - np.unique(ids[::-1], return_index=True)[1]
        ids, rows = ids[last], rows[last]
    needed = np.arange(n) if require_all else tree.nonleaf_nodes
    missing = needed[~present[needed]]
    if missing.size:
        raise ModelError(f"{name}: missing value at node {missing[0]}")
    vals = np.zeros((n, rows.shape[1]))
    vals[ids] = rows
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise ModelError(f"{name}: non-finite value at node {bad.argmax()}")
    return vals


def _walk_entries(obj, name, n):
    """(ids, rows) entry by entry: raises at the first entry at fault."""
    ids, rows = [], []
    for key, v in obj.items():
        try:
            i = int(key)
            row = np.asarray(v, dtype=np.float64).reshape(-1)
        except (TypeError, ValueError, OverflowError):
            raise ModelError(f"{name}: malformed entry {key!r}") from None
        if i < 0 or i >= n:
            raise ModelError(f"{name}: unknown node id {i}")
        ids.append(i)
        rows.append(row)
    if len({row.size for row in rows}) != 1:
        raise ModelError(f"{name}: vector dimension must be constant")
    return np.array(ids, dtype=np.intp), np.stack(rows)


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
            "X": X}


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


def decomposition_to_json(dec, duality_gap):
    """The decomposition document; its diagnostics carry the duality gap of
    V, which depends on V alone (the supermartingale certificate's)."""
    diag = {key: {str(k): v for k, v in val.items()}
            if isinstance(val, dict) else val
            for key, val in dec.diagnostics.items()}
    diag["duality_gap"] = duality_gap
    return {"odx_schema": SCHEMA_VERSION, "V0": float(dec.V0), "H": dec.H,
            "C": dec.C, "diagnostics": diag}


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


_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_reprs(values):
    """``float.__repr__`` of every entry of ``values``, in C order."""
    return list(map(float.__repr__, np.ravel(values).tolist()))


def _node_map_text(vals, indent):
    """The node map text of the (n, d) array ``vals`` at line prefix
    ``indent``, in one join of the keys' heads, the reprs and the line
    breaks between them."""
    n, d = vals.shape
    order, heads = _node_keys(n)
    reps = _float_reprs(vals[order])
    if not np.isfinite(vals).all():
        reps = [_JSON_FLOATS.get(r, r) for r in reps]
    inner, item = indent + "  ", indent + "    "
    it = iter(reps)
    parts = chain.from_iterable(zip(
        repeat("," + inner), heads, repeat(item), it,
        *[repeat("," + item), it] * (d - 1), repeat(inner + "]")))
    next(parts)  # no comma before the first key
    return "".join(chain(("{", inner), parts, (indent + "}",)))


def _write(obj, indent, out, memo):
    """Append the text of ``obj`` at line prefix ``indent`` to ``out``.
    ``memo`` maps (shape, indent, bytes) of each node map rendered so far
    to its text, so an equal array at the same prefix is rendered once."""
    if isinstance(obj, (AdaptedProcess, PredictableProcess)):
        vals = obj.values
        key = (vals.shape, indent, vals.tobytes())
        text = memo.get(key)
        if text is None:
            text = memo[key] = _node_map_text(vals, indent)
        out.append(text)
    elif isinstance(obj, (dict, list, tuple)) and obj:
        inner = indent + "  "
        is_map = isinstance(obj, dict)
        out.append("{" if is_map else "[")
        for j, item in enumerate(sorted(obj.items()) if is_map else obj):
            out.append(("," if j else "") + inner)
            if is_map:  # '"key": ' by json's own rules for keys
                out.append(json.dumps({item[0]: 0})[1:-2])
                item = item[1]
            _write(item, inner, out, memo)
        out.append(indent + ("}" if is_map else "]"))
    else:
        out.append(json.dumps(obj))


def dump_json(obj, path=None, fh=None):
    """Write ``obj`` as ``json.dumps`` does with two-space indents and sorted
    keys, plus a newline, to ``path`` and/or ``fh``.  A process is written as
    its node map {"0": [...], ...}, straight from its array.  A map repeated
    in one document, such as the extra deflators Y = Y_hat of a complete
    market, is rendered once per line prefix and its text reused."""
    out = []
    _write(obj, "\n", out, {})
    out.append("\n")
    if path is not None:
        with open(path, "w") as f:
            f.writelines(out)
    if fh is not None:
        fh.writelines(out)


def write_decomposition_csv(path, tree, V, dec):
    """Per-node schedule: value, hedge, consumption increment, KW drift and
    residual diagnostics where available."""
    n, d = dec.H.values.shape
    B = dec.diagnostics.get("B")
    node_nn = dec.diagnostics.get("node_N_norm", {})
    nn = np.full(n, "", dtype=object)
    nn[list(node_nn)] = _float_reprs(list(node_nn.values()))
    cols = [map(str, range(n)), map(str, tree.time.tolist()),
            _float_reprs(V.values[:, 0])]
    cols += [_float_reprs(dec.H.values[:, j]) for j in range(d)]
    cols.append(_float_reprs(dec.C.increments()[:, 0]))
    cols.append([""] * n if B is None else _float_reprs(B.increments()[:, 0]))
    cols.append(nn.tolist())
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["node", "time", "V"] + [f"H_{i}" for i in range(d)]
                   + ["dC", "dB", "N_norm"])
        w.writerows(zip(*cols))
