import csv
import io
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from odx import io as odx_io
from odx.cli import main
from odx.decompose import (decompose_kw, decompose_lp,
                           is_supermartingale_under_all)
from odx.random_models import random_market, random_tree
from odx.tree import AdaptedProcess, ModelError, _finalize_tree, build_tree


def node_map(P):
    """The node map {"0": [...], ...} that ``dump_json`` writes for a
    process: the ``default=`` of the ``json.dumps`` oracle."""
    return {str(i): row for i, row in enumerate(P.values.tolist())}


def dumps(doc):
    """The text ``dump_json`` writes for ``doc``."""
    sink = io.StringIO()
    odx_io.dump_json(doc, fh=sink)
    return sink.getvalue()


@lru_cache(maxsize=None)
def _star(n):
    """A one-period tree of n nodes: the root and n - 1 children."""
    return _finalize_tree([0] + [1] * (n - 1), [-1] + [0] * (n - 1),
                          [1.0] + [1.0 / max(n - 1, 1)] * (n - 1))


def process(values):
    """An adapted process with the rows of ``values``, one per node."""
    values = np.asarray(values, dtype=np.float64)
    return AdaptedProcess(_star(values.shape[0]), values)


def test_tree_roundtrip():
    rng = np.random.default_rng(1)
    tree = random_tree(rng)
    doc = odx_io.tree_to_json(tree)
    back = odx_io.tree_from_json(doc)
    assert np.array_equal(back.parent, tree.parent)
    assert np.array_equal(back.time, tree.time)
    np.testing.assert_array_equal(back.p, tree.p)


def test_model_roundtrip_lossless():
    rng = np.random.default_rng(2)
    tree = random_tree(rng)
    X = random_market(rng, tree, d=2)
    doc = json.loads(dumps(odx_io.model_to_json(X)))
    _, back = odx_io.load_model(doc)
    assert np.array_equal(back.values, X.values)


def test_decomposition_roundtrip(b1_claim):
    tree, X, V = b1_claim
    dec = decompose_lp(V, X)
    gap = is_supermartingale_under_all(V, X).duality_gap
    doc = json.loads(dumps(odx_io.decomposition_to_json(dec, gap)))
    back = odx_io.decomposition_from_json(tree, doc)
    assert back.diagnostics["duality_gap"] == gap
    assert back.V0 == dec.V0
    assert np.array_equal(back.H.values, dec.H.values)
    assert np.array_equal(back.C.values, dec.C.values)


def test_schema_version_enforced():
    with pytest.raises(ModelError, match="odx_schema"):
        odx_io.load_model({"odx_schema": 99, "tree": {}, "X": {}})


def test_process_map_validation(b1):
    tree, _ = b1
    with pytest.raises(ModelError, match="missing value"):
        odx_io.adapted_from_json(tree, {"0": [1.0]}, "V")
    with pytest.raises(ModelError, match="unknown node"):
        odx_io.adapted_from_json(tree, {"7": [1.0]}, "V")
    with pytest.raises(ModelError, match="dimension"):
        odx_io.adapted_from_json(
            tree, {"0": [1.0], "1": [1.0, 2.0], "2": [1.0]}, "V")


def test_tree_rejects_bad_ids(b1):
    tree, _ = b1
    doc = odx_io.tree_to_json(tree)
    doc["nodes"][1]["id"] = 5
    with pytest.raises(ModelError, match="breadth-first"):
        odx_io.tree_from_json(doc)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_tree_from_json_reads_rows_in_any_order(seed, random):
    """Rows out of id order are sorted before they are read: the tree is
    that of the sorted rows."""
    doc = odx_io.tree_to_json(random_tree(np.random.default_rng(seed)))
    shuffled = dict(doc, nodes=random.sample(doc["nodes"], len(doc["nodes"])))
    want = odx_io.tree_from_json(doc)
    got = odx_io.tree_from_json(shuffled)
    for field in ("horizon", "time", "parent", "p", "first_child",
                  "n_children"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def test_claim_loader(binomial2):
    tree, X = binomial2
    claim = odx_io.load_claim(
        {"odx_schema": 1, "kind": "european", "formula": "put",
         "strike": 1.05}, X)
    assert claim.kind == "european"
    with pytest.raises(ModelError, match="kind"):
        odx_io.load_claim({"odx_schema": 1, "kind": "asian"}, X)
    with pytest.raises(ModelError, match="payoff"):
        odx_io.load_claim({"odx_schema": 1, "kind": "european"}, X)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 4)),
              elements=st.floats(allow_subnormal=True, width=64)))
def test_process_json_text_unchanged(values):
    """The emitted text equals that of the per-element float() form."""
    reference = {str(i): [float(v) for v in values[i]]
                 for i in range(values.shape[0])}
    assert dumps(process(values)) == json.dumps(reference, indent=2,
                                                sort_keys=True) + "\n"


# floats whose text is hard to get right: signed zero, subnormals, the
# ends of the range, the exponent switch of repr, and the three non-finite
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e308, -1e308, 1.7976931348623157e308, 1e16, 1e-5, 0.1,
                  123456789.0, float("nan"), float("inf"), float("-inf")]
json_leaves = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_subnormal=True) | st.text(max_size=4))
json_values = st.recursive(
    json_leaves, lambda inner: (st.lists(inner, max_size=3)
                                | st.dictionaries(st.text(max_size=3), inner,
                                                  max_size=3)),
    max_leaves=6)


@st.composite
def node_maps(draw):
    """A process with n across the digit boundaries of its node map's
    keys, d = 1..3 and special floats planted."""
    n = draw(st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 999, 1000]))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = (rng.standard_normal((n, d))
              * 10.0 ** rng.integers(-300, 300, (n, d)))
    for i, x in draw(st.lists(st.tuples(st.integers(0, n * d - 1),
                                        st.sampled_from(SPECIAL_FLOATS)),
                              max_size=6)):
        values.flat[i] = x
    return process(values)


@settings(max_examples=40, deadline=None)
@given(node_maps(), node_maps(), json_values, st.data())
def test_dump_json_is_json_dumps(m1, m2, other, data):
    """Every document shape the CLI emits, with node maps at each nesting
    depth it uses, is written byte for byte as json.dumps(indent=2,
    sort_keys=True) writes it."""
    docs = [
        m1,
        {"odx_schema": 1, "status": "SOLVABLE", "mass_max": 0.5, "rho": m1,
         "nodes": [0, 3], "other": other},
        {"seed": 3, "rho_hat": m1, "V_hat": m2,
         "extras": [{"L": m1, "Y": m2}, {"L": m2, "Y": m1}]},
        {"price": -0.0, "route": "lp", "decomposition": {
            "V0": float("nan"), "H": m1, "C": m2, "diagnostics": {
                "route": "KW", "theta": m2, "B": m1, "N_norm": 1e-310,
                "node_N_norm": {"0": 0.5, "10": float("inf"), "9": 2.0},
                "deferred_nodes": (0, 10), "duality_gap": other}},
         "view": {"S": m1, "shares": m2, "currency": m1}},
        {"verdict": "FAIL", "problems": [{"check": "supermartingale",
                                          "witness": {"node": 2,
                                                      "measure": [0.5, 0.5]}}]},
        {"empty": {}, "l": []},
        data.draw(st.dictionaries(st.text(max_size=3),
                                  st.just(m1) | st.just(m2) | json_values,
                                  max_size=4)),
    ]
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                        default=node_map) + "\n"


def test_dump_json_writes_the_text_and_a_newline(tmp_path):
    """Both sinks get the same text; a value json cannot write leaves both
    unwritten."""
    doc = {"b": process([[1.0, float("nan")], [-0.0, 2.5]]), "a": [1, None]}
    sink = io.StringIO()
    assert odx_io.dump_json(doc, path=tmp_path / "doc.json", fh=sink) is None
    assert (sink.getvalue() == (tmp_path / "doc.json").read_text()
            == json.dumps(doc, indent=2, sort_keys=True, default=node_map)
            + "\n")
    for bad in ({"x": object()}, {(1, 2): 0.5}):
        sink = io.StringIO()
        with pytest.raises(TypeError):
            odx_io.dump_json(bad, path=tmp_path / "bad.json", fh=sink)
        assert sink.getvalue() == ""
        assert not (tmp_path / "bad.json").exists()


def test_dump_json_repeated_maps_are_json_dumps():
    """Maps equal in shape, bytes and line prefix share one render; json
    tells apart what the writer must keep apart: -0.0 from 0.0, the same
    bytes in another shape, the same array at another depth.  NaN and the
    infinities match themselves."""
    values = np.array([[0.5], [-1.0], [0.0], [2.0]])
    signed = values.copy()
    signed[2] = -0.0
    special = process([[float("nan")], [float("inf")], [float("-inf")],
                       [float("nan")]])
    a = process(values)
    doc = {"a": a, "again": a, "copy": process(values.copy()),
           "signed": process(signed), "wide": process(values.reshape(2, 2)),
           "special": special, "special_copy": process(special.values.copy()),
           "nested": {"a": a, "list": [a, special, process(signed)]}}
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                    default=node_map) + "\n"


def test_complete_market_deflators_render_once(tmp_path, capsys, monkeypatch):
    """On a binary d = 1 tree every extra is L = 0 and Y = Y_hat, so the
    19 maps of ``deflate --extras 8`` take 5 renders: rho_hat, V_hat and
    Y_hat, then L and Y one level deeper."""
    X = random_market(np.random.default_rng(4),
                      build_tree([[0.5, 0.5]] * 3), d=1)
    model = tmp_path / "model.json"
    odx_io.dump_json(odx_io.model_to_json(X), path=model)
    renders = []

    def counted(vals, indent):
        renders.append(indent)
        return node_map_text(vals, indent)

    node_map_text = odx_io._node_map_text
    monkeypatch.setattr(odx_io, "_node_map_text", counted)
    assert main(["--seed", "3", "deflate", str(model), "--extras", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["extras"]) == 8 and len(renders) == 5


def reference_process_values(tree, obj, name, require_all):
    """The entry-by-entry loader that ``_process_values`` replaced."""
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


# two periods, three then two branches: 10 nodes, ids 0..9 across a digit
LOADER_TREE = build_tree([[0.2, 0.3, 0.5], [0.4, 0.6]])
odd_keys = st.sampled_from(["10", "-1", "x", "", " 3", "03", "+4", "1.0",
                            "99999999999999999999999"])
odd_values = st.sampled_from([1.5, "2.5", "abc", None, True, [], [1.0],
                              [1.0, 2.0, 3.0, 4.0], [1.0, [2.0]], {"a": 1},
                              float("nan"), [float("inf"), 1.0]])


@st.composite
def process_maps(draw):
    """A node->vector map of LOADER_TREE, valid or not: a complete map of
    one dimension, then some entries dropped, replaced or added."""
    n = LOADER_TREE.n_nodes
    d = draw(st.integers(1, 3))
    scalar = d == 1 and draw(st.booleans())
    row = st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d)
    obj = {str(i): draw(st.floats(-1e6, 1e6) if scalar else row)
           for i in range(n)}
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(obj)) | odd_keys)
        action = draw(st.sampled_from(["drop", "set", "add"]))
        if action == "drop":
            obj.pop(key, None)
        else:
            obj[key] = draw(odd_values | row | st.just([float("nan")] * d))
    return obj


@settings(max_examples=400, deadline=None)
@given(process_maps(), st.booleans())
def test_process_values_match_the_entry_loop(obj, require_all):
    """The array loader returns the old loop's array on every map the loop
    took, with the same ModelError text wherever the loop raised one.
    Non-finite entries are now input errors naming the first such node,
    and a huge integer is a malformed entry, not a traceback."""
    load = odx_io._process_values
    try:
        want = reference_process_values(LOADER_TREE, obj, "V", require_all)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            load(LOADER_TREE, obj, "V", require_all)
        assert str(got.value) == str(exc)
        return
    bad = np.flatnonzero(~np.isfinite(want).all(axis=1))
    if bad.size:
        with pytest.raises(ModelError) as got:
            load(LOADER_TREE, obj, "V", require_all)
        assert str(got.value) == f"V: non-finite value at node {bad[0]}"
    else:
        np.testing.assert_array_equal(
            load(LOADER_TREE, obj, "V", require_all), want)


@pytest.mark.parametrize("entry, message", [
    (10**400, "X: malformed entry '1'"),
    ([[0.5]], None),
    (float("nan"), "X: non-finite value at node 1"),
    (float("-inf"), "X: non-finite value at node 1"),
], ids=["huge-int", "nested", "nan", "-inf"])
def test_process_values_edge_entries(b1, entry, message):
    """A huge integer was an OverflowError traceback; a row nested in a
    singleton list reads as the flat row, as before."""
    tree, _ = b1
    obj = {"0": [0.0], "1": entry, "2": [-0.1]}
    if message is None:
        np.testing.assert_array_equal(
            odx_io.adapted_from_json(tree, obj, "X").values,
            [[0.0], [0.5], [-0.1]])
    else:
        with pytest.raises(ModelError) as got:
            odx_io.adapted_from_json(tree, obj, "X")
        assert str(got.value) == message


def test_decomposition_csv_matches_per_node_rows(t1, tmp_path):
    """The column-wise CSV writer gives the bytes of the old per-node loop,
    on both routes (the KW route adds dB and N_norm)."""
    tree, X = t1
    V = AdaptedProcess(tree, np.array([1.0, 1.0, 0.0, 1.0]))
    for dec in (decompose_lp(V, X), decompose_kw(V, X)):
        odx_io.write_decomposition_csv(tmp_path / "new.csv", V, dec)
        B = dec.diagnostics.get("B")
        node_nn = dec.diagnostics.get("node_N_norm", {})
        dC = dec.C.increments()[:, 0]
        dB = B.increments()[:, 0] if B is not None else None
        with open(tmp_path / "old.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["node", "time", "V", "H_0", "dC", "dB", "N_norm"])
            for i in range(tree.n_nodes):
                w.writerow([i, int(tree.time[i]), repr(float(V.values[i, 0])),
                            repr(float(dec.H.values[i, 0])),
                            repr(float(dC[i])),
                            "" if dB is None else repr(float(dB[i])),
                            repr(node_nn[i]) if i in node_nn else ""])
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())
