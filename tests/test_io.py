import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from odx import io as odx_io
from odx.decompose import decompose_lp
from odx.random_models import random_market, random_tree
from odx.tree import ModelError


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
    doc = json.loads(json.dumps(odx_io.model_to_json(X)))
    _, back = odx_io.load_model(doc)
    assert np.array_equal(back.values, X.values)


def test_decomposition_roundtrip(b1_claim):
    tree, X, V = b1_claim
    dec = decompose_lp(V, X)
    doc = json.loads(json.dumps(odx_io.decomposition_to_json(dec)))
    back = odx_io.decomposition_from_json(tree, doc)
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
    panel = SimpleNamespace(values=values)
    assert (odx_io.dump_json(odx_io.process_to_json(panel))
            == odx_io.dump_json(reference))
