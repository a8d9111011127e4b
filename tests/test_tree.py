import numpy as np
import pytest

from odx.random_models import random_market, random_tree
from odx.tree import (AdaptedProcess, ModelError, build_tree,
                      child_weighted_sums)
from support import conditional_moment, doob_decompose, quadratic_covariation


def test_build_b1():
    tree = build_tree([[0.6, 0.4]])
    assert tree.n_nodes == 3
    assert tree.horizon == 1
    assert list(tree.time) == [0, 1, 1]
    assert list(tree.parent) == [-1, 0, 0]
    np.testing.assert_allclose(tree.p[1:], [0.6, 0.4])


def test_build_t1():
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3]])
    assert tree.n_nodes == 4
    assert len(tree.children(0)) == 3


def test_build_rejects_bad_probs():
    with pytest.raises(ModelError, match="probabilities must sum to 1"):
        build_tree([[0.6, 0.5]])
    with pytest.raises(ModelError, match="zero or negative branch probability"):
        build_tree([[1.0, 0.0]])


def test_nested_spec_heterogeneous_branching():
    spec = {"probs": [0.5, 0.5],
            "children": [{"probs": [0.3, 0.7]}, {"probs": [0.2, 0.3, 0.5]}]}
    tree = build_tree(spec)
    assert tree.n_nodes == 1 + 2 + 5
    assert list(tree.n_children) == [2, 2, 3, 0, 0, 0, 0, 0]


def test_conditional_moments(b1, t1):
    _, X = b1
    np.testing.assert_allclose(conditional_moment(X, 0, 1), [0.02])
    _, Xt = t1
    np.testing.assert_allclose(conditional_moment(Xt, 0, 1), [0.0], atol=1e-15)
    np.testing.assert_allclose(conditional_moment(Xt, 0, 2), [[0.02 / 3]])


def test_conditional_moment_rejects_leaf(b1):
    _, X = b1
    with pytest.raises(ModelError, match="leaf"):
        conditional_moment(X, 1, 1)


def test_doob_b1(b1):
    _, X = b1
    A, M = doob_decompose(X)
    np.testing.assert_allclose(A.values.ravel(), [0.0, 0.02, 0.02])
    np.testing.assert_allclose(M.values.ravel(), [0.0, 0.08, -0.12])
    np.testing.assert_allclose(conditional_moment(M, 0, 1), [0.0], atol=1e-15)


def test_doob_driftless_and_constant(t1):
    tree, X = t1
    A, M = doob_decompose(X)
    assert np.max(np.abs(A.values)) < 1e-15
    np.testing.assert_allclose(M.values, X.values)
    const = AdaptedProcess(tree, np.full(tree.n_nodes, 3.7))
    A, M = doob_decompose(const)
    assert np.max(np.abs(A.values)) == 0.0
    np.testing.assert_allclose(M.values, const.values)


def test_quadratic_covariation_b1(b1):
    tree, X = b1
    _, M = doob_decompose(X)
    qv = quadratic_covariation(M, M)
    np.testing.assert_allclose(qv.values.ravel(), [0.0, 0.0064, 0.0144])
    const = AdaptedProcess(tree, np.ones(3))
    assert np.max(np.abs(quadratic_covariation(M, const).values)) == 0.0
    np.testing.assert_allclose(quadratic_covariation(M, X).values,
                               quadratic_covariation(X, M).values)


@pytest.mark.parametrize("seed", range(10))
def test_doob_roundtrip_and_martingale_property(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    X = random_market(rng, tree, d=1 + seed % 2)
    A, M = doob_decompose(X)
    np.testing.assert_allclose(A.values + M.values, X.values, atol=1e-14)
    defect = child_weighted_sums(tree, M.increments())
    assert np.max(np.abs(defect)) <= 1e-12
    # qv nondecreasing along every path
    qv = quadratic_covariation(M, M).values
    d = X.dim
    for i in range(1, tree.n_nodes):
        diag_inc = (qv[i] - qv[tree.parent[i]]).reshape(d, d).diagonal()
        assert np.min(diag_inc) >= -1e-15


def test_path_probabilities_strictly_positive():
    rng = np.random.default_rng(5)
    tree = random_tree(rng)
    assert np.min(tree.path_prob) > 0.0
    leaves = tree.leaves
    assert abs(tree.path_prob[leaves].sum() - 1.0) < 1e-12
