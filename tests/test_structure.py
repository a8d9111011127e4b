import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from odx import mc
from odx.structure import (PINV_RELTOL, Characteristics,
                           extract_characteristics, psd_pinv_apply,
                           riskless_gain, solve_structure)
from odx.tree import (AdaptedProcess, ArbitrageError, ModelError,
                      PredictableProcess, build_tree)


def _chars_on_one_step(a, c):
    """Single-step Characteristics carrying the given (a, c)."""
    a = np.atleast_1d(np.asarray(a, float))
    d = a.shape[0]
    tree = build_tree([[0.5, 0.5]])
    a_vals = np.zeros((3, d))
    a_vals[0] = a
    c_vals = np.zeros((3, d * d))
    c_vals[0] = np.asarray(c, float).ravel()
    return Characteristics(a=PredictableProcess(tree, a_vals),
                           c=PredictableProcess(tree, c_vals))


def test_extract_b1(b1):
    _, X = b1
    ch = extract_characteristics(X)
    np.testing.assert_allclose(ch.a.values[0], [0.02])
    np.testing.assert_allclose(ch.c.values[0], [0.0096])


def test_extract_t1(t1):
    _, X = t1
    ch = extract_characteristics(X)
    np.testing.assert_allclose(ch.a.values[0], [0.0], atol=1e-15)
    np.testing.assert_allclose(ch.c.values[0], [0.02 / 3])


def test_extract_deterministic():
    tree = build_tree([[0.5, 0.5]])
    X = AdaptedProcess(tree, np.array([0.0, 0.3, 0.3]))
    ch = extract_characteristics(X)
    np.testing.assert_allclose(ch.a.values[0], [0.3])
    np.testing.assert_allclose(ch.c.values[0], [0.0], atol=1e-15)


def test_solve_identity():
    ch = _chars_on_one_step([0.3, -0.1], np.eye(2))
    rep = solve_structure(ch)
    assert rep.solvable
    np.testing.assert_allclose(rep.rho.values[0], [0.3, -0.1])


def test_solve_rank_one_min_norm():
    ch = _chars_on_one_step([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
    rep = solve_structure(ch)
    assert rep.solvable
    np.testing.assert_allclose(rep.rho.values[0], [0.5, 0.5], atol=1e-12)


def test_solve_kernel_arbitrage():
    ch = _chars_on_one_step([0.0, 1.0], np.diag([1.0, 0.0]))
    rep = solve_structure(ch)
    assert rep.status == "ARBITRAGE"
    zeta = rep.zeta.values[0]
    np.testing.assert_allclose(zeta, [0.0, 1.0])
    C = ch.c_matrix(0)
    assert np.max(np.abs(C @ zeta)) == 0.0
    assert zeta @ ch.a.values[0] == 1.0


def test_arbitrage_gain_is_riskless(a1):
    _, X = a1
    rep = solve_structure(extract_characteristics(X))
    assert rep.status == "ARBITRAGE"
    g = riskless_gain(X, rep.zeta)
    kids = X.tree.children(0)
    assert np.ptp(g[kids]) == 0.0       # zero conditional variance
    assert np.min(g[kids]) > 0.0        # strictly positive gain


def test_scaling_invariance():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(2, 2))
    c = B @ B.T
    a = c @ rng.normal(size=2)
    rho, _ = psd_pinv_apply(c, a)
    for lam in (1e-4, 7.0, 1e5):
        rho_s, _ = psd_pinv_apply(lam * c, lam * a)
        np.testing.assert_allclose(rho_s, rho, rtol=1e-8)


def test_pinv_subnormal_eigenvalue_counts_as_zero():
    c = np.array([[5.3e-309, 0.0], [0.0, 0.0]])
    x, kernel_part = psd_pinv_apply(c, np.zeros(2))
    np.testing.assert_array_equal(x, [0.0, 0.0])
    np.testing.assert_array_equal(kernel_part, [0.0, 0.0])


@pytest.mark.parametrize("stack", [False, True], ids=["matrix", "stack"])
def test_pinv_near_the_float_range(stack):
    """Entries of C up to 1.5e308: the symmetric part must not overflow
    (C + C^T did, with a RuntimeWarning), and the solve is scale-free."""
    B = np.array([[2.0, 0.5], [0.5, 1.0]])
    u = np.array([0.3, -0.2])
    s = 1.5e308 / np.max(np.abs(B))
    if stack:
        B, u = B[None], u[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x_s, _ = psd_pinv_apply(s * B, s * u)
    x, _ = psd_pinv_apply(B, u)
    np.testing.assert_allclose(x_s, x, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", [0.0, 5e-324, 1e-300, 0.04, 1.5e308, np.inf])
def test_pinv_of_1x1_is_the_closed_form(c):
    """A 1 x 1 C takes the one eigh path, and gives the closed form
    v * (1/c) where c is kept and v as the kernel part, bit for bit.  A
    stack's vecmat/matvec products add from +0.0, so they return -0.0 as
    +0.0; adding 0.0 to both sides compares them up to that sign."""
    rng = np.random.default_rng(7)
    v = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-300, 0, 300)
    v = np.concatenate([v, [0.0, -0.0, 1.0, -1.0, 0.04, 1e-300]])[:, None]
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.float64(c)
    keep = c > PINV_RELTOL * c and np.isfinite(inv)
    want = (v * (inv if keep else 0.0), np.zeros_like(v) if keep else v)
    got = psd_pinv_apply(np.array([[c]]), v)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    got = psd_pinv_apply(np.full((v.shape[0], 1, 1), c), v)
    for g, w in zip(got, want):
        assert (g + 0.0).tobytes() == (w + 0.0).tobytes()


@pytest.mark.parametrize("c, message", [
    ([[1.0, 0.5], [0.0, 1.0]], "covariance not symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "covariance not PSD"),
], ids=["asymmetric", "negative-eigenvalue"])
def test_validate_names_the_node(c, message):
    with pytest.raises(ModelError, match=f"^node 0: {message}$"):
        _chars_on_one_step([0.0, 0.0], c).validate()


def test_range_membership_when_solvable():
    rng = np.random.default_rng(11)
    for _ in range(20):
        B = rng.normal(size=(2, 1))
        c = B @ B.T  # rank 1
        a = c @ rng.normal(size=2)
        ch = _chars_on_one_step(a, c)
        rep = solve_structure(ch)
        assert rep.solvable
        rho = rep.rho.values[0]
        assert np.max(np.abs(c @ rho - a)) <= 1e-7 * max(1, np.abs(a).max())


def test_non_psd_rejected():
    ch = _chars_on_one_step([0.0], [[-1.0]])
    with pytest.raises(ModelError, match="PSD"):
        solve_structure(ch)


def test_mass_finite_on_trees(b1):
    _, X = b1
    rep = solve_structure(extract_characteristics(X))
    assert not rep.mass_flag
    # mass = <rho, c rho> accumulated: (0.02^2 / 0.0096)
    np.testing.assert_allclose(rep.mass.values[1, 0], 0.02**2 / 0.0096)


@st.composite
def _shared_matrix_and_rows(draw):
    """One PSD c = B B^T of quarters (exact, so exactly symmetric), often
    rank-deficient, with rows V (P, d) and a slice [i, j) of them."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    P = draw(st.integers(1, 40))
    B = draw(arrays(np.float64, (d, m),
                    elements=st.integers(-12, 12).map(lambda k: k / 4)))
    kind = draw(st.sampled_from(["any", "zero_row", "collinear", "zero"]))
    if kind == "zero_row":
        B[-1, :] = 0.0
    elif kind == "collinear" and d > 1:
        B[1, :] = 2.5 * B[0, :]
    elif kind == "zero":
        B[:] = 0.0
    V = draw(arrays(np.float64, (P, d), elements=st.one_of(
        st.just(0.0), st.floats(-5.0, 5.0, allow_nan=False,
                                allow_subnormal=False))))
    i = draw(st.integers(0, P - 1))
    j = draw(st.integers(i + 1, P))
    return B @ B.T, V, i, j


@settings(max_examples=200, deadline=None)
@given(_shared_matrix_and_rows())
def test_pinv_of_one_matrix_is_the_same_per_row(case):
    """One (d, d) c against many rows: a row's bits do not depend on the
    rows solved with it, x is c^+ v and the kernel part is in ker c."""
    c, V, i, j = case
    x, kernel_part = psd_pinv_apply(c, V)
    for k in range(V.shape[0]):
        row = psd_pinv_apply(c, V[k])
        assert row[0].tobytes() == x[k].tobytes()
        assert row[1].tobytes() == kernel_part[k].tobytes()
    part = psd_pinv_apply(c, V[i:j])
    assert part[0].tobytes() == x[i:j].tobytes()
    assert part[1].tobytes() == kernel_part[i:j].tobytes()

    w = np.linalg.eigvalsh(c)
    top = max(w[-1], 0.0)
    assert np.max(np.abs(c @ kernel_part.T), initial=0.0) <= (
        1e-12 * top * np.max(np.abs(V)))
    # pinv cuts at the same relative level; compare only where no
    # eigenvalue is near the cut and the kept ones are well conditioned
    kept = w[w > PINV_RELTOL * top]
    assume(not np.any((np.abs(w) > 1e-14 * top) & (np.abs(w) <= 1e-3 * top)))
    c_plus = np.linalg.pinv(c, rcond=PINV_RELTOL, hermitian=True)
    scale = (1.0 / kept[0] if kept.size else 0.0) * np.linalg.norm(V, axis=1)
    err = np.linalg.norm(x - V @ c_plus, axis=1)
    assert np.all(err <= 1e-12 * scale)


@st.composite
def _sigma_drift_tol(draw):
    """sigma (d, m), m <= d <= 3, of small integers, so c = sigma sigma^T
    is often singular; a drift a = sigma u in the range of c, or that plus
    a vector of the kernel of c, 1e-12 to 1 times as large, off the range;
    each of sigma and a scaled by 1e-6 to 1e6; and a tolerance."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, d))
    small = st.integers(-3, 3).map(float)
    sigma = draw(arrays(np.float64, (d, m), elements=small))
    u = draw(arrays(np.float64, (m,), elements=small))
    rank = int(np.linalg.matrix_rank(sigma))
    kernel = np.linalg.svd(sigma)[0][:, rank:]  # the kernel of sigma^T
    w = draw(arrays(np.float64, (d - rank,), elements=small))
    off = draw(st.just(0.0) | st.floats(-12.0, 0.0).map(lambda e: 10.0**e))
    a = sigma @ u + off * (kernel @ w)
    s_sigma, s_a = (10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(2))
    tol = draw(st.sampled_from([1e-10, 1e-8, 1e-6]))
    return s_sigma * sigma, s_a * a, tol


@settings(max_examples=300, deadline=None)
@given(_sigma_drift_tol())
def test_trees_and_paths_share_the_drift_condition(case):
    """A tree node and the paths of a constant-drift diffusion with the
    same sigma, a and tol: ``solve_structure`` flags the node exactly when
    ``mc.check_structure`` raises ArbitrageError.  Drifts whose kernel part
    lies within 0.1 % of the cut are left out: the node's stacked solve and
    the paths' one-matrix solve may round them apart."""
    sigma, a, tol = case
    c = np.einsum("ik,jk->ij", sigma, sigma)  # as mc forms it
    _, zeta = psd_pinv_apply(c, a)
    ratio = np.max(np.abs(zeta)) / (tol * max(1.0, np.max(np.abs(a))))
    assume(not 0.999 < ratio < 1.001)
    flagged = solve_structure(_chars_on_one_step(a, c), tol).status
    spec = mc.DiffusionSpec(drift=a, sigma=sigma, T=1.0, steps=1, paths=3,
                            x0=np.zeros(a.size))
    try:
        mc.check_structure(spec, np.zeros((3, a.size)), 0, tol)
        raised = False
    except ArbitrageError:
        raised = True
    assert (flagged == "ARBITRAGE") == raised
