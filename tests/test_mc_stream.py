"""The streaming Monte Carlo kernel against the full-panel reference.

``odx simulate`` runs ``mc.stream_deflated``; its outputs must be those of
``deflate_paths(simulate(spec))`` to the byte, and its memory must not
grow with the number of steps.
"""
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from odx import io as odx_io
from odx import mc
from odx.cli import main
from odx.structure import psd_pinv_apply
from odx.tree import ArbitrageError, ModelError

D1 = {"odx_schema": 1, "d": 1, "m": 1, "T": 1.0,
      "drift": {"form": "const", "value": [0.05]},
      "sigma": {"form": "const", "value": [[0.2]]}}
D2_LINEAR = {"odx_schema": 1, "d": 2, "m": 2, "T": 1.0, "x0": [0.1, -0.2],
             "drift": {"form": "linear", "value": [0.04, 0.02],
                       "slope": [[-0.2, 0.05], [0.1, -0.3]]},
             "sigma": {"form": "const",
                       "value": [[0.2, 0.05], [0.03, 0.15]]}}
# one noise for two assets: c = sigma sigma^T is singular, and the drift
# 0.25 sigma lies in its range (a drift off the range is an arbitrage)
D2_M1 = {"odx_schema": 1, "d": 2, "m": 1, "T": 1.0,
         "drift": {"form": "const", "value": [0.05, 0.025]},
         "sigma": {"form": "const", "value": [[0.2], [0.1]]}}
# drift sigma (0.1, -0.1) and slope sigma [[-1, 0.5, 0], [0.2, -1, 0.5]]:
# a(x) stays in the range of the rank-2 c at every x
D3_M2_LINEAR = {"odx_schema": 1, "d": 3, "m": 2, "T": 1.0,
                "x0": [0.1, 0.0, -0.1],
                "drift": {"form": "linear", "value": [0.02, -0.01, 0.02],
                          "slope": [[-0.2, 0.1, 0.0], [-0.02, -0.125, 0.075],
                                    [-0.12, 0.15, -0.05]]},
                "sigma": {"form": "const",
                          "value": [[0.2, 0.0], [0.05, 0.15],
                                    [0.1, -0.1]]}}
SPECS = {"d1": D1, "d2-linear": D2_LINEAR, "d2-m1": D2_M1,
         "d3-m2-linear": D3_M2_LINEAR}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _spec(obj, paths, steps, seed):
    return mc.DiffusionSpec(drift=obj["drift"]["value"],
                            slope=obj["drift"].get("slope"),
                            sigma=obj["sigma"]["value"], T=obj["T"],
                            steps=steps, paths=paths, seed=seed,
                            x0=obj.get("x0", [0.0] * obj["d"]))


def _reference_outputs(obj, paths, steps, seed, csv_path):
    """simulate.json text and paths.csv from the full panels."""
    spec = _spec(obj, paths, steps, seed)
    ens = mc.deflate_paths(mc.simulate(spec))
    y_term = ens.Y_hat[ens.alive, -1]
    yx = ens.Y_hat[:, :, None] * ens.X
    rep = mc.martingale_test(ens.Y_hat[ens.alive])
    rep_yx = mc.martingale_test(yx[ens.alive, :, 0])
    doc = {
        "odx_schema": odx_io.SCHEMA_VERSION,
        "seed": seed, "paths": paths, "steps": steps,
        "abort_fraction": ens.abort_fraction,
        "mean_Y_terminal": float(y_term.mean()),
        "se_Y_terminal": float(y_term.std(ddof=1) / np.sqrt(y_term.size)),
        "martingale_test_Y": {"max_abs_t": rep["max_abs_t"],
                              "passed": rep["passed"]},
        "martingale_test_YX": {"max_abs_t": rep_yx["max_abs_t"],
                               "passed": rep_yx["passed"]},
    }
    np.savetxt(csv_path, ens.X[:100, :, 0], delimiter=",")
    sink = io.StringIO()
    odx_io.dump_json(doc, fh=sink)
    return sink.getvalue()


# (spec, paths, steps, steps per chunk of normals or None for the default)
STREAM_CASES = [
    ("d1", 400, 5, None),
    ("d1", 300, 40, 7),
    ("d1", 150, 16, 16),
    ("d2-linear", 250, 11, None),
    ("d2-linear", 200, 37, 5),
    ("d2-linear", 120, 64, 1),
    ("d2-m1", 220, 19, 4),
    ("d3-m2-linear", 180, 23, None),
    ("d3-m2-linear", 90, 30, 6),
]


@pytest.mark.parametrize("name, paths, steps, chunk", STREAM_CASES)
def test_stream_matches_panel_bytes(tmp_path, monkeypatch, capsys,
                                    name, paths, steps, chunk):
    obj = SPECS[name]
    if chunk is not None:
        monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES",
                            8 * paths * obj["m"] * chunk)
    spec_path = _write(tmp_path, "spec.json", obj)
    ref_csv = tmp_path / "ref.csv"
    ref_json = _reference_outputs(obj, paths, steps, 5, ref_csv)
    out = tmp_path / "out"
    assert main(["--seed", "5", "--out", str(out), "simulate", spec_path,
                 "--paths", str(paths), "--steps", str(steps)]) == 0
    assert capsys.readouterr().out == ref_json
    assert (out / "simulate.json").read_text() == ref_json
    assert (out / "paths.csv").read_bytes() == ref_csv.read_bytes()


@pytest.mark.parametrize("chunk", [1, 3, 7, 64])
def test_chunked_normals_equal_one_draw(monkeypatch, chunk):
    """Philox is counter-based: the normals drawn chunk by chunk along the
    step axis are the (steps, paths, m) panel drawn at once."""
    spec = _spec(D2_LINEAR, 30, 20, seed=9)
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", 8 * 30 * 2 * chunk)
    drawn = np.stack(list(mc._normals(spec)))
    panel = np.random.Generator(np.random.Philox(key=9)).standard_normal(
        (20, 30, 2))
    assert np.array_equal(drawn, panel)


def _per_path_rho(spec, x):
    """rho = c^+ a(x) with one psd_pinv_apply call per path."""
    c = np.einsum("ik,jk->ij", spec.sigma, spec.sigma)
    return np.array([psd_pinv_apply(c, a)[0] for a in spec.drift_at(x)])


@st.composite
def _coefficients(draw):
    # at d <= 3 a BLAS product may happen to round like the per-row one
    d = draw(st.integers(2, 6))
    m = draw(st.integers(1, 4))
    P = draw(st.integers(1, 40))
    values = st.one_of(st.just(0.0),
                       st.floats(-5.0, 5.0, allow_nan=False,
                                 allow_subnormal=False))
    sig = draw(arrays(np.float64, (d, m), elements=values))
    # a(x) = drift + slope x differs from path to path
    drift = draw(arrays(np.float64, (d,), elements=values))
    slope = draw(arrays(np.float64, (d, d), elements=values))
    x = draw(arrays(np.float64, (P, d), elements=values))
    # rank-deficient c: a zero row, collinear rows, or c = 0
    kind = draw(st.sampled_from(["any", "zero_row", "collinear", "zero"]))
    if kind == "zero_row":
        sig[-1, :] = 0.0
    elif kind == "collinear":
        sig[1, :] = 2.5 * sig[0, :]
    elif kind == "zero":
        sig[:] = 0.0
    return sig, drift, slope, x


@settings(max_examples=150, deadline=None)
@given(_coefficients())
def test_batched_rho_equals_per_path_loop(coeffs):
    sig, drift, slope, x = coeffs
    spec = mc.DiffusionSpec(drift=drift, slope=slope, sigma=sig, T=1.0,
                            steps=1, paths=1, x0=np.zeros(sig.shape[0]))
    with np.errstate(all="ignore"):  # a subnormal c gives inf/NaN on both
        # the drifts are arbitrary, so the arbitrage check is off
        batched = mc.check_structure(spec, x, 0, tol=np.inf)
        looped = _per_path_rho(spec, x)
    assert batched.tobytes() == looped.tobytes()


@st.composite
def _drifts_in_range(draw):
    """sigma (d, m) of quarters, often rank-deficient, with drift sigma b,
    slope sigma B and states x: a(x) = sigma (b + B x) is in range(c)."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    P = draw(st.integers(1, 12))
    quarters = st.integers(-12, 12).map(lambda i: i / 4)
    sig = draw(arrays(np.float64, (d, m), elements=quarters))
    values = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    b = draw(arrays(np.float64, (m,), elements=values))
    B = draw(arrays(np.float64, (m, d), elements=values))
    x = draw(arrays(np.float64, (P, d), elements=values))
    linear = draw(st.booleans())
    return sig, sig @ b, sig @ B if linear else None, x


@settings(max_examples=200, deadline=None)
@given(_drifts_in_range())
def test_drift_in_range_of_c_passes_the_check(coeffs):
    sig, drift, slope, x = coeffs
    spec = mc.DiffusionSpec(drift=drift, slope=slope, sigma=sig, T=1.0,
                            steps=1, paths=1, x0=np.zeros(sig.shape[0]))
    rho = mc.check_structure(spec, x, 0)
    assert rho.tobytes() == _per_path_rho(spec, x).tobytes()


def test_linear_drift_leaving_range_of_c_is_caught_at_its_step():
    # a(0) = 0 is in range(c), but the noise moves x along sigma = (0.2,
    # 0.1) and the slope maps that direction off it: step 1 is arbitrage
    spec = mc.DiffusionSpec(drift=[0.0, 0.0], slope=[[0.0, 0.0], [1.0, 0.0]],
                            sigma=[[0.2], [0.1]], T=1.0, steps=8, paths=50,
                            seed=0, x0=[0.0, 0.0])
    with pytest.raises(ArbitrageError, match="at step 1, path 0: zeta = "):
        mc.stream_deflated(spec, mc.bucket_edges(spec.steps))


@pytest.mark.parametrize("name", SPECS)
def test_drift_is_solved_once_per_run_or_once_per_step(monkeypatch, name):
    """A constant drift is solved once per run, a linear one once at each
    of the steps 0..n-1."""
    count = []

    def counting(C, v):
        count.append(1)
        return psd_pinv_apply(C, v)

    monkeypatch.setattr(mc, "psd_pinv_apply", counting)
    spec = _spec(SPECS[name], paths=50, steps=9, seed=1)
    mc.stream_deflated(spec, mc.bucket_edges(spec.steps))
    assert len(count) == (1 if spec.slope is None else spec.steps)


def _traced_peak(spec_path, paths, steps, capsys):
    tracemalloc.start()
    try:
        assert main(["simulate", spec_path, "--paths", str(paths),
                     "--steps", str(steps)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return peak


def test_stream_memory_does_not_grow_with_steps(tmp_path, capsys):
    """A full (paths, steps) panel grows 8x from 64 to 512 steps; the
    streaming run holds a chunk of normals and the bucket-edge columns."""
    paths = 10_000
    assert mc.NORMAL_CHUNK_BYTES // (8 * paths) < 64  # chunks < 64 steps
    spec_path = _write(tmp_path, "spec.json", D1)
    short = _traced_peak(spec_path, paths, 64, capsys)
    long = _traced_peak(spec_path, paths, 512, capsys)
    assert long < 2 * short, (short, long)


def test_non_finite_increment_is_model_error():
    spec = mc.DiffusionSpec(drift=[0.0], slope=[[1e300]], sigma=[[0.2]],
                            T=1.0, steps=8, paths=50, seed=0, x0=[0.0])
    with pytest.raises(ModelError, match="non-finite increment at step"):
        mc.simulate(spec)
