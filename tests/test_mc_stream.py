"""The streaming Monte Carlo kernel against the full-panel reference.

``odx simulate`` runs ``mc.stream_deflated``; its outputs must be those of
``deflate_paths(simulate(spec))`` to the byte, and its memory must not
grow with the number of steps.
"""
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
from odx.tree import ModelError

D1 = {"odx_schema": 1, "d": 1, "m": 1, "T": 1.0,
      "drift": {"form": "const", "value": [0.05]},
      "sigma": {"form": "const", "value": [[0.2]]}}
D2_LINEAR = {"odx_schema": 1, "d": 2, "m": 2, "T": 1.0, "x0": [0.1, -0.2],
             "drift": {"form": "linear", "value": [0.04, 0.02],
                       "slope": [[-0.2, 0.05], [0.1, -0.3]]},
             "sigma": {"form": "const",
                       "value": [[0.2, 0.05], [0.03, 0.15]]}}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _spec(obj, paths, steps, seed):
    def coeff(form):
        if form["form"] == "linear":
            return mc.linear_fn(form["value"], form["slope"])
        return mc.const_fn(form["value"])

    return mc.DiffusionSpec(d=obj["d"], m=obj["m"], drift=coeff(obj["drift"]),
                            sigma=coeff(obj["sigma"]), T=obj["T"],
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
    return odx_io.dump_json(doc) + "\n"


# (spec, paths, steps, steps per chunk of normals or None for the default)
STREAM_CASES = [
    ("d1", 400, 5, None),
    ("d1", 300, 40, 7),
    ("d1", 150, 16, 16),
    ("d2-linear", 250, 11, None),
    ("d2-linear", 200, 37, 5),
    ("d2-linear", 120, 64, 1),
]


@pytest.mark.parametrize("name, paths, steps, chunk", STREAM_CASES)
def test_stream_matches_panel_bytes(tmp_path, monkeypatch, capsys,
                                    name, paths, steps, chunk):
    obj = {"d1": D1, "d2-linear": D2_LINEAR}[name]
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


def _per_path_rho(spec, t, x):
    """rho = c^+ a with one psd_pinv_apply call per path."""
    a = spec.drift(t, x)
    sig = np.broadcast_to(spec.sigma(t, x), x.shape[:-1] + (spec.d, spec.m))
    c = np.einsum("...ik,...jk->...ij", sig, sig)
    return np.array([psd_pinv_apply(ci, ai)[0] for ci, ai in zip(c, a)])


@st.composite
def _coefficients(draw):
    d = draw(st.integers(2, 3))
    m = draw(st.integers(1, 4))
    P = draw(st.integers(1, 12))
    values = st.one_of(st.just(0.0),
                       st.floats(-5.0, 5.0, allow_nan=False,
                                 allow_subnormal=False))
    sig = draw(arrays(np.float64, (P, d, m), elements=values))
    a = draw(arrays(np.float64, (P, d), elements=values))
    # rank-deficient c: a zero row, collinear rows, or c = 0
    kind = draw(st.sampled_from(["any", "zero_row", "collinear", "zero"]))
    if kind == "zero_row":
        sig[:, -1, :] = 0.0
    elif kind == "collinear":
        sig[:, 1, :] = 2.5 * sig[:, 0, :]
    elif kind == "zero":
        sig[:] = 0.0
    return d, m, sig, a


@settings(max_examples=150, deadline=None)
@given(_coefficients())
def test_batched_rho_equals_per_path_loop(coeffs):
    d, m, sig, a = coeffs
    spec = mc.DiffusionSpec(d=d, m=m, drift=lambda t, x: a,
                            sigma=lambda t, x: sig, T=1.0, steps=1, paths=1,
                            x0=np.zeros(d))
    x = np.zeros((a.shape[0], d))
    with np.errstate(all="ignore"):  # a subnormal c gives inf/NaN on both
        batched = mc.structural_rho(spec, 0.0, x)
        looped = _per_path_rho(spec, 0.0, x)
    assert batched.tobytes() == looped.tobytes()


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
    spec = mc.DiffusionSpec(d=1, m=1, drift=mc.linear_fn([0.0], [[1e300]]),
                            sigma=mc.const_fn([[0.2]]), T=1.0, steps=8,
                            paths=50, seed=0, x0=[0.0])
    with pytest.raises(ModelError, match="non-finite increment at step"):
        mc.simulate(spec)
