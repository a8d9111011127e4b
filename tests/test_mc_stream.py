"""The streaming Monte Carlo kernel against the full-panel reference.

``odx simulate`` runs ``mc.stream_deflated``; its outputs must be those of
the full panel ``deflate_paths(simulate(spec))`` of ``support`` to the
byte, and its memory must be a fixed number of (paths,) arrays, whatever
the number of steps.
"""
import ctypes
import io
import json
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures.thread import BrokenThreadPool
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from odx import io as odx_io
from odx import mc
from odx.cli import main
from odx.structure import solve_factor
from odx.tree import ArbitrageError, ModelError, _sum_products
from support import deflate_paths, martingale_test, simulate

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
# rho = 17: at 20,000 paths x 256 steps and seed 1, one path's wealth would
# go negative (abort fraction 5e-5); at the few paths and steps of the SPECS
# tests it aborts past ABORT_FRACTION_LIMIT
ABORTING = {"odx_schema": 1, "d": 1, "m": 1, "T": 1.0,
            "drift": {"form": "const", "value": [0.68]},
            "sigma": {"form": "const", "value": [[0.2]]}}


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


def _count_passes(monkeypatch):
    """A list that grows by one each time a run of the steps starts."""
    passes = []
    euler_states = mc._euler_states

    def counting(spec):
        passes.append(spec)
        return euler_states(spec)

    monkeypatch.setattr(mc, "_euler_states", counting)
    return passes


def _reference_outputs(obj, paths, steps, seed, csv_path):
    """simulate.json text and paths.csv from the full panels."""
    spec = _spec(obj, paths, steps, seed)
    ens = deflate_paths(simulate(spec))
    y_term = ens.Y_hat[ens.alive, -1]
    yx = ens.Y_hat[:, :, None] * ens.X
    rep = martingale_test(ens.Y_hat[ens.alive])
    rep_yx = martingale_test(yx[ens.alive, :, 0])
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
    assert json.loads(ref_json)["abort_fraction"] == 0.0
    passes = _count_passes(monkeypatch)
    out = tmp_path / "out"
    assert main(["--seed", "5", "--out", str(out), "simulate", spec_path,
                 "--paths", str(paths), "--steps", str(steps)]) == 0
    assert capsys.readouterr().out == ref_json
    assert (out / "simulate.json").read_text() == ref_json
    assert (out / "paths.csv").read_bytes() == ref_csv.read_bytes()
    assert len(passes) == 1  # no path aborted: one run of the steps


def test_aborting_run_matches_panel_bytes(tmp_path, monkeypatch, capsys):
    """The statistics are over the paths alive at the end, so a run in
    which a path aborts takes a second pass; its outputs, with and without
    --out, are still those of the full panel."""
    spec_path = _write(tmp_path, "abort.json", ABORTING)
    ref_csv = tmp_path / "ref.csv"
    ref_json = _reference_outputs(ABORTING, 20_000, 256, 1, ref_csv)
    assert json.loads(ref_json)["abort_fraction"] == pytest.approx(5e-5)
    argv = ["simulate", spec_path, "--paths", "20000", "--steps", "256"]
    passes = _count_passes(monkeypatch)
    assert main(["--seed", "1", *argv]) == 0
    assert capsys.readouterr().out == ref_json
    assert len(passes) == 2
    out = tmp_path / "out"
    assert main(["--seed", "1", "--out", str(out), *argv]) == 0
    assert capsys.readouterr().out == ref_json
    assert (out / "simulate.json").read_text() == ref_json
    assert (out / "paths.csv").read_bytes() == ref_csv.read_bytes()
    assert len(passes) == 4


def _same_report(got, want):
    assert got["t_stats"].tobytes() == want["t_stats"].tobytes()
    assert (got["max_abs_t"], got["passed"]) == (want["max_abs_t"],
                                                 want["passed"])


@pytest.mark.parametrize("steps", [1, 5, 16, 40])
def test_stream_keeps_the_bucket_edge_columns(steps):
    """What stream_deflated keeps of the bucket-edge columns, the two
    martingale_test reports and Y_hat at the last step over the alive
    paths, is that of the full panel to the bit."""
    for name, obj in SPECS.items():
        spec = _spec(obj, paths=30, steps=steps, seed=2)
        rec = mc.stream_deflated(spec)
        ens = deflate_paths(simulate(spec))
        assert rec.alive.tobytes() == ens.alive.tobytes(), name
        _same_report(rec.test_Y, martingale_test(ens.Y_hat[ens.alive]))
        YX = ens.Y_hat * ens.X[..., 0]
        _same_report(rec.test_YX, martingale_test(YX[ens.alive]))
        assert (rec.Y_terminal.tobytes()
                == ens.Y_hat[ens.alive, -1].tobytes()), name


@pytest.mark.parametrize("chunk", [1, 3, 7, 64])
def test_chunked_normals_equal_one_draw(monkeypatch, chunk):
    """The chunks are consecutive fills of one sequential generator: the
    normals drawn chunk by chunk along the step axis are the (steps,
    paths, m) panel drawn at once."""
    spec = _spec(D2_LINEAR, 30, 20, seed=9)
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", 8 * 30 * 2 * chunk)
    drawn = np.stack(list(mc._normals(spec)))
    panel = np.random.Generator(np.random.SFC64(9)).standard_normal(
        (20, 30, 2))
    assert np.array_equal(drawn, panel)


def _per_path_rho(spec, x):
    """rho = c^+ a(x) one path at a time, twice: the spec's map a -> c^+ a
    applied to the path's drift alone, and a solve on the factor sigma^T
    of the path's own drift."""
    rho_map, _ = spec.drift_maps
    B = spec.sigma.T[None]
    drifts = spec.drift_at(x)
    mapped = np.array([_sum_products(a, rho_map.T) for a in drifts])
    solved = np.array([solve_factor(B, a[None])[0][0] for a in drifts])
    return mapped, solved


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
        mapped, _ = _per_path_rho(spec, x)
    assert batched.tobytes() == mapped.tobytes()


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
    mapped, solved = _per_path_rho(spec, x)
    assert rho.tobytes() == mapped.tobytes()
    # the maps compose to c^+ a(x): within rounding of the largest |rho|
    # of the path, solved on the path's own drift
    scale = np.max(np.abs(solved), axis=1, keepdims=True)
    assert np.all(np.abs(rho - solved) <= 1e-12 * scale)


def test_linear_drift_leaving_range_of_c_is_caught_at_its_step():
    # a(0) = 0 is in range(c), but the noise moves x along sigma = (0.2,
    # 0.1) and the slope maps that direction off it: step 1 is arbitrage
    spec = mc.DiffusionSpec(drift=[0.0, 0.0], slope=[[0.0, 0.0], [1.0, 0.0]],
                            sigma=[[0.2], [0.1]], T=1.0, steps=8, paths=50,
                            seed=0, x0=[0.0, 0.0])
    with pytest.raises(ArbitrageError, match="at step 1, path 0: zeta = "):
        mc.stream_deflated(spec)


@pytest.mark.parametrize("name", SPECS)
def test_drift_is_solved_once_per_run_or_once_per_step(monkeypatch, name):
    """The maps a -> c^+ a and a -> zeta are solved once per run, for a
    constant drift and a linear one alike."""
    count = []

    def counting(B, a):
        count.append(1)
        return solve_factor(B, a)

    monkeypatch.setattr(mc, "solve_factor", counting)
    spec = _spec(SPECS[name], paths=50, steps=9, seed=1)
    mc.stream_deflated(spec)
    assert len(count) == 1


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
    streaming run holds a chunk of normals and a few (paths,) arrays."""
    paths = 10_000
    assert mc.NORMAL_CHUNK_BYTES // (8 * paths) < 64  # chunks < 64 steps
    spec_path = _write(tmp_path, "spec.json", D1)
    short = _traced_peak(spec_path, paths, 64, capsys)
    long = _traced_peak(spec_path, paths, 512, capsys)
    assert long < 2 * short, (short, long)


@pytest.mark.parametrize("steps", [16, 256])
def test_stream_holds_a_fixed_number_of_path_arrays(tmp_path, monkeypatch,
                                                    capsys, steps):
    """With one step of normals per chunk, a run holds a few (paths,)
    arrays of the step and the values at one bucket edge; a column per
    edge of Y_hat and Y_hat * X_0 would take 34 more."""
    paths = 20_000
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", ONE_STEP_CHUNKS)
    spec_path = _write(tmp_path, "spec.json", D1)
    _traced_peak(spec_path, paths, steps, capsys)  # numpy's first-use state
    arrays = _traced_peak(spec_path, paths, steps, capsys) / (8 * paths)
    assert arrays < 20, arrays


def test_non_finite_increment_is_model_error():
    spec = mc.DiffusionSpec(drift=[0.0], slope=[[1e300]], sigma=[[0.2]],
                            T=1.0, steps=8, paths=50, seed=0, x0=[0.0])
    with pytest.raises(ModelError, match="non-finite increment at step"):
        simulate(spec)


# The normals of a run are drawn by a worker thread one chunk ahead of the
# steps.  Below, a budget under one step gives one step per chunk, so the
# worker is still drawing, or waiting to, when a run ends early.
ONE_STEP_CHUNKS = 16


class _FillError(Exception):
    pass


def _generator_stub(fail_at=None, delay=0.0):
    """A stand-in for np.random.Generator whose standard_normal counts its
    fills in ``Stub.fills``, sleeps ``delay`` seconds and raises on fill
    number ``fail_at``."""
    real = np.random.Generator

    class Stub:
        fills = 0

        def __init__(self, bit_generator):
            self.rng = real(bit_generator)

        def standard_normal(self, size=None, out=None):
            Stub.fills += 1
            time.sleep(delay)
            if Stub.fills == fail_at:
                raise _FillError(f"fill {Stub.fills}")
            return self.rng.standard_normal(size, out=out)

    return Stub


def _within(seconds, fn):
    """fn() on a daemon thread, failing rather than hanging if it has not
    returned after ``seconds``: its value, or its exception raised here."""
    outcome = []

    def target():
        try:
            outcome.append((fn(), None))
        except BaseException as exc:
            outcome.append((None, exc))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"still running after {seconds} s"
    value, exc = outcome[0]
    if exc is not None:
        raise exc
    return value


def _full_stream():
    spec = _spec(D1, paths=200, steps=40, seed=3)
    return mc.stream_deflated(spec, head=5)


def _non_finite_increment():
    spec = mc.DiffusionSpec(drift=[0.0], slope=[[1e300]], sigma=[[0.2]],
                            T=1.0, steps=40, paths=50, seed=0, x0=[0.0])
    with pytest.raises(ModelError,
                       match="non-finite increment at step 2,") as caught:
        simulate(spec)
    return caught


def _arbitrage_mid_run():
    spec = mc.DiffusionSpec(drift=[0.0, 0.0], slope=[[0.0, 0.0], [1.0, 0.0]],
                            sigma=[[0.2], [0.1]], T=1.0, steps=40, paths=50,
                            seed=0, x0=[0.0, 0.0])
    with pytest.raises(ArbitrageError, match="at step 1, path 0") as caught:
        mc.stream_deflated(spec)
    return caught


def _closed_after_one_step():
    spec = _spec(D2_LINEAR, paths=60, steps=40, seed=2)
    states = mc._euler_states(spec)
    next(states), next(states)
    assert any(t.name.startswith("odx.mc normals")
               for t in threading.enumerate())
    time.sleep(0.1)  # the worker fills the next chunk and waits to be asked
    states.close()
    return states


@pytest.mark.parametrize("run", [_full_stream, _non_finite_increment,
                                 _arbitrage_mid_run, _closed_after_one_step])
def test_no_thread_outlives_a_run(monkeypatch, run):
    """The worker is stopped and joined however the run ends, not when the
    run's frames are freed: the exception, and with it those frames, is
    still referenced here."""
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", ONE_STEP_CHUNKS)
    before = threading.enumerate()
    kept = _within(30, run)
    assert threading.enumerate() == before, kept


def test_worker_exception_is_raised_in_the_consumer(monkeypatch):
    spec = _spec(D1, paths=100, steps=12, seed=4)
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", ONE_STEP_CHUNKS)
    monkeypatch.setattr(np.random, "Generator", _generator_stub(fail_at=2))
    before = threading.enumerate()
    with pytest.raises(_FillError, match="^fill 2$") as caught:
        _within(30, lambda: mc.stream_deflated(spec))
    assert threading.enumerate() == before, caught


def test_failing_thread_start_is_raised_in_the_consumer(monkeypatch):
    """A pool thread whose move off its creator's CPU fails draws nothing:
    the run ends with an exception here, and leaves no thread behind."""
    spec = _spec(D1, paths=100, steps=12, seed=4)
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", ONE_STEP_CHUNKS)

    def fail():
        raise _FillError("no move")

    monkeypatch.setattr(mc, "_leave_creator_cpu", fail)
    before = threading.enumerate()
    with pytest.raises(BrokenThreadPool) as caught:
        _within(30, lambda: mc.stream_deflated(spec))
    assert threading.enumerate() == before, caught


def test_worker_draws_one_chunk_ahead(monkeypatch):
    """While the consumer holds the first chunk the worker fills the
    second, and no more."""
    spec = _spec(D1, paths=50, steps=6, seed=2)
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", ONE_STEP_CHUNKS)
    stub = _generator_stub()
    monkeypatch.setattr(np.random, "Generator", stub)
    with closing(mc._normals(spec)) as normals:
        next(normals)
        deadline = time.monotonic() + 30
        while stub.fills < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)
        assert stub.fills == 2


@pytest.mark.parametrize("slow", ["consumer", "producer"])
def test_normals_are_one_draw_whichever_side_is_slow(monkeypatch, slow):
    """The worker may run ahead of the steps or fall behind them; the
    normals are the (steps, paths, m) panel drawn at once either way."""
    spec = _spec(D2_LINEAR, 30, 20, seed=9)
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", 16 * 30 * 2 * 3)
    if slow == "producer":
        monkeypatch.setattr(np.random, "Generator",
                            _generator_stub(delay=0.01))
    drawn = []
    for xi in mc._normals(spec):
        if slow == "consumer":
            time.sleep(0.005)
        drawn.append(xi)
    panel = np.random.Generator(np.random.SFC64(9)).standard_normal(
        (20, 30, 2))
    assert np.stack(drawn).tobytes() == panel.tobytes()


def test_normals_under_a_short_switch_interval(monkeypatch):
    """Four runs at once, eight threads on the host's cores, switching
    every microsecond: each run's normals are still its own panel."""
    specs = [_spec(D2_LINEAR, 40, 24, seed=seed) for seed in range(4)]
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", ONE_STEP_CHUNKS)
    drawn = {}

    def run(spec):
        drawn[spec.seed] = np.stack(list(mc._normals(spec)))

    runners = [threading.Thread(target=run, args=(spec,)) for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners)
    for spec in specs:
        panel = np.random.Generator(np.random.SFC64(spec.seed))
        assert drawn[spec.seed].tobytes() == panel.standard_normal(
            (24, 40, 2)).tobytes()


def test_normals_in_flight_fit_the_budget(monkeypatch):
    """The chunk in use and the one drawn ahead fit NORMAL_CHUNK_BYTES: a
    chunk is allocated only once the one before it is taken and its last
    row dropped."""
    spec = _spec(D1, paths=1000, steps=128, seed=6)
    step_bytes = 8 * spec.paths
    monkeypatch.setattr(mc, "NORMAL_CHUNK_BYTES", 32 * step_bytes)
    peaks = []
    for _ in range(2):  # the first run also allocates numpy's first-use state
        tracemalloc.start()
        try:
            for x in mc._euler_states(spec):
                del x
            peaks.append(tracemalloc.get_traced_memory()[1] / step_bytes)
        finally:
            tracemalloc.stop()
    # two chunks of 16 steps and a few (paths, 1) arrays of the step; a
    # third chunk, allocated while the one before is still held, takes 16
    # more
    assert peaks[1] < 32 + 12, peaks


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="Linux")
def test_worker_leaves_its_creators_cpu_and_keeps_every_cpu():
    """A new thread starts on its creator's CPU; the worker moves to
    another one it may use, if any, and is left free to run on all."""
    seen = {}

    def probe():
        cpu = ctypes.CDLL(None).sched_getcpu
        seen["allowed"], seen["start"] = os.sched_getaffinity(0), cpu()
        mc._leave_creator_cpu()
        seen["after"], seen["end"] = os.sched_getaffinity(0), cpu()

    runner = threading.Thread(target=probe)
    runner.start()
    runner.join(30)
    assert not runner.is_alive()
    assert seen["after"] == seen["allowed"]
    assert (seen["end"] != seen["start"]) == (len(seen["allowed"]) > 1)
