"""End-to-end benchmark of the ``odx`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload binomial-american --seed 1 \
        --seconds 10 --trace 0

Untraced (``--trace 0``): every command is a fresh ``odx`` process, started
one at a time, as users run it.  Rounds of the workload's commands repeat
until ``--seconds`` have passed; the last round is always completed, so each
run attempts whole rounds.  The rates are over the wall time of all commands
attempted, so a faster program does more rounds in the same run length.

Traced (``--trace 1``): one untraced round for the ``cli.*`` medians, then
in-process passes without, with and again without the spans of
``tracing.Tracer``; the traced pass against the mean of the other two is the
tracing overhead.

Every output is checked against ``oracles``; the last line printed is the
JSON result.
"""
from __future__ import annotations

import os

# single-threaded BLAS/OpenMP pools in every child and, set before numpy is
# first imported, in the harness's own in-process passes
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_ENV)

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_STARTS = 7
REF_ITERATIONS = 3_000_000
REF_NOMINAL_S = 0.3
COMMAND_TIMEOUT_S = 150
ODX_MAIN = "import sys; from odx.cli import main; sys.exit(main())"
# A fresh interpreter imports odx.cli and loads the workload's inputs
# through odx.io, as every command does before it computes.
SETUP_PROBE = """
import json, sys
import odx.cli
from odx import io
def load(path):
    with open(path) as f:
        return json.load(f)
models = {}
for kind, *paths in json.loads(sys.argv[1]):
    if kind == "model":
        models[paths[0]] = io.load_model(load(paths[0]))
    elif kind == "value":
        io.adapted_from_json(models[paths[0]][0], load(paths[1]), "V")
    elif kind == "claim":
        io.load_claim(load(paths[1]), models[paths[0]][1])
    else:
        load(paths[0])
"""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


class HostClock:
    """Times a fixed pure-Python loop before every command of a run.

    The shared host changes speed for minutes at a time: between two sets
    of runs twenty minutes apart the binomial-american rate as timed rose
    60 % while the loop's time fell 32 %, and their product moved 7 %.  So the
    end-to-end times are reported at the host speed on which the loop takes
    REF_NOMINAL_S (``nominal``); the loop's own mean is host.ref_s.
    """

    def __init__(self):
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    @property
    def ref_s(self):
        return statistics.mean(self.samples)

    def nominal(self, seconds):
        """A time measured in this run, rescaled to the nominal host."""
        return seconds * REF_NOMINAL_S / self.ref_s


def run_child(argv, stdout):
    """Run one process to its end: (wall seconds, exit code, stderr bytes).

    The child is reaped by a blocking wait, because subprocess's wait with a
    timeout polls in sleeps of up to 50 ms and rounds every time to that
    grain; a watchdog kills a child that outlives COMMAND_TIMEOUT_S.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE,
                            env=child_env())
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    if wall >= COMMAND_TIMEOUT_S:
        raise TimeoutError(f"a child ran longer than {COMMAND_TIMEOUT_S} s")
    return wall, proc.returncode, err


class SetupProbe:
    """Fresh interpreters that import odx.cli and load the workload's inputs
    through odx.io.  One starts before each command until SETUP_STARTS have
    run: the host keeps one speed for seconds at a time, so starts made back
    to back would all see the same speed."""

    def __init__(self, workload):
        self.argv = [sys.executable, "-c", SETUP_PROBE,
                     json.dumps(workload.inputs)]
        self.times = []

    def __call__(self):
        if len(self.times) < SETUP_STARTS:
            wall, code, err = run_child(self.argv, subprocess.DEVNULL)
            if code != 0:
                raise RuntimeError("set-up probe failed: "
                                   + err.decode(errors="replace")[-2000:])
            self.times.append(wall)

    def median(self):
        while len(self.times) < SETUP_STARTS:
            self()
        return statistics.median(self.times)


class Verifier:
    """Checks each command's output; an output byte-identical to one that
    already passed its check is not parsed again."""

    def __init__(self):
        self.passed = {}
        self.error = None

    def __call__(self, index, command, path):
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.passed.get(index) == digest:
            return
        try:
            command.check(data.decode())
        except (oracles.CheckError, ValueError, KeyError, TypeError) as exc:
            self.error = f"{' '.join(command.argv)}: {type(exc).__name__}: {exc}"
        else:
            self.passed[index] = digest


def run_round(workload, work, verify, before_command=lambda: None):
    """Run every command once as a fresh process: (command, wall, ok)."""
    records = []
    for index, command in enumerate(workload.commands):
        before_command()
        out = work / f"out{index}.json"
        with open(out, "wb") as fh:
            wall, code, err = run_child(
                [sys.executable, "-c", ODX_MAIN, *command.argv], fh)
        if code == 0:
            verify(index, command, out)
        else:
            lines = err.decode(errors="replace").strip().splitlines()
            print(f"failed (exit {code}): odx {' '.join(command.argv)}"
                  f": {lines[-1] if lines else ''}", file=sys.stderr)
        records.append((command, wall, code == 0))
    return records


def run_in_process(workload, work, tracer=None):
    """One pass of the commands inside this process: (seconds, output bytes).
    A command that fails here failed in the untraced round too."""
    from odx.cli import main

    elapsed, out_bytes = 0.0, 0
    for index, command in enumerate(workload.commands):
        out = work / f"inproc{index}.json"
        with open(out, "w") as fh, contextlib.redirect_stdout(fh), \
                (tracer or contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                main(list(command.argv))
            except Exception:  # the command's own failure, as a traceback
                pass
            elapsed += time.perf_counter() - t0
        out_bytes += out.stat().st_size
    return elapsed, out_bytes


def untraced(workload, work, seconds, clock):
    setup = SetupProbe(workload)

    def before_command():
        clock.sample()
        setup()

    verify = Verifier()
    records, start = [], time.perf_counter()
    while verify.error is None:
        records += run_round(workload, work, verify, before_command)
        if time.perf_counter() - start >= seconds:
            break
    setup_s = setup.median()
    clock.sample()
    wall = sum(r[1] for r in records)
    done = sum(r[0].work for r in records if r[2])
    name = "nodes_per_s" if workload.commands[0].nodes else "path_steps_per_s"
    print(f"{len(records) // len(workload.commands)} rounds of "
          f"{len(workload.commands)} commands in {wall:.2f} s")
    print(f"as timed: {name} {done / wall:.6g}, setup_s {setup_s:.6g}; "
          f"host.ref_s {clock.ref_s:.6f} s over {len(clock.samples)} samples")
    return records, {
        "setup_s": (clock.nominal(setup_s), "s"),
        "work_per_s": (done / clock.nominal(wall), "items/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                        / 1024.0, "MB"),
    }, verify.error


def traced(workload, work, name, seed):
    verify = Verifier()
    records = run_round(workload, work, verify)
    metrics = {}
    for sub in ("analyze", "deflate", "decompose", "superhedge", "simulate"):
        walls = [w for c, w, ok in records if ok and c.subcommand == sub]
        metrics[f"cli.{sub}_s"] = (statistics.median(walls) if walls else 0.0, "s")

    sys.path.insert(0, str(SRC))
    # plain passes before and after the traced one, so that warm-up and
    # drift do not land on one side of the overhead
    before_s, _ = run_in_process(workload, work)
    tracer = tracing.Tracer()
    traced_s, out_bytes = run_in_process(workload, work, tracer)
    plain_s = (before_s + run_in_process(workload, work)[0]) / 2
    for index, command in enumerate(workload.commands):
        if records[index][2]:
            verify(index, command, work / f"inproc{index}.json")

    nonleaf = sum(c.nonleaf for c in workload.commands)
    for metric, value in tracer.report(nonleaf).items():
        unit = ("s" if metric.endswith("_s") else
                "calls/node" if metric.endswith("_per_node") else "count")
        metrics[metric] = (value, unit)
    metrics["io.output_mb"] = (out_bytes / 2**20, "MB")
    overhead = 100.0 * (traced_s / plain_s - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"in-process pass {plain_s:.3f} s untraced, {traced_s:.3f} s traced "
          f"({overhead:+.1f} %), {len(tracer.spans)} spans")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w") as f:
        json.dump(tracer.dump(), f)
    return records, metrics, verify.error


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so run_child kills the command it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "odx" / "cli.py").is_file():
        print(f"odx sources not found under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    clock = HostClock()
    try:
        workload = workloads.build(args.workload, args.seed, work)
        print(f"{args.workload} seed {args.seed}: {workload.summary}")
        clock.sample()
        if args.trace:
            records, metrics, error = traced(workload, work, args.workload,
                                             args.seed)
            clock.sample()
            metrics["host.ref_s"] = (clock.ref_s, "s")
        else:
            records, metrics, error = untraced(workload, work, args.seconds,
                                               clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if error:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    failed = sum(not r[2] for r in records)
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(json.dumps({
        "correct": error is None,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
