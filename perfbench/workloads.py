"""Seeded inputs and command lists of the benchmark workloads.

Every workload writes its input files into a work directory and returns the
``odx`` commands one round runs, each with the amount of work it does and the
check its output must pass.  Inputs are generated here with numpy, never by
``odx`` itself, so a change to the program cannot change what it is given.
The one exception is the stored trinomial model of ``trinomial_fault.npz``
(see ``make_trinomial.py``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from oracles import Tree, node_map, path_sum

HERE = Path(__file__).resolve().parent

# 12 periods: a run of 15 s then holds two or three rounds of the three
# commands (5-8 s each as fresh processes on a 2-vCPU host).  At 13 periods
# a round took 14-20 s, so most runs timed a single round and their spread
# across seeds reached 26 %; a 14-period round took 35 s.
BINOMIAL_PERIODS = 12
PUT_STRIKE = 1.0
EXTRAS = 8

WIDE_TREES = 3
# The shapes come from this fixed generator, so that every seed runs the
# same node counts and branching mix; the workload seed draws the values.
WIDE_SHAPE_SEED = 20150117
WIDE_HORIZON = 4
WIDE_BRANCHES = (2, 10)
WIDE_NODES = (1700, 2500)
WIDE_DIM = 3
WIDE_VOL = 0.1

TRINOMIAL_FILE = HERE / "trinomial_fault.npz"
TRINOMIAL_ODX_SEED = 1

# The simulate key stays at 0, the key of acceptance criterion 9, whatever
# the workload seed: the checks of simulate are statistical (3 standard
# errors, |t| <= 4 per bucket), so some keys fail a correct program (key 26
# of keys 0-29 puts diffusion-2d 3.04 standard errors off).  The run time
# does not depend on the key.
SIMULATE_ODX_SEED = 0
DIFFUSION_1D = {"odx_schema": 1, "d": 1, "m": 1, "T": 1.0,
                "drift": {"form": "const", "value": [0.05]},
                "sigma": {"form": "const", "value": [[0.2]]}}
DIFFUSION_2D = {"odx_schema": 1, "d": 2, "m": 2, "T": 1.0,
                "drift": {"form": "linear", "value": [0.04, 0.02],
                          "slope": [[-0.2, 0.05], [0.1, -0.3]]},
                "sigma": {"form": "const",
                          "value": [[0.2, 0.05], [0.03, 0.15]]}}


@dataclass(frozen=True)
class Command:
    """One ``odx`` invocation: its arguments, the work it does when it
    completes, and the check of its standard output."""

    argv: tuple
    check: Callable[[str], None]  # raises oracles.CheckError
    nodes: int = 0        # tree nodes of the model it reads
    nonleaf: int = 0
    path_steps: int = 0   # paths x steps it simulates

    @property
    def subcommand(self):
        return next(a for a in self.argv
                    if a in ("analyze", "deflate", "decompose", "superhedge",
                             "simulate"))

    @property
    def work(self):
        return self.nodes + self.path_steps


@dataclass(frozen=True)
class Workload:
    commands: tuple
    inputs: tuple         # what the set-up probe loads, see run.SETUP_PROBE
    summary: str


def _write(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return str(path)


def _write_model(path, tree, X):
    return _write(path, {"odx_schema": 1, "tree": tree.to_json(),
                         "X": node_map(X)})


def _tree_commands(seed, model, tree, X, V):
    """``deflate --extras 8`` and ``decompose --route both`` on one tree."""
    size = dict(nodes=tree.n_nodes, nonleaf=tree.nonleaf.size)
    return (
        Command(("--seed", str(seed), "deflate", model, "--extras", str(EXTRAS)),
                check=partial(oracles.check_deflate, tree, X), **size),
        Command(("--seed", str(seed), "decompose", model, V[0],
                 "--route", "both"),
                check=partial(oracles.check_decompose, tree, X, V[1]), **size),
    )


# ---------------------------------------------------------------------------
# binomial-american
# ---------------------------------------------------------------------------

def binomial_market(rng, periods):
    """Complete binary tree; child 2i+1 moves X up, child 2i+2 moves it down."""
    n = 2 ** (periods + 1) - 1
    inner = 2 ** periods - 1
    parent = np.concatenate([[-1], (np.arange(1, n) - 1) // 2])
    p_up = rng.uniform(0.3, 0.7, inner)
    p = np.ones(n)
    p[1::2], p[2::2] = p_up, 1.0 - p_up
    dx = np.zeros(n)
    dx[1::2] = rng.uniform(0.01, 0.08, inner)
    dx[2::2] = -rng.uniform(0.01, 0.08, inner)
    tree = Tree(parent, p)
    return tree, path_sum(tree, dx)[:, None]


def binomial_american(seed, work):
    tree, X = binomial_market(np.random.default_rng([seed, 0]), BINOMIAL_PERIODS)
    payoff = np.maximum(PUT_STRIKE - oracles.asset_prices(tree, X)[:, 0], 0.0)
    envelope = oracles.binary_american_envelope(tree, X, payoff)
    model = _write_model(work / "binomial.json", tree, X)
    claim = _write(work / "put.json", {"odx_schema": 1, "kind": "american",
                                       "formula": "put", "strike": PUT_STRIKE})
    size = dict(nodes=tree.n_nodes, nonleaf=tree.nonleaf.size)
    commands = (
        Command(("analyze", model),
                check=partial(oracles.check_analyze, tree, X), **size),
        Command(("--seed", str(seed), "deflate", model, "--extras", str(EXTRAS)),
                check=partial(oracles.check_deflate, tree, X), **size),
        Command(("superhedge", model, claim),
                check=partial(oracles.check_superhedge, tree, X, envelope), **size),
    )
    return Workload(commands, (("model", model), ("claim", model, claim)),
                    f"binary tree, {BINOMIAL_PERIODS} periods, "
                    f"{tree.n_nodes} nodes, American put K={PUT_STRIKE:g}")


# ---------------------------------------------------------------------------
# multiasset-tree
# ---------------------------------------------------------------------------

def wide_tree(rng):
    """Random breadth-first tree of WIDE_HORIZON periods with WIDE_BRANCHES
    children per node, redrawn until its size is inside WIDE_NODES."""
    lo, hi = WIDE_BRANCHES
    while True:
        parent, frontier = [-1], [0]
        for _ in range(WIDE_HORIZON):
            nxt = []
            for node in frontier:
                k = int(rng.integers(lo, hi + 1))
                nxt.extend(range(len(parent), len(parent) + k))
                parent.extend([node] * k)
            frontier = nxt
        if WIDE_NODES[0] <= len(parent) <= WIDE_NODES[1]:
            break
    return np.asarray(parent)


def group_sum(tree, values):
    """Plain (unweighted) sum over the children of every non-leaf node,
    broadcast back to the children."""
    sums = np.add.reduceat(values, tree.first_child[tree.nonleaf], axis=0)
    row = np.zeros(tree.n_nodes, dtype=np.int64)
    row[tree.nonleaf] = np.arange(tree.nonleaf.size)
    out = sums[row[tree.parent]]
    out[0] = 0.0
    return out


def _simplex_weights(rng, tree, floor):
    """Per sibling group: Dirichlet(2) weights, floored and renormalised."""
    w = rng.gamma(2.0, size=tree.n_nodes)
    w[0] = 1.0
    w[1:] /= group_sum(tree, w)[1:]
    w[1:] = np.clip(w[1:], floor, None)
    w[1:] /= group_sum(tree, w)[1:]
    return w


def wide_market(rng, parent):
    """Arbitrage-free market on a wide tree: at every node the increments are
    centred under an interior auxiliary measure, which differs from p, so X
    drifts under p."""
    shape = Tree(parent, np.ones(parent.size))
    tree = Tree(parent, _simplex_weights(rng, shape, 0.02))
    w = _simplex_weights(rng, tree, 0.05)
    dX = rng.normal(0.0, WIDE_VOL, size=(tree.n_nodes, WIDE_DIM))
    dX[0] = 0.0
    dX -= group_sum(tree, w[:, None] * dX)
    dX[0] = 0.0
    return tree, path_sum(tree, dX)


def hedge_minus_consumption(rng, tree, X):
    """V = V0 + sum <H, dX> - C for a random predictable H and a random
    nondecreasing C.  By the optional decomposition theorem such a V is a
    supermartingale under every martingale measure of the market."""
    H = np.zeros((tree.n_nodes, X.shape[1]))
    H[tree.nonleaf] = rng.normal(0.0, 2.0, size=(tree.nonleaf.size, X.shape[1]))
    dC = np.abs(rng.normal(0.0, 0.3, size=tree.n_nodes))
    dC *= rng.random(tree.n_nodes) < 0.7
    dC[0] = 0.0
    V0 = rng.normal(0.0, 1.0)
    return V0 + path_sum(tree, oracles.gains(tree, X, H)) - path_sum(tree, dC)


def trinomial_fault_input():
    """The stored trinomial market and value process (see make_trinomial.py)."""
    with np.load(TRINOMIAL_FILE) as data:
        X, V = data["X"], data["V"]
    n = X.shape[0]
    tree = Tree(np.concatenate([[-1], (np.arange(1, n) - 1) // 3]),
                np.concatenate([[1.0], np.full(n - 1, 1.0 / 3.0)]))
    return tree, X, V


def multiasset_tree(seed, work):
    rng = np.random.default_rng([seed, 1])
    shapes = np.random.default_rng(WIDE_SHAPE_SEED)
    commands, inputs, sizes = [], [], []
    for i in range(WIDE_TREES):
        tree, X = wide_market(rng, wide_tree(shapes))
        V = hedge_minus_consumption(rng, tree, X)
        model = _write_model(work / f"wide{i}.json", tree, X)
        value = _write(work / f"wide{i}_V.json", node_map(V))
        commands += _tree_commands(seed, model, tree, X, (value, V))
        inputs += [("model", model), ("value", model, value)]
        sizes.append(tree.n_nodes)
    tree, X, V = trinomial_fault_input()
    model = _write_model(work / "trinomial.json", tree, X)
    value = _write(work / "trinomial_V.json", node_map(V))
    commands.append(Command(
        ("--seed", str(TRINOMIAL_ODX_SEED), "decompose", model, value,
         "--route", "both"),
        nodes=tree.n_nodes, nonleaf=tree.nonleaf.size,
        check=partial(oracles.check_decompose, tree, X, V)))
    inputs += [("model", model), ("value", model, value)]
    return Workload(tuple(commands), tuple(inputs),
                    f"{WIDE_TREES} random d={WIDE_DIM} trees of {sizes} nodes "
                    f"and the trinomial d=2 model of {tree.n_nodes} nodes")


# ---------------------------------------------------------------------------
# diffusion-*
# ---------------------------------------------------------------------------

def _diffusion(name, spec, paths, steps, seed, work):
    path = _write(work / f"{name}.json", spec)
    cmd = Command(("--seed", str(SIMULATE_ODX_SEED), "simulate", path,
                   "--paths", str(paths), "--steps", str(steps)),
                  path_steps=paths * steps, check=oracles.check_simulate)
    return Workload((cmd,), (("spec", path),),
                    f"d={spec['d']}, {paths} paths x {steps} steps")


WORKLOADS = {
    "binomial-american": binomial_american,
    "multiasset-tree": multiasset_tree,
    "diffusion-1d": partial(_diffusion, "diffusion1d", DIFFUSION_1D, 100_000, 256),
    "diffusion-2d": partial(_diffusion, "diffusion2d", DIFFUSION_2D, 10_000, 32),
}


def build(name, seed, work):
    """Write the inputs of workload ``name`` for ``seed`` into ``work``."""
    return WORKLOADS[name](seed, Path(work))
