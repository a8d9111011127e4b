"""Regenerate ``trinomial_fault.npz``, the fixed input of the failing
``odx --seed 1 decompose --route both`` command of ``multiasset-tree``.

The model is the uniform trinomial tree of 8 periods with the d = 2 market
``random_market(default_rng(1), tree, d=2)`` and the value process
``random_universal_supermartingale`` drawn from the same generator.  It is
stored rather than generated at set-up because it comes from ``odx`` itself
(the other inputs are generated by the benchmark alone).  Run from the
repository root:

    PYTHONPATH=src python3 perfbench/make_trinomial.py
"""
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from odx.random_models import random_market, random_universal_supermartingale
from odx.tree import build_tree

PERIODS = 8


def main():
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3]] * PERIODS)
    rng = default_rng(1)
    X = random_market(rng, tree, d=2)
    V = random_universal_supermartingale(rng, X)
    out = Path(__file__).resolve().parent / "trinomial_fault.npz"
    np.savez_compressed(out, X=X.values, V=V.values[:, 0])
    print(f"wrote {out.name}: {tree.n_nodes} nodes, d = {X.dim}")


if __name__ == "__main__":
    main()
