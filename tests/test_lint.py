"""Checks that read the syntax tree of src/odx."""
import ast
from pathlib import Path

import odx

SRC = Path(odx.__file__).parent
PRODUCTS = {"np.matvec", "np.vecdot", "np.vecmat", "np.dot", "np.einsum"}

# (module, function) -> why its products may round by the BLAS kernels or
# einsum's own order; every other product is a tree._sum_products
PRODUCT_SITES = {
    ("deflators", "_log_optimal"):
        "the Newton step of the numeraire, still on BLAS products",
    ("deflators", "_psd_pinv_apply"):
        "the Newton step's eigh solve of the Hessian",
    ("mc", "_euler_states"):
        "sigma xi, whose simulate bytes a kernel test already pins",
    ("mc", "_wealth"):
        "a _sum_products there warns of overflow on a non-finite step",
    ("mc", "check_structure"): "inside an error message",
    ("decompose", "decompose_lp"): "inside an error message",
    ("tree", "conditional_moment"): "on no command path",
    ("random_models", "random_market"): "on no command path",
    ("random_models", "random_admissible_strategy"): "on no command path",
}


def _is_product(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return isinstance(node, ast.Attribute) and (
        ast.unparse(node) in PRODUCTS or ast.unparse(node.value) == "np.linalg")


def _product_sites(node, module, function=None):
    """(module, innermost enclosing function, line) of each ``@``,
    ``np.matvec``-style product and ``np.linalg`` use below ``node``."""
    for child in ast.iter_child_nodes(node):
        if _is_product(child):
            yield module, function, child.lineno
        inner = (child.name if isinstance(child, ast.FunctionDef)
                 else function)
        yield from _product_sites(child, module, inner)


def test_products_outside_the_allowlist_are_sum_products():
    """Every product of src/odx is a ``tree._sum_products``, added in one
    fixed order, except at the sites of :data:`PRODUCT_SITES`; each of
    those still holds a product, so the list names no stale site."""
    sites = [site for path in sorted(SRC.glob("*.py"))
             for site in _product_sites(ast.parse(path.read_text()),
                                        path.stem)]
    assert [s for s in sites if s[:2] not in PRODUCT_SITES] == []
    assert {s[:2] for s in sites} == set(PRODUCT_SITES)
