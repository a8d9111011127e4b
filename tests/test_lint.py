"""Checks that read the syntax tree of src/odx."""
import ast
from pathlib import Path

import odx

SRC = Path(odx.__file__).parent
PRODUCTS = {"np.matvec", "np.vecdot", "np.vecmat", "np.dot", "np.einsum"}

# (module, function) -> why its products may round by the BLAS kernels or
# einsum's own order; every other product is a tree._sum_products
PRODUCT_SITES = {
    ("mc", "_euler_states"):
        "sigma xi, whose simulate bytes a kernel test already pins",
    ("mc", "_wealth"):
        "a _sum_products there warns of overflow on a non-finite step",
    ("mc", "check_structure"): "inside an error message",
    ("decompose", "decompose_lp"): "inside an error message",
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


# The console script of pyproject.toml, odx = "odx.cli:main"
ENTRY = ("cli", "main")
# (module, definition) -> why the package ships it though no command
# reaches it; None stands for every definition of the module
UNREACHED = {
    ("random_models", None):
        "perfbench's tracer and make_trinomial.py import the module",
}


def _names(node):
    """Every identifier that ``node`` names, as an ``ast.Name`` or as the
    attribute of an ``ast.Attribute``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _definitions():
    """{(module, name): node} of the module-level functions and classes of
    src/odx but ``__init__``, and the names its other module-level
    statements use, which run on import."""
    defs, on_import = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node
            else:
                on_import.update(_names(node))
    return defs, on_import


def _reached(defs, roots):
    """The definitions that ``roots`` name, then those that the reached
    definitions name, to a fixed point; a name reaches every module-level
    definition of it."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for (_, defined), node in defs.items():
                if defined == name:
                    todo.extend(_names(node))
    return {key for key in defs if key[1] in seen}


def _entry(key):
    """The key of :data:`UNREACHED` that would exempt the definition
    ``key``."""
    return key if key in UNREACHED else (key[0], None)


def test_every_public_definition_is_reached_by_a_command():
    """Each public function and class of src/odx is named by a definition
    that the ``odx`` entry point or a module's import reaches, or is
    exempted by :data:`UNREACHED`; code that only tests call belongs in
    ``tests/support.py``.  Each entry still exempts a definition that no
    command reaches, so the list names no stale entry."""
    defs, on_import = _definitions()
    roots = on_import | {ENTRY[1]}
    public = {key for key in defs if not key[1].startswith("_")}
    exempt = {key for key in public - _reached(defs, roots)
              if _entry(key) in UNREACHED}
    # what an exempt definition names ships with it
    shipped = _reached(defs, roots | {name for _, name in exempt})
    assert sorted(public - shipped) == []
    assert ENTRY in defs
    assert {_entry(key) for key in exempt} == set(UNREACHED)
