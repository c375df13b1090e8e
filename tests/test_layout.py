"""Rules on the package source: which modules may import numpy and the kernels,
that only ``intset`` reads ``IntegerSet``'s representation, and no ``assert``
statements."""

import ast

from .conftest import REPO


def _imported(path) -> set[str]:
    """The top-level names of every module ``path`` imports, package-relative."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add(module)
            # "from . import kernels" imports a module under an alias
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return {n.removeprefix("mstd_chains").strip(".").split(".")[0] for n in names}


def test_only_kernels_imports_numpy_and_only_search_imports_kernels():
    modules = {path.stem: _imported(path)
               for path in (REPO / "src" / "mstd_chains").glob("*.py")}
    assert {"kernels", "search", "intset"} <= modules.keys()
    assert {m for m, names in modules.items() if "numpy" in names} == {"kernels"}
    assert {m for m, names in modules.items() if "kernels" in names} == {"search"}


_REPRESENTATION = {"_els", "_bits", "_offset", "_from_sorted", "_from_bits",
                   "_bitvector", "_runs", "_overlaps"}


def test_only_intset_reads_the_integer_set_representation():
    found = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in sorted((REPO / "src" / "mstd_chains").glob("*.py"))
             if path.stem != "intset"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in _REPRESENTATION]
    assert found == []


def test_no_assert_statements():
    # python -O strips asserts, so every invariant is an explicit raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((REPO / "src" / "mstd_chains").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
