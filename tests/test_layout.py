"""Rules on the package source: which modules may import numpy and the kernels,
which names the kernels take from ``search``, that no module imports a name
it never uses, that only ``intset`` reads ``IntegerSet``'s representation,
no ``assert`` statements, which functions may raise ``AssertionError``, and
which read the run-smear width cap."""

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


def test_kernels_take_no_witness_order_from_search():
    # search alone orders the MSTD sets the workers return; kernels take
    # only sizes and a subset count from it
    tree = ast.parse((REPO / "src" / "mstd_chains" / "kernels.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "search"
             for alias in node.names}
    assert names <= {"_SAMPLE_CHUNK", "_WITNESS_CAP", "_subsets_up_to"}


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports its names to export them
    found = []
    for path in sorted((REPO / "src" / "mstd_chains").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {bound}"
                          for alias in node.names
                          if (bound := (alias.asname or alias.name).split(".")[0]) not in used]
    assert found == []


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


# An AssertionError marks a bug: a rule check on theorem-backed output, or a
# fixed-formula construction's identity. A refused input raises a named error.
_ASSERTING = {"chains._assemble", "constructions._require_classification",
              "constructions.interval_minus_point", "constructions.mdts_interval_plus_point",
              "constructions.nonfill_explicit_mstd", "constructions.nonfill_explicit_mdts"}


def _raises_assertion(func) -> bool:
    """Whether ``func``'s own body, outside nested functions, raises AssertionError."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                return True
        todo.extend(ast.iter_child_nodes(node))
    return False


def test_only_bug_checks_raise_assertion_error():
    found = {f"{path.stem}.{node.name}"
             for path in sorted((REPO / "src" / "mstd_chains").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and _raises_assertion(node)}
    assert found == _ASSERTING


# The width cap bounds the run-smear sumset and difference set (and so the
# intervals that feed them); set algebra chooses bit-vectors by density.
_READS_WIDTH_CAP = {"intset.IntegerSet.interval", "intset.sumset", "intset.diffset",
                    "intset._check_pair_budget"}


def _functions(node, prefix: str):
    """(qualified name, node) of every function and method under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name)


def test_only_the_run_smear_kernels_read_the_width_cap():
    found = {name
             for path in sorted((REPO / "src" / "mstd_chains").glob("*.py"))
             for name, func in _functions(ast.parse(path.read_text(), filename=str(path)),
                                          path.stem)
             if any(isinstance(node, ast.Name) and node.id == "DENSE_DIAMETER_LIMIT"
                    for node in ast.walk(func))}
    assert found == _READS_WIDTH_CAP
