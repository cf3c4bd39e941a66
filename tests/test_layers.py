"""The package's layering, read from its import statements.

The production core is what the CLI and the benchmark reach; `oracles` is
the checking layer beside it.  The core must not reach into the checks or
draw random numbers, the conversion must not share code with the evaluator
it is checked against, and the shadow shares with the evaluator only what
its docstring names.
"""

import ast
from pathlib import Path

import weylval

PACKAGE = Path(weylval.__file__).parent
CORE = (
    "coeff",
    "errors",
    "valuegroup",
    "weyl",
    "descriptor",
    "expr",
    "evaluate",
    "series",
    "extension",
    "orderings",
)


def imports(module):
    """(module imported, names taken) for each import statement; a relative
    module is written with its leading dots."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            out.append((name, tuple(alias.name for alias in node.names)))
    return out


def test_core_draws_no_random_numbers_and_runs_no_checks():
    for module in CORE:
        for name, taken in imports(module):
            assert name != "random", module
            assert name != ".oracles" and not (name == "." and "oracles" in taken), module


def test_conversion_and_series_do_not_use_the_evaluator():
    for module in ("extension", "series"):
        for name, taken in imports(module):
            assert name != ".evaluate" and not (name == "." and "evaluate" in taken), module


def test_oracles_take_only_the_session_and_rho_from_the_evaluator():
    taken = [names for name, names in imports("oracles") if name == ".evaluate"]
    assert sorted(n for names in taken for n in names) == ["Valuation", "_rho"]


def annotation_names(tree):
    """The names read in the tree's annotations, quoted ones included."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    out = set()
    for note in filter(None, notes):
        for node in ast.walk(note):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                        if isinstance(n, ast.Name)}
    return out


def test_no_module_imports_a_name_it_does_not_use():
    # `__init__` imports names to export them
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert bound - used - annotation_names(tree) == set(), path.stem


def test_weyl_imports_nothing_from_the_tower_layer():
    for name, taken in imports("weyl"):
        for module in ("descriptor", "evaluate", "series", "extension"):
            assert name != "." + module and not (name == "." and module in taken), module
