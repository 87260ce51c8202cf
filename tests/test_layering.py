"""The package's linear algebra has one home, the leaf module
`phflow._linalg`.  It imports only numpy and scipy; no module reaches
its names (`Factor`, `newton`, `entries`, `compressed`) through
`phcore`, under these names or the private ones they had there; and the
modules that factor, solve or assemble take them from `._linalg`.  The
checks read the source, so they cost no import."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "phflow"
NAMES = {"Factor", "newton", "entries", "compressed"}
FORMER = {"_Factor", "_entries", "_compressed", "_coords"}


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def _from_imports(tree: ast.Module):
    """(module, level, name) of every name a `from ... import` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", node.level, alias.name


def test_linalg_imports_only_numpy_and_scipy():
    roots = set()
    for node in ast.walk(_tree("_linalg")):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"_linalg imports from the package: {node.module}"
            roots.add(node.module.split(".")[0])
    assert roots <= {"__future__", "numpy", "scipy"}, roots


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_takes_the_linear_algebra_from_phcore(name):
    tree = _tree(name)
    for module, level, imported in _from_imports(tree):
        from_phcore = (level == 1 and module == "phcore") or module == "phflow.phcore"
        assert not (from_phcore and imported in NAMES | FORMER), (
            f"{name} imports {imported} from phcore")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert not (node.value.id == "phcore" and node.attr in NAMES | FORMER), (
                f"{name} reads phcore.{node.attr}")


@pytest.mark.parametrize("name", ["phcore", "ocp", "optimizer"])
def test_solving_and_assembling_modules_import_from_linalg(name):
    tree = _tree(name)
    from_linalg = {imported for module, level, imported in _from_imports(tree)
                   if level == 1 and module == "_linalg"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} & NAMES
    assert used and used <= from_linalg, (name, used, from_linalg)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & (NAMES | FORMER), (name, defined & (NAMES | FORMER))
