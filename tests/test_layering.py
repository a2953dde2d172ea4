"""Production holds only what the CLI and the public API reach. The
production modules are the package's modules other than oracle.py and
__init__.py; the brute-force readings and the helpers that only the tests
call live in neighbornet.oracle or in the tests."""
import ast
from pathlib import Path

import neighbornet
from test_robustness import oracle_imports

PACKAGE = Path(neighbornet.__file__).resolve().parent
PRODUCTION = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
              if p.name not in ("oracle.py", "__init__.py")}
# library entry points that no production module calls: the README documents
# read_nexus_splits, the reader of what write_nexus writes
DOCUMENTED = {"io.read_nexus_splits"}


def references(node) -> set:
    """The names that node's code reads: each ast.Name's id and each
    ast.Attribute's attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreached() -> list:
    """module.name of each top-level def or class of a production module that
    no other top-level statement of production code references, that
    neighbornet/__init__.py does not export and that is not a documented
    entry point."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    tops = [(module, top, references(top)) for module, tree in PRODUCTION.items() for top in tree.body]
    return sorted(f"{module}.{top.name}" for module, top, _ in tops
                  if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in exported
                  and f"{module}.{top.name}" not in DOCUMENTED
                  and not any(top.name in names for _, other, names in tops if other is not top))


def test_the_production_modules_are_the_expected_ones():
    assert {"agglomerate", "cli", "core", "io", "weights"} <= set(PRODUCTION)


def test_no_production_module_imports_the_oracle():
    assert {module: lines for module, tree in PRODUCTION.items() if (lines := list(oracle_imports(tree)))} == {}


def test_every_production_definition_is_reached_by_production_or_exported():
    assert unreached() == []


def test_the_documented_entry_points_exist():
    for name in DOCUMENTED:
        module, _, attr = name.partition(".")
        assert any(isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == attr
                   for top in PRODUCTION[module].body)
