"""Module boundaries inside the package, checked on the source text."""

import ast
from pathlib import Path

import lsqcond

PACKAGE = Path(lsqcond.__file__).parent


def _relative_imports():
    """(importing module, imported module, names) for every `from .x import ...`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                yield path.stem, node.module, [alias.name for alias in node.names]


def test_no_private_name_crosses_a_module_boundary():
    leaks = [
        f"{importer} imports {name} from .{module}"
        for importer, module, names in _relative_imports()
        for name in names
        if name.startswith("_")
    ]
    assert leaks == []


def test_jacobian_does_not_import_conditioning():
    assert [module for importer, module, _ in _relative_imports() if importer == "jacobian"] == ["core", "errors"]
