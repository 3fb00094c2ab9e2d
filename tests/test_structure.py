"""Module boundaries inside the package, checked on the source text."""

import ast
from collections import Counter
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


def test_generators_does_not_import_conditioning():
    assert [module for importer, module, _ in _relative_imports() if importer == "generators"] == ["core", "errors"]


def _public_definitions(tree):
    """(name, node, kinds) for each public module-level function or class,
    and each public method or property of a public class; kinds are the
    node types that can read the name (a method only as an attribute)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, (ast.Name, ast.Attribute)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item, (ast.Attribute,)


def _references(node):
    """How often each (node type, name) is read inside node, for Name and
    Attribute nodes."""
    return Counter(
        (ast.Name, ref.id) if isinstance(ref, ast.Name) else (ast.Attribute, ref.attr)
        for ref in ast.walk(node)
        if isinstance(ref, (ast.Name, ast.Attribute))
    )


def test_every_public_name_has_a_consumer():
    # a consumer is code in the package outside the name's own definition;
    # the re-export in __init__ is an import, not a use
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]  # fmt: skip
    everywhere = sum((_references(tree) for tree in trees), Counter())
    unused = sorted(
        name
        for tree in trees
        for name, node, kinds in _public_definitions(tree)
        if all(everywhere[kind, name] == _references(node)[kind, name] for kind in kinds)
    )
    assert unused == []


# dataclasses whose instances are written out whole by dataclasses.asdict
# or astuple, which read every field without naming it
WRITTEN_WHOLE = {
    "ConditionEstimates",  # report, each "estimates" block of `analyze`
    "GvlExpected",  # cli, `generate gvl` writes expected.json
    "Geometry",  # report, the "geometry" block of `analyze`
    "LanczosStep",  # cli, the rows of `lanczos`
    "SweepRow",  # cli, the rows of `sweep`
}


def _dataclass_fields(tree):
    """(class name, class node, field name) for each annotated field of each
    dataclass defined at module level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, node, item.target.id


def _attribute_reads(node):
    return Counter(
        ref.attr for ref in ast.walk(node) if isinstance(ref, ast.Attribute) and isinstance(ref.ctx, ast.Load)
    )


def test_every_dataclass_field_is_read_outside_its_class():
    # a field nothing reads is still built and documented by every caller;
    # like the name guard, a field sharing its name with another attribute
    # that is read passes unnoticed
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    everywhere = sum((_attribute_reads(tree) for tree in trees), Counter())
    unread = sorted(
        f"{cls}.{field}"
        for tree in trees
        for cls, node, field in _dataclass_fields(tree)
        if cls not in WRITTEN_WHOLE and everywhere[field] == _attribute_reads(node)[field]
    )
    assert unread == []
    assert "asdict" in everywhere and "astuple" in everywhere  # WRITTEN_WHOLE still has its writers
