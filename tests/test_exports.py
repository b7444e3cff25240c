"""Every export of the package's modules has a caller in the package.

A name in ``__all__``, a public top-level function or class, or a public
method or property of a class, that nothing in ``src/mossl`` uses is a
second path kept alive only by its tests; delete it instead.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

import mossl

PACKAGE = Path(mossl.__file__).parent
CHECKED = ("tensor", "augmentation", "mssl")
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def exported(module: str) -> list[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    raise AssertionError(f"{module}.py has no __all__")


def public_definitions(module: str) -> list[str]:
    """Top-level functions and classes of a module whose names do not start with ``_``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def public_methods(module: str) -> list[str]:
    """``Class.name`` of each public method or property of a module's top-level classes."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def references(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs that one source file reads.

    A bare name counts for the module it was imported from, or for the file's
    own module; ``alias.name`` counts when ``alias`` is an imported package
    module.  Definitions, imports and ``__all__`` strings are not reads.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    own, imported, modules = path.stem, {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    imported[local] = node.module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((imported.get(node.id, own), node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
    return found


@cache
def package_reads() -> frozenset[tuple[str, str]]:
    """(module, name) pairs read anywhere in ``src/mossl``."""
    return frozenset().union(*(references(path) for path in PACKAGE.rglob("*.py")))


@cache
def attribute_reads() -> frozenset[str]:
    """Names read as an attribute, ``x.name``, anywhere in ``src/mossl``."""
    return frozenset(
        node.attr
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


@pytest.mark.parametrize("module", CHECKED)
def test_every_export_has_a_caller_in_the_package(module):
    unused = [name for name in exported(module) if (module, name) not in package_reads()]
    assert not unused, f"{module}.__all__ names with no caller in src/mossl: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_has_a_caller_in_the_package(module):
    unused = [name for name in public_definitions(module) if (module, name) not in package_reads()]
    assert not unused, f"public names of {module}.py with no caller in src/mossl: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_every_public_method_is_read_in_the_package(module):
    unused = [
        name for name in public_methods(module) if name.split(".")[1] not in attribute_reads()
    ]
    assert not unused, f"public methods of {module}.py never read in src/mossl: {unused}"
