"""Every export of the package's modules has a caller in the package.

A leading underscore is the one public-API marker: a public top-level
function or class, or a public method or property of a class, that nothing
in ``src/mossl`` uses is a second path kept alive only by its tests; delete
it instead.  Only ``__init__.py`` lists its exports in ``__all__``, as the
package's documented entry points.
"""

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest

import mossl

PACKAGE = Path(mossl.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def public_definitions(module: str) -> list[str]:
    """Top-level functions and classes of a module whose names do not start with ``_``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def public_methods(module: str) -> list[str]:
    """``Class.name`` of each public method or property of a module's top-level classes.

    A method that overrides one a class from outside the package defines,
    such as ``argparse.ArgumentParser.error``, is called by that class's own
    code and is left out.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    loaded = importlib.import_module(f"mossl.{module}")
    return [
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        if not overrides_foreign(getattr(loaded, cls.name), node.name)
    ]


def overrides_foreign(cls: type, name: str) -> bool:
    """Whether a base class from outside the package defines ``name``."""
    return any(
        name in vars(base) for base in cls.__mro__[1:] if base.__module__.split(".")[0] != "mossl"
    )


def references(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs that one source file reads.

    A bare name counts for the module it was imported from, or for the file's
    own module; ``alias.name`` counts when ``alias`` is an imported package
    module.  Definitions and imports are not reads.
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


def test_no_module_but_the_package_assigns_all():
    """A second export list would restate what the leading underscore already says."""
    assigning = [
        module
        for module in MODULES
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "__all__"
    ]
    assert not assigning, f"modules other than __init__.py that assign __all__: {assigning}"


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
