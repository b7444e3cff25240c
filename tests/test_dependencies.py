"""The only runtime dependency stays numpy: the package imports nothing else from outside."""

import ast
import sys
from pathlib import Path

import mossl

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path) -> list[str]:
    """Top-level module names of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(Path(mossl.__file__).parent.rglob("*.py"))
    assert len(sources) > 10
    foreign = [
        f"{path.name}: {name}"
        for path in sources
        for name in absolute_imports(path)
        if name not in ALLOWED
    ]
    assert not foreign, foreign
