"""The library imports nothing beyond the standard library and numpy, and exports what it defines."""

import ast
import sys
from pathlib import Path

import pytest

import sprayjets

SRC = Path(__file__).resolve().parents[1] / "src" / "sprayjets"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sprayjets"}


def foreign_imports(source: str) -> list[str]:
    """The absolute imports in ``source`` outside ALLOWED; relative imports are the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    # pyproject.toml declares numpy as the only dependency
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_a_scipy_import_is_caught():
    source = "import numpy as np\nfrom . import jets\nif True:\n    from scipy.linalg import eig\n"
    assert foreign_imports(source) == ["scipy.linalg"]


def test_every_exported_name_is_defined_once():
    # a name deleted from the package but left in __all__ fails only at `import *`
    assert sorted(set(sprayjets.__all__)) == sorted(sprayjets.__all__)
    assert [name for name in sprayjets.__all__ if not hasattr(sprayjets, name)] == []
