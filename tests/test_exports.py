import ast
import importlib
from pathlib import Path

import phi4lab


def _package_imports():
    """(module name, imported name) for every ``from .module import name`` in the package."""
    tree = ast.parse(Path(phi4lab.__file__).read_text())
    return [(node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_reexports_are_in_module_all():
    imports = _package_imports()
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"phi4lab.{module_name}")
        assert name in module.__all__, f"{name} missing from phi4lab.{module_name}.__all__"


def test_every_all_entry_resolves():
    for module_name in sorted({m for m, _ in _package_imports()}):
        module = importlib.import_module(f"phi4lab.{module_name}")
        for name in module.__all__:
            assert hasattr(module, name), f"phi4lab.{module_name}.__all__ names missing {name}"
