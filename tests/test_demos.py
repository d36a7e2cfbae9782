"""The demos and `tdlclab.__all__` name only what the package provides.

The demos are slow and no test runs them, so a removed export would
break them silently; this reads their imports without executing them.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _tdlclab_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) per tdlclab import; name is None for plain imports."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "tdlclab" or module.startswith("tdlclab."):
                out.extend((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name == "tdlclab" or alias.name.startswith("tdlclab.")
            )
    return out


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = _tdlclab_imports(path)
    assert imports, f"{path.name} imports nothing from tdlclab"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no {name}"


def test_public_names_resolve():
    import tdlclab

    missing = [name for name in tdlclab.__all__ if not hasattr(tdlclab, name)]
    assert not missing, f"tdlclab.__all__ names missing attributes: {missing}"
