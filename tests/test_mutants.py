"""The mutation register stays current: every snippet occurs once.

``tools/mutants.py`` applies each registered mutant to a copy of the tree
and runs the tests that must fail; that run is not part of Tier-1.  Here
only the snippets are checked, without starting any process, so a change
that rewrites mutated code must restate or retire its mutant.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _register():
    name = "mutant_register"
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their class's module up
    spec.loader.exec_module(module)
    return module


def test_every_registered_snippet_occurs_once_in_src():
    register = _register()
    assert register.MUTANTS
    names = [m.name for m in register.MUTANTS]
    assert len(set(names)) == len(names)
    for m in register.MUTANTS:
        assert m.path.startswith("src/"), m.name
        assert m.snippet != m.replacement, m.name
        assert m.tests, m.name
        assert register.occurrences(m, ROOT) == 1, m.name
