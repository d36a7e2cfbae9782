"""The six record classes compare, hash, print and construct by value.

``TreeShape``, ``CylinderClopen``, ``IsometrySpec``, ``SpecWord`` and
``LocalClass`` are frozen values; ``GroupSpec`` is a mutable, unhashable
record.  Each compares as its field tuple with its own class only,
hashes as that tuple (``LocalClass`` as its region alone), prints as
``Name(field=value, ...)``, and the five frozen ones refuse to set or
delete an attribute.
"""
from __future__ import annotations

import pytest

from tdlclab import cli
from tdlclab.boolalg import ROOT, CylinderClopen, TreeShape, regular, rooted
from tdlclab.localstruct import LocalClass
from tdlclab.permgrp import DEFAULT_CAP, Perm
from tdlclab.tree import IsometrySpec, SpecWord

R3 = regular(3)
SWAP = Perm((1, 0, 2))


def _frozen(x, name, value):
    with pytest.raises(AttributeError):
        setattr(x, name, value)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert getattr(x, name) != value


def _value(x, same, other, key):
    """x equals same, differs from other, hashes as key, and leaves any
    other class to its own comparison."""
    assert x == same and not x != same and hash(x) == hash(same) == hash(key)
    assert x != other and not x == other
    assert x.__eq__(key) is NotImplemented and x != key


def test_tree_shape():
    s = TreeShape("regular", 3)
    assert repr(s) == "TreeShape(kind='regular', degree=3)"
    assert repr(rooted(4)) == "TreeShape(kind='rooted', degree=4)"
    _value(s, TreeShape(kind="regular", degree=3), TreeShape("regular", 4), ("regular", 3))
    # the kind counts as much as the degree
    assert s != rooted(3) and TreeShape("rooted", 3) == rooted(3) != regular(3)
    assert s == regular(3) and s is not regular(3)
    _frozen(s, "degree", 4)
    _frozen(s, "kind", "rooted")
    with pytest.raises(TypeError):
        TreeShape("regular")


def test_cylinder_clopen():
    c = CylinderClopen.from_addresses(R3, [(1, 0), (0,)])
    assert c.addresses == ((0,), (1, 0))
    assert repr(c) == (
        "CylinderClopen(shape=TreeShape(kind='regular', degree=3), addresses=((0,), (1, 0)))"
    )
    same = CylinderClopen.from_addresses(TreeShape("regular", 3), [(0,), (1, 0)])
    # the same cover on another shape is another clopen
    _value(c, same, CylinderClopen.from_addresses(rooted(3), c.addresses), (R3, c.addresses))
    assert c != CylinderClopen.cylinder(R3, (0,))
    # the kept complement, text and hash change none of it
    comp, text = c.complement(), str(c)
    assert (c, hash(c), str(c), repr(c)) == (same, hash((R3, c.addresses)), text, repr(same))
    assert comp == same.complement()
    with pytest.raises(TypeError):
        CylinderClopen(R3, c.addresses)
    _frozen(c, "addresses", ())
    _frozen(c, "shape", rooted(3))


def test_isometry_spec():
    g = IsometrySpec(R3, (0, 1), ((ROOT, SWAP),))
    assert repr(g) == (
        "IsometrySpec(shape=TreeShape(kind='regular', degree=3), word=(0, 1), "
        "sites=(((), Perm((1, 0, 2))),))"
    )
    # the keyword form takes any word sequence; site_map, depth and
    # support stay out of equality, hashing and repr
    same = IsometrySpec(shape=R3, word=[0, 1], sites=((ROOT, SWAP),))
    _value(g, same, IsometrySpec(R3, (0, 1)), (R3, (0, 1), ((ROOT, SWAP),)))
    bare = IsometrySpec(R3)
    assert (bare.word, bare.sites, repr(bare)) == (
        (), (), "IsometrySpec(shape=TreeShape(kind='regular', degree=3), word=(), sites=())"
    )
    assert bare == IsometrySpec(TreeShape("regular", 3), ()) and hash(bare) == hash((R3, (), ()))
    _frozen(g, "word", ())
    _frozen(g, "sites", ())
    with pytest.raises(TypeError):
        IsometrySpec()


def test_spec_word():
    g = IsometrySpec(R3, (0, 1))
    w = SpecWord(R3, ((g, 2),))
    assert repr(w) == f"SpecWord(shape={R3!r}, factors=(({g!r}, 2),))"
    _value(w, SpecWord(shape=R3, factors=((g, 2),)), SpecWord.of(g, g), (R3, ((g, 2),)))
    # a nested word is spelled out into its atoms
    assert SpecWord(R3, ((SpecWord.of(g), -1),)) == SpecWord(R3, ((g, -1),))
    _frozen(w, "factors", ())
    with pytest.raises(TypeError):
        SpecWord(R3)


def test_local_class():
    region = CylinderClopen.cylinder(R3, (0, 1))
    x = LocalClass(region, 2)
    assert repr(x) == f"LocalClass(region={region!r}, depth=2)"
    # identity is the region alone
    _value(x, LocalClass(region=region, depth=5), LocalClass(region.complement(), 2), region)
    _frozen(x, "depth", 3)
    _frozen(x, "region", region.complement())


def test_group_spec():
    parsed = cli.parse_spec_text(
        "[tree]\nkind = regular\ndegree = 3\n[local_group]\ngenerators = (0 1 2), (0 1)\n"
    )
    spec = cli.GroupSpec("regular", R3, parsed.local)
    assert (spec.elements, spec.depth, spec.word_bound, spec.seed, spec.cap, spec.text) == (
        {}, 4, 8, 0, DEFAULT_CAP, ""
    )
    # each spec gets its own elements
    assert spec.elements is not cli.GroupSpec("regular", R3, parsed.local).elements
    assert repr(spec) == (
        f"GroupSpec(kind='regular', shape={R3!r}, local={parsed.local!r}, elements={{}}, "
        f"depth=4, word_bound=8, seed=0, cap={DEFAULT_CAP}, text='')"
    )
    same = cli.GroupSpec(
        kind="regular", shape=R3, local=parsed.local, elements={}, depth=4,
        word_bound=8, seed=0, cap=DEFAULT_CAP, text="",
    )
    assert spec == same and spec != parsed and spec.__eq__(R3) is NotImplemented
    # a mutable record: no hash, and every field can be set
    with pytest.raises(TypeError):
        hash(spec)
    same.word_bound = 12
    assert spec != same and same.word_bound == 12
    with pytest.raises(TypeError):
        cli.GroupSpec("regular", R3)
