"""Cylinder algebra: canonical form, Boolean laws, refinement, measure.

The independent oracle for every derived value here is the set model:
expand both operands to a common fixed depth and apply plain Python set
algebra.  Expected literals below were computed with that model first and
then frozen.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from tdlclab.boolalg import (
    CylinderClopen,
    TreeShape,
    format_address,
    format_clopen,
    parse_address,
    parse_clopen,
    regular,
    rooted,
)
from tdlclab.errors import PrecisionError

from oracles import (
    oracle_canonical,
    oracle_complement,
    oracle_leq,
    oracle_meet,
    oracle_meets,
)
from util import expand, random_clopen

T3 = regular(3)
R2 = rooted(2)


def clop(shape, *addrs):
    return CylinderClopen.from_addresses(shape, addrs)


# -- canonical form ---------------------------------------------------------


def test_full_sibling_family_merges_rooted():
    assert clop(R2, (0, 0), (0, 1)) == clop(R2, (0,))


def test_full_sibling_family_merges_regular():
    # children of (0,) on T3 are (0,1) and (0,2)
    assert clop(T3, (0, 1), (0, 2)) == clop(T3, (0,))


def test_full_level_one_family_is_top():
    assert clop(T3, (0,), (1,), (2,)).is_top()
    assert clop(R2, (0,), (1,)).is_top()


def test_canonicalisation_is_idempotent_seeded():
    rng = random.Random(7)
    for _ in range(200):
        shape = rng.choice([T3, R2, rooted(3)])
        a = random_clopen(rng, shape, 5)
        again = CylinderClopen.from_addresses(shape, a.cover)
        assert again == a


def test_shadowed_addresses_are_absorbed():
    assert clop(R2, (0,), (0, 1, 1)) == clop(R2, (0,))


# -- spec'd pointwise examples (set-model oracle, frozen) --------------------


def test_meet_example_rooted_binary():
    a = clop(R2, (0,))
    b = clop(R2, (0, 0), (1, 0))
    got = a.meet(b)
    # oracle: expand to depth 2: {00,01} & {00,10} == {00}
    assert expand(a, 2) & expand(b, 2) == {(0, 0)}
    assert got == clop(R2, (0, 0))


def test_meet_with_zero_and_top():
    a = clop(T3, (0, 1))
    assert a.meet(CylinderClopen.zero(T3)).is_zero()
    assert a.meet(CylinderClopen.top(T3)) == a
    assert a.join(CylinderClopen.zero(T3)) == a
    assert a.join(CylinderClopen.top(T3)).is_top()


def test_complement_of_half_tree():
    assert clop(T3, (0,)).complement() == clop(T3, (1,), (2,))


def test_difference_example_on_t3():
    # cyl(0) minus cyl(010) leaves {02, 012}
    a = clop(T3, (0,))
    b = clop(T3, (0, 1, 0))
    assert a.minus(b) == clop(T3, (0, 2), (0, 1, 2))


# -- refine ------------------------------------------------------------------


def test_refine_counts_regular():
    top = CylinderClopen.top(T3)
    for n in range(1, 6):
        assert len(top.refine(n)) == 3 * 2 ** (n - 1)


def test_refine_counts_rooted():
    top = CylinderClopen.top(R2)
    for n in range(1, 8):
        assert len(top.refine(n)) == 2**n


def test_refine_below_depth_raises():
    a = clop(T3, (0, 1), (0, 2, 0))
    with pytest.raises(PrecisionError):
        a.refine(2)


def test_refine_roundtrip_seeded():
    rng = random.Random(11)
    for _ in range(100):
        shape = rng.choice([T3, R2])
        a = random_clopen(rng, shape, 4)
        n = a.depth + rng.randint(0, 2)
        if n == 0:
            continue
        assert CylinderClopen.from_addresses(shape, a.refine(n)) == a


# -- Boolean laws (seeded; the acceptance gate reruns this at 1000) -----------


def _law_triple(rng, shape):
    return (
        random_clopen(rng, shape, 4),
        random_clopen(rng, shape, 4),
        random_clopen(rng, shape, 4),
    )


def test_boolean_laws_seeded():
    rng = random.Random(0)
    for _ in range(150):
        shape = rng.choice([T3, R2, rooted(3)])
        a, b, c = _law_triple(rng, shape)
        assert a.meet(b) == b.meet(a)
        assert a.join(b) == b.join(a)
        assert a.meet(b.join(c)) == a.meet(b).join(a.meet(c))
        assert a.join(b.meet(c)) == a.join(b).meet(a.join(c))
        assert a.meet(a.complement()).is_zero()
        assert a.join(a.complement()).is_top()
        assert a.complement().complement() == a
        # de Morgan
        assert a.meet(b).complement() == a.complement().join(b.complement())
        # set-model agreement at a common depth
        n = max(a.depth, b.depth, 1)
        assert expand(a.meet(b), n) == expand(a, n) & expand(b, n)
        assert expand(a.join(b), n) == expand(a, n) | expand(b, n)


def _letters(shape, addr):
    # child letters written out from the shape's definition, not the library
    if shape.kind == "rooted" or not addr:
        return set(range(shape.degree))
    return {c for c in range(shape.degree) if c != addr[-1]}


def _expand_addresses(shape, addrs, n):
    out = set()
    stack = list(addrs)
    while stack:
        a = stack.pop()
        if len(a) == n:
            out.add(a)
        else:
            stack.extend(a + (c,) for c in _letters(shape, a))
    return out


def _assert_canonical(shape, cover):
    for a in cover:
        for k in range(len(a)):
            assert a[:k] not in cover, f"{a} lies below {a[:k]}"
    for a in cover:
        if a:
            parent = a[:-1]
            present = {b[-1] for b in cover if b[:-1] == parent}
            assert present != _letters(shape, parent), f"full family under {parent}"


def test_algebra_matches_set_model_to_depth_6():
    rng = random.Random(19)
    for shape in (T3, R2, rooted(3), regular(4)):
        # zero and TOP meet every operand, both ways round, with the rest
        pool = [CylinderClopen.zero(shape), CylinderClopen.top(shape)]
        pool += [random_clopen(rng, shape, 6) for _ in range(8)]
        pairs = [(a, b) for a in pool[:2] for b in pool]
        pairs += [(b, a) for a in pool[:2] for b in pool[2:]]
        pairs += [(random_clopen(rng, shape, 6), random_clopen(rng, shape, 6)) for _ in range(60)]
        for a, b in pairs:
            n = max(a.depth, b.depth)
            ea, eb = expand(a, n), expand(b, n)
            everything = _expand_addresses(shape, [()], n)
            assert a.refine(n) == ea
            comp, meet, join, minus = a.complement(), a.meet(b), a.join(b), a.minus(b)
            # canonical form is unique, so this pins the cover itself down too
            for got in (comp, meet, join, minus):
                _assert_canonical(shape, got.cover)
                assert got.sorted_cover() == sorted(got.cover)
            # the prefix-rule algebra, cover for cover
            assert comp.cover == oracle_complement(a)
            assert meet.cover == oracle_meet(a, b)
            assert join.cover == oracle_canonical(shape, a.cover | b.cover)
            assert a.leq(b) == oracle_leq(a, b)
            assert a.meets(b) == oracle_meets(a, b)
            assert expand(comp, n) == everything - ea
            assert expand(meet, n) == ea & eb
            assert expand(join, n) == ea | eb
            assert expand(minus, n) == ea - eb
            assert a.leq(b) == (ea <= eb)
            assert a.lt(b) == (ea < eb)
            assert a.meets(b) == bool(ea & eb)
            assert a.meets(a) == bool(ea)
        for _ in range(60):
            # mixed-depth input with shadowed and complete-family addresses
            k = rng.randint(1, 6)
            sphere = sorted(_expand_addresses(shape, [()], k))
            addrs = [x for x in sphere if rng.random() < 0.5]
            for _ in range(rng.randint(0, 3)):
                shallower = sorted(_expand_addresses(shape, [()], rng.randint(1, k)))
                addrs.append(rng.choice(shallower))
            got = CylinderClopen.from_addresses(shape, addrs)
            _assert_canonical(shape, got.cover)
            assert got.sorted_cover() == sorted(got.cover)
            assert got.cover == oracle_canonical(shape, addrs)
            assert expand(got, k) == _expand_addresses(shape, addrs, k)
            # input order and repeats do not matter
            shuffled = addrs + rng.sample(addrs, min(len(addrs), 3))
            rng.shuffle(shuffled)
            assert CylinderClopen.from_addresses(shape, shuffled) == got


def test_depth_12_cylinders_at_degree_12():
    # a depth-12 sphere of degree 12 has over 10**12 addresses; every
    # operation here must stay the size of the covers
    for shape in (regular(12), rooted(12)):
        deep = tuple(i % 2 for i in range(12))
        a = CylinderClopen.cylinder(shape, deep)
        b = CylinderClopen.cylinder(shape, deep[:6])
        other = (1,) + deep[:11]
        c = CylinderClopen.cylinder(shape, other)
        assert a.leq(b) and a.lt(b) and not b.leq(a)
        assert a.meets(b) and b.meets(a) and not a.meets(c)
        assert a.meet(b) == a and a.meet(c).is_zero()
        assert a.join(b) == b and a.join(c).cover == {deep, other}
        rest = b.minus(a)
        assert not rest.meets(a) and rest.join(a) == b and a.minus(b).is_zero()
        comp = a.complement()
        # the siblings of every proper prefix's next letter
        assert len(comp.cover) == sum(len(_letters(shape, deep[:k])) - 1 for k in range(12))
        assert comp.complement() == a and not comp.meets(a) and a.join(comp).is_top()
        assert a.measure() + comp.measure() == 1
        assert a.shadow(3) == {deep[:3]}
        assert comp.shadow(3) == _expand_addresses(shape, [()], 3)
        # the complement's cover with the cylinder merges level by level up to TOP
        assert CylinderClopen.from_addresses(shape, [deep, *comp.cover]).is_top()
        family = [deep[:11] + (x,) for x in sorted(_letters(shape, deep[:11]), reverse=True)]
        assert CylinderClopen.from_addresses(shape, family + [deep]) == CylinderClopen.cylinder(
            shape, deep[:11]
        )


def test_shadow_matches_set_model_and_cylinder_scan():
    rng = random.Random(29)
    for shape in (T3, R2, rooted(3)):
        sample = [CylinderClopen.zero(shape), CylinderClopen.top(shape)]
        sample += [random_clopen(rng, shape, 6) for _ in range(25)]
        for x in sample:
            for n in (0, 1, 3, 5):
                ends = expand(x, max(n, x.depth))
                assert x.shadow(n) == {a[:n] for a in ends}
                scan = [
                    b for b in shape.sphere(n)
                    if x.meets(CylinderClopen.cylinder(shape, b))
                ]
                assert x.shadow(n) == frozenset(scan)


def test_leq_matches_set_model_seeded():
    rng = random.Random(3)
    for _ in range(150):
        shape = rng.choice([T3, R2])
        a = random_clopen(rng, shape, 4)
        b = random_clopen(rng, shape, 4)
        n = max(a.depth, b.depth, 1)
        assert a.leq(b) == (expand(a, n) <= expand(b, n))


# -- measure -------------------------------------------------------------------


def test_measure_weights_sum_to_one():
    for shape in (T3, R2, rooted(3)):
        for n in (1, 2, 3):
            weights = [shape.address_weight(a) for a in shape.sphere(n)]
            assert sum(weights) == 1


def test_measure_examples_t3():
    assert clop(T3, (0,)).measure() == Fraction(1, 3)
    assert clop(T3, (0, 1)).measure() == Fraction(1, 6)
    assert CylinderClopen.top(T3).measure() == 1
    assert CylinderClopen.zero(T3).measure() == 0


def test_measure_is_additive_seeded():
    rng = random.Random(23)
    for _ in range(100):
        shape = rng.choice([T3, R2])
        a = random_clopen(rng, shape, 4)
        b = random_clopen(rng, shape, 4)
        assert a.measure() + b.measure() == a.join(b).measure() + a.meet(
            b
        ).measure()


# -- textual form -------------------------------------------------------------------


def test_format_examples():
    assert format_clopen(clop(T3, (0, 1), (0, 2))) == "{0}"
    assert format_clopen(clop(T3, (0, 1), (1, 0))) == "{01,10}"
    assert format_clopen(CylinderClopen.zero(T3)) == "{}"
    assert format_clopen(CylinderClopen.top(T3)) == "TOP"


def test_parse_format_roundtrip_seeded():
    rng = random.Random(5)
    for _ in range(100):
        shape = rng.choice([T3, R2])
        a = random_clopen(rng, shape, 4)
        assert parse_clopen(shape, format_clopen(a)) == a


def test_address_text_round_trips_above_degree_ten():
    t12, r11 = regular(12), rooted(11)
    assert format_address(t12, (10,)) == "10"
    assert parse_address(t12, "10") == (10,)
    for shape, addrs in (
        (t12, [(10,)]),
        (t12, [(1, 11), (11, 1)]),
        (r11, [(1, 0), (10,)]),
    ):
        c = clop(shape, *addrs)
        assert parse_clopen(shape, str(c)) == c
    # at degree 10 or less one digit is one letter, and dots are accepted
    assert parse_address(T3, "01") == parse_address(T3, "0.1") == (0, 1)


def test_parse_rejects_illegal_address():
    with pytest.raises(ValueError):
        parse_clopen(T3, "{00}")  # repeated colour is illegal on T3
    with pytest.raises(ValueError):
        parse_clopen(R2, "{07}")


def test_parse_clopen_checks_each_address_once(monkeypatch):
    # the tokens are read unchecked and from_addresses makes the one check
    for shape, text in ((T3, "{00}"), (T3, "{01,122}"), (R2, "{07}"), (R2, "{1,02}")):
        with pytest.raises(ValueError, match="illegal address"):
            parse_clopen(shape, text)
    with pytest.raises(ValueError, match="must be digits"):
        parse_clopen(T3, "{0x}")
    want = clop(T3, (0, 1), (0, 2), (2,))
    checked = []
    real = TreeShape.require_legal
    monkeypatch.setattr(
        TreeShape, "require_legal", lambda self, addr: checked.append(addr) or real(self, addr)
    )
    assert parse_clopen(T3, "{01, 02,2}") == want
    assert sorted(checked) == [(0, 1), (0, 2), (2,)]


def test_is_legal_matches_naive_rule_exhaustively():
    for shape in (R2, rooted(3), T3, regular(4)):
        letters = range(-1, shape.degree + 1)
        for k in range(4):
            for addr in itertools.product(letters, repeat=k):
                in_range = all(0 <= a < shape.degree for a in addr)
                no_repeat = shape.kind == "rooted" or all(
                    a != b for a, b in zip(addr, addr[1:])
                )
                assert shape.is_legal(addr) == (in_range and no_repeat), addr


def test_from_addresses_rejects_illegal_address():
    for shape, addrs in (
        (T3, [(0, 0)]),
        (T3, [(0, 1, 0), (1, 1)]),
        (R2, [(0, 2)]),
        (R2, [(-1,)]),
    ):
        with pytest.raises(ValueError, match="illegal address"):
            CylinderClopen.from_addresses(shape, addrs)
