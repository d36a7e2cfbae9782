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
    ROOT,
    CylinderClopen,
    TreeShape,
    _canonical,
    _meeting,
    covered,
    format_address,
    format_clopen,
    parse_address,
    parse_clopen,
    regular,
    rooted,
)
from tdlclab.errors import PrecisionError

from oracles import (
    _oracle_covered,
    oracle_canonical,
    oracle_canonical_pass,
    oracle_complement,
    oracle_leq,
    oracle_meet,
    oracle_meets,
    oracle_parse_clopen,
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


def test_cylinder_takes_any_address_sequence():
    # a list address is stored as its tuple, as from_addresses stores it
    for shape, addr in ((T3, (0, 1)), (R2, (1, 0, 1)), (T3, ())):
        got = CylinderClopen.cylinder(shape, list(addr))
        want = CylinderClopen.cylinder(shape, addr)
        assert got == want == clop(shape, list(addr))
        assert hash(got) == hash(want) and str(got) == str(want)
        assert got.addresses == (addr,) and type(got.addresses[0]) is tuple


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


# (shape, depth): rooted(2) for deeper covers, and degrees 5 and 11 for
# wider nodes and dotted addresses, each as deep as its sphere stays small
_SET_MODEL_SHAPES = (
    (T3, 6), (R2, 6), (rooted(3), 6), (regular(4), 6), (R2, 8), (regular(5), 4), (regular(11), 2)
)


def test_algebra_matches_set_model_to_depth_6():
    rng = random.Random(19)
    for shape, depth in _SET_MODEL_SHAPES:
        # zero and TOP meet every operand, both ways round, with the rest
        pool = [CylinderClopen.zero(shape), CylinderClopen.top(shape)]
        pool += [random_clopen(rng, shape, depth) for _ in range(8)]
        pairs = [(a, b) for a in pool[:2] for b in pool]
        pairs += [(b, a) for a in pool[:2] for b in pool[2:]]
        pairs += [
            (random_clopen(rng, shape, depth), random_clopen(rng, shape, depth)) for _ in range(60)
        ]
        for a, b in pairs:
            n = max(a.depth, b.depth)
            ea, eb = expand(a, n), expand(b, n)
            everything = _expand_addresses(shape, [()], n)
            assert a.refine(n) == ea
            comp, meet, join, minus = a.complement(), a.meet(b), a.join(b), a.minus(b)
            # canonical form is unique, so this pins the cover itself down too
            for got in (comp, meet, join, minus):
                _assert_canonical(shape, got.cover)
                assert list(got.addresses) == sorted(got.cover)
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
            k = rng.randint(1, depth)
            sphere = sorted(_expand_addresses(shape, [()], k))
            addrs = [x for x in sphere if rng.random() < 0.5]
            for _ in range(rng.randint(0, 3)):
                shallower = sorted(_expand_addresses(shape, [()], rng.randint(1, k)))
                addrs.append(rng.choice(shallower))
            got = CylinderClopen.from_addresses(shape, addrs)
            _assert_canonical(shape, got.cover)
            assert list(got.addresses) == sorted(got.cover)
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


def test_a_cylinder_1500_letters_deep_complements_exactly():
    # the walk down the trie keeps its own stack: a recursive walk would
    # pass Python's recursion limit long before this depth
    for shape in (R2, T3, regular(5)):
        deep = tuple(i % 2 for i in range(1500))
        a = CylinderClopen.cylinder(shape, deep)
        comp = a.complement()
        # the siblings of every proper prefix's next letter
        assert len(comp.cover) == shape.degree - 1 + 1499 * (len(_letters(shape, deep[:1])) - 1)
        assert list(comp.addresses) == sorted(comp.cover)
        assert not comp.meets(a) and a.join(comp).is_top()


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


def test_leq_of_one_cylinder_matches_the_merge_seeded():
    # one address, zero and TOP as self, against zero, TOP and seeded
    # covers both deeper and shallower than it: the one-bisect rule, the
    # merge it replaces, the prefix oracle, the set model and "misses
    # the complement" all agree
    rng = random.Random(53)
    answers = set()
    for shape in WRITE_SHAPES:
        ball = list(shape.ball(5))
        others = [CylinderClopen.zero(shape), CylinderClopen.top(shape)]
        others += [random_clopen(rng, shape, 4) for _ in range(20)]
        for y in others:
            selves = [CylinderClopen.zero(shape), CylinderClopen.top(shape)]
            selves += [CylinderClopen.cylinder(shape, a) for a in rng.sample(ball, 25)]
            selves += [CylinderClopen.cylinder(shape, a) for a in list(y.cover)[:3]]
            for x in selves:
                got = x.leq(y)
                merged = tuple(_meeting(x.addresses, y.addresses)) == x.addresses
                n = max(x.depth, y.depth, 1)
                # x lies inside y exactly when it meets no gap of y
                gaps = oracle_complement(y)
                misses = not any(
                    _oracle_covered(a, {g}) or _oracle_covered(g, {a}) for a in x.cover for g in gaps
                )
                assert got == merged == oracle_leq(x, y) == (expand(x, n) <= expand(y, n)) == misses
                answers.add((len(x.cover), got))
    assert answers == {(0, True), (1, True), (1, False)}


def test_shapes_are_shared_per_degree():
    for make, kind in ((rooted, "rooted"), (regular, "regular")):
        for q in (3, 4, 12):
            assert make(q) is make(q)
            built = TreeShape(kind, q)
            # a shape built by hand keeps value equality with the shared one
            assert built is not make(q) and built == make(q) and hash(built) == hash(make(q))
            x = CylinderClopen.cylinder(built, (0,))
            assert x.leq(CylinderClopen.top(make(q))) and x.meet(CylinderClopen.top(make(q))) == x
    assert rooted(3) != regular(3)


# -- measure -------------------------------------------------------------------


def test_measure_weights_sum_to_one():
    for shape in (T3, R2, rooted(3)):
        for n in (1, 2, 3):
            weights = [CylinderClopen.cylinder(shape, a).measure() for a in shape.sphere(n)]
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


# -- write path against the slow path ------------------------------------------------


WRITE_SHAPES = (R2, rooted(3), T3, regular(4))


def _walk(rng, shape, k):
    a = ROOT
    for _ in range(k):
        a += (rng.choice(shape.child_letters(a)),)
    return a


def _seeded_material(rng, shape, depth):
    """Addresses up to ``depth`` with shadowed ones, repeats and complete
    sibling families (nested ones too, so merges cascade), in address order."""
    addrs = [_walk(rng, shape, rng.randint(1, depth)) for _ in range(rng.randint(0, 12))]
    for _ in range(rng.randint(0, 4)):
        v = _walk(rng, shape, rng.randint(0, depth - 1))
        family = list(shape.children(v))
        if len(v) + 2 <= depth and rng.random() < 0.5:
            # the last child's own family, merged first, completes v's
            family[-1:] = shape.children(family[-1])
        addrs += family
    addrs += [a + shape.child_letters(a)[:1] for a in addrs[:4] if len(a) < depth]
    addrs += rng.sample(addrs, min(len(addrs), 3))
    return sorted(addrs)


def test_canonical_pass_matches_the_previous_pass_seeded():
    rng = random.Random(31)
    merged = shadowed = 0
    for shape in WRITE_SHAPES:
        for _ in range(300):
            material = _seeded_material(rng, shape, rng.randint(1, 7))
            got = _canonical(shape, material)
            assert got == oracle_canonical_pass(shape, material)
            assert frozenset(got) == oracle_canonical(shape, material)
            distinct = set(material)
            shadowed += any(_oracle_covered(a[:-1], distinct) for a in distinct if a)
            merged += any(a not in distinct for a in got)
    # both rules of the pass are exercised, not only the plain append
    assert merged > 100 and shadowed > 100


def _texts(rng, shape, depth):
    x = random_clopen(rng, shape, depth)
    text = format_clopen(x)
    tokens = text[1:-1].split(",") if text.startswith("{") else []
    spaced = "{ " + " ,  ".join(tokens) + " }" if tokens else " TOP "
    dotted = "{" + ",".join(".".join(t) for t in tokens) + "}" if tokens else "{ }"
    return [text, spaced, dotted]


MALFORMED = [
    "{01,}", "{,}", "{01,,2}", "{0 1}", "{0x}", "{-1}", "{+1}", "{1_0}",
    "{0.1}", "{0..1}", "{.01}", "{01.}", "{0.1,2}", "{2, 0.1}",
    "{\u0663}", "{\u0660\u0661}", "{\u0661\u0660}", "{\u00b2}", "{01",
    "01}", "TOP,", "{}", "{  }", "  TOP  ", "{10}", "{1.11}", "{11.1,1}", "{12}",
    # whitespace inside the braces, and a NUL byte, which is letter 0 as a byte
    "{01\n,02}", "{\t01}", "{0\x001}",
]


def test_parse_clopen_matches_per_token_reading():
    def outcome(parse, shape, text):
        try:
            return parse(shape, text)
        except Exception as exc:  # the type and the message must agree
            return type(exc), str(exc)

    rng = random.Random(37)
    # degree 10 reads and writes the digit 9
    shapes = WRITE_SHAPES + (regular(12), rooted(11), rooted(10), regular(10))
    for shape in shapes:
        # a depth-3 sphere of degree 12 already has 1,452 addresses
        depth = 5 if shape.degree <= 4 else 2
        texts = MALFORMED + [t for _ in range(40) for t in _texts(rng, shape, depth)]
        for text in texts:
            want = outcome(oracle_parse_clopen, shape, text)
            assert outcome(parse_clopen, shape, text) == want, (shape, text)
        for _ in range(40):
            x = random_clopen(rng, shape, depth)
            assert list(x.addresses) == sorted(x.cover)
            words = [format_address(shape, a) for a in sorted(x.cover)]
            if not x.is_top():
                assert format_clopen(x) == "{" + ",".join(words) + "}"
    # the dotted and non-ASCII forms reach both paths with a result
    assert parse_clopen(T3, "{0.1,2}") == clop(T3, (0, 1), (2,))
    assert parse_clopen(T3, "{\u0660\u0661}") == clop(T3, (0, 1))


def test_complement_is_kept_and_stays_out_of_the_fields():
    rng = random.Random(41)
    for shape in WRITE_SHAPES:
        pool = [CylinderClopen.zero(shape), CylinderClopen.top(shape)]
        pool += [random_clopen(rng, shape, 6) for _ in range(30)]
        for c in pool:
            text = f"CylinderClopen(shape={c.shape!r}, addresses={c.addresses!r})"
            assert repr(c) == text
            comp = c.complement()
            assert comp is c.complement()
            # a fresh walk from an equal clopen, and the prefix-rule oracle
            fresh = CylinderClopen.from_addresses(shape, c.cover)
            assert fresh.complement() == comp and comp.cover == oracle_complement(c)
            assert comp.complement() == c and comp.complement() is comp.complement()
            # the complement keeps no link back to c
            assert all(v is not c for v in vars(comp).values())
            assert c == fresh and hash(c) == hash(fresh) == hash((c.shape, c.addresses))
            # the text and the hash are kept the same way
            assert str(c) is str(c) and hash(c) == hash(c)
            assert repr(c) == text
            # with the complement, text and hash kept, equality, hash and
            # repr still see shape and addresses alone
            assert {"_complement", "_text", "_hash"} <= vars(c).keys()
            bare = CylinderClopen._ordered(c.shape, c.addresses)
            assert vars(bare).keys() == {"shape", "addresses"}
            assert (bare, hash(bare), repr(bare)) == (c, hash(c), text)
        # a kept text or hash is its own clopen's, never another cover's
        for c in pool:
            assert str(c) == _rendered(c) and hash(c) == hash((c.shape, c.addresses))


def _rendered(c):
    """The text of ``c``, address by address."""
    if ROOT in c.cover:
        return "TOP"
    return "{" + ",".join(format_address(c.shape, a) for a in sorted(c.cover)) + "}"


def test_covered_matches_the_prefix_scan_seeded():
    rng = random.Random(43)
    for shape in WRITE_SHAPES:
        ball = list(shape.ball(5))
        covers = [frozenset(), frozenset({ROOT})]
        covers += [random_clopen(rng, shape, 5).cover for _ in range(20)]
        for cover in covers:
            order = sorted(cover)
            for addr in rng.sample(ball, 40) + [ROOT]:
                assert covered(addr, order) == _oracle_covered(addr, cover)


def test_measure_matches_the_per_address_sum_seeded():
    rng = random.Random(47)
    for shape in WRITE_SHAPES + (regular(12),):
        pool = [CylinderClopen.zero(shape), CylinderClopen.top(shape)]
        pool += [random_clopen(rng, shape, 5 if shape.degree <= 4 else 2) for _ in range(30)]
        for x in pool:
            want = sum((Fraction(1, shape.sphere_size(len(a))) for a in x.cover), Fraction(0))
            got = x.measure()
            assert type(got) is Fraction and got == want
