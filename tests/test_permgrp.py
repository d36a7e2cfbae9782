"""Group engine: closure, cores, maximals, factors, named lemmas.

Derived expected values were computed with the oracles in oracles.py
(exhaustive class-union scan, brute-force commutator closure) and then
frozen; the oracle calls stay in the tests so drift is caught.
"""
from __future__ import annotations

import functools
import math
import random

import pytest

from tdlclab import permgrp
from tdlclab.boolalg import regular, rooted
from tdlclab.errors import ClosureCapExceeded
from tdlclab.permgrp import (
    FiniteGroup,
    Perm,
    _greatest_prime_index_normal,
    _grow,
    _identity_images,
    _non_abelian_maximals,
    alternating_group,
    composition_factors,
    cyclic_group,
    dihedral_group,
    direct_product,
    is_pi_number,
    melnikov_subgroup,
    parse_perm,
    pi_core,
    pi_residual,
    prime_factors,
    prosoluble_core,
    prosoluble_residual,
    quaternion_group,
    symmetric_group,
    wreath_c2_tower,
    wielandt_check,
)
from tdlclab.tree import level_group, level_order

from oracles import (
    _oracle_soluble,
    corpus,
    oracle_close,
    oracle_composition_factors,
    oracle_composition_factors_by_joins,
    oracle_composition_factors_by_lattice,
    oracle_conjugacy_classes,
    oracle_element_set,
    oracle_derived,
    oracle_grow,
    oracle_largest_normal,
    oracle_lattice_by_joins,
    oracle_maximal_normal_subgroups,
    oracle_melnikov,
    oracle_melnikov_by_quotient,
    oracle_normal_closure,
    oracle_normal_lattice,
    oracle_normal_subgroups,
    oracle_pi_core,
    oracle_pi_prime_span,
    oracle_pi_residual,
)


# -- Perm basics ---------------------------------------------------------------


def test_perm_mul_applies_right_first():
    p = Perm.from_cycles(3, (0, 1))
    q = Perm.from_cycles(3, (1, 2))
    assert (p * q)(1) == p(q(1)) == p(2) == 2
    assert (p * q)(2) == p(1) == 0


def _random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Perm(tuple(images))


def test_products_and_inverses_match_the_validating_constructor_seeded():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 10)
        p, q = _random_perm(rng, n), _random_perm(rng, n)
        product = Perm(tuple(p.images[y] for y in q.images))
        inverse = Perm(tuple(p.images.index(x) for x in range(n)))
        for fast, slow in (
            (p * q, product),
            (p.inverse(), inverse),
            (q.conjugate_by(p), Perm(tuple(product.images[y] for y in inverse.images))),
        ):
            assert fast == slow and hash(fast) == hash(slow)
            assert type(fast.images) is tuple and fast.degree == n


def test_inverse_inverts_and_is_stable_seeded():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 10)
        p = _random_perm(rng, n)
        first = p.inverse()
        assert (first * p).is_identity() and (p * first).is_identity()
        assert p.inverse() == first
        assert first.inverse() == p
        assert p ** -3 == first * first * first


def test_validating_paths_still_reject():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm((1, 2))
    with pytest.raises(ValueError):
        Perm((1, 0)) * Perm((0, 2, 1))
    with pytest.raises(ValueError):
        Perm((1, 0)).conjugate_by(Perm((0, 2, 1)))


def test_perm_order_is_the_least_identity_power_on_corpus():
    for name, g in corpus().items():
        for p in g.element_list:
            n = 1
            while not (p ** n).is_identity():
                n += 1
            assert p.order() == n, (name, p)


def test_closure_matches_oracle_on_corpus():
    groups = dict(corpus(), C2wr3=wreath_c2_tower(3))
    for name, g in groups.items():
        assert g.element_set == oracle_element_set(g), name
        pruned = g.pruned_gens
        assert set(pruned) <= set(g.gens), name
        assert FiniteGroup(g.degree, pruned).element_set == g.element_set, name


def test_image_set_is_the_stored_element_set_on_corpus():
    for name, g in corpus().items():
        assert g.image_set == {p.images for p in oracle_element_set(g)}, name
        assert "element_set" not in vars(g), name
        # the Perm views are built from it on request
        assert g.element_set == frozenset(map(Perm, g.image_set)), name
        assert g.element_list == tuple(sorted(g.element_set)), name


def test_conjugacy_classes_match_oracle_on_corpus():
    for name, g in corpus().items():
        classes = g.conjugacy_classes
        assert len(classes) == len(set(classes)), name
        assert set(classes) == oracle_conjugacy_classes(g), name
        # the whole element list as generators: same classes, same order
        whole = g.subgroup_from_elements(g.element_set)
        assert whole.conjugacy_classes == classes, name


def test_cycle_notation_roundtrip_seeded():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 9)
        images = list(range(n))
        rng.shuffle(images)
        p = Perm(tuple(images))
        assert parse_perm(str(p), n) == p


def test_parse_perm_rejects_garbage():
    with pytest.raises(ValueError):
        parse_perm("(0 1", 3)
    with pytest.raises(ValueError):
        parse_perm("(0 0 1)", 3)
    with pytest.raises(ValueError):
        parse_perm("(0 1)(1 2)", 3)
    with pytest.raises(ValueError):
        parse_perm("(0 1) 2", 3)
    with pytest.raises(ValueError):
        parse_perm("(0 1)2", 3)


# -- closure -------------------------------------------------------------------


def test_orders_of_standard_groups():
    assert symmetric_group(4).order == 24
    assert alternating_group(5).order == 60
    assert dihedral_group(4).order == 8
    assert quaternion_group().order == 8
    assert cyclic_group(6).order == 6
    assert direct_product(symmetric_group(3), symmetric_group(3)).order == 36
    assert wreath_c2_tower(3).order == 2**7


def test_closure_cap_trips():
    with pytest.raises(ClosureCapExceeded):
        FiniteGroup(8, symmetric_group(8).gens, cap=100).element_set


def test_quaternion_is_not_dihedral():
    q8 = quaternion_group()
    d8 = dihedral_group(4)
    # Q8 has a single element of order 2, D8 has five
    assert sum(1 for p in q8.element_set if p.order() == 2) == 1
    assert sum(1 for p in d8.element_set if p.order() == 2) == 5
    # the presentation <i, j | i^4 = 1, i^2 = j^2, j i j^-1 = i^-1>
    i, j = q8.gens
    assert (i**4).is_identity() and i**2 == j**2 and not (i**2).is_identity()
    assert j * i * j.inverse() == i.inverse()
    assert q8.order == 8


# -- the class-mask lattice reference vs oracles ---------------------------------


def test_normal_lattice_matches_oracle_on_corpus():
    for name, g in corpus().items():
        mine = sorted(
            (n.element_set for n in oracle_normal_lattice(g)),
            key=lambda s: (len(s), sorted(p.images for p in s)),
        )
        theirs = oracle_normal_subgroups(g)
        assert mine == theirs, name


def test_normal_lattice_matches_the_join_of_closures_oracle():
    groups = dict(
        corpus(),
        C2wr3=wreath_c2_tower(3),
        level1296=level_group(rooted(3), symmetric_group(3), 2),
    )
    for name, g in groups.items():
        mine = oracle_normal_lattice(g)
        theirs = oracle_lattice_by_joins(g)
        assert [(n.order, n.element_list, n.gens) for n in mine] == [
            (n.order, n.element_list, n.gens) for n in theirs
        ], name
        for n in mine:
            assert n.pruned_gens == FiniteGroup(n.degree, n.gens).pruned_gens, name


def _bench_level_groups() -> dict[str, FiniteGroup]:
    return {
        "level1296": level_group(rooted(3), symmetric_group(3), 2),
        "level3072": level_group(regular(3), symmetric_group(3), 3),
    }


def test_composition_factors_pinned_on_the_bench_level_groups():
    groups = _bench_level_groups()
    assert composition_factors(groups["level1296"]) == [
        "C2", "C2", "C3", "C2", "C2", "C3", "C3", "C3",
    ]
    assert composition_factors(groups["level3072"]) == [
        "C2", "C2", "C2", "C3", "C2", "C2", "C2", "C2", "C2", "C2", "C2",
    ]


def test_composition_factors_match_the_descent_by_joins_oracle():
    groups = {
        "C2wr3": wreath_c2_tower(3),
        "level1296": _bench_level_groups()["level1296"],
    }
    for name, g in groups.items():
        assert composition_factors(g) == oracle_composition_factors_by_joins(g), name


_BLOCK_SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1))


def _random_block_group(rng) -> FiniteGroup:
    # s blocks of b points; each generator permutes inside every block and
    # sometimes permutes the blocks, so the group lies in S_b wr S_s
    b, s = rng.choice(_BLOCK_SHAPES)
    gens = []
    for _ in range(rng.randint(1, 3)):
        inner = [rng.sample(range(b), b) for _ in range(s)]
        outer = list(range(s))
        if rng.random() < 0.4:
            rng.shuffle(outer)
        images = [outer[k // b] * b + inner[k // b][k % b] for k in range(b * s)]
        gens.append(Perm(images) ** rng.randint(1, 4))
    return FiniteGroup(b * s, gens, cap=1000)


def _seeded_groups(count: int, seed: int) -> list[FiniteGroup]:
    """Seeded subgroups of small wreath products, a third of them direct
    products of two; groups past order 1000 are skipped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = _random_block_group(rng)
        if rng.random() < 0.3:
            g = direct_product(g, _random_block_group(rng))
            g.cap = 1000
        try:
            g.order
        except ClosureCapExceeded:
            continue
        out.append(g)
    return out


def _is_prime(n: int) -> bool:
    return prime_factors(n) == {n: 1}


@functools.cache
def _named_groups() -> dict[str, FiniteGroup]:
    """The named groups of the lattice comparisons, built once, so that
    each lattice reference is built once too: it takes seconds on
    C59 x A5 and A5 x C61."""
    a5, s5, c3, c5 = alternating_group(5), symmetric_group(5), cyclic_group(3), cyclic_group(5)
    return dict(
        A5xC2=direct_product(a5, cyclic_group(2)),
        A5xC4=direct_product(a5, cyclic_group(4)),
        A5xA5=direct_product(a5, a5),
        A5xS3=direct_product(a5, symmetric_group(3)),
        S5=s5,
        S5xA5=direct_product(s5, a5),
        S5xS5=direct_product(s5, s5),
        A6=alternating_group(6),
        A4xC3=direct_product(alternating_group(4), c3),
        C4=cyclic_group(4),
        C3cubed=direct_product(direct_product(c3, c3), c3),
        C5squared=direct_product(c5, c5),
        C2wr3=wreath_c2_tower(3),
        **_bench_level_groups(),
        C59xA5=direct_product(cyclic_group(59), a5),
        A5xC61=direct_product(a5, cyclic_group(61)),
    )


def _prime_index_steps_match_the_lattice(g: FiniteGroup) -> int:
    """Descend g through the lattice's greatest maximal member, checking
    the prime-index step at each step against the greatest maximal member
    of prime index; the step declines only on perfect groups.  Returns the
    number of steps that applied."""
    applied = 0
    current = g
    while current.order > 1:
        mine = _greatest_prime_index_normal(current)
        maximals = oracle_maximal_normal_subgroups(current)
        of_prime_index = [m for m in maximals if _is_prime(current.order // m.order)]
        if mine is None:
            assert of_prime_index == []
        else:
            assert mine.image_set == of_prime_index[-1].image_set
            assert mine.pruned_gens == FiniteGroup(g.degree, mine.gens).pruned_gens
            applied += 1
        current = maximals[-1]
    return applied


def test_prime_index_step_matches_the_lattice_on_corpus_and_named_cases():
    groups = dict(corpus(), **_named_groups())
    applied = {name: _prime_index_steps_match_the_lattice(g) for name, g in groups.items()}
    assert applied["A5"] == 0 and applied["C3cubed"] == 3 and applied["level3072"] == 11
    assert applied["A5xC61"] == 2 and applied["S5xA5"] == 1


def test_prime_index_step_matches_the_lattice_on_seeded_groups():
    applied = [_prime_index_steps_match_the_lattice(g) for g in _seeded_groups(300, 45)]
    assert sum(applied) > 600


def test_prime_index_step_takes_index_59_below_the_order_of_a5():
    # C59 x A5 has two maximal normal subgroups, C59 of index 60 and A5 of
    # index 59, so the greatest is A5.  Its lattice takes seconds to
    # build, so the member is written down instead.
    a5 = alternating_group(5)
    g = direct_product(cyclic_group(59), a5)
    a5_inside = FiniteGroup(64, [Perm(tuple(range(59)) + tuple(59 + x for x in p.images)) for p in a5.gens])
    assert _greatest_prime_index_normal(g).image_set == a5_inside.image_set
    assert composition_factors(g) == ["C59", "A5"]


def test_prime_index_61_loses_to_the_maximal_of_index_60():
    # A5 x C61: the step takes A5, of the prime index 61, but the greatest
    # maximal normal subgroup is C61, of index 60, so the series descends
    # to C61 first.  A perfect group has no subgroup of prime index.
    a5 = alternating_group(5)
    g = direct_product(a5, cyclic_group(61))
    a5_inside = FiniteGroup(66, [Perm(p.images + tuple(range(5, 66))) for p in a5.gens])
    assert _greatest_prime_index_normal(g).image_set == a5_inside.image_set
    assert composition_factors(g) == ["A5", "C61"]
    assert _greatest_prime_index_normal(a5) is None


def _assert_maximals_and_factors_match_the_lattice(g: FiniteGroup, name) -> None:
    want = {
        m.image_set for m in oracle_maximal_normal_subgroups(g) if not _is_prime(g.order // m.order)
    }
    mine = [m.image_set for m in _non_abelian_maximals(g)]
    assert len(set(mine)) == len(mine) and set(mine) == want, name
    assert composition_factors(g) == oracle_composition_factors_by_lattice(g), name


def test_non_abelian_maximals_and_factors_match_the_lattice_on_corpus_and_named_groups():
    groups = dict(corpus(), **_named_groups())
    for name, g in groups.items():
        _assert_maximals_and_factors_match_the_lattice(g, name)
    # S5 x A5: the first round grows to 1 x A5, which holds no new maximal,
    # so T shrinks to 1 x A5 before S5 x 1 is found
    s5xa5 = _named_groups()["S5xA5"]
    assert [m.order for m in _non_abelian_maximals(s5xa5)] == [120]
    assert composition_factors(s5xa5) == ["C2", "A5", "A5"]


def test_non_abelian_maximals_and_factors_match_the_lattice_on_seeded_groups():
    for i, g in enumerate(_seeded_groups(300, 45)):
        _assert_maximals_and_factors_match_the_lattice(g, i)


def test_normal_closure_examples():
    s3 = symmetric_group(3)
    assert s3.normal_closure([Perm.from_cycles(3, (0, 1))]).order == 6
    a4 = alternating_group(4)
    double = a4.normal_closure([Perm.from_cycles(4, (0, 1), (2, 3))])
    assert double.order == 4  # the Klein four-group


def _closure_triple(h: FiniteGroup):
    return h.gens, h.pruned_gens, h.element_set


def test_closure_kernel_matches_the_perm_product_oracle():
    groups = dict(corpus(), C2wr3=wreath_c2_tower(3))
    for shape in (rooted(2), rooted(3), regular(3)):
        for local in (cyclic_group(shape.degree), symmetric_group(shape.degree)):
            for n in (1, 2):
                key = f"{shape.kind}{shape.degree}-{local.order}-{n}"
                groups[key] = level_group(shape, local, n)
    for name, g in groups.items():
        elems, kept = oracle_close(g)
        assert (g.element_set, g.pruned_gens) == (elems, kept), name


def _grow_both(start, kept, gens, cap: int):
    """(kept, seen) after ``_grow`` and after ``oracle_grow``, each from
    its own copy of the closed set ``start`` and of ``kept``."""
    out = []
    for kernel in (_grow, oracle_grow):
        seen, mine = dict(start), list(kept)
        kernel(seen, mine, gens, cap)
        out.append((mine, frozenset(seen)))
    return out


def _assert_same_growth(mine, theirs, name) -> None:
    (kept, seen), (want_kept, want_seen) = mine, theirs
    assert seen == want_seen, name
    assert len(kept) == len(want_kept), name
    assert all(a is b for a, b in zip(kept, want_kept)), name


def _level_groups_up_to_depth_3(bound: int = 40_000) -> dict[str, FiniteGroup]:
    out = {}
    for shape in (rooted(2), rooted(3), regular(3), regular(4)):
        for local in (cyclic_group(shape.degree), symmetric_group(shape.degree)):
            for n in (1, 2, 3):
                if level_order(shape, local, n) <= bound:
                    out[f"{shape.kind}{shape.degree}-{local.order}-{n}"] = level_group(shape, local, n)
    return out


def test_grow_matches_the_breadth_first_oracle_on_corpus_and_level_groups():
    groups = dict(corpus(), **_level_groups_up_to_depth_3())
    assert "regular4-24-2" in groups and "rooted2-2-3" in groups
    for name, g in groups.items():
        start = {_identity_images(g.degree): None}
        _assert_same_growth(*_grow_both(start, [], g.gens, g.cap), name)


def test_grow_matches_the_breadth_first_oracle_on_redundant_generators_seeded():
    # identity, repeated and redundant generators, in seeded orders
    rng = random.Random(42)
    pool = dict(corpus(), C2wr3=wreath_c2_tower(3), D12=dihedral_group(6))
    for _ in range(60):
        name = rng.choice(sorted(pool))
        g = pool[name]
        gens = rng.sample(g.element_list, min(len(g.element_list), rng.randint(1, 5)))
        gens.append(g.identity())
        gens += rng.sample(gens, rng.randint(1, len(gens)))
        gens.append(gens[0] * gens[-1])
        rng.shuffle(gens)
        start = {_identity_images(g.degree): None}
        _assert_same_growth(*_grow_both(start, [], gens, g.cap), (name, gens))


def test_grow_matches_the_breadth_first_oracle_over_incremental_calls_seeded():
    # several calls on one set, as normal_closure and pi_residual make them
    rng = random.Random(7)
    pool = [symmetric_group(4), wreath_c2_tower(3), level_group(rooted(3), symmetric_group(3), 2)]
    for _ in range(20):
        g = rng.choice(pool)
        seen = {_identity_images(g.degree): None}
        kept: list[Perm] = []
        for _ in range(rng.randint(2, 4)):
            gens = rng.sample(g.element_list, rng.randint(1, 3))
            _assert_same_growth(*_grow_both(seen, kept, gens, g.cap), gens)
            # the next call resumes from the set in the order the kernel grew it
            _grow(seen, kept, gens, g.cap)


def test_grow_adds_every_coset_of_a_subgroup_that_is_not_normal():
    # H = <(0 1)> is not normal in Sym(3): the coset H (1 2) times (0 1)
    # leaves the cosets the new generator alone reaches
    swap, other = Perm((1, 0, 2)), Perm((0, 2, 1))
    seen = {(0, 1, 2): None, swap.images: None}
    kept = [swap]
    _grow(seen, kept, [other], 6)
    assert kept == [swap, other]
    assert frozenset(seen) == symmetric_group(3).image_set


def _closed_with_cap(group: FiniteGroup, cap: int) -> FiniteGroup:
    """The group closed under the default cap, then given ``cap``."""
    g = FiniteGroup(group.degree, group.gens)
    g.pruned_gens
    g.cap = cap
    return g


def test_closure_cap_is_the_largest_order_that_closes():
    for name, g in dict(corpus(), C2wr3=wreath_c2_tower(3)).items():
        n = g.order
        assert FiniteGroup(g.degree, g.gens, cap=n).order == n, name
        with pytest.raises(ClosureCapExceeded):
            FiniteGroup(g.degree, g.gens, cap=n - 1).image_set
        for cap in range(1, n):
            seen = {_identity_images(g.degree): None}
            with pytest.raises(ClosureCapExceeded):
                _grow(seen, [], g.gens, cap)
            assert len(seen) <= cap, (name, cap)
    s4 = symmetric_group(4)
    seeds = {24: [Perm.from_cycles(4, (0, 1))], 4: [Perm.from_cycles(4, (0, 1), (2, 3))]}
    for n, seed in seeds.items():
        assert _closed_with_cap(s4, n).normal_closure(seed).order == n
        with pytest.raises(ClosureCapExceeded):
            _closed_with_cap(s4, n - 1).normal_closure(seed)
    for pi, n in (({2}, 12), ({3}, 24)):
        assert pi_residual(_closed_with_cap(s4, n), pi).order == n
        with pytest.raises(ClosureCapExceeded):
            pi_residual(_closed_with_cap(s4, n - 1), pi)


def test_normal_closure_matches_the_restart_oracle_on_corpus():
    for name, g in corpus().items():
        for seed in [[x] for x in g.element_list] + [[]]:
            mine = _closure_triple(g.normal_closure(seed))
            assert mine == oracle_normal_closure(g, seed), (name, seed)


def test_normal_closure_matches_the_restart_oracle_on_chains_and_level_groups():
    rng = random.Random(19)
    pool = [
        symmetric_group(4),
        direct_product(symmetric_group(3), symmetric_group(3)),
        wreath_c2_tower(3),
        dihedral_group(6),
    ]
    calls = 0
    for _ in range(40):
        tail = rng.choice(pool)
        for _ in range(rng.randint(1, 3)):
            if tail.order == 1:
                break
            seed = rng.sample(tail.element_list, rng.randint(1, 2))
            nxt = tail.normal_closure(seed)
            assert _closure_triple(nxt) == oracle_normal_closure(tail, seed)
            calls += 1
            tail = nxt
    assert calls >= 60
    level = level_group(rooted(3), symmetric_group(3), 2)
    for x in level.gens:
        mine = _closure_triple(level.normal_closure([x]))
        assert mine == oracle_normal_closure(level, [x]), x


@pytest.mark.parametrize("degree", [3, 5], ids=["short", "long"])
def test_normal_closure_rejects_a_seed_of_another_degree(degree):
    s4 = symmetric_group(4)
    s4.order
    good = Perm.from_cycles(4, (0, 1))
    bad = Perm.from_cycles(degree, (0, 1, 2))
    for seed in ([bad], [good, bad]):
        with pytest.raises(ValueError, match="degree mismatch"):
            s4.normal_closure(seed)


def test_derived_subgroup_matches_bruteforce():
    for name, g in corpus().items():
        assert g.derived_subgroup().element_set == oracle_derived(g), name


def test_derived_s3_is_a3():
    der = symmetric_group(3).derived_subgroup()
    assert der.element_set == alternating_group(3).element_set


# -- cores, residuals, melnikov, factors -------------------------------------------


def test_pi_core_examples():
    s4 = symmetric_group(4)
    assert pi_core(s4, {2}).order == 4  # Klein four-group
    assert pi_core(s4, {3}).order == 1
    assert pi_core(s4, {2, 3}).order == 24
    assert pi_residual(s4, {2}).order == 12  # A4
    assert pi_residual(s4, {2, 3}).order == 1


def test_pi_residual_keeps_the_generators_of_the_span_of_every_pi_prime_element():
    groups = dict(
        corpus(),
        C2wr3=wreath_c2_tower(3),
        level1296=level_group(rooted(3), symmetric_group(3), 2),
    )
    for name, g in groups.items():
        for pi in ({2}, {3}, {2, 3}, {5}):
            mine, theirs = pi_residual(g, pi), oracle_pi_prime_span(g, pi)
            assert mine.image_set == theirs.image_set, (name, pi)
            assert mine.pruned_gens == mine.gens == theirs.pruned_gens, (name, pi)


def test_prosoluble_examples():
    assert prosoluble_core(symmetric_group(4)).order == 24
    assert prosoluble_core(alternating_group(5)).order == 1
    assert prosoluble_residual(alternating_group(5)).order == 60
    assert prosoluble_residual(symmetric_group(4)).order == 1


def test_melnikov_examples():
    s3 = symmetric_group(3)
    assert melnikov_subgroup(s3).element_set == alternating_group(3).element_set
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert melnikov_subgroup(v4).order == 1
    assert melnikov_subgroup(alternating_group(5)).order == 1


def _assert_cores_and_melnikov_match_the_lattice_route(g: FiniteGroup, name) -> None:
    for pi in ({2}, {3}, {2, 3}, {5}):
        want = oracle_largest_normal(g, lambda n: is_pi_number(n.order, pi))
        assert pi_core(g, pi).image_set == want.image_set, (name, pi)
    want = oracle_largest_normal(g, FiniteGroup.is_soluble)
    assert prosoluble_core(g).image_set == want.image_set, name
    assert melnikov_subgroup(g).image_set == oracle_melnikov_by_quotient(g), name


def test_cores_and_melnikov_match_the_lattice_route_on_corpus_and_named_groups():
    groups = dict(corpus(), **_named_groups())
    for name, g in groups.items():
        _assert_cores_and_melnikov_match_the_lattice_route(g, name)
    # a radical of order 59 whose class closures stop at the bound
    # |G| / 60 = 59
    assert prosoluble_core(groups["C59xA5"]).order == 59


def test_cores_and_melnikov_match_the_lattice_route_on_seeded_groups():
    groups = _seeded_groups(300, 45)
    assert sum(not g.is_soluble() for g in groups) == 31
    for i, g in enumerate(groups):
        _assert_cores_and_melnikov_match_the_lattice_route(g, i)


def test_melnikov_order_check_refuses_a_normal_subgroup_that_is_not_maximal(monkeypatch):
    # the trivial subgroup of A5 x C2, handed over as a maximal normal
    # subgroup, cuts the meet G'G^2 = A5 by 60, not by its index 120
    a5xc2 = direct_product(alternating_group(5), cyclic_group(2))
    assert melnikov_subgroup(a5xc2).order == 1
    monkeypatch.setattr(permgrp, "_non_abelian_maximals", lambda g: [g.subgroup(())])
    with pytest.raises(AssertionError, match="a maximal of index 120 cuts the meet by 60"):
        melnikov_subgroup(direct_product(alternating_group(5), cyclic_group(2)))


def test_composition_factors_examples():
    assert sorted(composition_factors(symmetric_group(4))) == [
        "C2",
        "C2",
        "C2",
        "C3",
    ]
    assert composition_factors(alternating_group(5)) == ["A5"]
    assert sorted(composition_factors(cyclic_group(6))) == ["C2", "C3"]
    # the least element list at each step would give C3, C2, C2, C3
    a4xc3 = direct_product(alternating_group(4), cyclic_group(3))
    assert composition_factors(a4xc3) == ["C3", "C3", "C2", "C2"]


def test_composition_factors_run_once_per_group_and_hand_out_new_lists(monkeypatch):
    g = direct_product(alternating_group(4), cyclic_group(3))
    first = composition_factors(g)
    first.append("C7")

    def no_second_descent(h):
        raise AssertionError("composition factors computed twice")

    monkeypatch.setattr(permgrp, "_greatest_prime_index_normal", no_second_descent)
    assert composition_factors(g) == ["C3", "C3", "C2", "C2"]


def test_invariants_match_oracle_on_corpus():
    for name, g in corpus().items():
        assert pi_core(g, {2}).element_set == oracle_pi_core(g, {2}), name
        assert (
            pi_residual(g, {2}).element_set == oracle_pi_residual(g, {2})
        ), name
        assert melnikov_subgroup(g).element_set == oracle_melnikov(g), name
        assert composition_factors(g) == oracle_composition_factors(g), name


def test_is_soluble_matches_oracle_on_corpus():
    verdicts = set()
    for name, g in corpus().items():
        for sub in (g, *map(g.subgroup_from_elements, oracle_normal_subgroups(g))):
            want = _oracle_soluble(sub, sub.element_set)
            assert sub.is_soluble() == want, name
            verdicts.add(want)
    assert verdicts == {True, False}


def test_composition_factors_invariant_under_conjugation():
    rng = random.Random(2)
    s5 = symmetric_group(5)
    base = symmetric_group(4)
    # embed S4's generators into S5 and conjugate by random elements
    for _ in range(10):
        x = rng.choice(s5.element_list)
        gens = [
            Perm(tuple(x(g(x.inverse()(p))) for p in range(5)))
            for g in [
                Perm(tuple(g.images) + (4,)) for g in base.gens
            ]
        ]
        conj = FiniteGroup(5, gens)
        assert sorted(composition_factors(conj)) == ["C2", "C2", "C2", "C3"]
    # relabelling the points keeps the sorted labels and the orders of the
    # cores and the Melnikov subgroup, and the factor orders multiply to
    # the group's order
    def orders(h):
        cores = (pi_core(h, pi).order for pi in ({2}, {3}, {2, 3}, {5}))
        return (*cores, prosoluble_core(h).order, melnikov_subgroup(h).order)

    for g in [*corpus().values(), *_seeded_groups(40, 47)]:
        factors = composition_factors(g)
        assert math.prod(map(_factor_order, factors)) == g.order
        relabel = _random_perm(rng, g.degree)
        moved = FiniteGroup(g.degree, [p.conjugate_by(relabel) for p in g.gens])
        assert sorted(composition_factors(moved)) == sorted(factors)
        assert orders(moved) == orders(g)


def _factor_order(label: str) -> int:
    if label.startswith("C"):
        return int(label[1:])
    if label.startswith("simple["):
        return int(label[7:-1])
    return {"A5": 60, "A6": 360, "A7": 2520}[label]


# -- structure lemmas --------------------------------------------------------------------


def _random_subnormal_chain(rng, g):
    # normal closures of random elements: subnormal by construction and
    # cheap, unlike walking each tail's full normal-subgroup lattice
    chain = [g]
    for _ in range(rng.randint(1, 3)):
        tail = chain[-1]
        if tail.order == 1:
            break
        seed = rng.choice(tail.element_list)
        nxt = tail.normal_closure([seed])
        if nxt.order == tail.order:
            nxt = tail.normal_closure([])
        chain.append(nxt)
    return chain


def test_wielandt_seeded():
    rng = random.Random(8)
    pool = [
        symmetric_group(4),
        direct_product(symmetric_group(3), symmetric_group(3)),
        wreath_c2_tower(3),
        dihedral_group(6),
    ]
    pis = [{2}, {3}, {2, 3}, {2, 5}]
    for _ in range(25):
        g = rng.choice(pool)
        chain = _random_subnormal_chain(rng, g)
        pi = rng.choice(pis)
        res = wielandt_check(g, chain, pi)
        assert res["holds"], (g.order, [c.order for c in chain])
        # cores and residuals work on image tuples: no group on the way
        # wraps its elements as Perms
        s = chain[-1]
        residual = pi_residual(s, pi)
        assert res["pi"] == pi_core(g, pi).normalises(residual)
        for h in [*chain, pi_core(g, pi), prosoluble_core(g), residual, prosoluble_residual(s)]:
            assert "element_set" not in vars(h), (g.order, h.order)


def test_prime_factors():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(97) == {97: 1}


def _oracle_normalises(outer, inner) -> bool:
    inner_set = inner.element_set
    return all(
        a * x * a.inverse() in inner_set
        for a in outer.element_set
        for x in inner_set
    )


def test_normalises_rejects_a_group_of_another_degree():
    # conjugation on image tuples checks no degree, so normalises does
    s3, s4 = symmetric_group(3), symmetric_group(4)
    for outer, inner in ((s3, s4), (s4, s3), (s4, FiniteGroup(3, []))):
        with pytest.raises(ValueError, match="degree mismatch"):
            outer.normalises(inner)


def test_normalises_matches_elementwise_oracle_on_corpus():
    rng = random.Random(14)
    outcomes = set()
    for name, g in corpus().items():
        cyclic = [g.subgroup([x]) for x in rng.sample(g.element_list, 4)]
        subs = [g, *map(g.subgroup_from_elements, oracle_normal_subgroups(g)), *cyclic]
        for outer in subs:
            for inner in subs:
                want = _oracle_normalises(outer, inner)
                assert outer.normalises(inner) == want, name
                outcomes.add(want)
    assert outcomes == {True, False}
