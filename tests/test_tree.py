import random
import re
from functools import partial, reduce
from math import prod

import pytest

from tdlclab.boolalg import (
    ROOT,
    CylinderClopen,
    _slice,
    parse_clopen,
    regular,
    rooted,
    sphere_list,
)
from tdlclab.boundary import region_vertices, rist_generators, support_in
from tdlclab.errors import PrecisionExhausted, SiteError
from tdlclab.permgrp import (
    FiniteGroup,
    Perm,
    composition_factors,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from tdlclab import cli
from tdlclab import localstruct as ls
from tdlclab.tree import (
    _join_reduced,
    IsometrySpec,
    SpecWord,
    cayley_abels_dot,
    child_orbits,
    congruence_kernel,
    conjugate_families,
    free_reduce,
    hyperbolic_isometry,
    in_universal_group,
    level_group,
    level_order,
    local_prime_content,
    schreier_dot,
    site_decorations,
    site_group,
    site_permutations,
    site_pools,
    spec_image_clopen,
    sphere_orbit_classes,
)
from oracles import (
    checked_table,
    full_table,
    oracle_ball,
    oracle_ball_table_error,
    oracle_congruence_kernel,
    oracle_in_universal_group,
    oracle_level_perms,
    oracle_quotient,
    oracle_realize,
    oracle_slice,
    oracle_sphere,
    oracle_witness_perms,
    pullbacks,
)
from tree_oracles import (
    oracle_compose_tables,
    oracle_image_clopen,
    oracle_invert_table,
    oracle_level_order,
    oracle_local_action,
    oracle_regular_apply,
    oracle_rooted_apply,
    oracle_translation_apply,
)
from util import random_regular_portrait, random_rooted_portrait

T3 = regular(3)
R2 = rooted(2)
S3 = symmetric_group(3)
C3 = cyclic_group(3)
C2 = cyclic_group(2)


def local_action(shape, table, v):
    """The colour permutation a ball table induces at a vertex inside it."""
    return oracle_local_action(shape, lambda a: table.get(a, a), v)


def whole(mover, r):
    """The radius-r table ``realize`` builds, spelled out over the ball."""
    return full_table(mover.shape, r, mover.realize(r))


# -- portrait semantics --------------------------------------------------------


def test_rooted_portrait_matches_oracle_seeded():
    rng = random.Random(11)
    shape = rooted(3)
    for _ in range(60):
        p = random_rooted_portrait(rng, shape, 2)
        smap = dict(p.sites)
        for _ in range(10):
            addr = []
            for _ in range(rng.randint(0, 5)):
                addr.append(rng.randrange(3))
            addr = tuple(addr)
            assert p.apply(addr) == oracle_rooted_apply(smap, addr)


def test_regular_portrait_matches_oracle_seeded():
    rng = random.Random(12)
    for _ in range(60):
        p = random_regular_portrait(rng, T3, S3, 2)
        smap = dict(p.sites)
        for _ in range(10):
            addr = []
            for _ in range(rng.randint(0, 6)):
                options = [c for c in range(3) if not addr or c != addr[-1]]
                addr.append(rng.choice(options))
            addr = tuple(addr)
            assert p.apply(addr) == oracle_regular_apply(smap, addr)


def test_root_site_recolours_letterwise():
    tau = Perm((1, 2, 0))
    p = IsometrySpec(T3, sites=((ROOT, tau),))
    assert p.apply((0, 1, 0, 2)) == (1, 2, 1, 0)
    assert local_action(T3, p.realize(4), ROOT) == tau
    # inherited all the way down
    assert local_action(T3, p.realize(4), (0, 1)) == tau


def test_deep_site_overrides_inherited():
    tau = Perm((1, 0, 2))
    # site below an undecorated root must fix its return colour 0
    rho = Perm((0, 2, 1))
    p = IsometrySpec(T3, sites=(((0,), rho),))
    assert p.apply((0, 1)) == (0, 2)
    assert p.apply((0, 2)) == (0, 1)
    assert p.apply((1, 0)) == (1, 0)
    combined = IsometrySpec(
        T3, sites=((ROOT, tau), ((0,), Perm((1, 0, 2))))
    )
    # decorated root sends return colour 0 to 1, the deep site agrees
    assert combined.apply((0, 1)) == (1, 0)


def test_regular_portrait_rejects_return_colour_breakage():
    with pytest.raises(ValueError):
        IsometrySpec(T3, sites=(((0,), Perm((1, 0, 2))),))
    with pytest.raises(ValueError):
        IsometrySpec(
            T3, sites=((ROOT, Perm((1, 0, 2))), ((0,), Perm((0, 2, 1))))
        )


def test_portrait_rejects_duplicates_and_bad_degree():
    with pytest.raises(ValueError):
        IsometrySpec(
            T3, sites=((ROOT, Perm((1, 0, 2))), (ROOT, Perm((0, 2, 1))))
        )
    with pytest.raises(ValueError):
        IsometrySpec(T3, sites=((ROOT, Perm((1, 0))),))


@pytest.mark.parametrize(
    "sites, site, message",
    [
        ((((0, 1), Perm((2, 1, 0))), ((0, 0), Perm((0, 2, 1)))), (0, 0), "illegal address (0, 0)"),
        ((((0, 1), Perm((2, 1, 0))), ((0,), Perm((1, 0)))), (0,), "decoration degree"),
        ((((0, 1), Perm((2, 1, 0))), ((0, 1), Perm((2, 1, 0)))), (0, 1), "duplicate site (0, 1)"),
        ((((0, 2), Perm((1, 0, 2))), ((0, 1), Perm((1, 0, 2)))), (0, 1), "return colour 1"),
    ],
    ids=["illegal", "degree", "duplicate", "return-colour"],
)
def test_site_faults_name_the_site_that_failed(sites, site, message):
    # the spec parser reads .site to point at the failing site's column
    with pytest.raises(SiteError, match=re.escape(message)) as err:
        IsometrySpec(T3, sites=sites)
    assert err.value.site == site


def test_local_actions_match_oracle_seeded():
    rng = random.Random(13)
    for _ in range(25):
        p = random_regular_portrait(rng, T3, S3, 2)
        iso = p.realize(5)
        for v in T3.ball(3):
            assert local_action(T3, iso, v) == oracle_local_action(
                T3, p.apply, v
            )


# -- exact products against the table algebra ------------------------------------


def test_compose_matches_pointwise():
    rng = random.Random(14)
    for _ in range(30):
        g = random_regular_portrait(rng, T3, S3, 2)
        h = random_regular_portrait(rng, T3, S3, 2)
        gh = SpecWord.of(g, h).realize(6)
        assert checked_table(T3, 6, gh) == gh  # a radius-6 table
        table = full_table(T3, 6, gh)
        assert table == oracle_compose_tables(whole(g, 6), whole(h, 6))
        for v in T3.ball(6):
            assert table[v] == g.apply(h.apply(v))


def test_inverse_roundtrip_and_precision():
    t0 = hyperbolic_isometry(T3, (0,))
    fwd = t0.realize(6)
    inv = SpecWord(T3, ((t0, -1),)).realize(6)
    # the exact inverse keeps the whole ball; the inverted table reaches
    # only the radius the displacement leaves
    assert checked_table(T3, 6, inv) == inv  # a radius-6 table
    table_inv = oracle_invert_table(full_table(T3, 6, fwd))
    assert set(T3.ball(5)) <= set(table_inv)
    assert not set(T3.ball(6)) <= set(table_inv)
    table_fwd, table_back = full_table(T3, 6, fwd), full_table(T3, 6, inv)
    assert all(table_back[a] == table_inv[a] for a in T3.ball(5))
    after = oracle_compose_tables(table_back, table_fwd)
    before = oracle_compose_tables(table_fwd, table_back)
    assert all(after[a] == a == before[a] for a in T3.ball(4))
    assert whole(SpecWord(T3, ((t0, 1), (t0, -1))), 6) == {
        a: a for a in T3.ball(6)
    }


def test_precision_exhaustion_raises():
    t0 = hyperbolic_isometry(T3, (0,))
    iso = t0.realize(2)
    with pytest.raises(PrecisionExhausted):
        checked_table(T3, -1, {})
    # the one guard of the ball-table builder _table, from each builder
    witness = IsometrySpec(T3, sites=(((0, 1), Perm((2, 1, 0))),))
    conjugates = partial(conjugate_families, t0, [1], [witness, t0])
    for build in (witness.realize, SpecWord.of(t0, witness).realize, conjugates):
        with pytest.raises(PrecisionExhausted):
            build(-1)
    # table powers run out of base vertex; exact powers never do
    table = full_table(T3, 2, iso)
    power, k = table, 1
    while ROOT in power:
        power, k = oracle_compose_tables(power, table), k + 1
    assert k == 4  # the radius-2 table of t0^4 no longer covers the base
    for e in range(1, k + 3):
        assert len(SpecWord(T3, ((t0, e),)).realize(2)[ROOT]) == e


def test_cocycle_identity_seeded():
    # local action of a product: act with the inner element, read the
    # outer action at the moved vertex, compose
    rng = random.Random(15)
    pool = [
        hyperbolic_isometry(T3, (0,)),
        hyperbolic_isometry(T3, (1,)),
        IsometrySpec(T3, word=(0, 1)),
    ]
    checked = 0
    for _ in range(100):
        specs = [rng.choice(pool)]
        if rng.random() < 0.6:
            specs.append(
                IsometrySpec(
                    T3,
                    sites=random_regular_portrait(rng, T3, S3, 1).sites,
                )
            )
        g_spec, h_spec = rng.choice(specs), rng.choice(specs)
        g, h = g_spec.realize(8), h_spec.realize(8)
        gh = SpecWord.of(g_spec, h_spec).realize(8)
        table_g, table_h, table_gh = (full_table(T3, 8, t) for t in (g, h, gh))
        composed = oracle_compose_tables(table_g, table_h)
        assert all(table_gh[a] == b for a, b in composed.items())
        for v in T3.ball(3):
            lhs = local_action(T3, gh, v)
            rhs = local_action(T3, g, table_h[v]) * local_action(T3, h, v)
            assert lhs == rhs
            checked += 1
    assert checked >= 500


# -- table checking: every ball table passes one whole-ball check ------------------


@pytest.mark.parametrize(
    "shape, precision, changes, message",
    [
        (T3, 1, {(2, 0): (2, 0)}, "domain is not inside the stated ball"),
        (T3, 1, {(1,): (0,)}, "not injective"),
        (T3, 1, {(1,): (3,)}, "illegal address"),
        (R2, 0, {(): (1,)}, "must fix the root"),
        (T3, 1, {(2,): (1, 0)}, "not adjacent"),
    ],
    ids=["domain", "injective", "illegal", "rooted-root", "adjacent"],
)
def test_ball_table_rejections(shape, precision, changes, message):
    table = {a: a for a in shape.ball(precision)}
    checked_table(shape, precision, table)  # the unchanged table passes
    with pytest.raises(ValueError, match=message):
        checked_table(shape, precision, {**table, **changes})


SWAP02 = Perm((2, 1, 0))


def test_sparse_table_rejects_one_corrupted_entry():
    # a witness at (0, 1) swaps the subtrees below (0, 1, 0) and (0, 1, 2)
    r = 4
    moved = IsometrySpec(T3, sites=(((0, 1), SWAP02),)).realize(r)
    assert moved[(0, 1, 0)] == (0, 1, 2) and (0, 1) not in moved
    # the edge from the fixed site to a moved child, one level below it
    with pytest.raises(ValueError, match="not adjacent"):
        checked_table(T3, r, {**moved, (0, 1, 0): (1, 0, 1, 0, 1)})
    # the edge from a moved vertex to a child the table leaves fixed
    pruned = {a: b for a, b in moved.items() if a not in ((0, 1, 0, 1), (0, 1, 2, 1))}
    with pytest.raises(ValueError, match="not adjacent"):
        checked_table(T3, r, pruned)
    # an image that lands on a fixed vertex of the ball
    with pytest.raises(ValueError, match="not injective"):
        checked_table(T3, r, {**moved, (0, 1, 0): (2,)})
    with pytest.raises(ValueError, match="illegal address"):
        checked_table(T3, r, {**moved, (0, 1, 0): (0, 1, 1)})
    checked_table(T3, r, moved)  # the table itself passes


def _seeded_tables(rng):
    """Ball tables of witnesses, portraits, translations and conjugates,
    as (shape, radius, table) triples."""
    out = []
    t0 = hyperbolic_isometry(T3, (0,))
    for r in (2, 3, 4):
        movers = [t0, IsometrySpec(T3, word=(1, 2)), IsometrySpec(T3)]
        movers += [random_regular_portrait(rng, T3, S3, 2) for _ in range(3)]
        movers += [random_rooted_portrait(rng, R2, 2) for _ in range(3)]
        for v in [(0, 1), (2,), (1, 0, 2)]:
            movers.append(IsometrySpec(T3, sites=((v, site_group(T3, S3, v).gens[0]),)))
        out += [(m.shape, r, m.realize(r)) for m in movers]
        out += [(T3, r, t) for t in conjugate_families(t0, (2,), movers[3:6], r)[2]]
    return out


def test_checked_table_matches_the_whole_ball_oracle_seeded():
    # every seeded table passes; one entry of its whole-ball table is
    # changed at random, and checked_table raises exactly when the whole-
    # ball check fails, for the same reason, else keeps the moved entries
    rng = random.Random(53)
    reasons = set()
    for shape, r, moved in _seeded_tables(rng):
        table = full_table(shape, r, moved)
        assert oracle_ball_table_error(shape, table) is None
        targets = list(shape.ball(r + 1)) + [(0, 0), (shape.degree,)]
        for _ in range(6):
            bad = {**table, rng.choice(list(table)): rng.choice(targets)}
            want = oracle_ball_table_error(shape, bad)
            reasons.add(want)
            if want is None:
                assert checked_table(shape, r, bad) == {
                    a: b for a, b in bad.items() if a != b
                }
            else:
                with pytest.raises(ValueError, match=want):
                    checked_table(shape, r, bad)
    assert reasons >= {None, "not injective", "illegal address", "not adjacent"}


def test_universal_membership_matches_the_whole_ball_oracle_seeded():
    rng = random.Random(59)
    locals_ = {T3: [S3, C3, FiniteGroup(3, ())], R2: [C2, FiniteGroup(2, ())]}
    verdicts = set()
    for shape, r, table in _seeded_tables(rng):
        for local in locals_[shape]:
            got = in_universal_group(shape, table, local)
            assert got == oracle_in_universal_group(shape, r, table, local)
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "shape, word, sites, support",
    [
        (T3, (), (), ()),
        (T3, (1, 2), (), None),
        (T3, (), (((), SWAP02),), None),
        (T3, (1,), ((((0, 1)), SWAP02),), None),
        (T3, (), (((2, 0), Perm((0, 2, 1))), ((0, 1), SWAP02), ((0, 1, 2), Perm((1, 2, 0)))),
         ((0, 1), (2, 0))),
        (R2, (), (((1, 0), Perm((1, 0))), ((0,), Perm((1, 0))), ((1,), Perm((1, 0)))),
         ((0,), (1,))),
        (R2, (), (((), Perm((1, 0))), ((1,), Perm((1, 0)))), None),
    ],
    ids=["identity", "word", "base-site", "word-and-site", "nested-regular", "rooted", "rooted-base"],
)
def test_support_statement(shape, word, sites, support):
    spec = IsometrySpec(shape, word=word, sites=sites)
    assert spec.support == support
    assert SpecWord.of(spec).support is None
    # every moved vertex lies strictly below a stated site
    for a in shape.ball(5):
        if support is not None and spec.apply(a) != a:
            assert any(len(a) > len(v) and a[: len(v)] == v for v in support), a


@pytest.mark.parametrize("shape", [T3, R2], ids=["regular3", "rooted2"])
def test_supported_realize_matches_the_whole_ball_walk_seeded(shape):
    # seeded portraits, many of them with a site at the base vertex,
    # and single-site witnesses deeper than some of the radii
    rng = random.Random(61)
    specs = [random_rooted_portrait(rng, shape, 3) if shape is R2
             else random_regular_portrait(rng, shape, S3, 3) for _ in range(20)]
    for v in shape.ball(4):
        group = site_group(shape, S3 if shape is T3 else C2, v)
        specs += [IsometrySpec(shape, sites=((v, p),)) for p in group.gens]
    kinds = set()
    for spec in specs:
        kinds.add(spec.support is None)
        for r in range(6):
            want = {a: b for a in shape.ball(r) if (b := spec.apply(a)) != a}
            assert spec.realize(r) == want, (spec, r)
    assert kinds == {True, False}


# -- translations -----------------------------------------------------------------


def test_free_reduce():
    assert free_reduce((0, 1, 1, 2)) == (0, 2)
    assert free_reduce((0, 0)) == ()
    assert free_reduce((0, 1, 0)) == (0, 1, 0)


def test_join_reduced_matches_free_reduce_seeded():
    # IsometrySpec applies its word by cancelling only at the junction of
    # two reduced words
    rng = random.Random(5)
    words = [w for n in range(5) for w in T3.sphere(n)]
    for _ in range(400):
        left, right = rng.choice(words), rng.choice(words)
        assert _join_reduced(left, right) == free_reduce(left + right)
    assert _join_reduced((0, 1, 2), (2, 1, 0)) == ()
    assert _join_reduced((0, 1), (1, 2)) == (0, 2)


def test_unit_translation_images():
    # frozen from the stack-reduction reference evaluator
    t0 = hyperbolic_isometry(T3, (0,))
    assert t0.apply(()) == (0,)
    assert t0.apply((0,)) == (0, 1)
    assert t0.apply((1,)) == ()
    assert t0.apply((0, 1)) == (0, 1, 0)
    assert t0.apply((0, 2)) == (0, 1, 2)
    assert t0.apply((1, 0)) == (1,)


def test_unit_translation_square_is_word():
    t0 = hyperbolic_isometry(T3, (0,))
    m01 = IsometrySpec(T3, word=(0, 1)).realize(7)
    square = SpecWord(T3, ((t0, 2),)).realize(7)
    assert full_table(T3, 7, square) == full_table(T3, 7, m01)
    assert len(t0.realize(7)[ROOT]) == 1
    assert len(square[ROOT]) == 2
    table_t0, table_m01 = whole(t0, 7), full_table(T3, 7, m01)
    table_square = oracle_compose_tables(table_t0, table_t0)
    assert all(table_square[a] == table_m01[a] for a in T3.ball(6))


def test_unit_translation_local_actions_constant():
    t0 = hyperbolic_isometry(T3, (0,)).realize(6)
    swap = Perm((1, 0, 2))
    assert all(local_action(T3, t0, v) == swap for v in T3.ball(5))


def test_translation_matches_oracle_seeded():
    rng = random.Random(16)
    for _ in range(40):
        w = [rng.randrange(3)]
        while len(w) < 4 and rng.random() < 0.6:
            options = [c for c in range(3) if c != w[-1]]
            w.append(rng.choice(options))
        word = tuple(w)
        m = IsometrySpec(T3, word=word)
        for v in T3.ball(4):
            assert m.apply(v) == oracle_translation_apply(word, v)


def test_hyperbolic_rejections():
    with pytest.raises(ValueError):
        hyperbolic_isometry(T3, (0, 1, 0, 1, 0))  # not cyclically reduced
    with pytest.raises(ValueError):
        hyperbolic_isometry(T3, (0, 0, 1))  # not freely reduced
    with pytest.raises(ValueError):
        hyperbolic_isometry(T3, ())
    with pytest.raises(ValueError):
        hyperbolic_isometry(rooted(3), (0, 1))
    with pytest.raises(ValueError):
        IsometrySpec(rooted(2), word=(0,))


def test_displacements():
    assert hyperbolic_isometry(T3, (0,)).displacement == 1
    assert hyperbolic_isometry(T3, (0, 1)).displacement == 2
    assert IsometrySpec(T3, word=(0, 1, 0)).displacement == 3


# -- cylinder transport ------------------------------------------------------------


def test_translation_moves_half_tree_inside_itself():
    t0 = hyperbolic_isometry(T3, (0,))
    alpha = CylinderClopen.cylinder(T3, (0,))
    moved = spec_image_clopen(t0, alpha)
    assert moved == parse_clopen(T3, "{01}")
    assert moved == oracle_image_clopen(whole(t0, 6), alpha)
    assert moved.lt(alpha)
    beta = alpha.minus(moved)
    assert beta == parse_clopen(T3, "{02}")
    back = spec_image_clopen(SpecWord(T3, ((t0, -1),)), moved)
    assert back == alpha
    assert back == oracle_image_clopen(
        whole(SpecWord(T3, ((t0, -1),)), 6), moved
    )
    assert back == oracle_image_clopen(
        oracle_invert_table(whole(t0, 6)), moved
    )


def test_image_clopen_respects_boolean_structure_seeded():
    rng = random.Random(17)
    t0 = hyperbolic_isometry(T3, (0,))
    rho = IsometrySpec(T3, sites=((ROOT, Perm((2, 0, 1))),))
    m12 = IsometrySpec(T3, word=(1, 2))
    movers = [
        t0,
        m12,
        rho,
        SpecWord(T3, ((t0, -2),)),
        SpecWord.conjugate(t0, rho, 1),
        SpecWord(T3, ((m12, 1), (rho, -1), (t0, 1))),
    ]
    for _ in range(40):
        g = rng.choice(movers)
        table = whole(g, 8)
        atoms = [a for a in T3.sphere(2) if rng.random() < 0.5]
        c = CylinderClopen.from_addresses(T3, atoms)
        img = spec_image_clopen(g, c)
        assert img == oracle_image_clopen(table, c)
        assert img.measure() >= 0
        assert spec_image_clopen(g, c.complement()) == img.complement()
        d = CylinderClopen.cylinder(T3, (rng.randrange(3),))
        assert spec_image_clopen(g, c.meet(d)) == img.meet(
            spec_image_clopen(g, d)
        )


def test_image_clopen_identity_and_top():
    top = CylinderClopen.top(T3)
    zero = CylinderClopen.zero(T3)
    identity = IsometrySpec(T3)
    assert spec_image_clopen(identity, top) == top
    assert oracle_image_clopen({a: a for a in T3.ball(1)}, top) == top
    t0 = hyperbolic_isometry(T3, (0,))
    for mover in (t0, SpecWord.of(t0, t0)):
        assert spec_image_clopen(mover, top) == top
        assert oracle_image_clopen(whole(mover, 5), top) == top
        assert spec_image_clopen(mover, zero).is_zero()
    half = CylinderClopen.cylinder(T3, (1,))
    assert spec_image_clopen(identity, half) == half
    commutator = SpecWord(T3, ((t0, 1), (identity, 1), (t0, -1), (identity, -1)))
    assert spec_image_clopen(commutator, half) == half


def test_image_clopen_rejects_a_clopen_of_another_shape():
    rho = IsometrySpec(T3, sites=((ROOT, Perm((1, 2, 0))),))
    t0 = hyperbolic_isometry(T3, (0,))
    for mover in (rho, t0, SpecWord.of(t0, rho)):
        for clopen in (CylinderClopen.cylinder(rooted(3), (0,)), CylinderClopen.top(R2)):
            with pytest.raises(ValueError):
                spec_image_clopen(mover, clopen)


# -- universal groups at finite depth -----------------------------------------------


def test_membership_in_universal_groups():
    t0 = hyperbolic_isometry(T3, (0,)).realize(5)
    assert in_universal_group(T3, t0, S3)
    assert not in_universal_group(T3, t0, C3)  # a swap is not a 3-cycle
    m0 = IsometrySpec(T3, word=(0,)).realize(5)
    trivial = FiniteGroup(3, [])
    assert in_universal_group(T3, m0, trivial)
    rho = IsometrySpec(T3, sites=((ROOT, Perm((1, 2, 0))),)).realize(5)
    assert in_universal_group(T3, rho, C3)


def test_universal_membership_matches_local_actions_seeded():
    rng = random.Random(31)
    swap_site = IsometrySpec(T3, sites=((ROOT, Perm((1, 0, 2))),)).realize(4)
    tables = [
        (T3, 4, swap_site),
        (T3, 5, hyperbolic_isometry(T3, (0,)).realize(5)),
        (T3, 5, IsometrySpec(T3, word=(0, 1)).realize(5)),
        (R2, 0, checked_table(R2, 0, {ROOT: ROOT})),
    ]
    for _ in range(12):
        local = rng.choice([S3, C3])
        portrait = random_regular_portrait(rng, T3, local, 2)
        r = rng.randint(1, 5)
        tables.append((T3, r, portrait.realize(r)))
    for _ in range(6):
        r = rng.randint(1, 4)
        tables.append((R2, r, random_rooted_portrait(rng, R2, 2).realize(r)))
    verdicts = []
    for shape, r, table in tables:
        pools = (S3, C3, FiniteGroup(3, [])) if shape == T3 else (C2, FiniteGroup(2, []))
        for local in pools:
            want = all(
                local_action(shape, table, v) in local
                for v in shape.ball(r - 1)
            )
            assert in_universal_group(shape, table, local) == want
            verdicts.append(want)
    assert True in verdicts and False in verdicts
    assert not in_universal_group(T3, swap_site, C3)  # a transposition is not in C3


def test_universal_membership_closed_under_product_seeded():
    rng = random.Random(18)
    for _ in range(20):
        g = random_regular_portrait(rng, T3, S3, 2)
        h = random_regular_portrait(rng, T3, S3, 2)
        gt, ht = g.realize(6), h.realize(6)
        assert in_universal_group(T3, gt, S3)
        product = SpecWord.of(g, h).realize(6)
        inverse = SpecWord(T3, ((g, -1),)).realize(6)
        assert in_universal_group(T3, product, S3)
        assert in_universal_group(T3, inverse, S3)
        # portraits fix the base vertex, so the table algebra keeps the ball
        product, inverse, gt, ht = (full_table(T3, 6, t) for t in (product, inverse, gt, ht))
        assert product == oracle_compose_tables(gt, ht)
        assert inverse == oracle_invert_table(gt)


def test_level_orders_match_sitewise_count():
    # the library closes the formula per colour; the reference evaluator
    # walks every vertex, so agreement checks the bookkeeping
    for n in (1, 2, 3, 4):
        assert level_order(T3, S3, n) == oracle_level_order(T3, S3, n)
        assert level_order(T3, C3, n) == oracle_level_order(T3, C3, n)
        assert level_order(R2, C2, n) == oracle_level_order(R2, C2, n)


def test_level_orders_frozen_values():
    assert [level_order(T3, S3, n) for n in (1, 2, 3, 4)] == [
        6,
        48,
        3072,
        12582912,
    ]
    assert level_order(T3, S3, 4) == 2**22 * 3
    assert [level_order(R2, C2, n) for n in (1, 2, 3)] == [2, 8, 128]
    assert [level_order(T3, C3, n) for n in (1, 2, 3)] == [3, 3, 3]


def test_realized_level_groups_hit_the_formula():
    for n in (1, 2, 3):
        assert level_group(R2, C2, n).order == level_order(R2, C2, n)
    for n in (1, 2):
        assert level_group(T3, S3, n).order == level_order(T3, S3, n)
    assert level_group(T3, C3, 3).order == 3


def test_realized_level_group_depth_three():
    assert level_group(T3, S3, 3).order == 3072


def test_prime_content_verdicts():
    res = local_prime_content(T3, S3, 4)
    assert res["growing_primes"] == {2}
    assert res["exponents"][2] == [1, 4, 10, 22]
    assert res["exponents"][3] == [1, 1, 1, 1]
    assert local_prime_content(T3, C3, 4)["growing_primes"] == set()
    assert local_prime_content(R2, C2, 4)["growing_primes"] == {2}


def test_congruence_kernel_example():
    w2 = level_group(R2, C2, 2)
    assert w2.order == 8
    u1 = congruence_kernel(w2, R2, 2, 1)
    assert u1.order == 4
    # order 4 and exponent 2: u1 is C2 x C2
    assert all(x.order() <= 2 for x in u1.element_set)
    u0 = congruence_kernel(w2, R2, 2, 0)
    assert u0.same_group(w2)
    assert oracle_quotient(w2, u1).order == 2


@pytest.mark.parametrize(
    "shape, local, depth",
    [(R2, C2, 4), (T3, S3, 3), (rooted(3), S3, 2), (T3, C3, 3)],
    ids=["rooted2-C2", "regular3-S3", "rooted3-S3", "regular3-C3"],
)
def test_congruence_kernel_matches_element_filter(shape, local, depth):
    for n in range(1, depth + 1):
        group = level_group(shape, local, n)
        for k in range(n + 1):
            fast = congruence_kernel(group, shape, n, k)
            slow = oracle_congruence_kernel(group, shape, n, k)
            assert fast.element_set == slow.element_set, (n, k)
            assert fast.orbits() == slow.orbits(), (n, k)


def _odometer(n):
    """The binary adding machine on the depth-n sphere, as a cyclic group.

    Its kernel below depth k is generated by its 2^k-th power alone, a
    Schreier generator that only the last layer of the search yields.
    """
    points = sphere_list(R2, n)
    index = {a: i for i, a in enumerate(points)}

    def add_one(a):
        a = list(a)
        for j in range(len(a)):
            a[j] ^= 1
            if a[j]:
                break
        return tuple(a)

    return FiniteGroup(len(points), [Perm(tuple(index[add_one(a)] for a in points))])


def test_congruence_kernel_of_the_odometer():
    for n in range(1, 5):
        group = _odometer(n)
        for k in range(n + 1):
            fast = congruence_kernel(group, R2, n, k)
            slow = oracle_congruence_kernel(group, R2, n, k)
            assert fast.element_set == slow.element_set, (n, k)
            assert fast.orbits() == slow.orbits(), (n, k)
            # the kernel is the odometer below each depth-k vertex
            width = 2 ** (n - k)
            assert fast.order == width
            assert fast.orbits() == [
                frozenset(range(i, i + width)) for i in range(0, 2**n, width)
            ]


def test_congruence_kernel_never_closes_the_level_group(monkeypatch):
    group = level_group(R2, C2, 4)

    def refuse():
        raise AssertionError("the level group was closed")

    monkeypatch.setattr(group, "_close", refuse)
    kern = congruence_kernel(group, R2, 4, 3)
    assert kern.orbits() == [frozenset({i, i + 1}) for i in range(0, 16, 2)]
    assert kern.order == 256


@pytest.mark.parametrize("n", [2, 4], ids=["too-deep", "too-shallow"])
def test_congruence_kernel_rejects_a_level_group_of_another_depth(n):
    group = level_group(R2, C2, 3)
    with pytest.raises(ValueError, match="depth-.* sphere has"):
        congruence_kernel(group, R2, n, 1)


# -- orbit structure ------------------------------------------------------------


def test_sphere_orbits_transitive_local_group():
    info = sphere_orbit_classes(T3, S3, 4)
    assert info["counts"] == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    for n in (1, 2, 3):
        assert len(level_group(T3, S3, n).orbits()) == 1


def test_sphere_orbits_structural_matches_realized():
    f = FiniteGroup(3, [Perm((1, 0, 2))])  # swaps colours 0,1 only
    info = sphere_orbit_classes(T3, f, 3)
    for n in (1, 2, 3):
        assert len(level_group(T3, f, n).orbits()) == info["counts"][n]


def test_sphere_orbit_bound_past_the_base():
    # per deeper vertex at most degree - 1 child classes; the base vertex
    # itself can keep all degree directions apart when the local group
    # is trivial
    trivial = FiniteGroup(3, [])
    info = sphere_orbit_classes(T3, trivial, 3)
    assert info["counts"][1] == 3
    for rep in info["classes"][1] + info["classes"][2]:
        kids = [
            c for c in info["classes"][len(rep) + 1] if c[: len(rep)] == rep
        ]
        assert len(kids) <= T3.degree - 1


# -- graph exports ----------------------------------------------------------------


def test_schreier_graph_of_natural_action():
    s4 = symmetric_group(4)
    dot = schreier_dot(s4, 0)
    nodes = [
        line
        for line in dot.splitlines()
        if "label=" in line and "->" not in line
    ]
    assert len(nodes) == 4
    assert dot.startswith("digraph schreier {")
    assert dot.rstrip().endswith("}")


@pytest.mark.parametrize("point", [4, -1])
def test_schreier_graph_rejects_a_point_off_the_action(point):
    with pytest.raises(ValueError):
        schreier_dot(symmetric_group(4), point)


def test_cayley_abels_path_for_transitive_local_group():
    dot = cayley_abels_dot(T3, S3, 3)
    node_lines = [line for line in dot.splitlines() if "label=" in line]
    edge_lines = [line for line in dot.splitlines() if "--" in line]
    assert len(node_lines) == 4
    assert len(edge_lines) == 3


# -- exact products ----------------------------------------------------------------


def test_apply_inverse_roundtrip_seeded():
    rng = random.Random(19)
    specs = [
        hyperbolic_isometry(T3, (0,)),
        hyperbolic_isometry(T3, (1, 2)),
        IsometrySpec(T3, word=(2, 0, 2)),
    ]
    for _ in range(30):
        p = random_regular_portrait(rng, T3, S3, 2)
        specs.append(IsometrySpec(T3, sites=p.sites))
    for spec in specs:
        for v in T3.ball(5):
            assert spec.apply_inverse(spec.apply(v)) == v
            assert spec.apply(spec.apply_inverse(v)) == v


def test_word_after_portrait_matches_oracles_seeded():
    # the portrait acts first, then left multiplication by the word
    rng = random.Random(21)
    for _ in range(30):
        w = [rng.randrange(3)]
        while len(w) < 4 and rng.random() < 0.6:
            w.append(rng.choice([c for c in range(3) if c != w[-1]]))
        word = tuple(w)
        sites = random_regular_portrait(rng, T3, S3, 2).sites
        smap = dict(sites)
        spec = IsometrySpec(T3, word=word, sites=sites)
        for v in T3.ball(5):
            image = spec.apply(v)
            assert image == oracle_translation_apply(
                word, oracle_regular_apply(smap, v)
            )
            assert spec.apply_inverse(image) == v


def test_spec_keeps_the_callers_site_order():
    given = (((0,), Perm((1, 0, 2))), (ROOT, Perm((1, 0, 2))))
    spec = IsometrySpec(T3, word=(2,), sites=given)
    assert spec.sites == given
    assert repr(spec) == (
        "IsometrySpec(shape=TreeShape(kind='regular', degree=3), word=(2,), "
        "sites=(((0,), Perm((1, 0, 2))), ((), Perm((1, 0, 2)))))"
    )
    namespace = {
        "IsometrySpec": IsometrySpec, "TreeShape": type(T3), "Perm": Perm
    }
    again = eval(repr(spec), namespace)
    assert again == spec
    assert hash(again) == hash(spec)


def test_exact_application_rejects_illegal_addresses():
    rho = IsometrySpec(T3, sites=((ROOT, Perm((1, 2, 0))),))
    moved = IsometrySpec(T3, word=(1, 2), sites=((ROOT, Perm((0, 2, 1))),))
    flip = IsometrySpec(R2, sites=((ROOT, Perm((1, 0))),))
    cases = [(T3, (0, 0)), (T3, (3,)), (R2, (2,))]
    for shape, addr in cases:
        specs = [flip] if shape is R2 else [rho, moved]
        for spec in specs:
            with pytest.raises(ValueError):
                spec.apply(addr)
            with pytest.raises(ValueError):
                spec.apply_inverse(addr)
            with pytest.raises(ValueError):
                SpecWord.of(spec).apply(addr)
    # the illegal pair cancels against the word, so it must be caught
    # before the word is stripped
    t0 = hyperbolic_isometry(T3, (0,))
    with pytest.raises(ValueError):
        t0.apply_inverse((0, 0))
    with pytest.raises(ValueError):
        SpecWord(T3, ((t0, -1),)).apply((0, 0))


def test_rooted_apply_inverse_roundtrip_seeded():
    rng = random.Random(20)
    shape = rooted(3)
    for _ in range(30):
        p = random_rooted_portrait(rng, shape, 2)
        for v in shape.ball(4):
            assert p.apply_inverse(p.apply(v)) == v


def test_spec_word_matches_table_algebra():
    t0 = hyperbolic_isometry(T3, (0,))
    rho = IsometrySpec(T3, sites=((ROOT, Perm((2, 0, 1))),))
    w = SpecWord.conjugate(t0, rho, 2)
    forward = whole(t0, 9)
    tables = reduce(
        oracle_compose_tables,
        [
            forward,
            forward,
            whole(rho, 9),
            oracle_invert_table(forward),
            oracle_invert_table(whole(t0, 8)),
        ],
    )
    exact = w.realize(6)
    assert len(exact[ROOT]) == 4
    assert full_table(T3, 6, exact) == {a: tables[a] for a in T3.ball(6)}
    assert not set(T3.ball(7)) <= set(tables)
    assert w.inverse().apply(w.apply((0, 2, 1))) == (0, 2, 1)


def test_spec_word_commutator_of_disjoint_supports():
    # sites fix their return colours, supports live in disjoint cylinders
    u = IsometrySpec(T3, sites=(((0, 1), Perm((2, 1, 0))),))
    v = IsometrySpec(T3, sites=(((0, 2), Perm((1, 0, 2))),))
    assert SpecWord(T3, ((u, 1), (v, 1), (u, -1), (v, -1))).is_identity_on(6)


def _random_movers(rng, shape):
    """Seeded specs, then words in them with negative exponents, including
    words that cancel to the identity."""
    specs = []
    for _ in range(8):
        if shape.kind == "rooted":
            specs.append(random_rooted_portrait(rng, shape, 2))
            continue
        sites = random_regular_portrait(rng, shape, S3, 2).sites
        word = []
        while len(word) < 3 and rng.random() < 0.5:
            word.append(rng.choice([c for c in range(3) if not word or c != word[-1]]))
        specs.append(IsometrySpec(shape, word=tuple(word), sites=sites))
    words = []
    for _ in range(12):
        factors = tuple(
            (rng.choice(specs), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(1, 3))
        )
        words.append(SpecWord(shape, factors))
    words += [SpecWord(shape, ((s, 1), (s, -1))) for s in specs[:3]]
    words += [w.inverse() for w in words[:4]]
    return specs, words


@pytest.mark.parametrize("shape", [T3, R2], ids=["regular3", "rooted2"])
def test_realize_and_identity_check_match_checked_apply_seeded(shape):
    # seeded specs and words, plus a supported spec, a base-vertex site
    # and on T3 a translation, each also as a one-letter SpecWord and its
    # inverse, against the whole-ball reading and checked apply; at
    # radius 0 the translation moves only the base vertex
    rng = random.Random(23)
    specs, words = _random_movers(rng, shape)
    base = Perm((1, 2, 0)) if shape is T3 else Perm((1, 0))
    deep = ((0, 1), Perm((2, 1, 0))) if shape is T3 else ((1,), Perm((1, 0)))
    specs += [IsometrySpec(shape, sites=((ROOT, base),)), IsometrySpec(shape, sites=(deep,))]
    if shape is T3:
        specs.append(hyperbolic_isometry(shape, (0,)))
    letters = [SpecWord(shape, ((s, e),)) for s in specs for e in (1, -1)]
    kinds, verdicts = set(), set()
    for mover in specs + letters + words:
        if isinstance(mover, IsometrySpec):
            kinds.add("supported" if mover.support is not None
                      else "word" if mover.word else "base site")
        elif len(mover.factors) == 1 and abs(mover.factors[0][1]) == 1:
            kinds.add("letter" if mover.factors[0][1] == 1 else "inverse letter")
        else:
            kinds.add("multi-letter")
        for r in range(5 if shape is T3 else 6):
            want = oracle_realize(mover, r)
            assert want == {a: mover.apply(a) for a in want}
            assert whole(mover, r) == want, (mover, r)
            if isinstance(mover, SpecWord):
                fixed = all(a == b for a, b in want.items())
                assert mover.is_identity_on(r) == fixed, (mover, r)
                verdicts.add(fixed)
    assert verdicts == {True, False}
    assert kinds == {"supported", "base site", "letter", "inverse letter", "multi-letter"} | (
        {"word"} if shape is T3 else set()
    )


@pytest.mark.parametrize("shape", [R2, rooted(3), T3, regular(4)],
                         ids=["rooted2", "rooted3", "regular3", "regular4"])
def test_one_site_specs_apply_as_the_portrait_loop(shape):
    # a spec with no word and one site takes a map that compares the
    # prefix once; it must agree with the class's loop over the letters,
    # for a site at every vertex to depth 3 and each site-group generator
    # and one more element, on every address of the radius-5 ball
    local = symmetric_group(shape.degree)
    points = list(shape.ball(5))
    moved = 0
    for v in shape.ball(3):
        group = site_group(shape, local, v)
        for p in (*group.pruned_gens, group.element_list[-1]):
            spec = IsometrySpec(shape, sites=((v, p),))
            for a in points:
                got = spec._apply(a)
                assert got == IsometrySpec._apply(spec, a), (v, p, a)
                moved += got != a
            assert SpecWord(shape, ((spec, 1),))._apply is spec._apply
    assert moved
    # a second site keeps the loop
    identity = Perm.identity(shape.degree)
    assert "_apply" not in vars(IsometrySpec(shape, sites=(((0,), identity), ((1,), identity))))


@pytest.mark.parametrize("shape", [R2, rooted(3), T3, regular(4)],
                         ids=["rooted2", "rooted3", "regular3", "regular4"])
def test_sphere_and_ball_match_the_recursion(shape):
    for n in range(-1, 8):
        assert list(shape.sphere(n)) == list(oracle_sphere(shape, n)), n
        assert list(shape.ball(n)) == list(oracle_ball(shape, n)), n
    assert list(shape.ball(-1)) == list(shape.sphere(-1)) == []


@pytest.mark.parametrize("shape", [T3, R2], ids=["regular3", "rooted2"])
def test_one_letter_words_apply_their_atom_seeded(shape):
    # a one-letter SpecWord takes its atom's map, or the inverse map, as
    # its own _apply; it must agree with the loop over the factors
    rng = random.Random(89)
    specs, _ = _random_movers(rng, shape)
    points = list(shape.ball(5))
    for spec in specs:
        for e in (1, -1):
            word = SpecWord(shape, ((spec, e),))
            for a in rng.sample(points, 40):
                assert word._apply(a) == SpecWord._apply(word, a), (spec, e, a)
            assert word.apply((0, 1)) == (spec.apply if e == 1 else spec.apply_inverse)((0, 1))
    assert any(s.apply(a) != s.apply_inverse(a) for s in specs for a in points)


def _conjugators(rng, shape):
    """Seeded conjugators: on T3 a translation, the same translation as a
    word, a root rotation and a seeded word; on rooted shapes portraits."""
    if shape.kind == "rooted":
        return [random_rooted_portrait(rng, shape, 2) for _ in range(3)]
    t0 = hyperbolic_isometry(shape, (0,))
    rho = IsometrySpec(shape, sites=((ROOT, Perm((1, 2, 0))),))
    _, words = _random_movers(rng, shape)
    return [t0, SpecWord.of(t0, t0), rho, words[0]]


def _seeded_portraits(rng, shape, count):
    if shape.kind == "rooted":
        return [random_rooted_portrait(rng, shape, 3) for _ in range(count)]
    return [random_regular_portrait(rng, shape, S3, 3) for _ in range(count)]


@pytest.mark.parametrize("shape", [T3, R2], ids=["regular3", "rooted2"])
def test_pullbacks_step_one_power_at_a_time_seeded(shape):
    rng = random.Random(31)
    r = 3
    ball = list(shape.ball(r))
    for g in _conjugators(rng, shape):
        for sign in (1, -1):
            for k, points in zip(range(4), pullbacks(g, sign, r)):
                back = SpecWord(shape, ((g, -sign * k),))
                assert points == tuple(back.apply(a) for a in ball)


def _extend(rng, shape, v, n):
    """v followed by n seeded letters, each legal after the last."""
    for _ in range(n):
        v = v + (rng.choice(shape.child_letters(v)),)
    return v


@pytest.mark.parametrize("shape", [T3, R2], ids=["regular3", "rooted2"])
def test_slice_matches_the_pulled_ball_seeded(shape):
    # seeded v with c below v, c equal to v and c off v's subtree, at
    # radii on both sides of d(c, v), against the brute-force ball about
    # c; and for c = g^-k(v0) against the pulled ball g^-k(B_r).  The
    # walk yields each vertex once, and about the base vertex level by
    # level
    rng = random.Random(71)
    kinds = set()
    for _ in range(60):
        v = _extend(rng, shape, ROOT, rng.randint(0, 3))
        c = rng.choice((_extend(rng, shape, v, rng.randint(1, 4)), v, rng.choice(list(shape.ball(4)))))
        k = 0
        while k < min(len(c), len(v)) and c[k] == v[k]:
            k += 1
        kind = "off" if k < len(v) else "equal" if c == v else "below"
        for r in range(6):
            got = list(_slice(shape, v, c, r))
            assert len(got) == len(set(got)), (v, c, r)
            want = oracle_slice(shape, v, c, r)
            assert sorted(got) == want, (v, c, r)
            if c == ROOT:
                assert got == sorted(got, key=lambda a: (len(a), a))
            kinds.add((kind, r < len(c) + len(v) - 2 * k, bool(want)))
    assert {("below", True, True), ("below", False, True), ("equal", False, True),
            ("off", True, False), ("off", False, True)} <= kinds
    for g in _conjugators(rng, shape):
        for sign in (1, -1):
            for n, points in zip(range(4), pullbacks(g, sign, 3)):
                c = points[0]  # the pull-back of the base vertex
                for v in rng.sample(list(shape.ball(3)), 6) + [c]:
                    want = sorted(x for x in points if len(x) > len(v) and x[:len(v)] == v)
                    assert sorted(_slice(shape, v, c, 3)) == want, (g, sign * n, v)


@pytest.mark.parametrize("shape", [T3, R2], ids=["regular3", "rooted2"])
def test_conjugate_tables_match_walked_conjugates_seeded(shape):
    rng = random.Random(37)
    us = _seeded_portraits(rng, shape, 5) + [IsometrySpec(shape)]
    r = 3
    moved = set()
    for g in _conjugators(rng, shape):
        for k in range(-3, 4):
            got = [full_table(shape, r, t) for t in conjugate_families(g, (k,), us, r)[k]]
            want = [whole(SpecWord.conjugate(g, u, k), r) for u in us]
            assert got == want, (g, k)
            moved.update(any(a != b for a, b in t.items()) for t in got)
    assert moved == {True, False}


@pytest.mark.parametrize("shape", [T3, R2], ids=["regular3", "rooted2"])
def test_conjugate_families_equal_realize_of_the_conjugate_word_seeded(shape):
    # every power's tables, however the powers are asked for, each the
    # whole-ball walk of the conjugate as a word
    rng = random.Random(67)
    us = _seeded_portraits(rng, shape, 4) + [IsometrySpec(shape)]
    for g in _conjugators(rng, shape):
        for ks in ((-3, -1, 0, 2, 3), (2,), (-2,), (0,), range(-2, 3)):
            families = conjugate_families(g, ks, us, 3)
            assert sorted(families) == sorted(set(ks))
            for k in ks:
                want = [SpecWord.conjugate(g, u, k).realize(3) for u in us]
                assert families[k] == want, (g, k)


def _apply_power(mover, e, addr):
    """Checked application of mover**e, a word's inverse built as a word."""
    for _ in range(abs(e)):
        if e > 0:
            addr = mover.apply(addr)
        elif isinstance(mover, SpecWord):
            addr = mover.inverse().apply(addr)
        else:
            addr = mover.apply_inverse(addr)
    return addr


@pytest.mark.parametrize("shape", [T3, R2], ids=["regular3", "rooted2"])
def test_spec_word_spells_out_word_factors_seeded(shape):
    rng = random.Random(29)
    specs, words = _random_movers(rng, shape)
    ball = list(shape.ball(5))
    for k in range(6):
        factors = ((words[k], 2), (specs[k], 1), (words[k + 6], -1), (words[-1 - k], -3))
        product = SpecWord(shape, factors)
        conj = SpecWord.conjugate(words[k], specs[k], 2)
        for w in (product, conj):
            assert all(isinstance(f, IsometrySpec) for f, _ in w.factors)
        for a in ball:
            want = a
            for mover, e in reversed(factors):
                want = _apply_power(mover, e, want)
            assert product.apply(a) == want
            inner = specs[k].apply(_apply_power(words[k], -2, a))
            assert conj.apply(a) == _apply_power(words[k], 2, inner)


def test_spec_image_clopen_matches_table_transport():
    t0 = hyperbolic_isometry(T3, (0,))
    alpha = CylinderClopen.cylinder(T3, (0,))
    assert spec_image_clopen(t0, alpha) == oracle_image_clopen(
        whole(t0, 6), alpha
    )
    w = SpecWord.of(t0, t0)
    assert spec_image_clopen(w, alpha) == parse_clopen(T3, "{010}")
    back = SpecWord(T3, ((t0, -1),))
    # the translation pulls the half-tree back over the base vertex
    assert spec_image_clopen(back, alpha) == parse_clopen(T3, "{0,2}")
    beta = parse_clopen(T3, "{02}")
    assert spec_image_clopen(back, beta) == parse_clopen(T3, "{2}")


@pytest.mark.parametrize(
    "shape, local",
    [(T3, S3), (T3, C3), (R2, C2), (rooted(3), C3)],
    ids=["T3-S3", "T3-C3", "R2-C2", "R3-C3"],
)
def test_site_group_matches_the_return_colour_rule(shape, local):
    for v in shape.ball(3):
        below_base = shape.kind == "regular" and v != ROOT
        want = {p for p in local.element_set if not below_base or p(v[-1]) == v[-1]}
        group = site_group(shape, local, v)
        assert group.element_set == want, v
        cylinder = CylinderClopen.cylinder(shape, v)
        for p in local.element_list:
            if p in want:
                table = IsometrySpec(shape, sites=((v, p),)).realize(len(v) + 2)
                checked_table(shape, len(v) + 2, table)  # checks it on the whole ball
                assert support_in(table, cylinder), (v, p)
            else:
                with pytest.raises(ValueError):
                    IsometrySpec(shape, sites=((v, p),))


# -- the site model ---------------------------------------------------------------


def _klein4() -> FiniteGroup:
    return FiniteGroup(4, [Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))])


# three or more local groups per shape; degree 2 has only two subgroups,
# so the third is C2 again on a redundant generating set
_SITE_MODEL_CASES = [
    (rooted(2), [FiniteGroup(2, []), C2, FiniteGroup(2, [Perm((0, 1)), Perm((1, 0))])]),
    (rooted(3), [C3, S3, FiniteGroup(3, [Perm((1, 0, 2))])]),
    (T3, [S3, C3, FiniteGroup(3, [Perm((1, 0, 2))]), FiniteGroup(3, [])]),
    (regular(4), [symmetric_group(4), cyclic_group(4), _klein4(), FiniteGroup(4, [Perm((1, 0, 2, 3))])]),
]


@pytest.mark.parametrize(
    "shape, locals_", _SITE_MODEL_CASES, ids=["R2", "R3", "T3", "T4"]
)
def test_site_model_matches_a_walk_of_the_ball(shape, locals_):
    """Site pools, decorations and child orbits against a per-vertex walk
    of the (n-1)-ball: each vertex above depth n carries its own site
    group, and the old per-vertex loops are restated here."""
    factors_of: dict = {}

    def factors(group):
        key = group.image_set
        if key not in factors_of:
            factors_of[key] = composition_factors(group)
        return factors_of[key]

    for local in locals_:
        for n in range(1, 7):
            ball = list(shape.ball(n - 1))
            sites = [site_group(shape, local, v) for v in ball]
            assert level_order(shape, local, n) == prod(g.order for g in sites), n
            walked = sorted(f for g in sites for f in factors(g))
            assert cli._level_factors(shape, local, n) == walked, n
            assert site_decorations(shape, local, ball) == [
                IsometrySpec(shape, sites=((v, perm),))
                for v, group in zip(ball, sites)
                for perm in group.pruned_gens
            ], n
            for v, group in zip(ball, sites):
                letters = set(shape.child_letters(v))
                old = [sorted(o & letters) for o in group.orbits() if o & letters]
                assert child_orbits(shape, local, v) == old, v


@pytest.mark.parametrize(
    "shape, locals_", _SITE_MODEL_CASES, ids=["R2", "R3", "T3", "T4"]
)
def test_site_group_is_built_once_per_return_colour(shape, locals_):
    for local in locals_:
        first: dict = {}
        for v in shape.ball(3):
            group = site_group(shape, local, v)
            if v == ROOT or shape.kind == "rooted":
                assert group is local, v
                continue
            c = v[-1]
            assert group is first.setdefault(c, group), v
            fresh = FiniteGroup(local.degree, [p for p in local.element_list if p(c) == c])
            assert group.pruned_gens == fresh.pruned_gens, v


# C3 and Sym(3) on degree 3, the dihedral group of the square and Sym(4)
# on degree 4, each on a rooted and a regular shape
_PERMUTATION_CASES = [
    (shape, local)
    for degree, locals_ in ((3, [C3, S3]), (4, [dihedral_group(4), symmetric_group(4)]))
    for shape in (rooted(degree), regular(degree))
    for local in locals_
]


@pytest.mark.parametrize(
    "shape, local", _PERMUTATION_CASES,
    ids=[f"{s.kind}{s.degree}-{g.order}" for s, g in _PERMUTATION_CASES],
)
def test_site_permutations_match_the_sphere_comprehension(shape, local):
    """``site_permutations`` against the comprehension that ``level_group``
    and the rigid-stabiliser witnesses each made before: on the
    (n-1)-ball and on every half-tree and its complement, at depths 1-4."""
    for n in range(1, 5):
        old = oracle_level_perms(shape, local, n)
        assert site_permutations(shape, local, shape.ball(n - 1), n) == old, n
        assert level_group(shape, local, n).gens == FiniteGroup(old[0].degree, old).gens, n
        for c in shape.child_letters(ROOT):
            half = CylinderClopen.cylinder(shape, (c,))
            for region in (half, half.complement()):
                got = site_permutations(shape, local, region_vertices(region, n - 1), n)
                assert got == oracle_witness_perms(local, region, n), (n, region)


def test_site_permutations_refuse_a_local_group_of_another_degree():
    # the site pools refuse it too, so level orders, perp and the star
    # decomposition, which count orders first, fail as the witnesses do
    message = "local group degree does not match the shape"
    half = CylinderClopen.cylinder(T3, (0,))
    for call in (
        lambda: site_permutations(T3, symmetric_group(4), [ROOT], 2),
        lambda: level_group(T3, symmetric_group(4), 2),
        lambda: rist_generators(symmetric_group(4), half, 2),
        lambda: level_order(T3, symmetric_group(4), 2),
        lambda: site_pools(rooted(3), C2, 2),
        lambda: ls.perp(C2, ls.local_class(half), 2),
        lambda: ls.decomposition_factors(T3, C2, 2),
    ):
        with pytest.raises(ValueError, match=message):
            call()
