"""Rigid stabilisers, contraction onsets and window certificates."""
from __future__ import annotations

import random
from itertools import islice

import pytest

from tdlclab.boolalg import ROOT, CylinderClopen, regular, rooted
from tdlclab.boundary import (
    conjugation_shifts,
    contraction_certificates,
    goodshrink_construct,
    inside,
    nub_window,
    region_vertices,
    rist_generators,
    support_in,
    tables_commute,
    tits_core_generators,
)
from tdlclab.certificates import canonical_json
from tdlclab.cli import parse_spec_text
from tdlclab.errors import DisjointnessFailure, NotSkewering
from tdlclab.permgrp import Perm, cyclic_group, symmetric_group
from tdlclab import tree
from tdlclab.tree import (
    IsometrySpec,
    SpecWord,
    _conjugate_moves,
    conjugate_families,
    hyperbolic_isometry,
    in_universal_group,
    site_group,
    spec_image_clopen,
)

from oracles import (
    check_ball_witnesses,
    checked_table,
    full_table,
    oracle_conjugation_shifts,
    oracle_contraction_certificate,
    oracle_pulled_moves,
    oracle_region_vertices,
    oracle_support_in,
    oracle_tables_commute,
    oracle_walked_contraction_certificates,
    pullbacks,
)
from test_cli import US3_ELEMENTS
from util import random_clopen, random_regular_portrait, random_rooted_portrait

T3 = regular(3)
S3 = symmetric_group(3)
C3 = cyclic_group(3)
T0 = hyperbolic_isometry(T3, (0,))
HALF0 = CylinderClopen.cylinder(T3, (0,))
BETA = CylinderClopen.cylinder(T3, (0, 2))

SWAP12 = Perm((0, 2, 1))
SWAP02 = Perm((2, 1, 0))
SWAP01 = Perm((1, 0, 2))


def sites_of(gens):
    return {g.sites[0] for g in gens}


def test_rist_generator_counts():
    # 1 + 2 + 4 in-region vertices, one stabiliser generator each
    assert len(rist_generators(S3, HALF0, 3)) == 7
    assert len(rist_generators(S3, BETA, 3)) == 3
    zero = CylinderClopen.from_addresses(T3, [])
    assert rist_generators(S3, zero, 4) == []


@pytest.mark.parametrize(
    "shape", [rooted(2), rooted(3), T3, regular(4)], ids=["rooted2", "rooted3", "regular3", "regular4"]
)
def test_region_vertices_match_the_whole_ball_scan_seeded(shape):
    # the vertices each cover address spreads to, against a scan of the
    # whole ball, in the same order, at radii 0 to 5, for seeded regions
    # with cover addresses of mixed depths (some deeper than the radius),
    # and for the top and zero clopens
    rng = random.Random(73)
    regions = [CylinderClopen.top(shape), CylinderClopen.zero(shape)]
    regions += [random_clopen(rng, shape, 4).join(random_clopen(rng, shape, 4)) for _ in range(40)]
    deepest = set()
    for region in regions:
        for d in range(6):
            got = region_vertices(region, d)
            assert got == oracle_region_vertices(region, d), (region, d)
            deepest.add(any(len(v) == d for v in got))
    assert len({len(a) for r in regions for a in r.cover}) >= 4
    assert deepest == {True, False}


def test_rist_generators_fix_complement_pointwise():
    gens = rist_generators(S3, HALF0, 3)
    ray = [(1,), (1, 0), (1, 0, 1), (1, 0, 1, 0)]
    for g in gens:
        assert support_in(g.realize(5), HALF0)
        for v in ray:
            assert g.apply(v) == v


def test_support_in_matches_full_ball_oracle_seeded():
    # witnesses, their conjugates by a translation, the translation and
    # a root rotation, down to radius 1, against seeded regions that do
    # and do not hold the support
    rng = random.Random(47)
    radius = 4
    gens = rist_generators(S3, HALF0, 3)
    inside_half = [g.realize(radius) for g in gens]
    inside_half += conjugate_families(T0, (1,), gens, radius)[1]
    rho = IsometrySpec(T3, sites=(((), SWAP01),))
    tables = [(radius, t) for t in inside_half]
    tables += [(r, g.realize(r)) for g in (T0, rho) for r in (1, 2, radius)]
    verdicts = set()
    for _ in range(12):
        region = random_clopen(rng, T3, 3)
        for r, table in tables:
            got = support_in(table, region)
            assert got == oracle_support_in(T3, r, table, region)
            verdicts.add(got)
    for table in inside_half:
        assert support_in(table, HALF0) and oracle_support_in(T3, radius, table, HALF0)
    assert verdicts == {True, False}


def test_rist_of_disjoint_regions_commutes_elementwise():
    # the depth-6 witness lists contain every shallower list, so one
    # pass at the deepest level covers all depths up to six; tables are
    # realized once and composed, the witnesses all fix the base vertex
    other = HALF0.complement()
    gens_a = rist_generators(S3, HALF0, 6)
    gens_b = rist_generators(S3, other, 6)
    assert sites_of(rist_generators(S3, HALF0, 4)) <= sites_of(gens_a)
    radius = 7
    ball = list(T3.ball(radius))
    tabs_a = [full_table(T3, radius, g.realize(radius)) for g in gens_a]
    tabs_b = [full_table(T3, radius, g.realize(radius)) for g in gens_b]
    for fu in tabs_a:
        for fv in tabs_b:
            assert all(fu[fv[x]] == fv[fu[x]] for x in ball)


def test_tables_commute_refutes_witnesses_at_one_vertex():
    # two single-site witnesses at the same vertex whose decorations do
    # not commute; disjointly supported witnesses do commute
    radius = 4
    for shape, v in ((T3, ROOT), (rooted(3), (1,))):
        a = IsometrySpec(shape, sites=((v, SWAP01),)).realize(radius)
        b = IsometrySpec(shape, sites=((v, SWAP12),)).realize(radius)
        assert not tables_commute([a], [b])
        assert tables_commute([a], [a])
    u = IsometrySpec(T3, sites=(((0, 1), SWAP02),)).realize(radius)
    w = IsometrySpec(T3, sites=(((0, 2), SWAP01),)).realize(radius)
    assert u.keys().isdisjoint(w.keys())
    assert tables_commute([u], [w])
    assert tables_commute([u, w], [u, w])


def test_tables_commute_matches_full_domain_oracle_seeded():
    # witness families on disjoint, nested and equal regions, as vertex
    # tables, and seeded permutations of S4 as index tuples
    radius = 4
    ball = list(T3.ball(radius))
    regions = [HALF0, HALF0.complement(), BETA, CylinderClopen.cylinder(T3, (0, 1))]
    families = [
        [g.realize(radius) for g in rist_generators(S3, region, 3)]
        for region in regions
    ]
    verdicts = set()
    for fa in families:
        for fb in families:
            got = tables_commute(fa, fb)
            # whole-ball tables, fixed points listed, give the same verdict
            whole_a = [full_table(T3, radius, t) for t in fa]
            whole_b = [full_table(T3, radius, t) for t in fb]
            assert got == tables_commute(whole_a, whole_b)
            assert got == oracle_tables_commute(whole_a, whole_b, ball)
            verdicts.add(got)
    rng = random.Random(41)
    perms = [tuple(rng.sample(range(4), 4)) for _ in range(12)]
    identity = tuple(range(4))
    for n in range(0, 12, 3):
        fa, fb = perms[n:n + 2] + [identity], perms[n + 1:n + 3]
        got = tables_commute([dict(enumerate(f)) for f in fa], [dict(enumerate(f)) for f in fb])
        assert got == oracle_tables_commute(fa, fb, range(4))
        verdicts.add(got)
    assert verdicts == {True, False}


def test_rist_of_meet_is_generatorwise_intersection():
    rng = random.Random(40901)
    for _ in range(30):
        a = random_clopen(rng, T3, 3)
        b = random_clopen(rng, T3, 3)
        both = a.meet(b)
        for depth in (2, 3, 4):
            want = sites_of(rist_generators(S3, a, depth)) & sites_of(
                rist_generators(S3, b, depth)
            )
            assert sites_of(rist_generators(S3, both, depth)) == want


def test_weakly_branch_every_proper_cylinder_has_witnesses():
    stack = [(c,) for c in T3.colours()]
    while stack:
        w = stack.pop()
        region = CylinderClopen.cylinder(T3, w)
        assert rist_generators(S3, region, len(w)) != []
        if len(w) < 4:
            stack.extend(w + (c,) for c in T3.child_letters(w))


def test_half_tree_fixator_verdicts():
    gens = rist_generators(S3, HALF0, 3)
    assert len(gens) == 7
    assert ((0,), SWAP12) in sites_of(gens)

    # regular (simply transitive) local action pins every decoration
    assert rist_generators(C3, HALF0, 3) == []
    assert rist_generators(S3, HALF0, 0) == []


def test_inside_is_prefix_containment():
    assert inside(HALF0, (0,))
    assert inside(HALF0, (0, 1, 0))
    assert not inside(HALF0, ())
    assert not inside(HALF0, (1, 0))


def test_contraction_onset_matches_axis_distance():
    u = IsometrySpec(T3, sites=(((0,), SWAP12),))
    for n in (1, 2, 3, 4):
        cert = contraction_certificates(T0, [u], n)[0]
        assert cert["verdict"] == "contracts"
        assert cert["k"] == n
        assert cert["onset_monotone"]


def test_contraction_backward_direction_is_symmetric():
    u = IsometrySpec(T3, sites=(((1,), SWAP02),))
    for n in (1, 2, 3):
        cert = contraction_certificates(T0, [u], n, direction=-1)[0]
        assert cert["verdict"] == "contracts"
        assert cert["k"] == n


def test_contraction_identity_contracts_at_zero():
    cert = contraction_certificates(T0, [IsometrySpec(T3)], 3)[0]
    assert cert["k"] == 0
    assert cert["verdict"] == "contracts"


def test_contraction_elliptic_conjugator_refuted_within_bounds():
    rho = IsometrySpec(T3, sites=(((), SWAP01),))
    u = IsometrySpec(T3, sites=(((0,), SWAP12),))
    cert = contraction_certificates(rho, [u], 3)[0]
    assert cert["verdict"] == "no-contraction-within-bounds"
    assert cert["k"] is None


def test_contraction_certificate_replays_bit_exactly():
    u = IsometrySpec(T3, sites=(((0,), SWAP12),))
    first = contraction_certificates(T0, [u], 3)[0]
    again = contraction_certificates(T0, [u], 3)[0]
    assert canonical_json(first) == canonical_json(again)


@pytest.mark.parametrize("direction", [1, -1])
def test_contraction_certificates_match_walked_oracle(direction):
    # translations of length one and two, a translation given as a word,
    # and an elliptic conjugator; witnesses on both half-trees, seeded
    # portraits and the identity, so every verdict and onset kind occurs
    rng = random.Random(43)
    us = rist_generators(S3, HALF0, 2) + rist_generators(S3, HALF0.complement(), 1)
    us.append(IsometrySpec(T3))
    ball = list(T3.ball(3))
    for _ in range(4):
        v = rng.choice(ball)
        us.append(IsometrySpec(T3, sites=((v, rng.choice(site_group(T3, S3, v).element_list)),)))
    conjugators = [
        T0,
        hyperbolic_isometry(T3, (0, 1)),
        SpecWord.of(T0, T0),
        IsometrySpec(T3, sites=(((), SWAP01),)),
    ]
    verdicts = set()
    for g in conjugators:
        for n in (1, 2, 3):
            got = contraction_certificates(g, us, n, direction)
            want = [oracle_contraction_certificate(g, u, n, direction) for u in us]
            assert got == want, (g, n)
            assert got[0] == contraction_certificates(g, us[:1], n, direction)[0]
            verdicts.update((c["verdict"], c["onset_monotone"]) for c in got)
    assert ("contracts", True) in verdicts
    assert ("no-contraction-within-bounds", False) in verdicts


def _goodshrink_witnesses(depth):
    """The kappa and g^n0.beta witness families of goodshrink on the
    attracting half-tree under T0, with n0 = 1, at this depth."""
    kappa = spec_image_clopen(T0, HALF0)
    beta = HALF0.minus(kappa)
    return (
        rist_generators(S3, kappa, depth),
        rist_generators(S3, spec_image_clopen(T0, beta), depth),
    )


# several sites with a support statement, then a word, a site at the
# base vertex and a product, which have none
_MIXED_SPECS = [
    IsometrySpec(T3, sites=(((2, 0), SWAP12), ((0, 1), SWAP02), ((0, 1, 2), Perm((1, 2, 0))))),
    IsometrySpec(T3, word=(1, 2)),
    IsometrySpec(T3, sites=(((), SWAP01),)),
    SpecWord.of(IsometrySpec(T3, sites=(((0, 1, 0), SWAP12),)), T0),
]


def test_conjugating_by_a_base_fixing_rotation_keeps_every_contraction_onset():
    """For a rotation r fixing the base vertex, the onsets of r g r^-1
    and the r u r^-1 are those of g and the u.

    Proof.  (r g r^-1)^k (r u r^-1) (r g r^-1)^-k = r (g^k u g^-k) r^-1,
    and r fixes every ball about the base, so the left side is trivial
    on B_n exactly when g^k u g^-k is trivial on r^-1 B_n = B_n, for
    every k: each onset, tail and verdict is kept.  The conjugates are
    ``SpecWord`` products, which state no support, so this compares
    ``_moved``'s walk below the sites of each u with its whole-ball walk.
    """
    spec = parse_spec_text(US3_ELEMENTS)
    g, u1 = spec.elements["g"], spec.elements["u1"]
    us = [u for family in _goodshrink_witnesses(4) for u in family] + [u1]
    rotations = [spec.elements["rho"], IsometrySpec(T3, sites=(((), Perm((2, 0, 1))),))]
    onsets = set()
    for n in (2, 3, 4):
        want = contraction_certificates(g, us, n)
        onsets.update(c["k"] for c in want)
        for r in rotations:
            us_r = [SpecWord.conjugate(r, u, 1) for u in us]
            assert contraction_certificates(SpecWord.conjugate(r, g, 1), us_r, n) == want, (n, r)
    assert {0, 1, 2, 3} <= onsets


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("depth", [4, 5, 6, 7])
def test_indexed_contraction_search_matches_the_walk_on_goodshrink_witnesses(depth, direction):
    # the ball radius goodshrink uses, and a smaller one whose checked
    # radius lies above the deepest sites
    kappa_gens, beta_gens = _goodshrink_witnesses(depth)
    us = kappa_gens + beta_gens + _MIXED_SPECS
    assert [u.support is None for u in _MIXED_SPECS] == [False, True, True, True]
    assert max(len(u.sites[0][0]) for u in kappa_gens) > depth - 2
    onsets = set()
    for n in (depth, depth - 3):
        got = contraction_certificates(T0, us, n, direction)
        assert got == oracle_walked_contraction_certificates(T0, us, n, direction), n
        onsets.update(c["k"] for c in got)
    assert {0, None} < onsets


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("depth", [4, 5, 6, 7])
def test_contraction_onsets_are_the_first_empty_conjugate_tables(depth, direction):
    # trivial on the radius-n ball means fixing B_{n+1}, so the onset is
    # the first power whose conjugate table on B_{n+1} moves nothing
    kappa_gens, beta_gens = _goodshrink_witnesses(depth)
    us = kappa_gens + beta_gens + _MIXED_SPECS
    onsets = set()
    for n in (depth, depth - 3):
        powers = [direction * k for k in range(n + 5)]
        tables = conjugate_families(T0, powers, us, n + 1)
        for i, cert in enumerate(contraction_certificates(T0, us, n, direction)):
            empty = [k for k, p in enumerate(powers) if not tables[p][i]]
            assert cert["k"] == (empty[0] if empty else None), (n, us[i])
            onsets.add(cert["k"])
    assert {0, None} < onsets


@pytest.mark.parametrize("depth", [4, 5, 6, 7])
def test_indexed_conjugate_tables_match_the_walk_on_goodshrink_witnesses(depth):
    # conjugates by T0 and by its inverse, at goodshrink's check radius,
    # against every u applied at every pulled point
    kappa_gens, beta_gens = _goodshrink_witnesses(depth)
    us = kappa_gens + beta_gens + _MIXED_SPECS
    r = depth + 2
    ball = list(T3.ball(r))
    for k in (1, -1):
        pulled = next(islice(pullbacks(T0, 1 if k > 0 else -1, r), abs(k), None))
        forth = SpecWord(T3, ((T0, k),)).apply
        got = conjugate_families(T0, (k,), us, r)[k]
        for u, table in zip(us, got):
            want = {a: forth(u.apply(x)) for a, x in zip(ball, pulled) if u.apply(x) != x}
            assert table == want, (k, u)
    assert in_universal_group(T3, got[0], S3)


# single-site witnesses on T0's axis on either side of the base vertex:
# under T0^-k, k >= 2, the edge at (0, 1) reverses, under T0^k that at (1, 0)
_AXIS_WITNESSES = [
    IsometrySpec(T3, sites=(((0, 1), SWAP02),)),
    IsometrySpec(T3, sites=(((1, 0), SWAP12),)),
]


def _edges_keep_away_from_base(g, u, k):
    """Every support site v of u has g^k(parent v) as the parent of g^k(v)."""
    forth = SpecWord(g.shape, ((g, k),)).apply
    return all(forth(v[:-1]) == forth(v)[:-1] for v in u.support)


@pytest.mark.parametrize("depth", [4, 5, 6, 7])
def test_half_tree_slices_match_the_pulled_ball_reading(depth):
    # every (u, sign, k) against the pulled ball read below the sites, at
    # the check radius and powers of goodshrink's contraction search.  A
    # witness whose pushed edges point away from the base vertex reads a
    # slice below its sites, one with a reversed edge the part of the
    # ball about g^-k(v0) from that vertex up to its sites, and both
    # kinds occur; a slice may be empty, a reversed half-tree holds the
    # base vertex.  The mixed specs with no support statement read the
    # whole ball; the walked-oracle tests above cover them
    kappa_gens, beta_gens = _goodshrink_witnesses(depth)
    us = kappa_gens + beta_gens + _MIXED_SPECS[:1] + _AXIS_WITNESSES
    r = depth + 1
    ball = tuple(T3.ball(r))
    kinds = set()
    for sign in (1, -1):
        for n, points in zip(range(depth + 5), pullbacks(T0, sign, r)):
            pulled = oracle_pulled_moves(points)
            moves = _conjugate_moves(T0, sign * n, r)
            forth = SpecWord(T3, ((T0, sign * n),))._apply
            for u in us:
                got = list(moves(u))
                want = {ball[j]: forth(y) for j, y in pulled(u)}
                assert dict(got) == want and len(got) == len(want), (sign, n, u)
                kinds.add((_edges_keep_away_from_base(T0, u, sign * n), bool(want)))
    assert kinds == {(True, True), (True, False), (False, True)}


@pytest.mark.parametrize("g", [T0, hyperbolic_isometry(T3, (0, 1))], ids=["t0", "t01"])
def test_conjugation_shifts_match_the_whole_ball_oracle(g):
    # the true window, then windows out of step, and windows with one
    # table replaced by the identity on either side of a pair
    beta = CylinderClopen.cylinder(T3, (0, 2)) if g is T0 else HALF0.minus(spec_image_clopen(g, HALF0))
    gens = rist_generators(S3, beta, 3)
    depth = 4
    reach = depth + g.displacement
    moved = conjugate_families(g, range(-2, 3), gens, reach)
    whole = {i: [full_table(T3, reach, t) for t in moved[i]] for i in moved}
    identity = {a: a for a in T3.ball(reach)}
    windows = [[-2, -1, 0, 1, 2], [0, 2], [1, 0], [-1, 1]]
    verdicts = set()
    for w in windows:
        got = conjugation_shifts(g, reach, depth, [moved[i] for i in w])
        assert got == oracle_conjugation_shifts(g, reach, depth, [whole[i] for i in w])
        verdicts.add(got)
    for pos in (0, 1):
        fam = [list(moved[-1]), list(moved[0])]
        fam_whole = [list(whole[-1]), list(whole[0])]
        fam[pos][0], fam_whole[pos][0] = {}, identity
        got = conjugation_shifts(g, reach, depth, fam)
        assert got is False
        assert got == oracle_conjugation_shifts(g, reach, depth, fam_whole)
    assert verdicts == {True, False}


@pytest.fixture
def trusted_tables(monkeypatch):
    """Every (radius, table) that ``tree._table`` builds while the test runs."""
    built = []
    build = tree._table

    def record(r, moves):
        table = build(r, moves)
        built.append((r, table))
        return table

    monkeypatch.setattr(tree, "_table", record)
    return built


_SHAPES = {
    "rooted2": (rooted(2), symmetric_group(2)),
    "rooted3": (rooted(3), S3),
    "regular3": (T3, S3),
    "regular4": (regular(4), symmetric_group(4)),
}


@pytest.mark.parametrize("name", list(_SHAPES))
def test_exact_tables_pass_checked_table_seeded(name, trusted_tables):
    # realize and conjugate_families build their tables unchecked; every
    # table they build for the goodshrink, nub and tits-core families,
    # for contraction's powers and checked radius, for the mixed specs
    # and for seeded portraits and words in them passes the whole-ball
    # check of checked_table unchanged.  On rooted shapes the conjugator
    # is a seeded portrait, as rooted shapes admit no translation
    shape, local = _SHAPES[name]
    rng = random.Random(37)
    depth = 3
    region = CylinderClopen.cylinder(shape, (0,))
    if shape.kind == "regular":
        portraits = [random_regular_portrait(rng, shape, local, 2) for _ in range(4)]
        g = hyperbolic_isometry(shape, (0,))
        kappa, rep = goodshrink_construct(local, g, region, depth)
        beta = region.minus(spec_image_clopen(g, region))
        verdicts = {
            rep["verdict"],
            nub_window(local, g, beta, 2, 2, depth)["verdict"],
            tits_core_generators(local, g, depth)[1]["verdict"],
        }
        us = rist_generators(local, kappa, depth) + portraits
        us += _MIXED_SPECS if shape == T3 else [g]
    else:
        portraits = [random_rooted_portrait(rng, shape, 2) for _ in range(4)]
        g = portraits[0]
        us = rist_generators(local, region, depth) + portraits
        verdicts = {"verified"}
    conjugate_families(g, range(-depth - 4, depth + 5), us, depth + 1)
    words = [
        SpecWord(shape, tuple((rng.choice(us), rng.choice((-2, -1, 1, 2))) for _ in range(3)))
        for _ in range(6)
    ]
    for mover in us + words:
        for r in range(5):
            mover.realize(r)
    assert len(trusted_tables) > 200
    assert any(table for _, table in trusted_tables)
    assert any(not table for _, table in trusted_tables)
    for r, table in trusted_tables:
        assert checked_table(shape, r, table) == table, (r, table)
    assert verdicts == {"verified"}


T01 = hyperbolic_isometry(T3, (0, 1))
T012 = hyperbolic_isometry(T3, (0, 1, 2))
T0T0 = SpecWord.of(T0, T0)


def _beta_of(g):
    alpha = CylinderClopen.cylinder(T3, (g.apply(ROOT)[0],))
    return alpha.minus(spec_image_clopen(g, alpha))


# the command families of this file and of tests/test_cli.py (the element
# g is T0 and h is T0T0 there, at depth 3); criterion 13 checks the
# goodshrink and nub certificates of criteria 6 and 7
_BALL_FAMILIES = {
    "goodshrink-d3": ("goodshrink", goodshrink_construct, (S3, T0, HALF0, 3)),
    "goodshrink-d4": ("goodshrink", goodshrink_construct, (S3, T0, HALF0, 4)),
    "goodshrink-n0": ("goodshrink", goodshrink_construct, (S3, T0, HALF0, 3), {"n0": 2}),
    "goodshrink-h": ("goodshrink", goodshrink_construct, (S3, T0T0, HALF0, 3)),
    "nub-m3-d6": ("nub", nub_window, (S3, T0, BETA, 3, 3, 6)),
    "nub-m0": ("nub", nub_window, (S3, T0, BETA, 3, 0, 4)),
    "nub-t01": ("nub", nub_window, (S3, T01, _beta_of(T01), 3, 2, 4)),
    "nub-t012": ("nub", nub_window, (S3, T012, _beta_of(T012), 3, 2, 4)),
    "nub-h": ("nub", nub_window, (S3, T0T0, _beta_of(T0T0), 3, 2, 3)),
    "tits-core-t0": ("tits-core", tits_core_generators, (S3, T0, 3)),
    "tits-core-t01": ("tits-core", tits_core_generators, (S3, T01, 3)),
    "tits-core-h": ("tits-core", tits_core_generators, (S3, T0T0, 3)),
    "contraction-u1": (
        "contraction", contraction_certificates,
        (T0, [IsometrySpec(T3, sites=(((0, 1), SWAP02),))], 4),
    ),
    "contraction-mixed": ("contraction", contraction_certificates, (T0, _MIXED_SPECS, 3)),
    "contraction-mixed-back": ("contraction", contraction_certificates, (T0, _MIXED_SPECS, 2, -1)),
}


@pytest.mark.parametrize("family", list(_BALL_FAMILIES))
def test_check_path_gives_the_command_verdict(family):
    # the check path rebuilds every ball table through the validating
    # constructor, on the whole ball, and reruns the command's checks
    kind, command, args, *kwargs = _BALL_FAMILIES[family]
    kwargs = kwargs[0] if kwargs else {}
    got = command(*args, **kwargs)
    if kind != "contraction":  # contraction compares its certificates
        rep = got[1] if isinstance(got, tuple) else got
        got = {"checks": rep["checks"], "verdict": rep["verdict"]}
    assert check_ball_witnesses(kind, *args, **kwargs) == got


def test_check_path_refutes_what_the_command_refuses():
    # the command raises before it reports; the check path reports the
    # failed check instead
    rho = IsometrySpec(T3, sites=(((), SWAP01),))
    got = check_ball_witnesses("goodshrink", S3, rho, HALF0, 3)
    assert got["verdict"] == "refuted_at_depth"
    assert got["checks"]["image_strictly_inside"] is False
    got = check_ball_witnesses("nub", S3, T0, HALF0, 3, 2, 4)
    assert got["verdict"] == "refuted_at_depth"
    assert got["checks"]["translates_disjoint"] is False
    verdicts = {c["verdict"] for c in check_ball_witnesses("contraction", T0, _MIXED_SPECS, 3)}
    assert verdicts == {"contracts", "no-contraction-within-bounds"}


def test_goodshrink_verified_on_attracting_half_tree():
    kappa, rep = goodshrink_construct(S3, T0, HALF0, 4)
    assert kappa == CylinderClopen.cylinder(T3, (0, 1))
    assert rep["verdict"] == "verified"
    assert all(rep["checks"].values())
    assert rep["n0"] == 1
    assert rep["beta"] == "{02}"
    measures = rep["chain_measures"]
    assert all(b < a for a, b in zip(measures, measures[1:]))
    assert rep["contraction_onsets"]
    assert rep["excluded_interior_atoms"] == []


def test_goodshrink_accepts_explicit_deeper_n0():
    kappa, rep = goodshrink_construct(S3, T0, HALF0, 3, n0=2)
    assert kappa == CylinderClopen.cylinder(T3, (0, 1, 0))
    assert rep["verdict"] == "verified"


def test_goodshrink_rejects_unmoved_or_escaping_alpha():
    with pytest.raises(NotSkewering):
        goodshrink_construct(S3, T0, CylinderClopen.cylinder(T3, (1,)), 3)
    rho = IsometrySpec(T3, sites=(((), SWAP01),))
    with pytest.raises(NotSkewering):
        goodshrink_construct(S3, rho, HALF0, 3)
    with pytest.raises(ValueError):
        goodshrink_construct(S3, T0, HALF0, 3, n0=0)
    with pytest.raises(ValueError):
        goodshrink_construct(S3, T0, HALF0, 3, n0=99)


def test_nub_window_m3_translates_and_checks():
    rep = nub_window(S3, T0, BETA, 3, 3, 6)
    assert rep["verdict"] == "verified"
    assert rep["factor_count"] == 7
    assert rep["factor_pair_checks"] == 21
    assert rep["witnesses_per_factor"] == 3
    assert rep["translates"] == {
        "-3": "{102}",
        "-2": "{12}",
        "-1": "{2}",
        "0": "{02}",
        "1": "{012}",
        "2": "{0102}",
        "3": "{01012}",
    }


@pytest.mark.parametrize("axis", [(0,), (0, 1), (0, 1, 2)])
def test_nub_window_verified_for_every_translation_length(axis):
    # g^-1 moves a depth-n vertex up to len(axis) levels deeper, so the
    # window's tables must reach past the depth ball by the displacement
    g = hyperbolic_isometry(T3, axis)
    alpha = CylinderClopen.cylinder(T3, axis[:1])
    beta = alpha.minus(spec_image_clopen(g, alpha))
    rep = nub_window(S3, g, beta, 3, 2, 4)
    assert rep["verdict"] == "verified"
    assert all(rep["checks"].values())
    assert rep["factor_pair_checks"] == 10


def test_nub_window_m0_is_vacuous():
    rep = nub_window(S3, T0, BETA, 3, 0, 4)
    assert rep["factor_count"] == 1
    assert rep["factor_pair_checks"] == 0
    assert rep["verdict"] == "verified"


def test_nub_window_overlapping_translates_raise():
    with pytest.raises(DisjointnessFailure):
        nub_window(S3, T0, HALF0, 3, 2, 4)


def test_nub_window_needs_witnesses():
    with pytest.raises(ValueError):
        nub_window(C3, T0, BETA, 3, 1, 4)


def test_tits_core_generators_certified_both_ways():
    gens, rep = tits_core_generators(S3, T0, 3)
    assert rep["verdict"] == "verified"
    assert gens
    assert sites_of(gens) == sites_of(rist_generators(S3, BETA, 3))
    assert rep["alpha_forward"] == "{0}"
    assert rep["beta_forward"] == "{02}"
    assert rep["alpha_backward"] == "{1}"
    assert rep["beta_backward"] == "{12}"
    assert rep["cone_vertex"] == "02"
    assert rep["rotation_count"] >= 1
    assert rep["checks"]["cone_rotations_normalise"] is True
    assert rep["forward_onsets"] == rep["backward_onsets"]


def test_tits_core_verifies_a_translation_of_length_two():
    # beta = {012,02} has cone vertex 0, and the (1 2) rotation there swaps
    # 01 and 02: it maps rist(beta) onto rist({021,01}), never back into
    # beta, so it is not a normaliser to check, and with no rotation left
    # the normalisation check is left out, not reported as passed
    g = hyperbolic_isometry(T3, (0, 1))
    gens, rep = tits_core_generators(S3, g, 3)
    assert rep["beta_forward"] == "{012,02}"
    assert rep["cone_vertex"] == "0"
    assert rep["rotation_count"] == 0
    assert "cone_rotations_normalise" not in rep["checks"]
    assert all(rep["checks"].values())
    assert rep["verdict"] == "verified"
    assert gens


def test_tits_core_rejects_elliptic_elements():
    rho = IsometrySpec(T3, sites=(((), SWAP01),))
    with pytest.raises(NotSkewering):
        tits_core_generators(S3, rho, 3)
