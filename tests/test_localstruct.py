"""Cylinder-class lattice, perp evidence, star factors, invariance scans."""
from __future__ import annotations

import json
import random
from itertools import combinations

import pytest

from tdlclab.boolalg import CylinderClopen, regular, rooted
from tdlclab.certificates import canonical_json, normalise
from tdlclab.permgrp import (
    FiniteGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from tdlclab.tree import IsometrySpec, level_group, level_order
from tdlclab import cli
from tdlclab import dynamics as dy
from tdlclab import localstruct as ls

import oracles
from oracles import (
    oracle_decomposition_factors,
    oracle_fixed_point_blocks,
    oracle_perp,
    oracle_witness_perms,
)
from test_cli import ROOTED_BINARY
from test_dynamics import _lone_axis_context
from util import random_clopen

T3 = regular(3)
S3 = symmetric_group(3)


def cyl(*addr):
    return CylinderClopen.cylinder(T3, tuple(addr))


# ------------------------------------------------------------------ classes


def test_class_kinds_and_identity():
    a = ls.local_class(cyl(0))
    assert a.kind == "cylinder"
    assert str(a) == "{0}@1"
    assert ls.local_class(CylinderClopen.zero(T3)).kind == "zero"
    assert ls.top_class(T3).kind == "top"
    # identity is the canonical region, not the depth tag
    assert ls.local_class(cyl(0), depth=4) == ls.local_class(cyl(0), depth=1)
    assert len({ls.local_class(cyl(0), depth=4), a}) == 1


def test_class_canonicalises_to_endpoints():
    full = ls.local_class(CylinderClopen.from_addresses(T3, [(0,), (1,), (2,)]))
    assert full.kind == "top"
    assert ls.local_class(CylinderClopen.from_addresses(T3, [])).kind == "zero"


def test_meet_and_join_trivial_examples():
    a = ls.local_class(cyl(0))
    b = ls.local_class(cyl(1))
    rest = ls.local_class(CylinderClopen.from_addresses(T3, [(1,), (2,)]))
    assert ls.class_meet(a, b).kind == "zero"
    assert ls.class_join(a, rest).kind == "top"


def test_join_formula_matches_region_union():
    # class_join against the centraliser-lattice formula, the perp of the
    # meet of perps: region and depth tag alike
    rng = random.Random(23)
    for _ in range(500):
        x = random_clopen(rng, T3, 4)
        y = random_clopen(rng, T3, 4)
        a = ls.local_class(x, rng.randint(0, 5))
        b = ls.local_class(y, rng.randint(0, 5))
        via_formula = ls.class_perp(ls.class_meet(ls.class_perp(a), ls.class_perp(b)))
        joined = ls.class_join(a, b)
        assert via_formula.region == joined.region == x.join(y)
        assert via_formula.depth == joined.depth == max(a.depth, b.depth)


def test_lattice_matches_the_clopen_algebra():
    rng = random.Random(29)
    for _ in range(200):
        x = random_clopen(rng, T3, 4)
        y = random_clopen(rng, T3, 4)
        a, b = ls.local_class(x), ls.local_class(y)
        assert ls.class_meet(a, b).region == x.meet(y)
        assert ls.class_perp(a).region == x.complement()
        assert ls.class_perp(ls.class_perp(a)) == a


# --------------------------------------------------------------------- perp


def test_perp_half_tree_evidence():
    report = ls.perp(S3, ls.local_class(cyl(0)), 5)
    assert report["verdict"] == "verified"
    assert str(report["complement"].region) == "{1,2}"
    assert report["checks"]["involution"]
    for d in range(1, 6):
        entry = report["depths"][d]
        assert entry["commutation"]
        assert entry["cogeneration_index"] == 6
    realized = [d for d, e in report["depths"].items() if e["realized"]]
    assert realized == [1, 2, 3]
    for d in realized:
        entry = report["depths"][d]
        assert entry["realized_orders_match"]
        assert entry["trivial_intersection"]
        assert entry["realized_index"] == 6


def test_perp_depth_profile_of_a_straddled_region():
    # the site above cyl(01) serves neither side, so the index grows once
    report = ls.perp(S3, ls.local_class(cyl(0, 1)), 3)
    assert {d: e["cogeneration_index"] for d, e in report["depths"].items()} == {
        1: 6,
        2: 12,
        3: 12,
    }
    assert report["verdict"] == "verified"


def test_perp_endpoints_are_trivial():
    report = ls.perp(S3, ls.local_class(CylinderClopen.zero(T3)), 3)
    assert report["complement"].kind == "top"
    assert report["verdict"] == "verified"
    assert report["depths"] == {}


def test_perp_rist_orders_match_frozen_counts():
    report = ls.perp(S3, ls.local_class(cyl(0)), 4)
    assert [report["depths"][d]["rist_order"] for d in (1, 2, 3, 4)] == [1, 2, 8, 128]
    assert [report["depths"][d]["perp_order"] for d in (1, 2, 3, 4)] == [1, 4, 64, 16384]


# ------------------------------------------------------------ decomposition


def test_decomposition_three_half_trees():
    factors, report = ls.decomposition_factors(T3, S3, 3)
    assert [str(f.region) for f in factors] == ["{0}", "{1}", "{2}"]
    assert report["verdict"] == "verified"
    checks = report["checks"]
    assert checks["pairwise_disjoint"]
    assert checks["regions_cover_boundary"]
    assert checks["perp_of_each_is_join_of_rest"]
    assert checks["realized_depths"] == [1, 2, 3]
    assert checks["levels"][2]["star_order"] == 8
    assert checks["levels"][3]["star_order"] == 512
    assert checks["levels"][3]["generates_star"]
    assert checks["levels"][3]["pairwise_trivial_intersection"]


def test_decomposition_rooted_binary_tower():
    # enumerable control: the depth-2 binary tower splits its first-level
    # stabiliser into two commuting order-2 factors
    factors, report = ls.decomposition_factors(rooted(2), cyclic_group(2), 2)
    assert len(factors) == 2
    assert report["verdict"] == "verified"
    level2 = report["checks"]["levels"][2]
    assert level2["factor_orders"] == [2, 2]
    assert level2["star_order"] == 4
    assert level2["realized_star_order"] == 4
    assert level2["pairwise_commute"]
    assert level2["generates_star"]


def test_decomposition_depth_zero():
    factors, report = ls.decomposition_factors(T3, S3, 0)
    assert len(factors) == 1
    assert factors[0].kind == "top"
    assert report["factor_count"] == 1


def test_decomposition_factors_stable_under_depth_increase():
    shallow, _ = ls.decomposition_factors(T3, S3, 2)
    deep, _ = ls.decomposition_factors(T3, S3, 3)
    assert [f.region for f in shallow] == [f.region for f in deep]


# ------------------------------------------------- one product check, two readers

_PRODUCT_CASES = {
    "regular3-S3": (regular(3), symmetric_group(3)),
    "regular3-C3": (regular(3), cyclic_group(3)),
    "regular4-S4": (regular(4), symmetric_group(4)),
    "regular4-D4": (regular(4), dihedral_group(4)),
    "regular4-A4": (regular(4), alternating_group(4)),
    "rooted2-C2": (rooted(2), cyclic_group(2)),
    "rooted3-S3": (rooted(3), symmetric_group(3)),
    "rooted3-C3": (rooted(3), cyclic_group(3)),
}


def _regions(shape, seed):
    """Zero, TOP and three seeded clopens drawn at each depth 1 to 3."""
    rng = random.Random(seed)
    out = [CylinderClopen.zero(shape), CylinderClopen.top(shape)]
    for k in (1, 2, 3):
        for _ in range(3):
            picked = [a for a in shape.sphere(k) if rng.random() < 0.5]
            out.append(CylinderClopen.from_addresses(shape, picked))
    return out


def _same_bytes(new, old):
    # canonical bytes, and the key order the canonical form sorts away
    assert canonical_json(new) == canonical_json(old)
    assert json.dumps(normalise(new)) == json.dumps(normalise(old))


@pytest.mark.parametrize("name", sorted(_PRODUCT_CASES))
def test_perp_and_star_reports_match_their_own_blocks(name):
    """``perp`` and ``decomposition_factors`` read one product check;
    their reports keep the bytes and key order of the versions that
    closed their subgroups in their own blocks."""
    shape, local = _PRODUCT_CASES[name]
    for region in _regions(shape, 44):
        a = ls.local_class(region)
        for max_depth in (1, 2, 3, 4):
            _same_bytes(ls.perp(local, a, max_depth), oracle_perp(local, a, max_depth))
    for depth in (0, 1, 2, 3, 4):
        _same_bytes(
            ls.decomposition_factors(shape, local, depth),
            oracle_decomposition_factors(shape, local, depth),
        )


def test_a_miscounted_model_is_refuted_as_before(monkeypatch):
    """With the counted rigid-stabiliser orders doubled on every region
    that misses the first half-tree, the realized and counted orders
    part, and every refutation reads as before: ``trivial_intersection``
    compares the join with the counted orders, and the star's pairwise
    checks with the realized ones."""
    counted = ls._rist_level_order

    def doubled(local, region, n):
        order = counted(local, region, n)
        first = CylinderClopen.cylinder(region.shape, (0,))
        return order if region.meets(first) else 2 * order

    monkeypatch.setattr(ls, "_rist_level_order", doubled)
    monkeypatch.setattr(oracles, "_rist_level_order", doubled)
    verdicts = set()
    for name in ("regular3-S3", "regular4-D4", "rooted2-C2", "rooted3-S3"):
        shape, local = _PRODUCT_CASES[name]
        for region in _regions(shape, 45)[2:]:
            a = ls.local_class(region)
            new = ls.perp(local, a, 3)
            _same_bytes(new, oracle_perp(local, a, 3))
            verdicts.add(new["verdict"])
        for depth in (1, 2, 3):
            new = ls.decomposition_factors(shape, local, depth)
            _same_bytes(new, oracle_decomposition_factors(shape, local, depth))
            verdicts.add(new[1]["verdict"])
    assert verdicts == {"verified", "refuted_at_depth"}


def test_rist_product_matches_pairwise_closures_seeded():
    """On seeded families of two to four regions, overlapping ones
    included, the product check gives each region's witnesses, and the
    commutation, realized orders, pairwise meets and joined order of
    closures made pair by pair."""
    rng = random.Random(46)
    outcomes = set()
    for _ in range(40):
        shape, local = _PRODUCT_CASES[rng.choice(["regular3-S3", "rooted2-C2", "rooted3-C3"])]
        d = rng.randint(1, 3)
        while level_order(shape, local, d) > ls._REALIZE_CAP:
            d -= 1
        regions = [_regions(shape, rng.random())[rng.randrange(2, 11)]
                   for _ in range(rng.randint(2, 4))]
        group = level_group(shape, local, d)
        families, commute, (orders, trivial, joined) = ls._rist_product(
            shape, local, regions, d, group
        )
        assert families == [oracle_witness_perms(local, r, d) for r in regions]
        assert ls._rist_product(shape, local, regions, d) == (families, commute, None)
        pairs = list(combinations(range(len(regions)), 2))
        assert commute == all(
            x * y == y * x for i, j in pairs for x in families[i] for y in families[j]
        )
        degree = group.degree
        assert orders == [FiniteGroup(degree, f).order for f in families]
        assert trivial == all(
            FiniteGroup(degree, families[i] + families[j]).order == orders[i] * orders[j]
            for i, j in pairs
        )
        assert joined == FiniteGroup(degree, [p for f in families for p in f]).order
        outcomes.add((commute, trivial))
    assert len(outcomes) >= 3


def test_star_builds_no_site_permutations_past_the_cap(monkeypatch):
    """Past the closure cap the star decomposition is arithmetic only:
    it builds site permutations at the realized depths and nowhere else."""
    built = []
    site_permutations = ls.site_permutations

    def counting(shape, local, vertices, n):
        built.append(n)
        return site_permutations(shape, local, vertices, n)

    monkeypatch.setattr(ls, "site_permutations", counting)
    for shape, local, depth in ((regular(4), symmetric_group(4), 5), (regular(3), S3, 7)):
        built.clear()
        _, report = ls.decomposition_factors(shape, local, depth)
        realized = report["checks"]["realized_depths"]
        assert realized and realized[-1] < depth
        assert sorted(set(built)) == realized


# ------------------------------------------------------------------- scans


def test_fixed_point_scan_minimal_context_leaves_endpoints():
    for n in (1, 2, 3, 4):
        ctx = dy.translation_rotation_context(S3, depth=n, word_bound=6)
        scan = ls.fixed_point_scan(ctx)
        assert scan["verdict"] == "exactly-zero-and-top"
        assert scan["block_count"] == 1
        assert [str(c.region) for c in scan["classes"]] == ["{}", "TOP"]


def test_fixed_point_scan_half_tree_stabiliser():
    ctx = ls.half_tree_stabiliser_context(S3, 0, depth=2)
    scan = ls.fixed_point_scan(ctx)
    assert scan["verdict"] == "proper-invariant-classes"
    assert scan["block_count"] == 2
    assert [str(c.region) for c in scan["classes"]] == ["{}", "{0}", "{1,2}", "TOP"]


def test_fixed_point_scan_identity_fixes_everything():
    ctx = dy.ActionContext(T3, {"e": IsometrySpec(T3)}, depth=1, word_bound=2)
    scan = ls.fixed_point_scan(ctx)
    assert scan["block_count"] == 3
    assert scan["fixed_class_count"] == 8
    assert all(len(b) == 1 for b in scan["blocks"])


def _rooted_binary_context(depth):
    spec = cli.parse_spec_text(ROOTED_BINARY)
    spec.depth = depth
    return cli.build_context(spec)


_SCAN_CONTEXTS = {
    **{
        f"translation-rotation-{n}": (lambda n=n: dy.translation_rotation_context(S3, depth=n))
        for n in (1, 2, 3, 4)
    },
    **{f"rotations-only-{n}": (lambda n=n: dy.rotation_context(S3, depth=n)) for n in (2, 3, 4)},
    **{
        f"half-tree-stabiliser-{n}": (lambda n=n: ls.half_tree_stabiliser_context(S3, 0, depth=n))
        for n in (2, 3)
    },
    **{f"skewering-{n}": (lambda n=n: dy.skewering_context(S3, depth=n)) for n in (2, 3)},
    "lone-axis": _lone_axis_context,
    **{f"rooted-binary-{n}": (lambda n=n: _rooted_binary_context(n)) for n in (2, 3, 4)},
}


@pytest.mark.parametrize("name", sorted(_SCAN_CONTEXTS))
def test_fixed_point_blocks_match_the_saturation_oracle(name):
    ctx = _SCAN_CONTEXTS[name]()
    assert ls.fixed_point_scan(ctx)["blocks"] == oracle_fixed_point_blocks(ctx)


def test_fixed_point_scan_rejects_product_contexts():
    two = dy.two_copy_product_context(S3, depth=2)
    with pytest.raises(TypeError):
        ls.fixed_point_scan(two)


# ----------------------------------------------------------- commensuration


def test_commensurated_check_full_context():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=6)
    report = ls.commensurated_check(ctx, ls.local_class(cyl(0)))
    assert report["verdict"] == "not-commensurated-at-depth"
    assert report["alpha_star"] == "TOP"
    assert report["alpha_star_is_top"]
    assert report["moved_by"]


def test_commensurated_check_restricted_context():
    ctx = ls.half_tree_stabiliser_context(S3, 0, depth=2)
    report = ls.commensurated_check(ctx, ls.local_class(cyl(0)))
    assert report["verdict"] == "commensurated-at-depth"
    assert report["moved_by"] == []


def test_commensurated_check_endpoints():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=6)
    assert (
        ls.commensurated_check(ctx, ls.top_class(T3))["verdict"]
        == "commensurated-at-depth"
    )
    assert (
        ls.commensurated_check(ctx, ls.local_class(CylinderClopen.zero(T3)))["verdict"]
        == "commensurated-at-depth"
    )
