"""Cylinder-class lattice, perp evidence, star factors, invariance scans."""
from __future__ import annotations

import random

import pytest

from tdlclab.boolalg import CylinderClopen, regular, rooted
from tdlclab.permgrp import cyclic_group, symmetric_group
from tdlclab.tree import IsometrySpec
from tdlclab import cli
from tdlclab import dynamics as dy
from tdlclab import localstruct as ls

from oracles import oracle_fixed_point_blocks
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
