"""Cylinder-supported class lattice at truncation depth.

Classes are canonical clopen regions; meet and join are regionwise
(join is the complement-of-meet-of-complements formula by De Morgan),
and perp is the region complement backed by rigid-stabiliser checks.
Perp and the star decomposition check one fact through one helper,
``_rist_product``: the rigid stabilisers of pairwise-disjoint regions
commute and, in the level truncations small enough to close, meet
pairwise trivially, so they form an internal direct product.  Perp reads
it for a class and its complement, with the co-generation index; the
star reads it for the half-trees at the base vertex up to the closure
cap, and only counts orders above it.  Scans enumerate the invariant
cylinder classes of a dynamics context as unions of its minimal
invariant blocks, which the context's action graph finds once.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

from .boolalg import ROOT, CylinderClopen, TreeShape, format_address
from .boundary import region_vertices, rist_generators, tables_commute
from .dynamics import ActionContext, _ActionGraph, orbit_join
from .permgrp import FiniteGroup
from .tree import (
    IsometrySpec,
    congruence_kernel,
    level_group,
    level_order,
    site_group,
    site_permutations,
)

# level truncations up to this order are also closed explicitly
_REALIZE_CAP = 5000


@dataclass(frozen=True, eq=False)
class LocalClass:
    """Commensurability class carried by a canonical clopen region.

    Identity is the region alone; the depth tag is serialization
    metadata recording the truncation the class was produced at.
    """

    region: CylinderClopen
    depth: int

    @property
    def kind(self) -> str:
        if self.region.is_zero():
            return "zero"
        if self.region.is_top():
            return "top"
        return "cylinder"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalClass):
            return NotImplemented
        return self.region == other.region

    def __hash__(self) -> int:
        return hash(self.region)

    def __str__(self) -> str:
        return f"{self.region}@{self.depth}"


def local_class(region: CylinderClopen, depth: int | None = None) -> LocalClass:
    if depth is None:
        depth = region.depth
    return LocalClass(region, depth)


def top_class(shape: TreeShape, depth: int = 0) -> LocalClass:
    return LocalClass(CylinderClopen.top(shape), depth)


def class_meet(a: LocalClass, b: LocalClass) -> LocalClass:
    return local_class(a.region.meet(b.region), max(a.depth, b.depth))


def class_perp(a: LocalClass) -> LocalClass:
    return local_class(a.region.complement(), a.depth)


def class_join(a: LocalClass, b: LocalClass) -> LocalClass:
    # the centraliser-lattice formula, complement of the meet of
    # complements, is by De Morgan the region union
    return local_class(a.region.join(b.region), max(a.depth, b.depth))


def _rist_level_order(local: FiniteGroup, region: CylinderClopen, n: int) -> int:
    """Order of the depth-n truncation of the rigid stabiliser, counted
    site by site over the vertices inside the region."""
    return prod(site_group(region.shape, local, v).order for v in region_vertices(region, n - 1))


def _rist_product(shape: TreeShape, local: FiniteGroup, regions, d: int, group=None):
    """Rigid stabilisers of pairwise-disjoint regions as one product in
    the depth-d truncation: each region's witnesses (its site decorations
    above depth d) as d-sphere permutations, and whether every pair of
    families commutes.  Given the level group, the third item is each
    family's realized order, whether every pair meets trivially (its
    product's order is the product of theirs) and the order of all the
    families together; two regions are one pair, closed once."""
    families = [site_permutations(shape, local, region_vertices(r, d - 1), d) for r in regions]
    tables = [[dict(enumerate(p.images)) for p in f] for f in families]
    pairs = list(combinations(range(len(families)), 2))
    commute = all(tables_commute(tables[i], tables[j]) for i, j in pairs)
    if group is None:
        return families, commute, None
    orders = [group.subgroup(f).order for f in families]
    joined = group.subgroup([p for f in families for p in f]).order
    trivial = all(
        (joined if len(pairs) == 1 else group.subgroup(families[i] + families[j]).order)
        == orders[i] * orders[j]
        for i, j in pairs
    )
    return families, commute, (orders, trivial, joined)


def perp(local: FiniteGroup, a: LocalClass, max_depth: int) -> dict:
    """Complement class with commutation and co-generation evidence.

    At every depth up to the bound the rigid-stabiliser witnesses of the
    region and of its complement are checked to commute pointwise on the
    sphere; the index of their product inside the level truncation is
    recorded arithmetically, and re-derived by explicit closure at every
    depth small enough to enumerate.
    """
    shape = a.region.shape
    complement = class_perp(a)
    report: dict = {
        "class": str(a),
        "complement": complement,
        "depths": {},
        "checks": {"involution": class_perp(complement) == a},
        "verdict": "verified",
    }
    if a.kind in ("zero", "top"):
        report["checks"]["trivial_endpoint"] = True
        return report

    for d in range(1, max_depth + 1):
        order_a = _rist_level_order(local, a.region, d)
        order_b = _rist_level_order(local, complement.region, d)
        level = level_order(shape, local, d)
        group = level_group(shape, local, d) if level <= _REALIZE_CAP else None
        _, commute, realized = _rist_product(shape, local, (a.region, complement.region), d, group)
        index_val, rem = divmod(level, order_a * order_b)
        entry = {
            "commutation": commute,
            "rist_order": order_a,
            "perp_order": order_b,
            "level_order": level,
            "cogeneration_index": index_val,
            "realized": False,
        }
        if rem != 0:
            entry["commutation"] = False
            report["verdict"] = "refuted_at_depth"
        if realized is not None:
            (sub_a, sub_b), _, both = realized
            entry["realized"] = True
            entry["realized_orders_match"] = sub_a == order_a and sub_b == order_b
            # commuting factors with multiplying orders intersect trivially
            entry["trivial_intersection"] = both == order_a * order_b
            entry["realized_index"] = group.order // both
            if (
                not entry["realized_orders_match"]
                or not entry["trivial_intersection"]
                or entry["realized_index"] != index_val
            ):
                report["verdict"] = "refuted_at_depth"
        if not commute:
            report["verdict"] = "refuted_at_depth"
        report["depths"][d] = entry
    return report


def decomposition_factors(
    shape: TreeShape, local: FiniteGroup, depth: int
) -> tuple[list[LocalClass], dict]:
    """Star-stabiliser truncation split into half-tree rigid factors.

    Depth zero leaves the single trivial factor.  Otherwise one factor
    per root direction; the internal-direct-product axioms (pairwise
    commuting, trivial pairwise intersection, generating the kernel of
    the star action) are enumerated at every level the cap allows and
    carried arithmetically above it.
    """
    if depth == 0:
        return [top_class(shape)], {
            "verdict": "verified",
            "factor_count": 1,
            "note": "depth zero keeps the whole group as its only factor",
        }
    letters = shape.child_letters(ROOT)
    factors = [
        local_class(CylinderClopen.cylinder(shape, (c,)), depth) for c in letters
    ]
    regions = [f.region for f in factors]
    join_all = regions[0]
    for r in regions[1:]:
        join_all = join_all.join(r)
    perp_cross = all(
        class_perp(factors[i])
        == _join_classes([f for j, f in enumerate(factors) if j != i])
        for i in range(len(factors))
    )
    checks: dict = {
        "pairwise_disjoint": not any(x.meets(y) for x, y in combinations(regions, 2)),
        "regions_cover_boundary": join_all.is_top(),
        "perp_of_each_is_join_of_rest": perp_cross,
    }
    star_orders = {}
    realized_depths = []
    verdict = "verified"
    for d in range(1, depth + 1):
        factor_orders = [_rist_level_order(local, r, d) for r in regions]
        level = level_order(shape, local, d)
        star_order = level // local.order
        product = prod(factor_orders)
        star_orders[d] = {
            "factor_orders": factor_orders,
            "star_order": star_order,
            "product_matches": product == star_order,
        }
        if product != star_order:
            verdict = "refuted_at_depth"
        if level <= _REALIZE_CAP:
            group = level_group(shape, local, d)
            _, commute, (_, trivial, joined) = _rist_product(shape, local, regions, d, group)
            star = congruence_kernel(group, shape, d, 1).order
            star_orders[d].update({
                "pairwise_commute": commute,
                "pairwise_trivial_intersection": trivial,
                "generates_star": joined == star,
                "realized_star_order": star,
            })
            realized_depths.append(d)
            if not (commute and trivial and joined == star):
                verdict = "refuted_at_depth"
    checks["levels"] = star_orders
    checks["realized_depths"] = realized_depths
    return factors, {
        "verdict": verdict,
        "factor_count": len(factors),
        "checks": checks,
    }


def _join_classes(classes: list[LocalClass]) -> LocalClass:
    out = classes[0]
    for c in classes[1:]:
        out = class_join(out, c)
    return out


def fixed_point_scan(ctx: ActionContext) -> dict:
    """Invariant cylinder classes of the context at truncation depth.

    The invariant clopens form a Boolean subalgebra, hence are exactly
    the unions of the minimal invariant blocks, which are read from the
    context's action graph: each is the closure of a seed state under
    the depth-n states that its generator steps meet.  Zero and the full
    boundary are always present; a minimal context leaves only them.
    """
    if not isinstance(ctx, ActionContext):
        raise TypeError("fixed-point scan runs on the single-tree context")
    depth = ctx.depth
    shape = ctx.shape
    blocks = [[ctx.states()[i] for i in sorted(b)] for b in _ActionGraph(ctx).blocks]
    k = len(blocks)
    count = 2 ** k
    classes: list[LocalClass] | None = None
    if k <= 6:
        classes = []
        for mask in range(count):
            members = [
                a for i, b in enumerate(blocks) if mask >> i & 1 for a in b
            ]
            classes.append(
                local_class(CylinderClopen.from_addresses(shape, members), depth)
            )
    return {
        "verdict": "exactly-zero-and-top" if k == 1 else "proper-invariant-classes",
        "depth": depth,
        "block_count": k,
        "blocks": [[format_address(shape, a) for a in b] for b in blocks],
        "fixed_class_count": count,
        "classes": classes,
        "scope": "over cylinder classes",
    }


def commensurated_check(ctx: ActionContext, a: LocalClass) -> dict:
    """Generator invariance of the class region, with the orbit join
    attached as the obstruction when invariance fails."""
    depth = ctx.depth
    if a.kind in ("zero", "top"):
        return {
            "verdict": "commensurated-at-depth",
            "class": str(a),
            "depth": depth,
            "note": "endpoint classes are invariant outright",
        }
    moved = [
        name for name in ctx.gen_names if ctx.image(name, a.region) != a.region
    ]
    if not moved:
        return {
            "verdict": "commensurated-at-depth",
            "class": str(a),
            "depth": depth,
            "moved_by": [],
        }
    join = orbit_join(ctx, a.region)
    return {
        "verdict": "not-commensurated-at-depth",
        "class": str(a),
        "depth": depth,
        "moved_by": moved,
        "alpha_star": str(join["alpha_star"]),
        "alpha_star_is_top": join["is_top"],
        "witness_words": join["witness_words"],
    }


def half_tree_stabiliser_context(
    local: FiniteGroup,
    colour: int,
    depth: int,
    word_bound: int = 6,
) -> ActionContext:
    """Setwise stabiliser of one half-tree as a dynamics context: the
    rigid witnesses of both sides plus the root recolourings fixing the
    distinguished colour."""
    from .boolalg import regular

    shape = regular(local.degree)
    half = CylinderClopen.cylinder(shape, (colour,))
    gens: dict[str, IsometrySpec] = {}
    for k, spec in enumerate(rist_generators(local, half, depth)):
        gens[f"a{k}"] = spec
    for k, spec in enumerate(rist_generators(local, half.complement(), depth)):
        gens[f"b{k}"] = spec
    for k, perm in enumerate(local.point_stabilizer(colour).pruned_gens):
        gens[f"r{k}"] = IsometrySpec(shape, sites=((ROOT, perm),))
    return ActionContext(shape, gens, depth, word_bound)
