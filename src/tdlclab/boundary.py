"""Rigid stabilisers and contraction behaviour at finite depth.

The rigid stabiliser of a clopen region is realized by its cheapest
witnesses: single-site decorations at vertices whose whole subtree lies
inside the region, with the decoration fixing the return colour so the
element extends by the identity outside.  Everything downstream is a
finite-depth verdict: conjugates, commutators and contraction onsets are
evaluated through exact recipe application, then checked on explicit
balls whose radius is recorded in the report.
"""
from __future__ import annotations

from .boolalg import (
    ROOT,
    Address,
    CylinderClopen,
    covered,
    format_address,
)
from .errors import DisjointnessFailure, NotSkewering
from .permgrp import FiniteGroup
from .tree import (
    IsometrySpec,
    SpecWord,
    _conjugate_moves,
    conjugate_families,
    in_universal_group,
    site_decorations,
    spec_image_clopen,
)


def inside(region: CylinderClopen, v: Address) -> bool:
    """Whole subtree below v contained in the region."""
    return covered(v, region.addresses)


def region_vertices(region: CylinderClopen, max_depth: int) -> list[Address]:
    """The vertices of the radius-``max_depth`` ball inside the region, in
    ``shape.ball`` order: level by level, each level in lexicographic order.

    A vertex lies inside exactly when one of its prefixes is a cover
    address, so each cover address spreads over its subtree's vertices
    at its own level and every level down to ``max_depth``.  The cover is
    a sorted antichain, so the runs it puts on one level follow each
    other in lexicographic order.
    """
    children = region.shape.children
    levels: list[list[Address]] = [[] for _ in range(max_depth + 1)]
    for a in region.addresses:
        if len(a) > max_depth:
            continue
        run = [a]
        levels[len(a)] += run
        for d in range(len(a) + 1, max_depth + 1):
            run = [b for v in run for b in children(v)]
            levels[d] += run
    return [v for level in levels for v in level]


def rist_generators(
    local: FiniteGroup, region: CylinderClopen, max_depth: int
) -> list[IsometrySpec]:
    """Single-site witnesses for the rigid stabiliser, one per generator
    of the site group at each vertex inside the region."""
    shape = region.shape
    if local.degree != shape.degree:
        raise ValueError("local group degree does not match the shape")
    return site_decorations(shape, local, region_vertices(region, max_depth))


def support_in(table: dict, region: CylinderClopen) -> bool:
    """The table fixes every vertex that is not strictly inside the region.

    Fixing those vertices pins every ray to an end outside the region,
    so at the realized precision this is exactly "trivial off the
    region".  A table lists only the vertices it moves, so this reads
    just those: each must lie inside the region.  A vertex below one
    inside the region is inside too, so only the listed vertices whose
    parent is not listed are tested.
    """
    return all(inside(region, v) for v in table if not (v and v[:-1] in table))


def tables_commute(family_a, family_b) -> bool:
    """Every table of one family commutes with every table of the other.

    A table is a dict that lists at least the points it moves, with
    their images, and fixes every point it does not list, such as the
    ball table of an isometry fixing the base vertex.  The tables must
    be permutations of one common domain.  Two permutations whose moved
    sets are disjoint commute, so such a pair is never looked at: the
    second family's tables are indexed by the points they move, and each
    table of the first meets only those that share a moved point with
    it.  Such a pair is checked on the union of the two moved sets,
    since both sides of fu(fv(x)) = fv(fu(x)) are x at a point that
    neither moves.
    """

    def moved(family):
        return [(f.get, {x for x, y in f.items() if x != y}) for f in family]

    moved_b = moved(family_b)
    movers: dict = {}  # point -> positions of the second family's tables moving it
    for j, (_, mv) in enumerate(moved_b):
        for x in mv:
            movers.setdefault(x, []).append(j)
    for fu, mu in moved(family_a):
        clash = {j for x in mu & movers.keys() for j in movers[x]}
        for j in sorted(clash):
            fv, mv = moved_b[j]
            for x in mu | mv:
                y, z = fv(x, x), fu(x, x)
                if fu(y, y) != fv(z, z):
                    return False
    return True


def contraction_certificates(
    g: IsometrySpec,
    us,
    ball_radius: int,
    direction: int = 1,
) -> list[dict]:
    """For each u, the smallest k with g^k u g^-k trivial on the given
    ball (k counted along ``direction``).

    Trivial on the radius-n ball means the conjugate fixes every vertex
    to depth n + 1, so its local actions down to depth n are all
    trivial.  That holds exactly when u fixes the pull-back g^-k of the
    radius n + 1 ball.  The points the conjugate moves come from
    ``tree._conjugate_moves``, the rule ``conjugate_families`` reads
    too, built once per power for every u, and the search for them stops
    at the first one.  A witness supported at sites reads only the
    points of the ball about g^-k(v0) strictly below its sites, none
    once that ball no longer reaches below them; any other u reads the
    whole ball about g^-k(v0).  Powers are searched up to
    k_max = ball_radius + 4.  After the onset the next three powers
    within that bound are rechecked; the conjugated support only moves
    deeper, so a non-monotone onset would expose a bookkeeping bug.
    When no power within k_max works the verdict reports that the
    search bound was the obstruction.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if ball_radius < 0:
        raise ValueError(f"ball radius must be at least 0, got {ball_radius}")
    k_max = ball_radius + 4
    check_radius = ball_radius + 1
    onsets: list = [None] * len(us)
    tails: list[list[bool]] = [[] for _ in us]
    stop = [k_max + 1] * len(us)  # powers past this one are not needed
    for k in range(k_max + 1):
        live = [i for i in range(len(us)) if k < stop[i]]
        if not live:
            break
        moves = _conjugate_moves(g, direction * k, check_radius)
        for i in live:
            trivial = next(moves(us[i]), None) is None
            if onsets[i] is not None:
                tails[i].append(trivial)
            elif trivial:
                onsets[i] = k
                stop[i] = min(k + 4, k_max + 1)
    out = []
    for onset, tail in zip(onsets, tails):
        monotone = onset is not None and all(tail)
        out.append({
            "k": onset,
            "k_max": k_max,
            "ball": ball_radius,
            "checked_radius": check_radius,
            "direction": direction,
            "onset_monotone": monotone,
            "verdict": "contracts" if monotone else "no-contraction-within-bounds",
        })
    return out


def goodshrink_construct(
    local: FiniteGroup,
    g: IsometrySpec,
    alpha: CylinderClopen,
    depth: int,
    n0: int | None = None,
) -> tuple[CylinderClopen, dict]:
    """Contraction-friendly shrinking data for a skewered clopen.

    kappa stands in for a closed set: the clopen g^n0.alpha at the
    working depth, with the interior of the full forward intersection
    (empty at any finite stage, recorded as the excluded-interior
    marker) removed only notionally.  Four checks run on generators
    realized at the working depth: conjugation by g maps the rigid
    stabiliser of kappa into itself, the rigid stabiliser of g^n0.beta
    sits inside kappa, the kappa and beta factors commute elementwise,
    and every kappa witness carries a contraction certificate.  n0
    defaults to 1 and must lie in 1..2*depth.  The chain g^i.alpha over
    that 2*depth window shrinks strictly by construction, since g is a
    bijection of the boundary and g.alpha < alpha; the check
    ``chain_strictly_shrinking`` re-tests each step.
    """
    galpha = spec_image_clopen(g, alpha)
    if not galpha.lt(alpha):
        raise NotSkewering(
            f"{g!r} does not move {alpha} strictly inside itself"
        )
    beta = alpha.minus(galpha)
    chain = [alpha, galpha]
    while len(chain) < 2 * depth + 1:
        chain.append(spec_image_clopen(g, chain[-1]))
    if n0 is None:
        n0 = 1
    if not 1 <= n0 <= 2 * depth:
        raise ValueError("n0 outside the verified window")
    kappa = chain[n0]

    kappa_gens = rist_generators(local, kappa, depth)
    check_radius = depth + 2

    conj_tables = conjugate_families(g, (1,), kappa_gens, check_radius)[1]
    conj_into_kappa = all(
        support_in(tab, kappa) and in_universal_group(g.shape, tab, local)
        for tab in conj_tables
    )

    gn0_beta = beta
    for _ in range(n0):
        gn0_beta = spec_image_clopen(g, gn0_beta)
    product_inside = gn0_beta.leq(kappa)
    beta_factor_gens = rist_generators(local, gn0_beta, depth)
    beta_tables = [v.realize(check_radius) for v in beta_factor_gens]
    product_gens_inside = all(support_in(tab, kappa) for tab in beta_tables)

    # the product factors are the conjugated kappa witnesses and the
    # g^n0.beta witnesses; when every witness fixes the base vertex the
    # tables permute each sphere and compose inside the checked ball,
    # and a witness moving the base vertex already refutes the product
    commute = all(ROOT not in t for t in conj_tables + beta_tables) and tables_commute(
        conj_tables, beta_tables
    )

    contractions = contraction_certificates(g, kappa_gens, depth)

    checks = {
        "image_strictly_inside": True,
        "chain_strictly_shrinking": all(b.lt(a) for a, b in zip(chain, chain[1:])),
        "conjugation_preserves_kappa": conj_into_kappa,
        "product_inclusion": product_inside and product_gens_inside,
        "factors_commute": commute,
        "kappa_witnesses_contract": all(
            c["verdict"] == "contracts" for c in contractions
        ),
    }
    report = {
        "alpha": str(alpha),
        "beta": str(beta),
        "kappa": str(kappa),
        "n0": n0,
        "depth": depth,
        "u_level": depth,
        "check_radius": check_radius,
        "chain_measures": [c.measure() for c in chain],
        "kappa_generators": len(kappa_gens),
        "beta_factor_generators": len(beta_factor_gens),
        "contraction_onsets": [c["k"] for c in contractions],
        "excluded_interior_atoms": [],
        "attracting_core": str(chain[-1]),
        "checks": checks,
        "verdict": "verified" if all(checks.values()) else "refuted_at_depth",
    }
    return kappa, report


def conjugation_shifts(g, reach: int, depth: int, families) -> bool:
    """Whether conjugating each family by g gives the next family on the
    depth ball: g f g^-1 = f' for the tables f, f' at one position.

    Tables are radius-``reach`` ball tables fixing the base vertex, and
    g must carry the depth ball's pull-back inside that ball: each
    pull-back y = g^-1(x) of a depth-ball point x is exact, so this asks
    only that |y| <= reach.  After that g f g^-1 fixes x wherever f
    fixes y, so only the points f moves and those f' moves are read, and
    g is read through its exact map, once per point f moves.  A legal
    address lies in the depth ball exactly when it is at most ``depth``
    letters long.
    """
    back = SpecWord(g.shape, ((g, -1),))._apply
    if any(len(back(x)) > reach for x in g.shape.ball(depth)):
        return False
    forth = g._apply
    for family, following in zip(families, families[1:]):
        for fu, ft in zip(family, following):
            pushed = {y: forth(y) for y in fu}
            hit = set()
            for y, z in fu.items():
                x = pushed[y]
                if len(x) <= depth:
                    hit.add(x)
                    gz = pushed[z] if z in pushed else forth(z)
                    if gz != ft.get(x, x):
                        return False
            if any(len(x) <= depth and x not in hit for x in ft):
                return False
    return True


def nub_window(
    local: FiniteGroup,
    g: IsometrySpec,
    beta: CylinderClopen,
    v_level: int,
    m: int,
    depth: int,
) -> dict:
    """Window of conjugated rigid stabilisers along the translation.

    L_i is the conjugate of rist(beta) by g^i for i in [-m, m], with
    witnesses realized at v_level.  The window is coherent when the
    translates of beta are pairwise disjoint, witnesses from different
    factors commute on the whole depth ball, and conjugating the i-th
    family by g reproduces the (i+1)-st within the realized ball.  All
    factor checks run on the ball tables, which list moved points only;
    the witnesses fix the base vertex, so their tables permute each
    sphere and compose without precision loss.  The families come from
    ``conjugate_families``, so each witness reads only the points of
    the ball about g^-i(v0) strictly below its sites, and the
    commutation checks look only at pairs of tables that share a moved
    point.  The shift check is ``conjugation_shifts``:
    it pulls the depth ball back once through g's exact inverse, and
    reads the families' tables only where they move.
    """
    if m < 0:
        raise ValueError(f"window half-width must be at least 0, got {m}")
    shape = beta.shape
    idx = list(range(-m, m + 1))
    translates = {
        i: spec_image_clopen(SpecWord(shape, ((g, i),)), beta) for i in idx
    }
    pairs = [(i, j) for i in idx for j in idx if i < j]
    for i, j in pairs:
        if translates[i].meets(translates[j]):
            raise DisjointnessFailure(
                f"translates at {i} and {j} overlap: "
                f"{translates[i]} vs {translates[j]}"
            )

    beta_gens = rist_generators(local, beta, v_level)
    if not beta_gens:
        raise ValueError("rigid stabiliser of beta has no realized witnesses")
    # g^-1 moves a depth-n vertex at most d = displacement deeper, so the
    # witness tables and g's forward table are realized at depth + d; g^-1
    # on the depth ball is its first exact pull-back
    reach = depth + max(1, g.displacement)
    tables = conjugate_families(g, idx, beta_gens, reach)
    if any(ROOT in t for i in idx for t in tables[i]):
        raise ValueError("witness does not fix the base vertex")
    supports_ok = all(
        support_in(t, translates[i]) for i in idx for t in tables[i]
    )

    # a table moves a point of the depth ball only inside it, so the
    # commutation on that ball is read off the moved points there
    inner = {
        i: [{x: y for x, y in t.items() if len(x) <= depth} for t in tables[i]]
        for i in idx
    }
    commute_ok = all(tables_commute(inner[i], inner[j]) for i, j in pairs)

    shift_ok = conjugation_shifts(g, reach, depth, [tables[i] for i in idx])

    checks = {
        "translates_disjoint": True,
        "supports_inside_translates": supports_ok,
        "cross_factor_commutators_trivial": commute_ok,
        "conjugation_shifts_families": shift_ok,
    }
    return {
        "m": m,
        "v_level": v_level,
        "depth": depth,
        "factor_count": len(idx),
        "factor_pair_checks": len(pairs),
        "witnesses_per_factor": len(beta_gens),
        "translates": {str(i): str(translates[i]) for i in idx},
        "checks": checks,
        "verdict": "verified" if all(checks.values()) else "refuted_at_depth",
    }


def _attracting_half_tree(
    g: IsometrySpec, direction: int
) -> tuple[CylinderClopen, CylinderClopen]:
    """The first depth-1 cylinder alpha that g^direction moves strictly
    inside itself, with beta = alpha minus that image."""
    shape = g.shape
    word = SpecWord(shape, ((g, direction),))
    for c in shape.colours():
        a = CylinderClopen.cylinder(shape, (c,))
        image = spec_image_clopen(word, a)
        if image.lt(a):
            return a, a.minus(image)
    raise NotSkewering(
        "no depth-1 cylinder is moved strictly inside itself"
    )


def _cone_vertex(region: CylinderClopen) -> Address:
    """Longest common prefix of the cover: the vertex whose subtree is
    the smallest cylinder containing the region."""
    addrs = region.addresses
    if not addrs:
        raise ValueError("empty region has no cone vertex")
    first, last = addrs[0], addrs[-1]
    k = 0
    while k < min(len(first), len(last)) and first[k] == last[k]:
        k += 1
    return first[:k]


def tits_core_generators(
    local: FiniteGroup,
    g: IsometrySpec,
    depth: int,
) -> tuple[list[IsometrySpec], dict]:
    """Rigid-stabiliser witnesses certified on both sides of a translation.

    alpha is the first depth-1 cylinder that g moves strictly inside
    itself, and beta is alpha minus its image.  The returned generators
    realize rist(beta) on the attracting side, each with a contraction
    certificate under g; the report carries the mirror family on the
    repelling side certified under the inverse, plus a normalisation
    check: the rotations at beta's cone vertex that map beta onto
    itself conjugate witnesses to elements supported back in beta and
    allowed by the local group.  A rotation rho that moves beta cannot
    pass, since rho rist(beta) rho^-1 is rist(rho beta); it is not
    checked and not counted in ``rotation_count``.  When no rotation maps
    beta onto itself (``rotation_count`` 0) there is nothing to normalise,
    and ``cone_rotations_normalise`` is left out of ``checks``.
    """
    shape = g.shape
    alpha, beta_f = _attracting_half_tree(g, 1)
    gens_f = rist_generators(local, beta_f, depth)
    certs_f = contraction_certificates(g, gens_f, depth)

    alpha_b, beta_b = _attracting_half_tree(g, -1)
    gens_b = rist_generators(local, beta_b, depth)
    certs_b = contraction_certificates(g, gens_b, depth, direction=-1)

    cone = _cone_vertex(beta_f)
    rotations = site_decorations(shape, local, (cone,))
    rotations += [
        rho for rho in site_decorations(shape, local, (ROOT,))
        if all(rho.sites[0][1](c) == c for c in cone)
    ]
    rotations = [rho for rho in rotations if spec_image_clopen(rho, beta_f) == beta_f]

    checks = {
        "forward_witnesses_contract": all(
            c["verdict"] == "contracts" for c in certs_f
        ),
        "backward_witnesses_contract": all(
            c["verdict"] == "contracts" for c in certs_b
        ),
        "witness_families_nonempty": bool(gens_f) and bool(gens_b),
    }
    if rotations:
        checks["cone_rotations_normalise"] = all(
            support_in(tab, beta_f) and in_universal_group(shape, tab, local)
            for rho in rotations
            for tab in conjugate_families(rho, (1,), gens_f, depth + 2)[1]
        )
    report = {
        "alpha_forward": str(alpha),
        "beta_forward": str(beta_f),
        "alpha_backward": str(alpha_b),
        "beta_backward": str(beta_b),
        "cone_vertex": format_address(shape, cone) or "v0",
        "rotation_count": len(rotations),
        "depth": depth,
        "forward_onsets": [c["k"] for c in certs_f],
        "backward_onsets": [c["k"] for c in certs_b],
        "checks": checks,
        "verdict": "verified" if all(checks.values()) else "refuted_at_depth",
    }
    return gens_f, report
