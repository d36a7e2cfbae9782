"""Independent oracles for the group engine and the measure LP.

The normal-subgroup oracle enumerates every union of conjugacy classes
and keeps the ones that happen to be subgroups.  That is exhaustive and
plainly correct (a normal subgroup is exactly a class-closed subgroup),
and it shares no code path with the class-mask lattice.  The class-mask
lattice, ``oracle_normal_lattice``, is the normal-subgroup lattice the
engine built before its maximal normal subgroups grew by class
closures: it multiplies each pair of classes once and reads each join
as a product of two normal subgroups.  It is the fast reference for the
maximals, the composition factors and the Melnikov subgroup.  The
join-of-closures oracle is the lattice search used before class masks:
it closes the subgroup generated by each class, then closes every join
along a breadth-first search.  It builds the same members with the same
generators in the same order, so it pins down the class-mask lattice
object for object, but it is too slow to be the only reference.  The
descent oracle reads composition factors off the join-of-closures
lattice.
The derived-series oracle closes over all commutators, not just
generator commutators.  The pi'-span oracle is ``pi_residual`` as it
was before it skipped elements already in the residual: it spans every
pi'-element at once.  The lattice-route oracles are the cores and the
Melnikov subgroup as the engine read them off its normal lattice before
they grew by normal closures and met G'G^p: the greatest lattice member
passing a test, and the meet of every maximal member with its quotient
checked semisimple.  ``oracle_quotient`` builds that quotient as the
action on cosets; the engine builds no quotient.

The phase-one oracle is the dense simplex tableau the measure search
used before it moved to sparse rows: one list per row, as wide as the
variables plus one artificial column per row, rewritten in full at
every pivot.  It makes the same pivots, so it must return the same
``(feasible, solution)`` as ``dynamics._phase_one_feasible``.  Its rows
come from the measure search's former builder, which summed +1 per image
atom and -1 per cylinder atom and then dropped the zeros.  The forcing
replay reads a forcing order as a certificate of infeasibility: it
checks each listed row's sign condition on the atoms left live by the
rows before it, and shares no code with the presolve that wrote it.
The forcing-order oracle is that presolve as it was before the rows
became signed atom lists: it reads rational rows with any coefficients,
skips the rows with a nonzero right side, and rebuilds the set of signs
of a row's live coefficients at every read.  On the same rows by sign
it must force in the same order.

The contraction oracle is the per-u search ``contraction_certificates``
made before conjugates went through shared pull-backs: it builds each
conjugate g^k u g^-k as a word and walks every letter of it at every
vertex of the checked ball.  The walked contraction oracle is the
shared pull-back search as it was before supports: every u is applied
to every pulled point.  ``pullbacks`` is the pull-back sequence the
conjugates read before they walked the ball about g^-k(v0): each pulled
ball is one exact step of g^-sign from the last.  ``oracle_pulled_moves``
reads one pulled ball as the conjugates did before that walk: a
supported u only at the pulled points strictly below its sites, one run
per site of the points sorted once, any other u at every pulled point.
The slice oracle is a brute-force ball: every vertex within distance r
of c by the path-length formula, kept when it properly extends v.  The
sphere and ball oracles are ``TreeShape.sphere`` and ``ball`` as they
were before they expanded level by level and walked ``_slice``: each
sphere point extends a point of the sphere below it, recursively, and a
ball chains its spheres; both are empty below radius 0.  The realize
oracle is the whole-ball reading that ``realize`` and ``is_identity_on``
made before they read only the points ``_moved`` yields: it applies the
element at every vertex of that ball.  The commutation oracle checks
every point of the domain, and the support oracle every vertex of the
ball outside the region, where ``tables_commute`` and ``support_in``
read only the points a table moves.  The region-vertex oracle scans
the whole ball and tests each vertex prefix by prefix, where
``region_vertices`` spreads each cover address down to the radius.  The
shift oracle reads g's table and both families' tables at every point
of the depth ball, where ``conjugation_shifts`` reads g's table once
there and the families only where they move.

The table oracles read ball tables as they were before tables listed
only their moved vertices: ``full_table`` spells a table out over the
whole ball, the validation oracle checks a whole-ball dict edge by
edge, and the membership oracle reads the local action at every vertex
of the ball, where ``in_universal_group`` reads only the parents of the
moved vertices.  A ball table is a dict of the vertices it moves and
carries no radius, so these oracles take the shape and radius beside it.
``checked_table`` is the one check of a ball table: it spells a table
out over its ball, rejects it with the validation oracle's reason, and
only then returns its moved entries, where ``realize`` and
``conjugate_families`` store the tables of exact elements unchecked.

The ball-witness check path, ``check_ball_witnesses``, reruns the checks
of ``certify goodshrink``, ``nub``, ``tits-core`` and ``contraction`` on
tables it builds itself: each element, or each conjugate g^k u g^-k read
through the pull-back of the recursive ball, is applied at every vertex
of that ball, and the whole-ball dict goes through ``checked_table``.
Witnesses are listed from the recursive ball and the region's cover,
supports, local actions and commutation are read by the whole-ball
oracles above, and the nub shift is read through the pull-back of the
depth ball against a checked table of g.  It shares no walk, no
moved-point reading and no trusted table with the commands, and must
reach their checks and verdict.  ``oracle_shrinking_chain`` is the
goodshrink chain as it was built before the one shrinking test moved
into ``chain_strictly_shrinking``: each image g^i alpha is tested
against the one before as it is made, and a stall or an escape raises.

The first-words and skewering oracles are the word-image searches as
they were before one-cylinder states became vertices: every state is a
clopen, and every step goes through the context's memoised ``image``,
so every image is refined, moved atom by atom and put back in canonical
form.  On two copies the first-words oracle is the search as it was
before a state became a copy-tagged single-tree state: a state is a
(left, right) pair of clopens, and a generator of copy c moves side c
through the base context's ``image``.  The fixed-point blocks oracle is
the scan as it was before it read its blocks from the action graph: it
grows each block from the least address left by taking the clopen image
of the block's whole union under every generator, until no image adds a
depth-n state.  The shortlex oracle states the rule the first-words
search keeps and shares nothing with a breadth-first search: it tries
every word up to the bound in shortlex order, each with its own exact
clopen image.

The closure oracles are the group closures as they were before they
moved to image tuples: ``oracle_close`` grows the element set one
generator at a time with ``Perm`` products, pruning a generator it has
already reached, and ``oracle_normal_closure`` closes the subgroup
spanned by the seed and every conjugate found so far again from nothing
on every round.  They must give the same generators, kept generators
and element set as ``FiniteGroup`` and its ``normal_closure``.
``oracle_grow`` is the closure kernel ``permgrp._grow`` as it was before
it closed by cosets: a breadth-first search that tests every product of
an element and a kept generator.  From the same arguments it must keep
the same generators, in the same order, and reach the same set.

The congruence-kernel oracle is the element filter
``tree.congruence_kernel`` used before it moved to Schreier generators:
it closes the whole level group and keeps every element that fixes each
sphere point's depth-k prefix.

The clopen oracles are the cylinder algebra as it was before covers were
merged in address order: every meet, leq and meets test probes the other
cover's hash set once per prefix of each address, the complement collects
every proper prefix and keeps the children that are neither prefixes nor
cover addresses, and the canonical pass sorts its input itself.  They
return plain covers, so they must agree with ``CylinderClopen`` cover for
cover.  ``oracle_canonical_pass`` is the address-order canonical pass as it
was before it kept the last kept address in locals: it slices every input
by the length of ``kept[-1]``, and must return the same list.
``oracle_parse_clopen`` reads clopen text as it was before all-digit
tokens were read in bulk: one ``read_address`` per token, so it must give
the same clopen or raise the same error.

The minimality oracle is ``check_minimal`` as it was before it made one
lookup per pair; it must give the same report, witness keys in the same
order.  The degree oracle is ``minorising_degree`` as it was before
shadows became index masks: frozensets of states, built on two copies
from tagged words, with every distinct shadow sorted by its labels; it
must give the same report, in the same key order.  The normalise
oracle is the fold as it was before plain values passed through: every
list, tuple and dict is copied, one ``isinstance`` test at a time.  It
must give equal values, in the same key order, and the same bytes, and
raise where the fold raises.

The single-site recipes are the constructions the library made by hand
before every site-group decoration went through ``site_decorations``
and ``site_permutations``: the four standard dynamics contexts, the
rooted default generators of ``cli.build_context``, and the sphere
permutations of ``level_group`` and of the rigid-stabiliser witnesses,
one comprehension over the sphere per decoration.  They must give the
same generator names, in the same order, equal specs and equal
permutations.

The rigid-stabiliser oracles are ``localstruct.perp`` and
``decomposition_factors`` as they were before both read one product
check: ``perp`` closes its two witness subgroups and their join in its
own block, and the star decomposition closes each half-tree subgroup,
each pair and the whole join in ``oracle_realize_star_decomposition``.
They must give reports with the same bytes.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from math import inf

from tdlclab.boolalg import (
    ROOT,
    CylinderClopen,
    TreeShape,
    format_address,
    read_address,
    sphere_list,
)
from tdlclab.certificates import normalise_key
from tdlclab.boundary import region_vertices, rist_generators, tables_commute
from tdlclab.dynamics import (
    ActionContext,
    TwoCopyContext,
    _start_words,
    minorising_set,
    reachable_images,
)
from tdlclab.errors import ClosureCapExceeded, NotSkewering, PrecisionExhausted
from tdlclab.localstruct import (
    _REALIZE_CAP,
    LocalClass,
    _join_classes,
    _rist_level_order,
    class_perp,
    local_class,
    top_class,
)
from tdlclab.permgrp import (
    FiniteGroup,
    Perm,
    _identity_images,
    prime_factors,
)
from tdlclab.tree import (
    IsometrySpec,
    SpecWord,
    congruence_kernel,
    hyperbolic_isometry,
    level_group,
    level_order,
    site_decorations,
    site_group,
    site_permutations,
    spec_image_clopen,
)


def _is_subgroup(elems: frozenset[Perm]) -> bool:
    for a in elems:
        for b in elems:
            if a * b not in elems:
                return False
    return True


def oracle_close(group: FiniteGroup) -> tuple[frozenset[Perm], tuple[Perm, ...]]:
    """Element set and kept generators, closed with ``Perm`` products."""
    seen: dict[Perm, None] = {Perm.identity(group.degree): None}
    kept: list[Perm] = []
    for g in group.gens:
        if g in seen:
            continue
        kept.append(g)
        seen[g] = None
        frontier = list(seen)
        while frontier:
            fresh = []
            for x in frontier:
                for h in kept:
                    y = x * h
                    if y not in seen:
                        seen[y] = None
                        fresh.append(y)
                        if len(seen) > group.cap:
                            raise ClosureCapExceeded(group.cap)
            frontier = fresh
    return frozenset(seen), tuple(kept)


def oracle_grow(
    seen: dict[tuple[int, ...], None],
    kept: list[Perm],
    gens: list[Perm] | tuple[Perm, ...],
    cap: int,
) -> None:
    """Grow a closed set of image tuples by gens, in place.

    ``seen`` holds the image tuples of the group spanned by ``kept``.  A
    generator already in ``seen`` adds nothing and is pruned; any other
    joins ``kept``.  An old element times an old generator stays in the
    old group, so the first layer multiplies every element seen so far
    by the new generator g alone (the identity gives g itself); then a
    breadth-first search from the new elements multiplies by each kept
    generator on the right until nothing new appears.  Pruning keeps
    the search at |G| times a dozen kept generators even when callers
    pass whole element sets.  Products are formed on the tuples, with no
    degree check: every generator must have the degree of ``seen``.
    """
    kept_images = [h.images for h in kept]
    for g in gens:
        gi = g.images
        if gi in seen:
            continue
        kept.append(g)
        kept_images.append(gi)
        frontier = []
        for x in list(seen):
            y = tuple([x[i] for i in gi])
            if y not in seen:
                seen[y] = None
                frontier.append(y)
                if len(seen) > cap:
                    raise ClosureCapExceeded(cap)
        while frontier:
            fresh = []
            for x in frontier:
                for h in kept_images:
                    y = tuple([x[i] for i in h])
                    if y not in seen:
                        seen[y] = None
                        fresh.append(y)
                        if len(seen) > cap:
                            raise ClosureCapExceeded(cap)
            frontier = fresh


def oracle_normal_closure(
    g: FiniteGroup, seed
) -> tuple[tuple[Perm, ...], tuple[Perm, ...], frozenset[Perm]]:
    """``(gens, pruned_gens, element_set)`` of the normal closure, with
    every round's subgroup closed again from nothing."""
    by = oracle_close(g)[1]
    gens = [p for p in seed if not p.is_identity()]
    while True:
        elems, kept = oracle_close(g.subgroup(gens))
        extra = [y for x in kept for h in by if (y := x.conjugate_by(h)) not in elems]
        if not extra:
            return tuple(gens), kept, elems
        gens.extend(extra)


def oracle_normal_subgroups(g: FiniteGroup) -> list[frozenset[Perm]]:
    classes = list(g.conjugacy_classes)
    identity_class = next(c for c in classes if any(p.is_identity() for p in c))
    rest = [c for c in classes if c is not identity_class]
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            elems = frozenset(identity_class.union(*combo))
            if _is_subgroup(elems):
                out.append(elems)
    return sorted(out, key=lambda s: (len(s), sorted(p.images for p in s)))


def oracle_lattice_by_joins(g: FiniteGroup) -> tuple[FiniteGroup, ...]:
    class_closures = []
    seen_sets: set[frozenset[Perm]] = set()
    for cls in g.conjugacy_classes:
        sub = g.subgroup(tuple(sorted(cls)))
        if sub.element_set not in seen_sets:
            seen_sets.add(sub.element_set)
            class_closures.append(sub)
    trivial = g.subgroup(())
    lattice = {trivial.element_set: trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for known in frontier:
            for cc in class_closures:
                if cc.element_set <= known.element_set:
                    continue
                joined = g.subgroup(known.gens + cc.gens)
                if joined.element_set not in lattice:
                    lattice[joined.element_set] = joined
                    fresh.append(joined)
        frontier = fresh
    return tuple(sorted(lattice.values(), key=lambda s: (s.order, s.element_list)))


def oracle_normal_lattice(g: FiniteGroup) -> tuple[FiniteGroup, ...]:
    """All normal subgroups, found as unions of conjugacy classes, as the
    engine's ``FiniteGroup.normal_subgroups`` built them before the
    maximal normal subgroups grew by class closures; memoised in
    ``g.invariant_memo``.

    A normal subgroup is a union of classes closed under products.
    ``_class_products`` tabulates, as class masks, the classes met by
    each product C_i C_j, multiplying each unordered pair of classes
    once from the smaller class.  The closure of a single class is a
    fixpoint on that table.  Every other member is a join K M of a
    member K found already and a class closure M, and the product of
    two normal subgroups is their join: K M is K together with C_j K
    for each class j of M outside K, so each join is a few ORs of
    K's row of masks C_j K, built once per member.  The lattice is
    searched breadth first from the trivial group, joining each member
    found with each class closure in class order.  A member's
    generators are the class generators along its search path, and
    its element set is the union of its classes.  Members come sorted
    by order, then by element list.
    """
    key = ("oracle_normal_lattice",)
    if key in g.invariant_memo:
        return g.invariant_memo[key]
    classes = g._classes
    bit_of = {x: 1 << i for i, cls in enumerate(classes) for x in cls}
    support = _class_products(classes, bit_of)
    trivial = bit_of[_identity_images(g.degree)]
    class_closures: dict[int, tuple[Perm, ...]] = {}
    for i, cls in enumerate(classes):
        mask = _class_closure(support, trivial, 1 << i)
        if mask not in class_closures:
            class_closures[mask] = tuple(map(Perm._trusted, sorted(cls)))
    lattice: dict[int, tuple[Perm, ...]] = {trivial: ()}
    frontier = [trivial]
    while frontier:
        fresh = []
        for known in frontier:
            inside = _bits(known)
            times_known = []
            for row in support:
                product = 0
                for i in inside:
                    product |= row[i]
                times_known.append(product)
            for mask, gens in class_closures.items():
                outside = mask & ~known
                if outside == 0:
                    continue
                joined = known
                for j in _bits(outside):
                    joined |= times_known[j]
                if joined not in lattice:
                    lattice[joined] = lattice[known] + gens
                    fresh.append(joined)
        frontier = fresh
    members = []
    for mask, gens in lattice.items():
        member = g.subgroup(gens)
        member.__dict__["image_set"] = frozenset().union(
            *(cls for i, cls in enumerate(classes) if mask >> i & 1)
        )
        members.append(member)
    g.invariant_memo[key] = _by_order_then_elements(members)
    return g.invariant_memo[key]


def _class_products(
    classes: tuple[frozenset[tuple[int, ...]], ...],
    bit_of: dict[tuple[int, ...], int],
) -> list[list[int]]:
    """``support[i][j]``, the mask of the classes in C_i C_j.

    Classes are normal sets, so ``C_i C_j == C_j C_i`` and one entry
    fills both.  Conjugating a product can move either factor onto its
    class representative, so every class in the product is met by the
    representative of one class times the elements of the other: the
    larger class's representative times the smaller class, which is
    min(|C_i|, |C_j|) products for the pair.
    """
    reps = [next(iter(cls)) for cls in classes]
    support = [[0] * len(classes) for _ in classes]
    for i, ci in enumerate(classes):
        for j in range(i, len(classes)):
            cj = classes[j]
            rep, elems = (reps[j], ci) if len(ci) <= len(cj) else (reps[i], cj)
            mask = 0
            for x in elems:
                mask |= bit_of[tuple([rep[y] for y in x])]
            support[i][j] = support[j][i] = mask
    return support


def _class_closure(support: list[list[int]], closed: int, extra: int) -> int:
    """Smallest product-closed class mask holding a closed mask and extra.

    ``oracle_normal_lattice`` uses it for the closure of a single class, which
    is not a subgroup; joins of subgroups are read as products instead.
    ``support[i][j]`` is the mask of classes in the product of classes i
    and j.  Each class outside ``closed`` is taken once, when it joins
    the mask, and multiplied with everything already in it.  So every
    pair meets in one order at least, and one order is enough: classes
    are normal sets, so ``C_i C_j == C_j C_i``.
    """
    mask = closed | extra
    todo = _bits(extra & ~closed)
    while todo:
        row = support[todo.pop()]
        new = 0
        for j in _bits(mask):
            new |= row[j]
        new &= ~mask
        mask |= new
        todo.extend(_bits(new))
    return mask


def _bits(mask: int) -> list[int]:
    """Positions of the set bits, lowest first, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _by_order_then_elements(groups: list[FiniteGroup]) -> tuple[FiniteGroup, ...]:
    """Groups sorted by order, then by their sorted image tuples, which
    compare as ``element_list`` does.  Element lists are built only among
    groups of equal order."""
    by_order: dict[int, list[FiniteGroup]] = {}
    for n in groups:
        by_order.setdefault(n.order, []).append(n)
    out: list[FiniteGroup] = []
    for order in sorted(by_order):
        tied = by_order[order]
        if len(tied) > 1:
            tied.sort(key=lambda n: sorted(n.image_set))
        out += tied
    return tuple(out)


def oracle_maximal_normal_subgroups(g: FiniteGroup) -> list[FiniteGroup]:
    """Proper normal subgroups that no larger proper one contains.  By
    Lagrange a subgroup's order divides that of any group holding it, so
    only such pairs compare elements."""
    proper = [n for n in oracle_normal_lattice(g) if n.order < g.order]
    out = []
    for n in proper:
        if not any(
            m.order > n.order and m.order % n.order == 0 and m.contains_group(n)
            for m in proper
        ):
            out.append(n)
    return out



def oracle_element_set(g: FiniteGroup) -> frozenset[Perm]:
    """Generators and identity closed under all pairwise products, on raw
    image tuples, until nothing new appears."""
    elems = {tuple(range(g.degree))} | {p.images for p in g.gens}
    while True:
        products = {tuple(a[k] for k in b) for a in elems for b in elems}
        if products <= elems:
            return frozenset(Perm(e) for e in elems)
        elems |= products


def oracle_conjugacy_classes(g: FiniteGroup) -> set[frozenset[Perm]]:
    """{h x h^-1 : h in G} for each x, composed on raw image tuples."""
    classes = set()
    for x in g.element_set:
        cls = set()
        for h in g.element_set:
            h_inv = [0] * g.degree
            for a, b in enumerate(h.images):
                h_inv[b] = a
            cls.add(Perm(tuple(h.images[x.images[h_inv[y]]] for y in range(g.degree))))
        classes.add(frozenset(cls))
    return classes


def _is_pi(n: int, pi) -> bool:
    return all(p in pi for p in prime_factors(n))


def oracle_pi_core(g: FiniteGroup, pi) -> frozenset[Perm]:
    cands = [n for n in oracle_normal_subgroups(g) if _is_pi(len(n), pi)]
    return max(cands, key=len)


def oracle_pi_residual(g: FiniteGroup, pi) -> frozenset[Perm]:
    cands = [
        n
        for n in oracle_normal_subgroups(g)
        if _is_pi(g.order // len(n), pi)
    ]
    return min(cands, key=len)


def oracle_pi_prime_span(g: FiniteGroup, pi) -> FiniteGroup:
    """``pi_residual`` as it was before it grew while scanning: the
    subgroup spanned by every pi'-element of g, in element order, each
    with its order tested."""
    seeds = [p for p in g.element_list if not any(q in pi for q in prime_factors(p.order()))]
    return g.subgroup(seeds)


def oracle_derived(g: FiniteGroup) -> frozenset[Perm]:
    comms = {
        a * b * a.inverse() * b.inverse()
        for a in g.element_set
        for b in g.element_set
    }
    elems = set(comms) | {g.identity()}
    while True:
        extra = {a * b for a in elems for b in elems} - elems
        if not extra:
            return frozenset(elems)
        elems |= extra


def _oracle_soluble(g: FiniteGroup, elems: frozenset[Perm]) -> bool:
    sub = FiniteGroup(g.degree, tuple(sorted(elems)))
    while len(sub.element_set) > 1:
        der = oracle_derived(sub)
        if der == sub.element_set:
            return False
        sub = FiniteGroup(g.degree, tuple(sorted(der)))
    return True


def oracle_prosoluble_core(g: FiniteGroup) -> frozenset[Perm]:
    cands = [
        n for n in oracle_normal_subgroups(g) if _oracle_soluble(g, n)
    ]
    return max(cands, key=len)


def oracle_quotient(g: FiniteGroup, n: FiniteGroup) -> FiniteGroup:
    """G/N as the left-multiplication action on the cosets of N."""
    if not g.is_normal(n):
        raise ValueError("quotient by a non-normal subgroup")
    # Each coset x N is keyed by its least element.
    coset_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    for x in g.image_set:
        if x in coset_of:
            continue
        members = [tuple([x[i] for i in h]) for h in n.image_set]
        rep = min(members)
        for m in members:
            coset_of[m] = rep
    index_of = {r: i for i, r in enumerate(sorted(set(coset_of.values())))}
    images = [
        Perm(tuple(index_of[coset_of[tuple([a.images[i] for i in r])]] for r in index_of))
        for a in g.gens
    ]
    return FiniteGroup(len(index_of), images, cap=g.cap)


def oracle_prosoluble_residual(g: FiniteGroup) -> frozenset[Perm]:
    out = None
    for n in oracle_normal_subgroups(g):
        sub = FiniteGroup(g.degree, tuple(sorted(n)))
        q = oracle_quotient(g, sub)
        if _oracle_soluble(q, q.element_set):
            if out is None or len(n) < len(out):
                out = n
    return out


def oracle_melnikov(g: FiniteGroup) -> frozenset[Perm]:
    normals = oracle_normal_subgroups(g)
    proper = [n for n in normals if len(n) < g.order]
    maximals = [
        n
        for n in proper
        if not any(len(m) > len(n) and n <= m for m in proper)
    ]
    meet = frozenset(g.element_set)
    for m in maximals:
        meet &= m
    return meet


def oracle_largest_normal(g: FiniteGroup, keep) -> FiniteGroup:
    """The cores as ``pi_core`` and ``prosoluble_core`` read them off the
    class-mask lattice before they grew class by class: the greatest member
    passing ``keep``, checked to contain every other one."""
    candidates = [n for n in oracle_normal_lattice(g) if keep(n)]
    best = candidates[-1]
    assert all(best.contains_group(n) for n in candidates)
    return best


def _oracle_is_simple(g: FiniteGroup) -> bool:
    return g.order > 1 and len(oracle_normal_lattice(g)) == 2


def _oracle_minimal_normal_subgroups(g: FiniteGroup) -> list[FiniteGroup]:
    nontrivial = [n for n in oracle_normal_lattice(g) if n.order > 1]
    return [
        n
        for n in nontrivial
        if not any(m.order < n.order and n.contains_group(m) for m in nontrivial)
    ]


def _oracle_is_semisimple(g: FiniteGroup) -> bool:
    """Whether the minimal normal subgroups, each simple, join greedily
    into an internal direct product that is all of g."""
    if g.order == 1:
        return True
    current = g.subgroup(())
    for m in _oracle_minimal_normal_subgroups(g):
        if not _oracle_is_simple(m):
            return False
        if current.image_set & m.image_set != {g.identity().images}:
            continue
        joined = g.subgroup(tuple(current.gens) + tuple(m.gens))
        if joined.order != current.order * m.order:
            return False
        current = joined
    return current.order == g.order


def oracle_melnikov_by_quotient(g: FiniteGroup) -> frozenset[tuple[int, ...]]:
    """``melnikov_subgroup`` as it was before it met G'G^p: the meet of
    every maximal member of the class-mask lattice, whose quotient is
    checked to be a direct product of simple groups.  A trivial meet
    has G itself for its quotient, so G is checked instead of its action
    on |G| cosets."""
    meet = g.image_set
    for m in oracle_maximal_normal_subgroups(g):
        meet &= m.image_set
    result = g.subgroup(tuple(map(Perm._trusted, sorted(meet))))
    assert _oracle_is_semisimple(g if len(meet) == 1 else oracle_quotient(g, result))
    return meet


def _oracle_label(n: int) -> str:
    fac = prime_factors(n)
    if len(fac) == 1 and sum(fac.values()) == 1:
        return f"C{n}"
    return {60: "A5", 360: "A6", 2520: "A7"}.get(n, f"simple[{n}]")


def oracle_composition_factors(g: FiniteGroup) -> list[str]:
    out: list[str] = []
    current = g
    while current.order > 1:
        normals = oracle_normal_subgroups(current)
        proper = [n for n in normals if len(n) < current.order]
        maximals = [
            n
            for n in proper
            if not any(len(m) > len(n) and n <= m for m in proper)
        ]
        n = max(maximals, key=lambda m: (len(m), sorted(p.images for p in m)))
        sub = current.subgroup_from_elements(n)
        out.append(_oracle_label(oracle_quotient(current, sub).order))
        current = sub
    return out


def oracle_phase_one_feasible(
    rows: list[tuple[dict[int, Fraction], Fraction]], nvars: int
) -> tuple[bool, dict[int, Fraction]]:
    """Exact phase-one simplex with Bland's rule; equalities, x >= 0."""
    m = len(rows)
    width = nvars + m
    tableau: list[list[Fraction]] = []
    for i, (coeffs, rhs) in enumerate(rows):
        if rhs < 0:
            coeffs = {j: -v for j, v in coeffs.items()}
            rhs = -rhs
        row = [Fraction(0)] * (width + 1)
        for j, v in coeffs.items():
            row[j] = v
        row[nvars + i] = Fraction(1)
        row[width] = rhs
        tableau.append(row)
    basis = [nvars + i for i in range(m)]
    obj = [Fraction(0)] * (width + 1)
    for row in tableau:
        for j in range(nvars):
            obj[j] += row[j]
        obj[width] += row[width]

    while True:
        enter = next((j for j in range(nvars) if obj[j] > 0), None)
        if enter is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][width] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    pivot_row = i
        if pivot_row is None:
            break
        prow = tableau[pivot_row]
        factor = prow[enter]
        tableau[pivot_row] = [v / factor for v in prow]
        prow = tableau[pivot_row]
        for i in range(m):
            if i != pivot_row and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [
                    v - f * p for v, p in zip(tableau[i], prow)
                ]
        f = obj[enter]
        if f != 0:
            obj = [v - f * p for v, p in zip(obj, prow)]
        basis[pivot_row] = enter

    if obj[width] != 0:
        return False, {}
    solution: dict[int, Fraction] = {}
    for i, b in enumerate(basis):
        if b < nvars:
            solution[b] = tableau[i][width]
    return True, solution


def oracle_invariance_rows(ctx) -> tuple[list, int]:
    """The rows and variable count of ``invariant_measure_search``'s LP."""
    level = ctx.depth + ctx.max_displacement
    atoms = sphere_list(ctx.shape, level)
    index = {a: j for j, a in enumerate(atoms)}
    rows = [({j: Fraction(1) for j in range(len(atoms))}, Fraction(1))]
    one = Fraction(1)
    for name in ctx.gen_names:
        for c in sphere_list(ctx.shape, ctx.depth):
            cyl = CylinderClopen.cylinder(ctx.shape, c)
            img = ctx.image(name, cyl)
            coeffs: dict[int, Fraction] = {}
            for a in img.refine(level):
                coeffs[index[a]] = coeffs.get(index[a], Fraction(0)) + one
            for a in cyl.refine(level):
                coeffs[index[a]] = coeffs.get(index[a], Fraction(0)) - one
            coeffs = {j: v for j, v in coeffs.items() if v != 0}
            if coeffs:
                rows.append((coeffs, Fraction(0)))
    return rows, len(atoms)


def oracle_forcing_order(rows, nvars: int) -> tuple[list[int], int]:
    """LP presolve's forcing rule on the zero-rhs rational rows, for x >= 0.

    A zero-rhs row whose nonzero coefficients on live (not yet forced)
    atoms all have one sign forces each of those atoms to 0, and every
    row that holds a newly forced atom is queued again.  Returns the
    indices of the rows that forced atoms, in the order they did, and
    the number of atoms left live.
    """
    rows_of: list[list[int]] = [[] for _ in range(nvars)]
    for i, (coeffs, rhs) in enumerate(rows):
        if not rhs:
            for j in coeffs:
                rows_of[j].append(i)
    live = [True] * nvars
    queue = deque(i for i, (_, rhs) in enumerate(rows) if not rhs)
    order = []
    while queue:
        i = queue.popleft()
        coeffs = rows[i][0]
        side = [j for j, v in coeffs.items() if live[j] and v]
        if not side or len({coeffs[j] > 0 for j in side}) != 1:
            continue
        order.append(i)
        for j in side:
            live[j] = False
            queue.extend(rows_of[j])
    return order, sum(live)


def oracle_forcing_replay(rows, order, nvars: int) -> bool:
    """Whether ``order`` forces every atom of the system to 0, for x >= 0.

    Each listed row must have zero right side, and its nonzero
    coefficients on the atoms not yet forced must be nonempty and of one
    sign, so they force those atoms to 0.  Every atom must be forced at
    the end, which the unit-sum row cannot survive.  One pass over the
    listed rows.
    """
    forced = [False] * nvars
    for i in order:
        coeffs, rhs = rows[i]
        side = [j for j, v in coeffs.items() if v and not forced[j]]
        if rhs or len({coeffs[j] > 0 for j in side}) != 1:
            return False
        for j in side:
            forced[j] = True
    return all(forced)


class _PairSearch:
    """A two-copy context searched on (left, right) pairs of clopens."""

    def __init__(self, two: TwoCopyContext) -> None:
        self._base = two._base
        self._zero = CylinderClopen.zero(two._base.shape)
        self.depth = two.depth
        self.states = two.states
        self.gen_names = two.gen_names
        self.word_bound = two.word_bound

    def state_clopen(self, state) -> tuple:
        copy, addr = state
        cyl = self._base.state_clopen(addr)
        return (cyl, self._zero) if copy == 0 else (self._zero, cyl)

    def image(self, name: str, pair: tuple) -> tuple:
        base, copy = name.rsplit("@", 1)
        if copy == "0":
            return self._base.image(base, pair[0]), pair[1]
        return pair[0], self._base.image(base, pair[1])

    def shadow(self, pair: tuple) -> frozenset:
        return frozenset(
            (copy, s) for copy, side in enumerate(pair) for s in side.shadow(self.depth)
        )


def oracle_first_words(ctx, start, inside: bool = False) -> dict:
    """``dynamics._first_words`` on clopen states from the state ``start``."""
    pairs = isinstance(ctx, TwoCopyContext)
    if pairs:
        ctx = _PairSearch(ctx)
    start = ctx.state_clopen(start)
    total = len(ctx.states())
    found: dict = {}
    for clopen, word in reachable_images(ctx, start):
        met = ctx.shadow(clopen) if pairs else clopen.shadow(ctx.depth)
        if inside and (len(met) != 1 or clopen == ctx.state_clopen(next(iter(met)))):
            continue
        for b in met:
            found.setdefault(b, word)
        if len(found) == total:
            break
    return found


def oracle_shortlex_words(ctx, start, inside: bool = False) -> dict:
    """Depth-n state -> the shortlex-least word whose image of the
    cylinder at the state ``start`` meets its cylinder, or with
    ``inside`` lies strictly inside it, among all words up to the word
    bound.  Shortlex compares length first, then generator order with
    the first-applied letter most significant.  Every such word is tried
    in that order with its exact clopen image, its prefix's image moved
    by ``spec_image_clopen``; no word is dropped for an image another
    word reached, and no search state or graph is kept.  Within a call,
    each generator's image of a clopen, and the states a clopen is
    recorded for, are worked out once."""
    shape, depth = ctx.shape, ctx.depth
    moved: dict = {}
    recorded: dict = {}

    def move(name, clopen):
        key = (name, clopen)
        if key not in moved:
            moved[key] = spec_image_clopen(ctx.generator(name), clopen)
        return moved[key]

    def states(clopen) -> list:
        if clopen not in recorded:
            recorded[clopen] = [
                b for b in sorted(clopen.shadow(depth))
                if not inside or clopen.lt(CylinderClopen.cylinder(shape, b))
            ]
        return recorded[clopen]

    found: dict = {}
    level = [((), CylinderClopen.cylinder(shape, start))]
    for length in range(ctx.word_bound + 1):
        if length:
            level = [
                (word + (name,), move(name, image))
                for word, image in level for name in ctx.gen_names
            ]
        for word, image in level:
            for b in states(image):
                found.setdefault(b, word)
    return found


def oracle_skewering(ctx) -> dict:
    """``skewering_search`` on clopen states: the first word, alpha and
    galpha strictly inside alpha, else whether every candidate's orbit
    closed within the bound: no image reached by a word at the bound
    steps to a clopen the search did not reach."""
    all_saturated = True
    for k in range(1, ctx.depth + 1):
        for addr in sphere_list(ctx.shape, k):
            alpha = CylinderClopen.cylinder(ctx.shape, addr)
            reached = {}
            for clopen, word in reachable_images(ctx, alpha):
                if word and clopen.lt(alpha):
                    return {"word": list(word), "alpha": alpha, "galpha": clopen}
                reached[clopen] = word
            if any(
                len(word) >= ctx.word_bound and ctx.image(name, clopen) not in reached
                for clopen, word in reached.items()
                for name in ctx.gen_names
            ):
                all_saturated = False
    return {"saturated": all_saturated}


def oracle_fixed_point_blocks(ctx) -> list:
    """``localstruct.fixed_point_scan``'s blocks by saturating unions."""
    depth = ctx.depth
    shape = ctx.shape
    remaining = list(sphere_list(shape, depth))
    blocks: list[tuple] = []
    while remaining:
        seed = remaining[0]
        block = {seed}
        while True:
            union = CylinderClopen.from_addresses(shape, block)
            new = set()
            for name in ctx.gen_names:
                img = ctx.image(name, union)
                if img != union:
                    new |= img.shadow(depth) - block
            if not new:
                break
            block |= new
        blocks.append(tuple(sorted(block)))
        remaining = [a for a in remaining if a not in block]
    return [[format_address(shape, a) for a in b] for b in blocks]


def oracle_contraction_certificate(g, u, ball_radius: int, direction: int = 1) -> dict:
    """One u's certificate of ``contraction_certificates``, with every
    conjugate walked as a word."""
    k_max = ball_radius + 4
    check_radius = ball_radius + 1
    onset = None
    for k in range(k_max + 1):
        if SpecWord.conjugate(g, u, direction * k).is_identity_on(check_radius):
            onset = k
            break
    tail = [] if onset is None else [
        SpecWord.conjugate(g, u, direction * j).is_identity_on(check_radius)
        for j in range(onset + 1, min(onset + 4, k_max + 1))
    ]
    monotone = onset is not None and all(tail)
    return {
        "k": onset,
        "k_max": k_max,
        "ball": ball_radius,
        "checked_radius": check_radius,
        "direction": direction,
        "onset_monotone": monotone,
        "verdict": "contracts" if monotone else "no-contraction-within-bounds",
    }


def pullbacks(g, sign: int, r: int):
    """The pull-backs g^-(sign k)(B_r) for k = 0, 1, ..., without end.

    Each is a tuple aligned with ``shape.ball(r)`` and is one exact step
    of g^-sign from the last, so g may be an atom or a word.
    """
    back = SpecWord(g.shape, ((g, -sign),))._apply
    points = tuple(g.shape.ball(r))
    while True:
        yield points
        points = tuple(map(back, points))


def oracle_pulled_moves(points):
    """``moves(u)`` on one pulled ball: (position, image) for each pulled
    point that u moves.  A supported u is read only at the points
    strictly below its sites: in address order a vertex is followed by
    all of its descendants and then by no other, so they are one run per
    site of the points, sorted once however many witnesses read them."""
    order = sorted(range(len(points)), key=points.__getitem__)
    keys = [points[i] for i in order]

    def moves(u):
        if u.support is None:
            positions = range(len(points))
        else:
            # every letter is below inf, so v + (inf,) follows v's subtree
            positions = itertools.chain.from_iterable(
                order[bisect_right(keys, v):bisect_left(keys, v + (inf,))] for v in u.support
            )
        out = []
        for i in positions:
            y = u._apply(points[i])
            if y != points[i]:
                out.append((i, y))
        return out

    return moves


def oracle_slice(shape, v, c, r: int) -> list:
    """Vertices properly extending v within distance r of c, in address
    order, from the whole ball of radius |c| + r."""
    def dist(x, y):
        k = 0
        while k < min(len(x), len(y)) and x[k] == y[k]:
            k += 1
        return len(x) + len(y) - 2 * k

    return sorted(
        x for x in shape.ball(len(c) + r)
        if len(x) > len(v) and x[:len(v)] == v and dist(x, c) <= r
    )


def oracle_sphere(shape, n: int):
    """Addresses of length exactly n, in lexicographic order."""
    if n < 0:
        return
    if n == 0:
        yield ROOT
        return
    for prefix in oracle_sphere(shape, n - 1):
        for c in shape.child_letters(prefix):
            yield prefix + (c,)


def oracle_ball(shape, n: int):
    for k in range(n + 1):
        yield from oracle_sphere(shape, k)


def oracle_realize(mover, r: int) -> dict:
    """The whole radius-r ball table of an exact element, fixed vertices
    included, through its unchecked _apply."""
    return {a: mover._apply(a) for a in oracle_ball(mover.shape, r)}


def oracle_walked_contraction_certificates(g, us, ball_radius: int, direction: int = 1) -> list:
    """``contraction_certificates`` applying every u to every pulled point."""
    k_max = ball_radius + 4
    check_radius = ball_radius + 1
    pulled = [points for _, points in zip(range(k_max + 1), pullbacks(g, direction, check_radius))]
    out = []
    for u in us:
        trivial = [all(u._apply(x) == x for x in points) for points in pulled]
        onset = next((k for k, t in enumerate(trivial) if t), None)
        tail = [] if onset is None else trivial[onset + 1:min(onset + 4, k_max + 1)]
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


def full_table(shape, r: int, table: dict) -> dict:
    """A radius-r ball table spelled out over its whole ball, fixed
    vertices listed."""
    get = table.get
    return {a: get(a, a) for a in oracle_ball(shape, r)}


def oracle_ball_table_error(shape, table: dict):
    """The message a table over the whole ball fails validation with, else
    None: injective, legal images, the root fixed on rooted shapes, and
    every edge of the ball adjacent."""
    images = set(table.values())
    if len(images) != len(table):
        return "not injective"
    if any(not shape.is_legal(b) for b in images):
        return "illegal address"
    if shape.kind == "rooted" and table[ROOT] != ROOT:
        return "must fix the root"
    for b in table:
        if b and not _edge(table[b[:-1]], table[b]):
            return "not adjacent"
    return None


def _edge(u, v) -> bool:
    return (len(u) == len(v) + 1 and u[:-1] == v) or (len(v) == len(u) + 1 and v[:-1] == u)


def checked_table(shape, r: int, table: dict) -> dict:
    """The moved entries of the radius-r ball table ``table``, which fixes
    every ball vertex it does not list, once it passes
    ``oracle_ball_table_error`` spelled out over the whole ball."""
    if r < 0:
        raise PrecisionExhausted("negative precision")
    ball = list(oracle_ball(shape, r))
    if not table.keys() <= set(ball):
        raise ValueError("table domain is not inside the stated ball")
    whole = {a: table.get(a, a) for a in ball}
    error = oracle_ball_table_error(shape, whole)
    if error is not None:
        raise ValueError(error)
    return {a: b for a, b in whole.items() if a != b}


def oracle_in_universal_group(shape, r: int, table: dict, local) -> bool:
    """Every local action inside the radius-r ball, read off the whole
    table."""
    table = full_table(shape, r, table)
    allowed = set(local.element_set)
    for v in table:
        if len(v) > r - 1:
            continue
        iv = table[v]
        images = []
        for c in shape.colours():
            if shape.kind == "rooted":
                images.append(table[v + (c,)][-1])
                continue
            nb = v[:-1] if v and v[-1] == c else v + (c,)
            inb = table[nb]
            images.append(inb[-1] if len(inb) == len(iv) + 1 else iv[-1])
        if Perm(tuple(images)) not in allowed:
            return False
    return True


def oracle_conjugation_shifts(g, reach: int, depth: int, families) -> bool:
    """``boundary.conjugation_shifts`` on whole-ball tables, read at every
    point x of the depth ball through its pull-back y: g(f(y)) = f'(x)."""
    g_fwd = full_table(g.shape, reach, g.realize(reach))
    ball = list(g.shape.ball(depth))
    back = SpecWord(g.shape, ((g, -1),))
    g_inv = [back.apply(x) for x in ball]
    return all(
        g_fwd[fu[y]] == ft[x]
        for family, following in zip(families, families[1:])
        for fu, ft in zip(family, following)
        for x, y in zip(ball, g_inv)
    )


def oracle_tables_commute(family_a, family_b, domain) -> bool:
    """Pairwise commutation checked at every point of the domain."""
    domain = list(domain)
    return all(
        fu[fv[x]] == fv[fu[x]]
        for fu in family_a
        for fv in family_b
        for x in domain
    )


def oracle_support_in(shape, r: int, table: dict, region) -> bool:
    """Every radius-r ball vertex outside the region is fixed, checked
    one by one."""
    cover = region.cover
    table = full_table(shape, r, table)
    return all(
        table[v] == v
        for v in table
        if not any(v[:k] in cover for k in range(len(v) + 1))
    )


# -- the ball-witness check path ------------------------------------------------


def validated_table(mover, r: int) -> tuple:
    """The radius-r ball table of an exact element, read at every vertex
    of the recursive ball and checked by ``checked_table``: (the table,
    its whole-ball dict)."""
    table = oracle_realize(mover, r)
    return checked_table(mover.shape, r, table), table


def oracle_region_vertices(region, depth: int) -> list:
    """The vertices of the recursive radius-``depth`` ball whose cylinder
    lies inside the region, tested prefix by prefix."""
    cover = region.cover
    return [
        v for v in oracle_ball(region.shape, depth)
        if any(v[:k] in cover for k in range(len(v) + 1))
    ]


def _witnesses(local, region, depth: int) -> list:
    """Single-site witnesses of the rigid stabiliser of a region: one
    per generator of the site group at each vertex of
    ``oracle_region_vertices``."""
    shape = region.shape
    return [
        IsometrySpec(shape, sites=((v, perm),))
        for v in oracle_region_vertices(region, depth)
        for perm in site_group(shape, local, v).pruned_gens
    ]


def conjugate_tables(g, k: int, r: int):
    """``table(u)``: the validated radius-r table of g^k u g^-k, with its
    whole-ball dict, read through the pull-back g^-k of every vertex of
    the recursive ball, computed once for every u."""
    ball = list(oracle_ball(g.shape, r))
    pulled = list(map(SpecWord(g.shape, ((g, -k),)).apply, ball))
    forth = SpecWord(g.shape, ((g, k),)).apply

    def table(u) -> tuple:
        whole = {}
        for a, y in zip(ball, pulled):
            z = u.apply(y)
            whole[a] = a if z == y else forth(z)
        return checked_table(g.shape, r, whole), whole

    return table


def check_contraction(g, us, ball_radius: int, direction: int = 1) -> list:
    """``contraction_certificates`` with every conjugate's table built
    on the whole checked ball and validated."""
    k_max, r = ball_radius + 4, ball_radius + 1
    powers: dict = {}

    def trivial(u, k: int) -> bool:
        if k not in powers:
            powers[k] = conjugate_tables(g, direction * k, r)
        return not powers[k](u)[0]

    out = []
    for u in us:
        onset = next((k for k in range(k_max + 1) if trivial(u, k)), None)
        tail = [] if onset is None else [
            trivial(u, j) for j in range(onset + 1, min(onset + 4, k_max + 1))
        ]
        monotone = onset is not None and all(tail)
        out.append({
            "k": onset,
            "k_max": k_max,
            "ball": ball_radius,
            "checked_radius": r,
            "direction": direction,
            "onset_monotone": monotone,
            "verdict": "contracts" if monotone else "no-contraction-within-bounds",
        })
    return out


def _allowed_in(shape, r: int, tables, region, local) -> bool:
    """Every validated radius-r table is supported in the region and its
    local actions lie in the local group."""
    return all(
        oracle_support_in(shape, r, t, region)
        and oracle_in_universal_group(shape, r, t, local)
        for t, _ in tables
    )


def _report(checks: dict) -> dict:
    return {"checks": checks, "verdict": "verified" if all(checks.values()) else "refuted_at_depth"}


def oracle_shrinking_chain(g, alpha, window: int) -> list:
    """The images g^i alpha for i = 0..window, each tested against the
    one before as ``goodshrink_construct`` once tested them step by step:
    equality means the chain has stalled on a periodic clopen, and
    incomparability means alpha was not moved inside itself."""
    chain = [alpha]
    for i in range(1, window + 1):
        nxt, prev = spec_image_clopen(g, chain[-1]), chain[-1]
        if nxt.lt(prev):
            chain.append(nxt)
        elif nxt == prev:
            raise NotSkewering(f"image chain stalls at step {i}")
        else:
            raise NotSkewering(f"image chain leaves the region at step {i}")
    return chain


def check_goodshrink(local, g, alpha, depth: int, n0=None) -> dict:
    """The checks and verdict of ``goodshrink_construct``."""
    n0 = 1 if n0 is None else n0
    chain = [alpha]
    for _ in range(2 * depth):
        chain.append(spec_image_clopen(g, chain[-1]))
    kappa, beta = chain[n0], alpha.minus(chain[1])
    kappa_gens = _witnesses(local, kappa, depth)
    r = depth + 2
    gn0_beta = beta
    for _ in range(n0):
        gn0_beta = spec_image_clopen(g, gn0_beta)
    beta_tables = [validated_table(v, r) for v in _witnesses(local, gn0_beta, depth)]
    conj = list(map(conjugate_tables(g, 1, r), kappa_gens))
    ball = list(oracle_ball(g.shape, r))
    whole = [t for _, t in conj + beta_tables]
    return _report({
        "image_strictly_inside": chain[1].lt(alpha),
        "chain_strictly_shrinking": all(b.lt(a) for a, b in zip(chain, chain[1:])),
        "conjugation_preserves_kappa": _allowed_in(g.shape, r, conj, kappa, local),
        "product_inclusion": gn0_beta.leq(kappa)
        and all(oracle_support_in(g.shape, r, t, kappa) for t, _ in beta_tables),
        "factors_commute": all(t[ROOT] == ROOT for t in whole)
        and oracle_tables_commute([t for _, t in conj], [t for _, t in beta_tables], ball),
        "kappa_witnesses_contract": all(
            c["verdict"] == "contracts" for c in check_contraction(g, kappa_gens, depth)
        ),
    })


def check_nub(local, g, beta, v_level: int, m: int, depth: int) -> dict:
    """The checks and verdict of ``nub_window``, the shift read through
    the pull-back of the depth ball against g's validated table."""
    shape = g.shape
    idx = range(-m, m + 1)
    translates = {i: spec_image_clopen(SpecWord(shape, ((g, i),)), beta) for i in idx}
    pairs = [(i, j) for i in idx for j in idx if i < j]
    gens = _witnesses(local, beta, v_level)
    reach = depth + max(1, g.displacement)
    tables = {i: list(map(conjugate_tables(g, i, reach), gens)) for i in idx}
    ball = list(oracle_ball(shape, depth))
    _, g_fwd = validated_table(g, reach)
    pulled = list(map(SpecWord(shape, ((g, -1),)).apply, ball))
    whole = [[t for _, t in tables[i]] for i in idx]
    return _report({
        "translates_disjoint": not any(translates[i].meets(translates[j]) for i, j in pairs),
        "supports_inside_translates": all(
            oracle_support_in(shape, reach, t, translates[i]) for i in idx for t, _ in tables[i]
        ),
        "cross_factor_commutators_trivial": all(t[ROOT] == ROOT for w in whole for t in w)
        and all(oracle_tables_commute(whole[i + m], whole[j + m], ball) for i, j in pairs),
        "conjugation_shifts_families": all(g_fwd.get(y) == x for x, y in zip(ball, pulled))
        and all(
            g_fwd[fu[y]] == ft[x]
            for family, following in zip(whole, whole[1:])
            for fu, ft in zip(family, following)
            for x, y in zip(ball, pulled)
        ),
    })


def check_tits_core(local, g, depth: int) -> dict:
    """The checks and verdict of ``tits_core_generators``."""
    shape = g.shape

    def beta_of(mover):
        for c in shape.colours():
            a = CylinderClopen.cylinder(shape, (c,))
            image = spec_image_clopen(mover, a)
            if image.lt(a):
                return a.minus(image)
        raise AssertionError("no depth-1 cylinder shrinks")

    beta_f = beta_of(g)
    gens_f = _witnesses(local, beta_f, depth)
    gens_b = _witnesses(local, beta_of(SpecWord(shape, ((g, -1),))), depth)
    cover = beta_f.addresses
    cone = cover[0]
    while any(a[: len(cone)] != cone for a in cover):
        cone = cone[:-1]
    rotations = [IsometrySpec(shape, sites=((cone, p),)) for p in site_group(shape, local, cone).pruned_gens]
    rotations += [
        IsometrySpec(shape, sites=((ROOT, p),))
        for p in local.pruned_gens
        if all(p(c) == c for c in cone)
    ]
    rotations = [rho for rho in rotations if spec_image_clopen(rho, beta_f) == beta_f]
    checks = {
        "forward_witnesses_contract": all(
            c["verdict"] == "contracts" for c in check_contraction(g, gens_f, depth)
        ),
        "backward_witnesses_contract": all(
            c["verdict"] == "contracts" for c in check_contraction(g, gens_b, depth, -1)
        ),
        "witness_families_nonempty": bool(gens_f) and bool(gens_b),
    }
    if rotations:
        checks["cone_rotations_normalise"] = all(
            _allowed_in(
                shape, depth + 2, map(conjugate_tables(rho, 1, depth + 2), gens_f), beta_f, local
            )
            for rho in rotations
        )
    return _report(checks)


def check_ball_witnesses(kind: str, *args, **kwargs):
    """Rerun the ball checks of ``certify goodshrink``, ``nub``,
    ``tits-core`` or ``contraction`` on validated whole-ball tables.

    Returns the checks and verdict the command reports, or for
    ``contraction`` its list of certificates.
    """
    return {
        "goodshrink": check_goodshrink,
        "nub": check_nub,
        "tits-core": check_tits_core,
        "contraction": check_contraction,
    }[kind](*args, **kwargs)


def oracle_congruence_kernel(group: FiniteGroup, shape, n: int, k: int) -> FiniteGroup:
    """Close the level group and keep the elements trivial down to depth k."""
    prefixes = [a[:k] for a in sphere_list(shape, n)]
    members = [
        e
        for e in group.element_list
        if all(prefixes[j] == prefixes[i] for i, j in enumerate(e.images))
    ]
    return group.subgroup_from_elements(members)


# -- clopen algebra ----------------------------------------------------------


def _oracle_covered(addr, cover) -> bool:
    return any(addr[:k] in cover for k in range(len(addr) + 1))


def oracle_canonical(shape, addrs) -> frozenset:
    kept = []
    for a in sorted(addrs):
        if kept and a[: len(kept[-1])] == kept[-1]:
            continue
        while a:
            parent = a[:-1]
            letters = shape.child_letters(parent)
            k = len(letters) - 1
            if a[-1] != letters[-1] or kept[-k:] != [parent + (c,) for c in letters[:-1]]:
                break
            del kept[-k:]
            a = parent
        kept.append(a)
    return frozenset(kept)


def oracle_canonical_pass(shape, ordered) -> list:
    after = shape._after
    kept = []
    for a in ordered:
        if kept and a[: len(kept[-1])] == kept[-1]:
            continue
        while a:
            letters = after[a[-2] if len(a) > 1 else -1]
            if a[-1] != letters[-1]:
                break
            k = len(letters) - 1
            first = len(kept) - k
            if first < 0 or kept[first] != a[:-1] + letters[:1]:
                break
            if k > 1 and any(len(x) != len(a) for x in kept[first + 1 :]):
                break
            del kept[first:]
            a = a[:-1]
        kept.append(a)
    return kept


def oracle_parse_clopen(shape, text: str) -> CylinderClopen:
    text = text.strip()
    if text == "TOP":
        return CylinderClopen.top(shape)
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"clopen text must be TOP or brace-delimited: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return CylinderClopen.zero(shape)
    addrs = [read_address(shape, tok) for tok in body.split(",")]
    return CylinderClopen.from_addresses(shape, addrs)


def oracle_meet(x: CylinderClopen, y: CylinderClopen) -> frozenset:
    a, b = x.cover, y.cover
    return frozenset(
        {p for p in a if _oracle_covered(p, b)} | {q for q in b if _oracle_covered(q, a)}
    )


def oracle_leq(x: CylinderClopen, y: CylinderClopen) -> bool:
    return all(_oracle_covered(p, y.cover) for p in x.cover)


def oracle_meets(x: CylinderClopen, y: CylinderClopen) -> bool:
    a, b = x.cover, y.cover
    return any(_oracle_covered(p, b) for p in a) or any(_oracle_covered(q, a) for q in b)


def oracle_complement(x: CylinderClopen) -> frozenset:
    if not x.cover:
        return frozenset({ROOT})
    prefixes = {a[:k] for a in x.cover for k in range(len(a))}
    return frozenset(
        child
        for p in prefixes
        for c in x.shape.child_letters(p)
        if (child := p + (c,)) not in prefixes and child not in x.cover
    )


def oracle_composition_factors_by_joins(g: FiniteGroup) -> list[str]:
    """Factor labels by descent through ``oracle_lattice_by_joins``: each
    step takes the greatest maximal member by (order, element_list)."""
    out: list[str] = []
    current = g
    while current.order > 1:
        proper = [n for n in oracle_lattice_by_joins(current) if n.order < current.order]
        maximals = [
            n
            for n in proper
            if not any(m.order > n.order and n.element_set <= m.element_set for m in proper)
        ]
        n = max(maximals, key=lambda m: (m.order, m.element_list))
        out.append(_oracle_label(oracle_quotient(current, n).order))
        current = n
    return out


def oracle_composition_factors_by_lattice(g: FiniteGroup) -> list[str]:
    """Factor labels by descent through ``oracle_normal_lattice``, as
    ``composition_factors`` read them before its perfect steps left the
    lattice: each step takes the last maximal member."""
    out: list[str] = []
    current = g
    while current.order > 1:
        n = oracle_maximal_normal_subgroups(current)[-1]
        out.append(_oracle_label(current.order // n.order))
        current = n
    return out


def oracle_check_minimal(ctx) -> dict:
    """``dynamics.check_minimal`` as it was before it made one lookup per
    pair: membership, item and length each hash the state again, and each
    witness key is formatted from both labels."""
    states = ctx.states()
    labels = {s: ctx.state_label(s) for s in states}
    witnesses: dict[str, list[str]] = {}
    counterexample = None
    longest = 0
    for a, met in _start_words(ctx):
        for b in states:
            if b in met:
                witnesses[f"{labels[a]}->{labels[b]}"] = list(met[b])
                longest = max(longest, len(met[b]))
            elif counterexample is None:
                counterexample = [labels[a], labels[b]]
    minimal = counterexample is None
    return {
        "verdict": "minimal-at-depth" if minimal else "not-minimal-at-depth",
        "depth": ctx.depth,
        "word_bound": ctx.word_bound,
        "state_count": len(states),
        "max_word_length": longest,
        "witness_words": witnesses if minimal else None,
        "counterexample": counterexample,
    }


def oracle_minorising_degree(ctx) -> dict:
    """``dynamics.minorising_degree`` as it was before shadows were index
    masks: a shadow is the frozenset of the states a start's first words
    meet, read through ``_start_words`` (on two copies, from tagged
    words), every distinct shadow is sorted by its sorted labels, and
    each open's representative is found by a scan over the states."""
    initial = None if ctx.all_fix_base() else minorising_set(ctx)["set"]
    states = ctx.states()
    shadows = {c: frozenset(words) for c, words in _start_words(ctx)}
    distinct = sorted(set(shadows.values()), key=lambda s: sorted(map(ctx.state_label, s)))
    minimal_opens = [s for s in distinct if not any(other < s for other in distinct)]
    reduced = [next(c for c in states if shadows[c] == s) for s in minimal_opens]
    degree = len(minimal_opens)
    dense_check = None
    if degree == 1:
        dense_check = all(len(s) == len(states) for s in shadows.values())
    return {
        "verdict": "verified",
        "degree": degree,
        "invariant_opens": [sorted(ctx.state_label(b) for b in s) for s in minimal_opens],
        "reduced_set": [ctx.state_label(c) for c in reduced],
        "initial_set": initial,
        "dense_orbit_check": dense_check,
        "depth": ctx.depth,
        "word_bound": ctx.word_bound,
    }


# -- certificates --------------------------------------------------------------


def oracle_normalise(value):
    """``certificates.normalise`` as it was before plain values passed
    through: one ``isinstance`` chain, and every list and dict copied."""
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                k = normalise_key(k)
            out[k] = oracle_normalise(v)
        return out
    if isinstance(value, (set, frozenset)):
        return sorted(oracle_normalise(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [oracle_normalise(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError("floats have no canonical bytes; use Fraction")
    text = str(value)
    if not text:
        raise TypeError(f"cannot serialise {type(value).__name__}")
    return text


# -- single-site recipes ---------------------------------------------------------


def oracle_sphere_permutation(spec: IsometrySpec, points, index: dict) -> Perm:
    """Permutation of a sphere by a recipe that fixes the base vertex;
    ``index`` numbers the sphere's ``points``."""
    return Perm(tuple(index[spec._apply(a)] for a in points))


def oracle_level_perms(shape, local, n: int) -> list[Perm]:
    """The generators ``level_group`` built from its site decorations."""
    points = sphere_list(shape, n)
    index = {a: i for i, a in enumerate(points)}
    return [
        oracle_sphere_permutation(spec, points, index)
        for spec in site_decorations(shape, local, shape.ball(n - 1))
    ]


def oracle_witness_perms(local, region, d: int) -> list[Perm]:
    """The region's rigid witnesses above depth d, as permutations of the
    d-sphere numbered in sphere_list order."""
    points = sphere_list(region.shape, d)
    index = {p: i for i, p in enumerate(points)}
    return [
        oracle_sphere_permutation(g, points, index)
        for g in rist_generators(local, region, d - 1)
    ]


def _shape_for(local: FiniteGroup):
    from tdlclab.boolalg import regular

    return regular(local.degree)


def oracle_translation_rotation_context(local: FiniteGroup, depth: int = 3, word_bound: int = 6):
    shape = _shape_for(local)
    gens: dict[str, IsometrySpec] = {}
    for c in shape.colours():
        gens[f"t{c}"] = hyperbolic_isometry(shape, (c,))
    for k, perm in enumerate(local.pruned_gens):
        gens[f"rho{k}"] = IsometrySpec(shape, sites=(((), perm),))
    stab = site_group(shape, local, (0,))
    for k, perm in enumerate(stab.pruned_gens):
        gens[f"s{k}"] = IsometrySpec(shape, sites=(((0,), perm),))
    return ActionContext(shape, gens, depth, word_bound)


def oracle_skewering_context(local: FiniteGroup, depth: int = 2, word_bound: int = 6):
    shape = _shape_for(local)
    order = list(local.pruned_gens)
    cycle = next((p for p in order if all(p(c) != c for c in shape.colours())), order[0])
    stab = site_group(shape, local, (0,))
    gens = {
        "t0": hyperbolic_isometry(shape, (0,)),
        "s0": IsometrySpec(shape, sites=(((0,), stab.pruned_gens[0]),)),
        "rho": IsometrySpec(shape, sites=(((), cycle),)),
    }
    return ActionContext(shape, gens, depth, word_bound)


def oracle_rotation_context(local: FiniteGroup, depth: int = 2, word_bound: int = 4):
    shape = _shape_for(local)
    gens = {
        f"rho{k}": IsometrySpec(shape, sites=(((), perm),))
        for k, perm in enumerate(local.pruned_gens)
    }
    return ActionContext(shape, gens, depth, word_bound)


def oracle_two_copy_product_context(local: FiniteGroup, depth: int = 2, word_bound: int = 6):
    shape = _shape_for(local)
    gens: dict[str, IsometrySpec] = {}
    for c in shape.colours():
        gens[f"t{c}"] = hyperbolic_isometry(shape, (c,))
    for k, perm in enumerate(local.pruned_gens):
        gens[f"rho{k}"] = IsometrySpec(shape, sites=(((), perm),))
    return TwoCopyContext(shape, gens, depth, word_bound)


def oracle_rooted_generators(spec) -> dict:
    """The generators ``cli.build_context`` made for a rooted spec with no
    named elements."""
    site_gens: dict[str, IsometrySpec] = {}
    for k, p in enumerate(spec.local.pruned_gens):
        site_gens[f"rho{k}"] = IsometrySpec(spec.shape, sites=((ROOT, p),))
        site_gens[f"s{k}"] = IsometrySpec(spec.shape, sites=(((0,), p),))
    return site_gens


# -- rigid-stabiliser products ----------------------------------------------------


def oracle_perp(local: FiniteGroup, a: LocalClass, max_depth: int) -> dict:
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
        perms_a = site_permutations(shape, local, region_vertices(a.region, d - 1), d)
        perms_b = site_permutations(shape, local, region_vertices(complement.region, d - 1), d)
        commute = tables_commute(
            [dict(enumerate(p.images)) for p in perms_a],
            [dict(enumerate(p.images)) for p in perms_b],
        )
        order_a = _rist_level_order(local, a.region, d)
        order_b = _rist_level_order(local, complement.region, d)
        level = level_order(shape, local, d)
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
        if level <= _REALIZE_CAP:
            group = level_group(shape, local, d)
            sub_a = group.subgroup(perms_a)
            sub_b = group.subgroup(perms_b)
            both = group.subgroup(perms_a + perms_b)
            entry["realized"] = True
            entry["realized_orders_match"] = (
                sub_a.order == order_a and sub_b.order == order_b
            )
            # commuting factors with multiplying orders intersect trivially
            entry["trivial_intersection"] = both.order == order_a * order_b
            entry["realized_index"] = group.order // both.order
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


def oracle_decomposition_factors(
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
        "pairwise_disjoint": all(
            not regions[i].meets(regions[j])
            for i in range(len(regions))
            for j in range(i + 1, len(regions))
        ),
        "regions_cover_boundary": join_all.is_top(),
        "perp_of_each_is_join_of_rest": perp_cross,
    }
    star_orders = {}
    realized_depths = []
    verdict = "verified"
    for d in range(1, depth + 1):
        factor_orders = [_rist_level_order(local, r, d) for r in regions]
        star_order = level_order(shape, local, d) // local.order
        product = 1
        for o in factor_orders:
            product *= o
        star_orders[d] = {
            "factor_orders": factor_orders,
            "star_order": star_order,
            "product_matches": product == star_order,
        }
        if product != star_order:
            verdict = "refuted_at_depth"
        if level_order(shape, local, d) <= _REALIZE_CAP:
            entry = oracle_realize_star_decomposition(shape, local, d, regions)
            star_orders[d].update(entry)
            realized_depths.append(d)
            if not all(
                entry[k]
                for k in ("pairwise_commute", "pairwise_trivial_intersection", "generates_star")
            ):
                verdict = "refuted_at_depth"
    checks["levels"] = star_orders
    checks["realized_depths"] = realized_depths
    return factors, {
        "verdict": verdict,
        "factor_count": len(factors),
        "checks": checks,
    }


def oracle_realize_star_decomposition(
    shape: TreeShape, local: FiniteGroup, d: int, regions
) -> dict:
    group = level_group(shape, local, d)
    star = congruence_kernel(group, shape, d, 1)
    inside = (region_vertices(r, d - 1) for r in regions)
    subs = [group.subgroup(site_permutations(shape, local, vs, d)) for vs in inside]
    commute = True
    trivial = True
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            pair = group.subgroup(list(subs[i].gens) + list(subs[j].gens))
            if pair.order != subs[i].order * subs[j].order:
                trivial = False
            if not tables_commute(
                [dict(enumerate(x.images)) for x in subs[i].gens],
                [dict(enumerate(y.images)) for y in subs[j].gens],
            ):
                commute = False
    all_gens = [g for s in subs for g in s.gens]
    generated = group.subgroup(all_gens)
    return {
        "pairwise_commute": commute,
        "pairwise_trivial_intersection": trivial,
        "generates_star": generated.order == star.order,
        "realized_star_order": star.order,
    }


# -- shared corpus -----------------------------------------------------------


def corpus() -> dict[str, FiniteGroup]:
    from tdlclab.permgrp import (
        alternating_group,
        cyclic_group,
        dihedral_group,
        direct_product,
        quaternion_group,
        symmetric_group,
    )

    s3 = symmetric_group(3)
    return {
        "S3": s3,
        "S4": symmetric_group(4),
        "A4": alternating_group(4),
        "A5": alternating_group(5),
        "D8": dihedral_group(4),
        "Q8": quaternion_group(),
        "C2xC2": direct_product(cyclic_group(2), cyclic_group(2)),
        "C6": cyclic_group(6),
        "S3xS3": direct_product(s3, s3),
    }
