"""Independent oracles for the group engine and the measure LP.

The normal-subgroup oracle enumerates every union of conjugacy classes
and keeps the ones that happen to be subgroups.  That is exhaustive and
plainly correct (a normal subgroup is exactly a class-closed subgroup),
and it shares no code path with the engine's closure-join lattice.
The derived-series oracle closes over all commutators, not just
generator commutators.

The phase-one oracle is the dense simplex tableau the measure search
used before it moved to sparse rows: one list per row, as wide as the
variables plus one artificial column per row, rewritten in full at
every pivot.  It makes the same pivots, so it must return the same
``(feasible, solution)`` as ``dynamics._phase_one_feasible``.  Its rows
come from the measure search's former builder, which summed +1 per image
atom and -1 per cylinder atom and then dropped the zeros.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from tdlclab.boolalg import CylinderClopen, sphere_list
from tdlclab.permgrp import FiniteGroup, Perm, prime_factors


def _is_subgroup(elems: frozenset[Perm]) -> bool:
    for a in elems:
        for b in elems:
            if a * b not in elems:
                return False
    return True


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


def oracle_prosoluble_residual(g: FiniteGroup) -> frozenset[Perm]:
    out = None
    for n in oracle_normal_subgroups(g):
        quot = FiniteGroup(g.degree, tuple(sorted(n))).element_set
        sub = FiniteGroup(g.degree, tuple(sorted(n)))
        q = g.quotient(sub)
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


def _oracle_label(g: FiniteGroup, elems: frozenset[Perm]) -> str:
    n = len(elems)
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
        out.append(_oracle_label(current, current.quotient(sub).element_set))
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
