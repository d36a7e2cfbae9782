"""Shared test helpers: seeded generators and tiny independent models."""
from __future__ import annotations

import random

from tdlclab.boolalg import ROOT, CylinderClopen, TreeShape
from tdlclab.permgrp import Perm
from tdlclab.tree import IsometrySpec


def random_clopen(
    rng: random.Random, shape: TreeShape, max_depth: int
) -> CylinderClopen:
    """Random canonical clopen built from a random depth-k address subset."""
    k = rng.randint(1, max_depth)
    atoms = list(shape.sphere(k))
    picked = [a for a in atoms if rng.random() < 0.5]
    return CylinderClopen.from_addresses(shape, picked)


def expand(clopen: CylinderClopen, n: int) -> frozenset:
    """Independent expansion used as the set-model oracle."""
    out = set()
    stack = list(clopen.cover)
    while stack:
        a = stack.pop()
        if len(a) == n:
            out.add(a)
        else:
            stack.extend(a + (c,) for c in clopen.shape.child_letters(a))
    return frozenset(out)


def random_rooted_portrait(rng, shape, depth):
    """Seeded rooted portrait: each vertex down to depth decorated with
    a random permutation with probability 0.4."""
    sites = []
    for v in shape.ball(depth):
        if rng.random() < 0.4:
            images = list(range(shape.degree))
            rng.shuffle(images)
            sites.append((v, Perm(tuple(images))))
    return IsometrySpec(shape, sites=tuple(sites))


def random_regular_portrait(rng, shape, local, depth):
    """Seeded regular portrait whose decorations lie in the local group."""
    # root gets anything from the local group, deeper sites must fix the
    # return colour when their ancestors are undecorated; sampling sites
    # top-down and matching the inherited image keeps every draw legal
    sites = {}
    elems = local.element_list

    def inherited(prefix):
        for k in range(len(prefix), -1, -1):
            if prefix[:k] in sites:
                return sites[prefix[:k]]
        return None

    if rng.random() < 0.7:
        sites[ROOT] = rng.choice(elems)
    for k in range(1, depth + 1):
        for v in shape.sphere(k):
            if rng.random() < 0.3:
                back = v[-1]
                inh = inherited(v[:-1])
                want = inh(back) if inh is not None else back
                pool = [p for p in elems if p(back) == want]
                if pool:
                    sites[v] = rng.choice(pool)
    return IsometrySpec(shape, sites=tuple(sites.items()))
