"""Slow reference evaluators for tree isometries.

Kept deliberately naive and structurally different from the library code:
portraits are applied by rescanning ancestor decorations per letter,
word translations by explicit stack reduction on the concatenated word,
and clopens are transported by a finite vertex table over the set-model
expansion instead of exact application of refined atoms.  Products and
inverses of ball tables are the table algebra the library gave up for
exact words: a composed or inverted table only knows the vertices its
operands cover, so it shrinks by the displacement.
"""
from __future__ import annotations

from tdlclab.boolalg import ROOT, CylinderClopen, TreeShape
from tdlclab.permgrp import Perm

from util import expand


def oracle_rooted_apply(sites: dict, addr: tuple) -> tuple:
    """Classic portrait action: each vertex decorates its own children."""
    out = []
    for j in range(len(addr)):
        prefix = addr[:j]
        perm = sites.get(prefix)
        letter = addr[j]
        out.append(perm(letter) if perm is not None else letter)
    return tuple(out)


def oracle_regular_apply(sites: dict, addr: tuple) -> tuple:
    """Inherited action: the deepest decorated prefix recolours each letter."""
    out = []
    for j in range(len(addr)):
        active = None
        for k in range(j, -1, -1):
            if addr[:k] in sites:
                active = sites[addr[:k]]
                break
        letter = addr[j]
        out.append(active(letter) if active is not None else letter)
    return tuple(out)


def oracle_reduce(word) -> tuple:
    out = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def oracle_translation_apply(word: tuple, addr: tuple) -> tuple:
    return oracle_reduce(tuple(word) + tuple(addr))


def oracle_local_action(shape: TreeShape, apply_fn, v: tuple) -> Perm:
    """Read the colour permutation at v off images of v and its neighbours."""
    iv = apply_fn(v)
    images = {}
    for c in shape.colours():
        if shape.kind == "regular":
            nb = v[:-1] if (v and v[-1] == c) else v + (c,)
        else:
            nb = v + (c,)
        inb = apply_fn(nb)
        if len(inb) == len(iv) + 1:
            images[c] = inb[-1]
        elif len(inb) == len(iv) - 1:
            images[c] = iv[-1]
        else:
            raise AssertionError("images of neighbours are not adjacent")
    return Perm(tuple(images[c] for c in shape.colours()))


def oracle_compose_tables(outer: dict, inner: dict) -> dict:
    """Table of outer after inner, on the vertices whose inner image
    outer covers."""
    return {a: outer[b] for a, b in inner.items() if b in outer}


def oracle_invert_table(table: dict) -> dict:
    """Inverse table, on the images the table reaches."""
    return {b: a for a, b in table.items()}


def oracle_level_order(shape: TreeShape, f, n: int) -> int:
    """Order of the depth-n truncation, counted site by site."""
    if shape.kind == "rooted":
        total = 1
        for k in range(n):
            total *= f.order ** shape.sphere_size(k)
        return total
    total = f.order
    for k in range(1, n):
        for v in shape.sphere(k):
            fixing = sum(1 for x in f.element_list if x(v[-1]) == v[-1])
            total *= fixing
    return total


def oracle_image_clopen(table: dict, clopen: CylinderClopen) -> CylinderClopen:
    """Forward image of a clopen read off a vertex table.

    The clopen is expanded to the sphere one level past the image of the
    base vertex (or its own depth, if deeper).  Those atoms lie beyond
    the segment from the base vertex to its image, so each cylinder maps
    onto the cylinder at its table image; the table must cover the
    sphere, else KeyError.
    """
    if clopen.is_zero():
        return clopen
    base_path = table[ROOT]
    n = max(clopen.depth, len(base_path) + 1)
    images = []
    for atom in sorted(expand(clopen, n)):
        img = table[atom]
        if base_path[: len(img)] == img:
            raise AssertionError("image atom landed on the displacement path")
        images.append(img)
    return CylinderClopen.from_addresses(clopen.shape, images)
