"""Tree isometries carried at finite precision.

Vertices are the legal addresses of a TreeShape.  On rooted shapes these
are digit strings and isometries fix the root, so tables are
level-preserving.  On regular shapes addresses are reduced colour words:
the vertex set is the free product of degree many involutions, stepping
along colour c from word w is free reduction of w plus c, and isometries
may move the base vertex.

Two element classes live here.  IsometrySpec is the exact atom: a
portrait, which decorates finitely many sites with colour permutations,
followed by a word translation; it applies to addresses of any depth.
SpecWord is a formal product of powers of atoms, evaluated factor by
factor, so it stays exact too; a factor that is itself a word is spelled
out when the SpecWord is built, so its factors are always atoms, and a
one-letter word, an atom or its inverse, applies that atom's own map.
A ball table is no class: it is the dict from each vertex of a ball
about the base vertex that an exact element moves to its image.
Products and inverses are formed exactly, as a SpecWord, before
tabulating; a table has neither.

Legality of an address is checked once, at the public entry:
IsometrySpec.apply and apply_inverse and SpecWord.apply raise ValueError
on an illegal address, then run unchecked code, because the image of a
legal address is legal.  SpecWord applies its factors through the
unchecked IsometrySpec._apply and _apply_inverse.  Ball tables need no
address check at all: _moved reads ball vertices, legal by construction,
through the unchecked _apply.  An exact element is an isometry at every
depth, so realize and conjugate_families store its table unchecked, as
Perm._trusted wraps a product, through _table, whose one guard rejects a
negative radius.  The check path in the tests rebuilds every table the
certificates read over its whole ball and checks it there (domain,
injectivity, legal images, adjacency), with the radius and shape it was
built for beside it.
spec_image_clopen likewise checks only that the clopen lives on the
recipe's shape, then applies the clopen's atoms, legal by construction,
through _apply; CylinderClopen.from_addresses still rejects any illegal
image.  Each portrait site is compiled once, when the spec is built, to
the forward and inverse image tuples of its colour permutation; below
the deepest site no lookup is made, and a spec with one site and no
word, as every rigid-stabiliser witness, compares an address's prefix
with its site once instead of walking it letter by letter.

A ball table lists only the vertices its element moves, with their
images; every other vertex of the ball is fixed.  An IsometrySpec with
no word states its support once: the sites whose subtrees hold every
vertex it moves (a vertex moves only below a decorated site).  A word,
or a site at the base vertex, makes no such statement.  _moved(u, c, r)
yields each point u moves within distance r of c, with its image, and
reads only the points strictly below u's sites, or the whole ball about
c when u states no support.  realize tabulates it about the base vertex,
so a rigid-stabiliser witness's table is as large as the part of the
ball it moves, and SpecWord.is_identity_on stops at its first point.  A
displacing element's table lists most of the ball; it is the same dict.
A table moves the base vertex exactly when it lists it, and its local
actions are read by in_universal_group, which takes the shape beside it.

Conjugates g^k u g^-k take a shorter path than walking every letter of
the word at every ball vertex: the conjugate fixes a exactly when u
fixes x = g^-k(a), and otherwise sends a to g^k(u(x)).  g^-k maps B_r
onto the ball of radius r about c = g^-k(v0), so the points x to read
are those _moved(u, c, r) yields.  Its walk, boolalg's _slice, yields
the part of a ball about c strictly below a vertex v, each point once:
it starts at the vertex of v's subtree nearest to c and climbs to v,
opening at each step the branches it did not come from.  g^k carries
the subtree below v onto the half-tree at the edge from g^k(v) to
g^k(parent v) (Tits 1970).  When c lies outside v's subtree that edge
points away from the base vertex, and the walk goes at most
r - d(c, v) levels below v, none once d(c, v) >= r; when c lies inside,
the half-tree holds the base vertex, and the walk climbs from c to v.
_conjugate_moves pushes each point _moved yields forward by g^k once,
lazily, through a memo that every witness of that power shares.
conjugate_families tabulates the moved points, and
boundary.contraction_certificates calls a conjugate trivial when no
point is moved.  Each finished table is trusted as realize's is.

The portrait of an IsometrySpec acts differently by shape kind.  On
rooted shapes it is classic: each decorated vertex permutes its own
children independently.  On regular shapes it is inherited: a decoration
recolours every letter below its site until a deeper decoration
overrides it, so a single site at the base vertex is a global
recolouring.  A decoration at site v must agree with the inherited
permutation on the colour of the edge from v back toward the base
vertex, otherwise the letter map would break adjacency there; with
undecorated ancestors this says the decoration fixes that colour.

The site model (Burger and Mozes 2000, section 3) lives here too:
``site_decorations`` builds every single-site decoration of a site group,
the standard dynamics contexts and the CLI's rooted default included, and
``site_permutations`` reads decorations as permutations of a sphere.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import prod

from .boolalg import (
    ROOT,
    Address,
    CylinderClopen,
    TreeShape,
    _slice,
    format_address,
    sphere_list,
)
from .errors import PrecisionExhausted, SiteError
from .permgrp import FiniteGroup, Perm, prime_factors


def free_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for c in word:
        if out and out[-1] == c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _join_reduced(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """``free_reduce(left + right)`` for two freely reduced words: letters
    cancel only where the two words meet."""
    k, most = 0, min(len(left), len(right))
    while k < most and left[-1 - k] == right[k]:
        k += 1
    return left[: len(left) - k] + right[k:]


def step(shape: TreeShape, addr: Address, colour: int) -> Address:
    """Neighbour of addr in direction colour (regular shapes only)."""
    if addr and addr[-1] == colour:
        return addr[:-1]
    return addr + (colour,)


# -- ball tables ---------------------------------------------------------------


def _table(r: int, moves) -> dict:
    """The radius-r ball table of an exact element: each ball vertex it
    moves, from the (vertex, image) pairs ``moves`` yields, mapped to its
    image.  The pairs are stored unchecked; the radius is the one guard.
    """
    if r < 0:
        raise PrecisionExhausted("negative precision")
    return dict(moves)


# -- exact recipes -------------------------------------------------------------


def _inherited(site_map: dict, prefix: Address):
    """Decoration at the deepest decorated prefix, or None."""
    for k in range(len(prefix), -1, -1):
        if prefix[:k] in site_map:
            return site_map[prefix[:k]]
    return None


@dataclass(frozen=True)
class IsometrySpec:
    """Word translation after a portrait, exact at every depth.

    ``sites`` pairs each decorated vertex with its colour permutation and
    keeps the order it was given in.  On regular shapes ``word`` is a
    freely reduced colour word acting by left multiplication on vertices;
    the portrait acts first.  Rooted shapes admit no translations, so
    there the word must be empty.

    ``support`` states where the spec can move anything: the sites,
    shallowest first and in address order, whose subtrees hold every
    vertex it moves, for a vertex moves only when a decorated site lies
    strictly above it.  It is None, the whole tree, when there is a word
    or a site at the base vertex.
    """

    shape: TreeShape
    word: tuple[int, ...] = ()
    sites: tuple[tuple[Address, Perm], ...] = ()
    site_map: dict = field(init=False, repr=False, compare=False)
    # depth of the deepest decorated site; no lookup can match below it
    depth: int = field(init=False, repr=False, compare=False)
    support: tuple[Address, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = self.shape
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if word:
            if shape.kind == "rooted":
                raise ValueError("rooted shapes admit no translations")
            for c in word:
                if not 0 <= c < shape.degree:
                    raise ValueError(f"colour {c} out of range")
            if free_reduce(word) != word:
                raise ValueError("word is not freely reduced")
        site_map = {}
        for addr, perm in self.sites:
            try:
                shape.require_legal(addr)
            except ValueError as exc:
                raise SiteError(str(exc), addr) from None
            if perm.degree != shape.degree:
                raise SiteError("decoration degree does not match the shape", addr)
            if addr in site_map:
                raise SiteError(f"duplicate site {addr!r}", addr)
            site_map[addr] = perm
        if shape.kind == "regular":
            for addr in sorted(site_map, key=lambda a: (len(a), a)):
                if addr == ROOT:
                    continue
                inherited = _inherited(site_map, addr[:-1])
                back = addr[-1]
                want = inherited(back) if inherited is not None else back
                if site_map[addr](back) != want:
                    raise SiteError(
                        f"site {addr!r} disagrees with its surroundings on "
                        f"the return colour {back}",
                        addr,
                    )
        # each site compiled once to its forward and inverse image tuples
        compiled = {
            addr: (perm.images, perm.inverse().images)
            for addr, perm in site_map.items()
        }
        object.__setattr__(self, "site_map", compiled)
        object.__setattr__(self, "depth", max(map(len, site_map), default=0))
        support = None
        if not word and ROOT not in site_map:
            # in address order a site follows every site above it
            support = []
            for addr in sorted(site_map):
                if not support or addr[: len(support[-1])] != support[-1]:
                    support.append(addr)
            support = tuple(support)
        object.__setattr__(self, "support", support)
        if not word and len(compiled) == 1:
            # one site, as every rigid-stabiliser witness: skip the loop
            (site, (images, _)), = compiled.items()
            object.__setattr__(self, "_apply", _one_site(shape, site, images))

    @property
    def displacement(self) -> int:
        return len(self.word)

    @property
    def section_depth(self) -> int:
        """R = |word| + site depth + 1: for |v| >= R - 1 the spec and its
        inverse move v x to g(v) pi(x), pi a colour permutation fixed by
        v's first R - 1 letters (the wreath recursion).

        With d = |word| and s the site depth: forward, letter j >= s of
        v x is recoloured by the site inherited at v's first s letters
        (on rooted shapes the site at v, or none), and the word cancels
        at most d letters, from the front, so x survives.  Inverse, stripping the word cancels at most d letters
        of v, leaving at least s of them before x, and past letter s the
        portrait is solved by a site fixed by the stripped address's
        first s letters, which depend on v's first d + s.
        """
        return len(self.word) + self.depth + 1

    def apply(self, addr: Address) -> Address:
        addr = tuple(addr)
        self.shape.require_legal(addr)
        return self._apply(addr)

    def apply_inverse(self, addr: Address) -> Address:
        addr = tuple(addr)
        self.shape.require_legal(addr)
        return self._apply_inverse(addr)

    def _apply(self, addr: Address) -> Address:
        """Image of an address already known to be legal.

        Sites are looked up only down to the deepest one.  Below it a
        rooted letter is fixed and a regular letter is recoloured by the
        site inherited there.
        """
        smap, reach = self.site_map, self.depth
        if self.shape.kind == "rooted":
            out = []
            for j, x in enumerate(addr[: reach + 1]):
                site = smap.get(addr[:j])
                out.append(site[0][x] if site is not None else x)
            return tuple(out) + addr[reach + 1:]
        out = []
        site = smap.get(ROOT)
        prefix: Address = ROOT
        for x in addr[:reach]:
            out.append(site[0][x] if site is not None else x)
            prefix = prefix + (x,)
            if prefix in smap:
                site = smap[prefix]
        tail = addr[reach:]
        out.extend(tail if site is None else [site[0][x] for x in tail])
        if not self.word:
            return tuple(out)
        return _join_reduced(self.word, tuple(out))  # out is legal, so reduced

    def _apply_inverse(self, addr: Address) -> Address:
        """Strip the word, then solve the portrait letter by letter.

        The permutation acting on letter j depends only on the already
        recovered domain prefix, so the preimage unrolls front to back,
        with lookups down to the deepest site as in _apply.  The address
        must be legal; it stays legal once the word is stripped.
        """
        if self.word:
            addr = _join_reduced(self.word[::-1], addr)
        smap, reach = self.site_map, self.depth
        out: list[int] = []
        if self.shape.kind == "rooted":
            for z in addr[: reach + 1]:
                site = smap.get(tuple(out))
                out.append(site[1][z] if site is not None else z)
            return tuple(out) + addr[reach + 1:]
        site = smap.get(ROOT)
        prefix: Address = ROOT
        for z in addr[:reach]:
            y = site[1][z] if site is not None else z
            out.append(y)
            prefix = prefix + (y,)
            if prefix in smap:
                site = smap[prefix]
        tail = addr[reach:]
        out.extend(tail if site is None else [site[1][z] for z in tail])
        return tuple(out)

    def realize(self, r: int) -> dict:
        return _table(r, _moved(self, ROOT, r))


def _one_site(shape: TreeShape, v: Address, images: tuple[int, ...]):
    """``_apply`` of a spec with no word and the one site v.

    Only an address through v moves.  On rooted shapes the site permutes
    the letter right after v; on regular shapes it recolours every letter
    after v, as no deeper site overrides it.
    """
    n = len(v)
    if shape.kind == "rooted":
        def apply(addr: Address) -> Address:
            if len(addr) > n and addr[:n] == v:
                return v + (images[addr[n]],) + addr[n + 1:]
            return addr
    else:
        def apply(addr: Address) -> Address:
            if addr[:n] == v:
                return v + tuple([images[x] for x in addr[n:]])
            return addr
    return apply


def _moved(u, c: Address, r: int):
    """(x, u(x)) for each point x within distance r of c that u moves,
    read through the unchecked _apply: the points strictly below u's
    sites, or the whole ball about c when u states no support."""
    shape, image = u.shape, u._apply
    if u.support is None:
        points = chain((ROOT,) if len(c) <= r else (), _slice(shape, ROOT, c, r))
    else:
        points = chain.from_iterable(_slice(shape, v, c, r) for v in u.support)
    for x in points:
        y = image(x)
        if y != x:
            yield x, y


def hyperbolic_isometry(shape: TreeShape, axis) -> IsometrySpec:
    """Translation along the axis spelled by a colour word.

    For a cyclically reduced word of length two or more this is plain
    left multiplication, with translation length the word length.  A
    single colour c yields the unit translation along the alternating
    axis through c: left multiplication by c composed with the global
    recolouring swapping c with the smallest other colour.  Words that
    are merely freely reduced but not cyclically reduced are rejected;
    shift the starting vertex instead of smuggling the conjugator in.
    """
    if shape.kind != "regular":
        raise ValueError("translations need a regular shape")
    axis = tuple(axis)
    if not axis:
        raise ValueError("empty axis word")
    for c in axis:
        if not 0 <= c < shape.degree:
            raise ValueError(f"colour {c} out of range")
    if free_reduce(axis) != axis:
        raise ValueError("axis word is not freely reduced")
    if len(axis) == 1:
        c = axis[0]
        partner = min(d for d in shape.colours() if d != c)
        images = list(range(shape.degree))
        images[c], images[partner] = partner, c
        swap = Perm(tuple(images))
        return IsometrySpec(shape, word=axis, sites=((ROOT, swap),))
    if axis[0] == axis[-1]:
        raise ValueError("axis word is not cyclically reduced")
    return IsometrySpec(shape, word=axis)


@dataclass(frozen=True)
class SpecWord:
    """Formal product of spec powers, applied rightmost factor first.

    Conjugates and commutators of recipes stay exactly evaluable at any
    depth this way, with no precision loss: a ball table of the product
    is built by applying each factor pointwise.  A factor may itself be a
    SpecWord; it is spelled out when the product is built, a power e >= 0
    as its factors repeated e times and a power e < 0 as its inverse's
    factors repeated -e times, so ``factors`` holds IsometrySpec atoms.
    """

    shape: TreeShape
    factors: tuple[tuple[IsometrySpec, int], ...]

    def __post_init__(self) -> None:
        atoms: list = []
        for f, e in self.factors:
            if isinstance(f, SpecWord):
                atoms.extend((f if e >= 0 else f.inverse()).factors * abs(e))
            else:
                atoms.append((f, e))
        object.__setattr__(self, "factors", tuple(atoms))
        if len(atoms) == 1 and abs(atoms[0][1]) == 1:
            # one letter, as each ActionContext generator is: skip the loop
            spec, e = atoms[0]
            object.__setattr__(self, "_apply", spec._apply if e == 1 else spec._apply_inverse)

    @classmethod
    def of(cls, *specs: IsometrySpec) -> "SpecWord":
        if not specs:
            raise ValueError("empty product has no shape")
        shape = specs[0].shape
        return cls(shape, tuple((s, 1) for s in specs))

    @classmethod
    def conjugate(cls, g: IsometrySpec, u: IsometrySpec, k: int) -> "SpecWord":
        """The product g^k u g^-k."""
        return cls(g.shape, ((g, k), (u, 1), (g, -k)))

    def inverse(self) -> "SpecWord":
        return SpecWord(
            self.shape,
            tuple((s, -e) for s, e in reversed(self.factors)),
        )

    def apply(self, addr: Address) -> Address:
        # checked once here: images of a legal address are legal
        addr = tuple(addr)
        self.shape.require_legal(addr)
        return self._apply(addr)

    def _apply(self, addr: Address) -> Address:
        for spec, exp in reversed(self.factors):
            if exp >= 0:
                for _ in range(exp):
                    addr = spec._apply(addr)
            else:
                for _ in range(-exp):
                    addr = spec._apply_inverse(addr)
        return addr

    @property
    def displacement(self) -> int:
        return len(self.apply(ROOT))

    @property
    def support(self) -> None:
        """A product states no support: it may move anything."""
        return None

    def realize(self, r: int) -> dict:
        return _table(r, _moved(self, ROOT, r))

    def is_identity_on(self, r: int) -> bool:
        return next(_moved(self, ROOT, r), None) is None


# -- conjugates -----------------------------------------------------------------


def _conjugate_moves(g, k: int, r: int):
    """``moves(u)``: the moved part of the conjugate g^k u g^-k on B_r.

    ``moves(u)`` lazily yields (a, b) for each ball point a that the
    conjugate moves, and its image b: for each (x, u(x)) that _moved
    yields about c = g^-k(v0), computed once, a = g^k(x) and
    b = g^k(u(x)), each pushed forward once, through a memo that every
    u of this power shares.
    """
    shape = g.shape
    c = SpecWord(shape, ((g, -k),))._apply(ROOT)
    forth = SpecWord(shape, ((g, k),))._apply
    pushed: dict = {}

    def moves(u):
        for x, y in _moved(u, c, r):
            for z in (x, y):
                if z not in pushed:
                    pushed[z] = forth(z)
            yield pushed[x], pushed[y]

    return moves


def conjugate_families(g, ks, us, r: int) -> dict:
    """Radius-r ball tables of the conjugates g^k u g^-k, one list per
    power k in ks, keyed by k, one table per u: the moved points that
    ``_conjugate_moves`` yields.
    """
    out: dict = {}
    for k in set(ks):
        moves = _conjugate_moves(g, k, r)
        out[k] = [_table(r, moves(u)) for u in us]
    return out


def spec_image_clopen(mover, clopen: CylinderClopen) -> CylinderClopen:
    """Forward image of a clopen under an exact recipe.

    The clopen is refined to atoms of depth at least the displacement
    plus one, so every atom lies strictly beyond the segment from the
    base vertex to its image.  Past that segment the image of the
    cylinder at an atom b is exactly the cylinder at the image of b, so
    the image clopen is covered by the images of the atoms.  Exact
    application means depth never runs out.
    """
    if clopen.shape != mover.shape:
        raise ValueError("clopen and recipe live on different shapes")
    image = mover._apply  # atoms of a canonical clopen are legal addresses
    depth = max(clopen.depth, len(image(ROOT)) + 1)
    images = [image(atom) for atom in clopen.refine(depth)]
    return CylinderClopen.from_addresses(clopen.shape, images)


# -- the universal group at finite depth ----------------------------------------


def in_universal_group(shape: TreeShape, table: dict, local: FiniteGroup) -> bool:
    """All local actions a ball table realizes lie in the given colour group.

    The local action at a vertex reads the images of the vertex and its
    neighbours, so it is the identity, which the group holds, unless the
    vertex moves one of its children.  A fixed vertex that moves a
    neighbour permutes its neighbours, so it moves a child; a moved
    vertex moves a child too, as two vertices of a tree share at most
    one neighbour.  So only the parents of moved vertices are read.
    Local actions are compared as image tuples, so no Perm is built: on
    rooted shapes the last letters of the children's images, on regular
    shapes, per colour, the last letter of the neighbour's image when it
    lies below the vertex's image, else the last letter of that image.
    """
    if local.degree != shape.degree:
        raise ValueError("local group degree does not match the shape")
    allowed, get = local.image_set, table.get
    for v in {b[:-1] for b in table if b}:
        if shape.kind == "rooted":
            images = [get(b, b)[-1] for b in shape.children(v)]
        else:
            iv = get(v, v)
            below = len(iv) + 1
            images = []
            for c in shape.colours():
                nb = step(shape, v, c)
                inb = get(nb, nb)
                images.append(inb[-1] if len(inb) == below else iv[-1])
        if tuple(images) not in allowed:
            return False
    return True


def site_group(shape: TreeShape, local: FiniteGroup, v: Address) -> FiniteGroup:
    """Colour permutations a single-site decoration at v may carry.

    The whole local group at the base vertex and on rooted shapes; below
    the base vertex of a regular shape, the stabiliser of v's return
    colour, so the decoration extends by the identity toward the base.
    """
    if v == ROOT or shape.kind == "rooted":
        return local
    return local.point_stabilizer(v[-1])


def site_pools(shape: TreeShape, local: FiniteGroup, n: int) -> list[tuple[FiniteGroup, int]]:
    """(site group, count) pairs: the depth-n truncation is built from
    ``count`` copies of each site group, one per vertex above depth n that
    carries it (Burger and Mozes 2000, section 3).  Rooted: the local group
    at each vertex of the (n-1)-ball.  Regular: the local group at the base
    vertex, then each colour's stabiliser at the (q-1)**(k-1) vertices of
    each level 0 < k < n with that return colour.
    """
    if n < 1:
        raise ValueError("need depth at least 1")
    if local.degree != shape.degree:
        raise ValueError("local group degree does not match the shape")
    if shape.kind == "rooted":
        return [(local, shape.ball_size(n - 1))]
    below = sum((shape.degree - 1) ** (k - 1) for k in range(1, n))
    return [(local, 1)] + [(site_group(shape, local, (c,)), below) for c in shape.colours()]


def site_decorations(shape: TreeShape, local: FiniteGroup, vertices) -> list[IsometrySpec]:
    """Single-site decorations, one per generator of the site group at
    each vertex, in the order the vertices are given."""
    return [
        IsometrySpec(shape, sites=((v, perm),))
        for v in vertices
        for perm in site_group(shape, local, v).pruned_gens
    ]


def child_orbits(shape: TreeShape, local: FiniteGroup, v: Address) -> list[list[int]]:
    """The child letters of v split along the orbits of its site group,
    each split sorted, in the order of the orbits' least points."""
    letters = set(shape.child_letters(v))
    splits = (sorted(orb & letters) for orb in site_group(shape, local, v).orbits())
    return [split for split in splits if split]


def site_permutations(shape: TreeShape, local: FiniteGroup, vertices, n: int) -> list[Perm]:
    """The decorations at ``vertices``, as ``site_decorations`` lists them,
    as permutations of the n-sphere in ``sphere_list`` order; each vertex
    lies above depth n, so its decoration permutes the sphere."""
    if local.degree != shape.degree:
        raise ValueError("local group degree does not match the shape")
    points = sphere_list(shape, n)
    index = {a: i for i, a in enumerate(points)}
    return [
        Perm(tuple(index[spec._apply(a)] for a in points))
        for spec in site_decorations(shape, local, vertices)
    ]


def level_group(shape: TreeShape, local: FiniteGroup, n: int) -> FiniteGroup:
    """Depth-n truncation as a permutation group on the n-sphere.

    Rooted: the full iterated wreath product of the local group.  Regular:
    the truncation of the base-vertex stabiliser.  Either way it is
    generated by the site decorations at the vertices above depth n.
    """
    if n < 1:
        raise ValueError("need depth at least 1")
    return FiniteGroup(shape.sphere_size(n), site_permutations(shape, local, shape.ball(n - 1), n))


def level_order(shape: TreeShape, local: FiniteGroup, n: int) -> int:
    """Order of the depth-n truncation, by counting free choices per site."""
    return prod(group.order ** count for group, count in site_pools(shape, local, n))


def local_prime_content(
    shape: TreeShape, local: FiniteGroup, depth: int
) -> dict:
    """Primes whose share of the truncation orders keeps growing.

    Reads the exponent of each prime off the level orders up to the given
    depth and keeps the primes whose exponent strictly increases at every
    step.  This is a finite-depth verdict: the window is reported so the
    caller knows how far the growth was actually checked.
    """
    if depth < 2:
        raise ValueError("need at least two levels to compare")
    orders = [level_order(shape, local, n) for n in range(1, depth + 1)]
    primes = sorted(prime_factors(orders[-1]))
    exponents = {
        p: [prime_factors(o).get(p, 0) for o in orders] for p in primes
    }
    growing = {
        p
        for p, exps in exponents.items()
        if all(b > a for a, b in zip(exps, exps[1:]))
    }
    return {
        "depth": depth,
        "orders": orders,
        "exponents": exponents,
        "growing_primes": growing,
    }


def congruence_kernel(
    group: FiniteGroup, shape: TreeShape, n: int, k: int
) -> FiniteGroup:
    """Elements of a depth-n level group acting trivially down to depth k.

    Built by Schreier's lemma (Seress, *Permutation Group Algorithms*,
    2003, Lemma 4.2.1), so ``group`` is never closed.  A breadth-first
    search over the action on the depth-k vertices keeps one
    representative per image of that action: an element is keyed by the
    depth-k prefixes of its images at one sphere point below each depth-k
    vertex.  When a product s * t of a generator and a representative
    repeats the key of a representative r, the Schreier generator
    r^-1 * (s * t) acts trivially down to depth k, and these generate the
    kernel.  The returned group's ``gens`` are those Schreier generators
    in search order, duplicates and the identity dropped.  This costs
    |G : K| * |S| products for the generators S of ``group``.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    points = sphere_list(shape, n)
    if group.degree != len(points):
        raise ValueError(
            f"group has degree {group.degree}, but the depth-{n} sphere "
            f"has {len(points)} points"
        )
    if k == n:
        # a permutation group acts faithfully on the points it permutes
        return FiniteGroup(group.degree, (), cap=group.cap)
    index = {v: j for j, v in enumerate(sphere_list(shape, k))}
    block = [index[a[:k]] for a in points]
    probe: dict[int, int] = {}
    for i, b in enumerate(block):
        probe.setdefault(b, i)
    probes = tuple(probe.values())

    def key(x: Perm) -> tuple[int, ...]:
        images = x.images
        return tuple([block[images[i]] for i in probes])

    identity = group.identity()
    reps = {key(identity): identity}
    schreier: dict[Perm, None] = {}
    frontier = [identity]
    while frontier:
        fresh = []
        for t in frontier:
            for s in group.gens:
                x = s * t
                kx = key(x)
                r = reps.get(kx)
                if r is None:
                    reps[kx] = x
                    fresh.append(x)
                else:
                    schreier[r.inverse() * x] = None
        frontier = fresh
    return FiniteGroup(group.degree, tuple(schreier), cap=group.cap)


# -- orbit structure -----------------------------------------------------------


def sphere_orbit_classes(
    shape: TreeShape, local: FiniteGroup, depth: int
) -> dict:
    """Orbits of the truncated base stabiliser on each sphere, structurally.

    A class is named by its least representative, and its children split
    as the representative's ``child_orbits``.  Per vertex that is at most
    degree - 1 classes away from the base vertex; at the base vertex
    itself a small local group can leave all degree directions separate.
    """
    if local.degree != shape.degree:
        raise ValueError("local group degree does not match the shape")
    classes: dict[int, list[Address]] = {0: [ROOT]}
    for k in range(depth):
        classes[k + 1] = sorted(
            rep + (split[0],) for rep in classes[k] for split in child_orbits(shape, local, rep)
        )
    return {
        "classes": classes,
        "counts": {k: len(v) for k, v in classes.items()},
    }


# -- graph exports ---------------------------------------------------------------


def schreier_dot(group: FiniteGroup, point: int) -> str:
    """Schreier graph of the orbit of a point, one edge per generator."""
    if not 0 <= point < group.degree:
        raise ValueError(f"point {point} is not in 0..{group.degree - 1}")
    orbit = sorted(group.orbit(point))
    lines = ["digraph schreier {"]
    for x in orbit:
        shapebit = ", shape=doublecircle" if x == point else ""
        lines.append(f'  n{x} [label="{x}"{shapebit}];')
    for i, g in enumerate(group.pruned_gens):
        for x in orbit:
            lines.append(f'  n{x} -> n{g(x)} [label="g{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cayley_abels_dot(
    shape: TreeShape, local: FiniteGroup, radius: int
) -> str:
    """Quotient of the radius ball by the orbit classes of the stabiliser.

    Nodes are orbit class representatives, edges go from each class to
    the classes of its children.
    """
    info = sphere_orbit_classes(shape, local, radius)
    classes = info["classes"]
    lines = ["graph cayley_abels {"]
    names: dict[Address, str] = {}
    for k in sorted(classes):
        for rep in classes[k]:
            names[rep] = f"c{len(names)}"
            label = format_address(shape, rep) if rep != ROOT else "base"
            lines.append(f'  {names[rep]} [label="{label}"];')
    for k in sorted(classes):
        if k == 0:
            continue
        for rep in classes[k]:
            parent = rep[:-1]
            # parent reps are class representatives by construction
            lines.append(f"  {names[parent]} -- {names[rep]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
