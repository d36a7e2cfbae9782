"""Finite permutation groups by closures grown on image tuples.

Everything here is desk scale by design: groups are materialised as full
element sets behind a hard cap (default 2**20).  A group stores its
elements as one frozenset of image tuples, ``image_set``, and builds
``Perm`` objects only when a caller asks for them (``element_set``,
``element_list``, ``conjugacy_classes``, generators); every structural
computation below reads and writes the tuples.  One kernel, ``_grow``,
closes a set of image tuples under new generators one right coset at a
time (Dimino's algorithm; Butler, *Fundamental Algorithms for
Permutation Groups*, 1991), and it resumes from a closed set:
``FiniteGroup`` closes from the identity with it, and ``normal_closure``
grows one set over its rounds instead of closing again from nothing.
No normal-subgroup lattice is built.  Cores grow class by class through
normal closures capped at the largest order the core can have, and
residuals from generating sets.  The maximal normal subgroups with a
non-abelian quotient grow class by class the same way, one per round,
each round avoiding a normal subgroup of the soluble residual.  A
composition step of prime index p takes a hyperplane of G/G'G^p, and the
Melnikov subgroup meets the G'G^p over the primes p dividing |G:G'| with
the maximals of non-abelian quotient.  No Schreier-Sims machinery: the
one use of Schreier's lemma is tree.congruence_kernel, which generates a
level group's congruence kernel from Schreier generators without closing
the level group.  Determinism everywhere, with ties broken by the
lexicographic order on permutation image tuples.
"""
from __future__ import annotations

import itertools
import math
from functools import cache, cached_property, total_ordering

from .errors import ClosureCapExceeded

DEFAULT_CAP = 2**20


@cache
def _identity_images(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def _invert(images: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[y] = x
    return tuple(out)


def _conjugate(x: tuple[int, ...], g: tuple[int, ...], g_inv: tuple[int, ...]) -> tuple[int, ...]:
    """g * x * g^-1 on image tuples, given g's inverse."""
    return tuple([g[x[y]] for y in g_inv])


def _order(images: tuple[int, ...]) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    seen = bytearray(len(images))
    out = 1
    for start, x in enumerate(images):
        if x == start or seen[start]:
            continue
        length = 1
        while x != start:
            seen[x] = 1
            x = images[x]
            length += 1
        out = math.lcm(out, length)
    return out


@total_ordering
class Perm:
    """Permutation of {0..degree-1}; (p * q)(x) = p(q(x))."""

    __slots__ = ("images", "_inverse")

    def __init__(self, images: tuple[int, ...] | list[int]) -> None:
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images!r}")
        self.images = images
        self._inverse = None

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap images already known to form a permutation, unchecked.

        Products, conjugates and inverses of permutations come through
        here, and so does every element a group hands out: groups keep
        image tuples and build a ``Perm`` only when asked for one.
        """
        p = object.__new__(cls)
        p.images = images
        p._inverse = None
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        mine, theirs = self.images, other.images
        if len(theirs) != len(mine):
            raise ValueError("degree mismatch")
        return Perm._trusted(tuple([mine[y] for y in theirs]))

    def inverse(self) -> "Perm":
        """The inverse permutation, built once and then kept."""
        inv = self._inverse
        if inv is None:
            inv = self._inverse = Perm._trusted(_invert(self.images))
        return inv

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        out = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate_by(self, g: "Perm") -> "Perm":
        """g * self * g^-1, composed in one pass."""
        mine, theirs = self.images, g.images
        if len(theirs) != len(mine):
            raise ValueError("degree mismatch")
        return Perm._trusted(_conjugate(mine, theirs, g.inverse().images))

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def order(self) -> int:
        return _order(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                seen.add(start)
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Perm({self.images!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, *cycles: tuple[int, ...]) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                if not (0 <= x < degree):
                    raise ValueError(f"point {x} out of range for degree {degree}")
                images[x] = cyc[(i + 1) % len(cyc)]
        # rebuild to catch overlapping cycles producing a non-bijection
        return Perm(tuple(images))


def parse_perm(text: str, degree: int) -> Perm:
    """Parse cycle notation like '(0 1 2)(3 4)'; '()' is the identity."""
    text = text.strip()
    if text in ("()", "", "e", "id"):
        return Perm.identity(degree)
    if not text.startswith("("):
        raise ValueError(f"cycle notation must start with '(': {text!r}")
    cycles = []
    depth_open = False
    current: list[int] = []
    token = ""

    def flush_token() -> None:
        nonlocal token
        if token:
            current.append(int(token))
            token = ""

    for ch in text:
        if ch == "(":
            if depth_open:
                raise ValueError(f"nested '(' in {text!r}")
            depth_open = True
            current = []
        elif ch == ")":
            if not depth_open:
                raise ValueError(f"unbalanced ')' in {text!r}")
            flush_token()
            if len(current) < 2:
                raise ValueError(f"cycle needs at least two points: {text!r}")
            if len(set(current)) != len(current):
                raise ValueError(f"repeated point inside a cycle: {text!r}")
            cycles.append(tuple(current))
            depth_open = False
        elif ch.isdigit():
            if not depth_open:
                raise ValueError(f"point outside a cycle in {text!r}")
            token += ch
        elif ch in " ,":
            flush_token()
        else:
            raise ValueError(f"unexpected character {ch!r} in cycle notation")
    if depth_open:
        raise ValueError(f"unbalanced '(' in {text!r}")
    seen: set[int] = set()
    for cyc in cycles:
        if seen & set(cyc):
            raise ValueError(f"cycles overlap in {text!r}")
        seen |= set(cyc)
    return Perm.from_cycles(degree, *cycles)


class FiniteGroup:
    """Permutation group given by generators; elements closed lazily."""

    def __init__(
        self,
        degree: int,
        generators: list[Perm] | tuple[Perm, ...],
        cap: int = DEFAULT_CAP,
    ) -> None:
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.gens = tuple(g for g in generators if not g.is_identity())
        self.cap = cap

    # -- closure -------------------------------------------------------------

    def _close(self) -> frozenset[tuple[int, ...]]:
        """The image set, grown from the identity over ``gens``; the
        generators kept on the way become ``pruned_gens``."""
        seen = {_identity_images(self.degree): None}
        kept: list[Perm] = []
        _grow(seen, kept, self.gens, self.cap)
        self.__dict__["pruned_gens"] = tuple(kept)
        return frozenset(seen)

    @cached_property
    def image_set(self) -> frozenset[tuple[int, ...]]:
        """The elements as image tuples: the one stored element set."""
        return self._close()

    @cached_property
    def element_set(self) -> frozenset[Perm]:
        return frozenset(map(Perm._trusted, self.image_set))

    @cached_property
    def pruned_gens(self) -> tuple[Perm, ...]:
        """Non-redundant generating subset found while closing."""
        # The closure runs even for a group handed its image set, such as
        # the Melnikov subgroup, as it picks the generators; the group
        # keeps the image set it was given.
        self.__dict__.setdefault("image_set", self._close())
        return self.__dict__["pruned_gens"]

    @cached_property
    def element_list(self) -> tuple[Perm, ...]:
        return tuple(map(Perm._trusted, sorted(self.image_set)))

    @property
    def order(self) -> int:
        return len(self.image_set)

    def __contains__(self, p: Perm) -> bool:
        return p.images in self.image_set

    def contains_group(self, other: "FiniteGroup") -> bool:
        return other.image_set <= self.image_set

    def same_group(self, other: "FiniteGroup") -> bool:
        return self.degree == other.degree and self.image_set == other.image_set

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    # -- actions -------------------------------------------------------------

    def orbit(self, point: int) -> frozenset[int]:
        seen = {point}
        frontier = [point]
        while frontier:
            fresh = []
            for x in frontier:
                for g in self.gens:
                    y = g(x)
                    if y not in seen:
                        seen.add(y)
                        fresh.append(y)
            frontier = fresh
        return frozenset(seen)

    def orbits(self) -> list[frozenset[int]]:
        left = set(range(self.degree))
        out = []
        while left:
            orb = self.orbit(min(left))
            out.append(orb)
            left -= orb
        return out

    def point_stabilizer(self, point: int) -> "FiniteGroup":
        """The stabiliser of a point, built once per point and then kept."""
        key = ("point_stabilizer", point)
        if key not in self.invariant_memo:
            elems = [Perm._trusted(x) for x in sorted(self.image_set) if x[point] == point]
            self.invariant_memo[key] = FiniteGroup(self.degree, elems, cap=self.cap)
        return self.invariant_memo[key]

    # -- conjugacy and normality ----------------------------------------------

    @cached_property
    def _conjugators(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Each pruned generator's image tuple beside its inverse's."""
        return tuple((g.images, _invert(g.images)) for g in self.pruned_gens)

    @cached_property
    def _classes(self) -> tuple[frozenset[tuple[int, ...]], ...]:
        """The conjugacy classes as image sets, in the order of their
        least elements, each found by a breadth-first search under
        conjugation by the pruned generators."""
        by = self._conjugators
        seen: set[tuple[int, ...]] = set()
        classes = []
        for x in sorted(self.image_set):
            if x in seen:
                continue
            orb = {x}
            frontier = [x]
            while frontier:
                fresh = []
                for y in frontier:
                    for g, g_inv in by:
                        z = _conjugate(y, g, g_inv)
                        if z not in orb:
                            orb.add(z)
                            fresh.append(z)
                frontier = fresh
            seen |= orb
            classes.append(frozenset(orb))
        return tuple(classes)

    @cached_property
    def conjugacy_classes(self) -> tuple[frozenset[Perm], ...]:
        return tuple(frozenset(map(Perm._trusted, cls)) for cls in self._classes)

    def subgroup(self, gens: list[Perm] | tuple[Perm, ...]) -> "FiniteGroup":
        return FiniteGroup(self.degree, tuple(gens), cap=self.cap)

    def subgroup_from_elements(self, elems) -> "FiniteGroup":
        return FiniteGroup(self.degree, tuple(sorted(elems)), cap=self.cap)

    def normalises(self, other: "FiniteGroup") -> bool:
        """Every element of self conjugates other onto itself.

        Conjugation by a fixed g is an automorphism, so it suffices that
        each generator of self sends each generator of other into other.
        """
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        elems = other.image_set
        return all(
            _conjugate(x.images, g, g_inv) in elems
            for x in other.pruned_gens
            for g, g_inv in self._conjugators
        )

    def is_normal(self, other: "FiniteGroup") -> bool:
        return self.contains_group(other) and self.normalises(other)

    # -- derived structure ---------------------------------------------------------

    def normal_closure(self, seed: list[Perm] | tuple[Perm, ...]) -> "FiniteGroup":
        """Smallest normal subgroup containing the seed elements.

        One set of image tuples grows over the rounds and is never closed
        again from nothing (Holt, Eick and O'Brien, *Handbook of
        Computational Group Theory*, 2005, section 3.3).  A round grows
        the set by the last round's additions, then conjugates the
        generators it kept by ``self.pruned_gens``; the conjugates that
        are not yet members are the next additions.  A conjugate of a
        generator kept in an earlier round is a member already.  The
        result's generators are the seed and then every round's
        additions, so ``gens``, ``pruned_gens`` and ``image_set`` are
        those of the subgroup those generators span.
        """
        return self._normal_closure_over({_identity_images(self.degree): None}, [], seed)

    def _normal_closure_over(self, seen: dict, kept: list[Perm], seed, cap=None) -> "FiniteGroup":
        """``normal_closure`` of the seed and the normal subgroup that
        ``seen`` holds and ``kept`` spans; both grow in place.  Conjugates
        of ``kept`` lie in ``seen`` already, so the rounds start at the
        seed, and the result's generators are ``kept`` and then those of
        ``normal_closure``; past ``cap``, by default the group's, it raises."""
        # The constructor checks degrees, which tuple products do not.
        closure = self.subgroup([*kept, *(p for p in seed if not p.is_identity())])
        new = closure.gens[len(kept):]
        while new:
            done = len(kept)
            _grow(seen, kept, new, cap or self.cap)
            new = tuple(
                Perm._trusted(y)
                for x in kept[done:]
                for g, g_inv in self._conjugators
                if (y := _conjugate(x.images, g, g_inv)) not in seen
            )
            closure.gens += new
        closure.__dict__["image_set"] = frozenset(seen)
        closure.__dict__["pruned_gens"] = tuple(kept)
        return closure

    @cached_property
    def _derived(self) -> "FiniteGroup":
        by = self._conjugators
        comms = [
            Perm._trusted(tuple([a[b[a_inv[x]]] for x in b_inv]))
            for a, a_inv in by
            for b, b_inv in by
        ]
        return self.normal_closure(comms)

    def derived_subgroup(self) -> "FiniteGroup":
        return self._derived

    def is_soluble(self) -> bool:
        return prosoluble_residual(self).order == 1

    @cached_property
    def invariant_memo(self) -> dict:
        """Per-instance store for derived invariants keyed by name."""
        return {}


def _grow(
    seen: dict[tuple[int, ...], None],
    kept: list[Perm],
    gens: list[Perm] | tuple[Perm, ...],
    cap: int,
) -> None:
    """Grow a closed set of image tuples by gens, in place, one right
    coset at a time (Dimino's algorithm; G. Butler, *Fundamental
    Algorithms for Permutation Groups*, LNCS 559, Springer, 1991).

    ``seen`` holds the group H spanned by ``kept``.  A generator g
    already in ``seen`` is pruned; any other joins ``kept`` and adds the
    coset H g.  Then each coset representative r times each kept
    generator s is tested: H r s is the coset of r s, so a product not
    yet seen adds its whole coset untested, right cosets being disjoint,
    and becomes a representative.  A coset that would pass the cap
    raises before it is built, so ``seen`` never holds more than ``cap``
    tuples.  Products are formed on the tuples, with no degree check:
    every generator must have the degree of ``seen``.
    """
    kept_images = [h.images for h in kept]
    for g in gens:
        if g.images in seen:
            continue
        kept.append(g)
        kept_images.append(g.images)
        group, reps = list(seen), [g.images]
        _add_coset(seen, group, g.images, cap)
        for r in reps:
            for s in kept_images:
                y = tuple([r[i] for i in s])
                if y not in seen:
                    _add_coset(seen, group, y, cap)
                    reps.append(y)


def _add_coset(seen: dict, group: list, y: tuple[int, ...], cap: int) -> None:
    """Add the right coset H y, H listed in ``group``, to ``seen``, or
    raise if it would pass the cap.  y goes in first, so ``seen`` keeps
    the representative itself and not a copy of it."""
    if len(seen) + len(group) > cap:
        raise ClosureCapExceeded(cap)
    seen[y] = None
    for h in group:
        seen[tuple([h[i] for i in y])] = None


# -- number-theoretic helpers ----------------------------------------------


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_pi_number(n: int, pi: frozenset[int] | set[int]) -> bool:
    return all(p in pi for p in prime_factors(n))


# -- normal structure by class closures ---------------------------------------


def _grow_by_classes(g: FiniteGroup, keep, admits, cap: int) -> FiniteGroup:
    """A normal subgroup N of g grown greedily class by class from the
    trivial one: for each class in the order of least elements, whose
    least element x is outside N and passes ``admits``, the normal
    closure of N and x replaces N when it passes ``keep``.  That closure
    grows from a copy of N's set (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, section 3.3) up to ``cap``, and
    one that raises is rejected.  Say ``admits`` holds on every element of
    a normal subgroup that passes, and ``keep`` fails on every normal
    subgroup past the cap and on every one holding one that fails.  Then
    N is maximal among the normal subgroups that pass: one holding N
    properly holds a class outside N, and with it the closure tried at
    that class's round, which would have passed.
    """
    n = g.normal_closure(())
    for cls in g._classes:
        rep = min(cls)
        if rep in n.image_set or not admits(rep):
            continue
        seen, kept = dict.fromkeys(n.image_set), list(n.pruned_gens)
        try:
            grown = g._normal_closure_over(seen, kept, (Perm._trusted(rep),), cap)
        except ClosureCapExceeded:
            continue
        if keep(grown):
            n = grown
    return n


def _radical(g: FiniteGroup, key: tuple, keep, admits, bound) -> FiniteGroup:
    """The largest normal subgroup of g passing ``keep``, memoised under
    key, grown by ``_grow_by_classes``.

    For the properties used here, being a pi-group and being soluble, a
    product of two normal subgroups that pass passes again, and so does
    every subgroup of one that passes.  So the greedy growth ends at the
    largest one: x lies in the radical exactly when its normal closure
    passes.  The cap ``bound()``, at most |g| and read on a memo miss,
    is an order past which no radical grows.  ``admits`` holds on the
    radical, as a pi-core holds only pi-elements, so a class whose least
    element fails it is skipped.
    """
    if key not in g.invariant_memo:
        g.invariant_memo[key] = _grow_by_classes(g, keep, admits, bound())
    return g.invariant_memo[key]


def pi_core(g: FiniteGroup, pi: set[int] | frozenset[int]) -> FiniteGroup:
    """Largest normal subgroup whose order uses only primes in pi."""
    pi = frozenset(pi)
    keep, admits = (lambda n: is_pi_number(n.order, pi)), (lambda x: is_pi_number(_order(x), pi))
    pi_part = lambda: math.prod(p**e for p, e in prime_factors(g.order).items() if p in pi)
    return _radical(g, ("pi_core", pi), keep, admits, pi_part)


def pi_residual(g: FiniteGroup, pi: set[int] | frozenset[int]) -> FiniteGroup:
    """Smallest normal subgroup with a pi-group quotient.

    Generated by all pi'-elements: their images in any pi-quotient are
    trivial, and the quotient by their span has pi order by Cauchy.
    This needs no search over normal subgroups, whose number explodes on
    elementary abelian sections.  The span grows while the elements are
    scanned in order, and an element already in it is skipped untested;
    the generators are the pi'-elements kept on the way.
    """
    pi = frozenset(pi)
    seen = {_identity_images(g.degree): None}
    kept: list[Perm] = []
    for x in sorted(g.image_set):
        # An element of the residual grown so far needs no order test.
        if x not in seen and all(p not in pi for p in prime_factors(_order(x))):
            _grow(seen, kept, (Perm._trusted(x),), g.cap)
    residual = g.subgroup(kept)
    residual.__dict__["image_set"] = frozenset(seen)
    residual.__dict__["pruned_gens"] = tuple(kept)
    return residual


def prosoluble_core(g: FiniteGroup) -> FiniteGroup:
    """Largest soluble normal subgroup, the soluble radical.  Over it a
    non-soluble g leaves a non-soluble quotient, of order 60 at least."""
    bound = lambda: g.order if g.is_soluble() else g.order // 60
    return _radical(g, ("prosoluble_core",), FiniteGroup.is_soluble, lambda x: True, bound)


def prosoluble_residual(g: FiniteGroup) -> FiniteGroup:
    """Smallest normal subgroup with a soluble quotient.

    This is the stable term of the derived series: quotients by later
    terms are soluble by construction, and any normal subgroup with a
    soluble quotient absorbs every term.  Computed by iteration.
    """
    current = g
    while True:
        nxt = current.derived_subgroup()
        if nxt.order == current.order:
            return nxt
        current = nxt


def _non_abelian_maximals(g: FiniteGroup) -> list[FiniteGroup]:
    """The maximal normal subgroups of g with a non-abelian quotient, in
    the order found.

    Let P be the soluble residual.  A maximal normal subgroup has a
    simple quotient, and it has a non-abelian one exactly when it does
    not contain P.  Let I be the meet of the ones found so far, and
    T = I n P.  A further one M is new exactly when it does not contain
    T: G/I is the direct product of the simple quotients found, so M
    holds I only if it is one of them, and otherwise IM = PM = G, so the
    image of [I, P], inside T, is that of [G, G] in the perfect G/M.

    Every normal X that does not contain T has a non-soluble G/X, of
    order 60 at least, so each trial closure is capped at |G|/60.  A
    round grows N class by class while it does not contain T
    (``_grow_by_classes``).  Then N is maximal among such subgroups, and
    TN/N is the only minimal normal subgroup of G/N.  N is a new maximal
    when TN = G, that is when |T| |N| = |G| |T n N|.  Otherwise every
    new maximal M has MN = G, as N is not inside M, and G/M is perfect,
    so M misses part of [T, N], which lies in T n N.  Either way T n N
    replaces T.  It is strictly smaller each round, and a trivial T ends
    the search.
    """
    t = prosoluble_residual(g).image_set
    cap = g.order // 60
    found = []
    while len(t) > 1:
        n = _grow_by_classes(g, lambda n, t=t: not t <= n.image_set, lambda x: True, cap)
        if len(t) * n.order == g.order * len(t & n.image_set):
            found.append(n)
        t = t & n.image_set
    return found


_ALTERNATING_ORDERS = {60: 5, 360: 6, 2520: 7}
# Below order 20160 a finite simple group is determined by its order, so the
# same-order isomorphism check for labels degenerates to a table lookup.


def _simple_label_of_order(n: int) -> str:
    fac = prime_factors(n)
    if len(fac) == 1 and sum(fac.values()) == 1:
        return f"C{n}"
    if n in _ALTERNATING_ORDERS:
        return f"A{_ALTERNATING_ORDERS[n]}"
    return f"simple[{n}]"


def _power_kernel(g: FiniteGroup, p: int) -> tuple[dict[tuple[int, ...], None], list[Perm]]:
    """G'G^p, the meet of the normal subgroups of g whose quotient is
    elementary abelian of exponent p, as ``_grow`` leaves it: its image
    tuples and its kept generators.  G/G' is abelian, so its p-th powers
    are spanned by those of the generators."""
    derived = g.derived_subgroup()
    seen = dict.fromkeys(derived.image_set)
    kept = list(derived.pruned_gens)
    _grow(seen, kept, [x**p for x in g.pruned_gens], g.cap)
    return seen, kept


def _greatest_prime_index_normal(g: FiniteGroup) -> FiniteGroup | None:
    """The greatest normal subgroup of g of prime index, by order and then
    by sorted element list; None when g is perfect.

    A maximal normal subgroup has a simple quotient: C_q for a prime q
    dividing |G:G'|, or a non-abelian simple group, of order 60 at least.
    The largest of prime index have index p, the least prime of |G:G'|,
    so they are the greatest maximal normal subgroups when p is below 60.
    Each contains E = G' G^p, and they are the preimages of the
    hyperplanes of G/E, a vector space over F_p (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 8).  Under the
    default cap of 2**20 elements, G/E has dimension at most 3 when p is
    61 or more, so the candidates below stay few.

    One ascending walk over the elements picks a basis: an element
    outside the span of the cosets so far is the next w_i, and every
    element gets its coordinates.  Of two equal-sized element sets, the
    greater sorted list leaves out the least element of their difference.
    Each w_i is the least element outside the span of those before it,
    so the winning functional f has f(w_i) != 0, scaled to f(w_1) = 1.
    A second walk keeps, wherever those candidates split on an element,
    the ones whose kernel leaves it out.  The kernel is E grown by
    w_i w_1^(p - f(w_i)) for i > 1, which gives its image set and its
    generators at once.
    """
    derived = g.derived_subgroup()
    if derived.order == g.order:
        return None
    p = min(prime_factors(g.order // derived.order))
    seen, kept = _power_kernel(g, p)
    elements = sorted(g.image_set)
    coords: dict[tuple[int, ...], tuple[int, ...]] = dict.fromkeys(seen, ())
    basis: list[tuple[int, ...]] = []
    for w in elements:
        if w in coords:
            continue
        span = list(coords.items())
        power = w
        for j in range(1, p):
            for y, c in span:
                coords[tuple([y[i] for i in power])] = c + (0,) * (len(basis) - len(c)) + (j,)
            power = tuple([power[i] for i in w])
        basis.append(w)
    candidates = [(1, *rest) for rest in itertools.product(range(1, p), repeat=len(basis) - 1)]
    for x in elements:
        if len(candidates) == 1:
            break
        c = coords[x]
        leave_out = [f for f in candidates if sum(a * b for a, b in zip(c, f)) % p]
        if leave_out:
            candidates = leave_out
    first = Perm._trusted(basis[0])
    _grow(
        seen,
        kept,
        [Perm._trusted(w) * first ** (p - f) for w, f in zip(basis[1:], candidates[0][1:])],
        g.cap,
    )
    n = g.subgroup(kept)
    n.__dict__["image_set"] = frozenset(seen)
    n.__dict__["pruned_gens"] = tuple(kept)
    return n


def composition_factors(g: FiniteGroup) -> list[str]:
    """Jordan-Holder factor labels, outermost factor first.

    Each step descends to the maximal normal subgroup of largest order,
    greatest sorted element list first on ties.  When G is not perfect,
    ``_greatest_prime_index_normal`` finds the greatest of prime index p
    from G/G'G^p, and when p is below 60 no maximal normal subgroup is
    larger.  When G is perfect or p is above 60, the step takes the
    greatest of that subgroup and the maximals with a non-abelian
    quotient, by order and then by sorted element list.  The quotient by
    a maximal normal subgroup is simple, so its label is read off its
    order and no quotient is built.  The labels are memoised on g, and
    each call returns a new list.
    """
    key = ("composition_factors",)
    if key not in g.invariant_memo:
        out: list[str] = []
        current = g
        while current.order > 1:
            n = _greatest_prime_index_normal(current)
            if n is None or current.order // n.order > 60:
                candidates = _non_abelian_maximals(current) + ([n] if n else [])
                n = max(candidates, key=lambda m: (m.order, sorted(m.image_set)))
            out.append(_simple_label_of_order(current.order // n.order))
            current = n
        g.invariant_memo[key] = out
    return g.invariant_memo[key].copy()


def melnikov_subgroup(g: FiniteGroup) -> FiniteGroup:
    """Intersection of all maximal normal subgroups.

    A maximal normal subgroup M has a simple quotient.  When that is C_p,
    M holds G'G^p, and the M of index p meet in G'G^p, as the hyperplanes
    of the F_p-space G/G'G^p meet in zero.  So the abelian part is the
    meet of G'G^p over the primes p dividing |G:G'|, and the rest is the
    meet with ``_non_abelian_maximals``.  Each of those must cut the
    running intersection I by its full index or not at all: if I is not
    inside M, then IM = G and |I : I n M| = |G : M|.  A subgroup that
    fails this is no maximal normal subgroup, and the check raises.
    """
    derived = g.derived_subgroup()
    meet = g.image_set
    for p in prime_factors(g.order // derived.order):
        meet = meet.intersection(_power_kernel(g, p)[0])
    for m in _non_abelian_maximals(g):
        index = g.order // m.order
        cut = meet & m.image_set
        if len(cut) != len(meet) and len(cut) * index != len(meet):
            ratio = len(meet) // len(cut)
            raise AssertionError(f"a maximal of index {index} cuts the meet by {ratio}")
        meet = cut
    result = g.subgroup_from_elements(map(Perm._trusted, meet))
    result.__dict__["image_set"] = meet
    return result


# -- named checks from the structure theory ----------------------------------


def is_subnormal_chain(chain: list[FiniteGroup]) -> bool:
    return all(
        chain[i].is_normal(chain[i + 1]) for i in range(len(chain) - 1)
    )


def wielandt_check(
    g: FiniteGroup, chain: list[FiniteGroup], pi: set[int] | frozenset[int]
) -> dict:
    """O_pi(G) normalises O^pi(S) for S subnormal via the given chain.

    Also checks the prosoluble pair O_inf(G) vs O^inf(S).
    """
    if not chain or not chain[0].same_group(g):
        raise ValueError("chain must start at G")
    if not is_subnormal_chain(chain):
        raise ValueError("chain is not subnormal")
    s = chain[-1]
    pi_ok = pi_core(g, pi).normalises(pi_residual(s, pi))
    sol_ok = prosoluble_core(g).normalises(prosoluble_residual(s))
    return {"pi": pi_ok, "prosoluble": sol_ok, "holds": pi_ok and sol_ok}


# -- standard constructions ----------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(n, [Perm.from_cycles(n, tuple(range(n)))])


def symmetric_group(n: int) -> FiniteGroup:
    if n == 1:
        return FiniteGroup(1, [])
    gens = [Perm.from_cycles(n, (0, 1))]
    if n > 2:
        gens.append(Perm.from_cycles(n, tuple(range(n))))
    return FiniteGroup(n, gens)


def alternating_group(n: int) -> FiniteGroup:
    if n < 3:
        return FiniteGroup(n, [])
    gens = [Perm.from_cycles(n, (0, 1, 2))]
    if n > 3:
        if n % 2 == 1:
            gens.append(Perm.from_cycles(n, tuple(range(n))))
        else:
            gens.append(Perm.from_cycles(n, tuple(range(1, n))))
    return FiniteGroup(n, gens)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon on n points (order 2n)."""
    rot = Perm.from_cycles(n, tuple(range(n)))
    refl = Perm(tuple((n - x) % n for x in range(n)))
    return FiniteGroup(n, [rot, refl])


def quaternion_group() -> FiniteGroup:
    """Q8 in its regular representation on 8 points.

    The points 0..7 are the elements 1, -1, i, -i, j, -j, k, -k, and the
    generators are left multiplication by i and by j.
    """
    return FiniteGroup(8, [Perm((2, 3, 1, 0, 6, 7, 5, 4)), Perm((4, 5, 7, 6, 1, 0, 2, 3))])


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """A x B acting on the disjoint union of the two point sets."""
    d = a.degree + b.degree
    gens = []
    for g in a.gens:
        gens.append(Perm(tuple(g.images) + tuple(range(a.degree, d))))
    for g in b.gens:
        gens.append(
            Perm(tuple(range(a.degree)) + tuple(x + a.degree for x in g.images))
        )
    return FiniteGroup(d, gens)


def wreath_c2_tower(levels: int) -> FiniteGroup:
    """Iterated C2-wreath tower acting on 2**levels leaves."""
    n = 2**levels
    blocks = [(2 ** (levels - depth - 1), 0) for depth in range(levels)]
    # swapping below other prefixes arises from conjugation; add one deep swap
    # per level anchored at the last block to generate the full tower
    blocks += [(width, n - 2 * width) for width, _ in blocks[1:]]
    gens = []
    for width, start in blocks:
        mid, end = start + width, start + 2 * width
        gens.append(Perm((*range(start), *range(mid, end), *range(start, mid), *range(end, n))))
    return FiniteGroup(n, gens)
