"""Exact arithmetic in the cylinder algebra of a tree boundary.

Two tree shapes are supported.

* ``rooted(d)``: the rooted d-ary tree.  A vertex is an arbitrary word
  over the digits 0..d-1; every vertex has d children.
* ``regular(q)``: the q-regular tree with a proper edge colouring by
  0..q-1, based at a vertex v0.  A vertex is a colour word with no two
  consecutive letters equal (the geodesic from v0 reads off the edge
  colours, and a proper colouring never repeats a colour across adjacent
  edges).  v0 has q children, every deeper vertex has q-1.

A clopen subset of the boundary is a finite union of cylinders and is
stored canonically: a finite antichain of addresses in which every
complete sibling family has been merged into its parent, kept as one
tuple in lexicographic address order; its complement, by one walk down
the trie of the cover, its text and its hash are each built on first
use and then kept with it.  The full boundary is the
distinguished TOP value (all length-1 addresses merged once more); it
is not itself an address.
The empty set is the empty cover.  All arithmetic is exact; measures
are Fractions, never floats.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import eq

from .errors import PrecisionError

Address = tuple[int, ...]

ROOT: Address = ()


class _Record:
    """A record of the named ``_fields``: equal to a record of its own
    class alone with the same field tuple, printed as
    ``Name(field=value, ...)``, and unhashable, for it defines ``__eq__``
    and no ``__hash__``."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record that hashes as its field tuple and refuses to set or
    delete an attribute; its constructors write ``__dict__`` directly, and
    so does whatever it keeps after construction."""

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class TreeShape(_Frozen):
    """Shape descriptor: kind 'rooted' or 'regular' plus the degree."""

    _fields = ("kind", "degree")

    def __init__(self, kind: str, degree: int) -> None:
        if kind not in ("rooted", "regular"):
            raise ValueError(f"unknown tree kind {kind!r}")
        if degree < 2:
            raise ValueError("degree must be at least 2")
        if kind == "regular" and degree < 3:
            # q = 2 leaves every vertex with a single child and no branching;
            # nothing in scope needs it and several constructions assume q >= 3.
            raise ValueError("regular shape needs degree >= 3")
        # _after[c] lists the letters that may follow c, _after[-1] those at
        # v0.  Not a field: equality, hashing and repr see kind and degree.
        every = tuple(range(degree))
        after = [
            every if kind == "rooted" else tuple(c for c in every if c != last)
            for last in every
        ]
        self.__dict__.update(kind=kind, degree=degree, _after=(*after, every))

    def __hash__(self) -> int:
        return hash((self.kind, self.degree))

    # -- address structure ------------------------------------------------

    def colours(self) -> range:
        return range(self.degree)

    def child_letters(self, addr: Address) -> tuple[int, ...]:
        """Letters that may follow ``addr``."""
        return self._after[addr[-1] if addr else -1]

    def children(self, addr: Address) -> tuple[Address, ...]:
        return tuple(addr + (c,) for c in self.child_letters(addr))

    def is_legal(self, addr: Address) -> bool:
        after = self._after
        allowed = after[-1]
        for a in addr:
            if a not in allowed:
                return False
            allowed = after[a]
        return True

    def require_legal(self, addr: Address) -> None:
        if not self.is_legal(addr):
            raise ValueError(f"illegal address {addr!r} for {self}")

    def sphere_size(self, n: int) -> int:
        if n == 0:
            return 1
        if self.kind == "rooted":
            return self.degree**n
        return self.degree * (self.degree - 1) ** (n - 1)

    def ball_size(self, n: int) -> int:
        return sum(self.sphere_size(k) for k in range(n + 1))

    def sphere(self, n: int) -> Iterator[Address]:
        """All addresses of length exactly n, in lexicographic order,
        expanded level by level; none when n < 0."""
        if n < 0:
            return
        after = self._after
        level = [ROOT]
        for _ in range(n):
            level = [a + (c,) for a in level for c in after[a[-1] if a else -1]]
        yield from level

    def ball(self, n: int) -> Iterator[Address]:
        """All addresses of length at most n, level by level, each level
        in lexicographic order; none when n < 0."""
        if n >= 0:
            yield ROOT
            yield from _slice(self, ROOT, ROOT, n)


# One shared shape per degree, so clopens built apart pass ``_same_shape``
# on identity; ``TreeShape(...)`` itself still compares by value.
@lru_cache(maxsize=None)
def rooted(degree: int) -> TreeShape:
    return TreeShape("rooted", degree)


@lru_cache(maxsize=None)
def regular(degree: int) -> TreeShape:
    return TreeShape("regular", degree)


def _slice(shape: TreeShape, v: Address, c: Address, r: int) -> Iterator[Address]:
    """Vertices strictly below v within distance r of c, each once.

    The walk starts at the vertex of v's subtree (v included) nearest to
    c: c itself when c lies in that subtree, else v, at distance
    d(c, v) = |c| + |v| - 2 lcp.  It climbs to v, and at each vertex
    opens, level by level, the branches it did not come from, each level
    one step further from c.  With c = v0 this is the ball below v, level
    by level, each level in lexicographic order.
    """
    n = len(v)
    if c[:n] == v:
        at, d = c, 0
    else:
        k = 0
        while k < len(c) and c[k] == v[k]:
            k += 1
        at, d = v, len(c) + n - 2 * k
    children, came = shape.child_letters, None
    while d <= r:
        if len(at) > n:
            yield at
        level = [at + (x,) for x in children(at) if x != came]
        for _ in range(d + 1, r):
            yield from level
            level = [b + (x,) for b in level for x in children(b)]
        if d < r:
            yield from level
        if len(at) == n:
            return
        came, at, d = at[-1], at[:-1], d + 1


# -- canonical covers ----------------------------------------------------
#
# A clopen is its canonical cover, one tuple in lexicographic address
# order, and every operation works on those tuples.  Two cylinders meet
# exactly when one address is a prefix of the other, and a canonical
# cover holds a prefix (itself included) of every cylinder inside its
# clopen: otherwise the deepest cover address below that cylinder would
# have its whole sibling family in the cover, and a canonical cover
# never does.  So the cylinder at ``addr`` lies inside a clopen exactly
# when ``covered`` finds a prefix of ``addr`` in its cover, and no
# operation needs a depth-n expansion.
#
# Address order is lexicographic order on letter tuples: a prefix comes
# first, and its extensions follow it as one contiguous run.  So an
# address x that sorts before y without being a prefix of y sorts before
# every extension of x too, and meets nothing from y on, and a canonical
# cover in address order is a sorted antichain.  ``meet``, ``leq`` and
# ``meets`` are one two-pointer merge of two such covers (``_meeting``),
# except that ``leq`` of a single cylinder is one ``covered``.
# ``join`` merges the two sorted runs and runs the canonical pass over
# them.  ``complement`` walks the trie of the cover once, top down, the
# first time it is asked for: below a node, its extensions are one run,
# and a child letter that no address of the run passes through is a gap.
# Every result comes out in address order, so no operation sorts; only
# ``from_addresses`` and ``tree.spec_image_clopen`` sort their input.


def covered(addr: Address, order: Sequence[Address]) -> bool:
    """Whether some prefix of ``addr``, itself included, is in the cover
    ``order``, a sorted antichain: only its last address at or before
    ``addr`` can be one."""
    i = bisect_right(order, addr)
    return i > 0 and addr[: len(order[i - 1])] == order[i - 1]


def _canonical(shape: TreeShape, ordered: Iterable[Address]) -> list[Address]:
    """Canonical cover, in address order, of a union of legal cylinders
    given in address order.

    Every address follows its prefixes, so an address below the last kept
    one is dropped, and a family is complete when its last letter arrives
    on top of the rest of it: it is merged into its parent, which may
    complete the family above in turn.
    """
    after = shape._after
    kept: list[Address] = []
    # the last kept address and its length; None matches no prefix
    last, n = None, 0
    for a in ordered:
        if a[:n] == last:
            continue
        while a:
            letters = after[a[-2] if len(a) > 1 else -1]
            if a[-1] != letters[-1]:
                break
            # the other k letters sit just below a, in order, exactly when
            # the first of them does and none of the rest is deeper
            k = len(letters) - 1
            first = len(kept) - k
            if first < 0 or kept[first] != a[:-1] + letters[:1]:
                break
            if k > 1 and any(len(x) != len(a) for x in kept[first + 1 :]):
                break
            del kept[first:]
            a = a[:-1]
        kept.append(a)
        last, n = a, len(a)
    return kept


def _meeting(a: Sequence[Address], b: Sequence[Address]) -> Iterator[Address]:
    """The deeper address of each meeting pair of two sorted antichains,
    in address order: the cover of their meet."""
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x < y:
            if y[: len(x)] == x:
                yield y
                j += 1
            else:
                i += 1
        elif x[: len(y)] == y:
            yield x
            i += 1
        else:
            j += 1


class CylinderClopen(_Frozen):
    """Canonical clopen subset of the boundary of ``shape``.

    ``addresses`` is the canonical antichain as a tuple in address order,
    the only representation: equality, hashing and repr see ``shape`` and
    ``addresses``, text sees ``addresses``, and the Boolean operations
    merge and walk it as above and build their results in it.  ``__eq__``
    is written out rather than inherited because every law check runs it.
    TOP is stored as ``(ROOT,)`` and rendered as the distinguished value.
    ``cover`` is the same addresses as a frozenset, built on each read and
    never kept.  The complement, the text and the hash are each built
    once and then kept in ``__dict__``, outside the fields, as
    ``Perm.inverse`` keeps its inverse.  There is no ``__init__``: the
    constructors below build every clopen.
    """

    shape: TreeShape
    addresses: tuple[Address, ...]
    _fields = ("shape", "addresses")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.shape, self.addresses) == (other.shape, other.addresses)
        return NotImplemented

    def __hash__(self) -> int:
        # the field tuple's hash, built on first use and then kept
        try:
            return self._hash
        except AttributeError:
            h = self.__dict__["_hash"] = hash((self.shape, self.addresses))
            return h

    @classmethod
    def _ordered(cls, shape: TreeShape, order: Iterable[Address]) -> "CylinderClopen":
        """A canonical cover given in address order, taken unchecked."""
        c = object.__new__(cls)
        c.__dict__.update(shape=shape, addresses=tuple(order))
        return c

    @property
    def cover(self) -> frozenset[Address]:
        """The cover as a set, built on each read."""
        return frozenset(self.addresses)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(shape: TreeShape) -> "CylinderClopen":
        return CylinderClopen._ordered(shape, ())

    @staticmethod
    def top(shape: TreeShape) -> "CylinderClopen":
        return CylinderClopen._ordered(shape, (ROOT,))

    @staticmethod
    def cylinder(shape: TreeShape, addr: Address) -> "CylinderClopen":
        addr = tuple(addr)
        shape.require_legal(addr)
        return CylinderClopen._ordered(shape, (addr,))

    @staticmethod
    def from_addresses(shape: TreeShape, addrs: Iterable[Address]) -> "CylinderClopen":
        material = [tuple(a) for a in addrs]
        require = shape.require_legal
        for a in material:
            require(a)
        material.sort()
        return CylinderClopen._ordered(shape, _canonical(shape, material))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.addresses

    def is_top(self) -> bool:
        return self.addresses == (ROOT,)

    @property
    def depth(self) -> int:
        return max(map(len, self.addresses), default=0)

    # -- refinement ---------------------------------------------------------

    def refine(self, n: int) -> frozenset[Address]:
        """The cover rewritten as depth-n addresses exactly.

        Raises PrecisionError when n is smaller than the cover depth:
        a deep cylinder has no exact shallow description.
        """
        if n < self.depth:
            raise PrecisionError(
                f"cannot refine depth-{self.depth} cover at depth {n}"
            )
        return self.shadow(n)

    def shadow(self, n: int) -> frozenset[Address]:
        """The depth-n addresses whose cylinders meet this clopen.

        Exact at any n: deeper cover addresses are cut to their depth-n
        prefix, shallower ones spread over their depth-n descendants.
        """
        out: set[Address] = set()
        for a in self.addresses:
            level = [a[:n]]
            for _ in range(n - len(a)):
                level = [b + (c,) for b in level for c in self.shape.child_letters(b)]
            out.update(level)
        return frozenset(out)

    # -- Boolean operations --------------------------------------------------

    def _same_shape(self, other: "CylinderClopen") -> None:
        if self.shape is not other.shape and self.shape != other.shape:
            raise ValueError("mixed tree shapes in one operation")

    def meet(self, other: "CylinderClopen") -> "CylinderClopen":
        self._same_shape(other)
        return CylinderClopen._ordered(self.shape, _meeting(self.addresses, other.addresses))

    def join(self, other: "CylinderClopen") -> "CylinderClopen":
        # sorting two sorted runs is one linear merge
        self._same_shape(other)
        merged = sorted(self.addresses + other.addresses)
        return CylinderClopen._ordered(self.shape, _canonical(self.shape, merged))

    def minus(self, other: "CylinderClopen") -> "CylinderClopen":
        return self.meet(other.complement())

    def complement(self) -> "CylinderClopen":
        """The complement, built once and then kept; it keeps no link back."""
        comp = self.__dict__.get("_complement")
        if comp is None:
            comp = self.__dict__["_complement"] = CylinderClopen._ordered(self.shape, self._gaps())
        return comp

    def _gaps(self) -> list[Address]:
        """The cover's gaps in address order, by one walk down the trie
        of the cover on a stack of its own, so no cover is too deep.

        Each child letter of a node takes the part of the node's run that
        passes through it: none makes the child a gap, and anything but
        the child itself is walked in turn.  Children go on the stack last
        letter first, so the gaps come out in address order.
        """
        if self.is_top():
            return []
        order, after = self.addresses, self.shape._after
        out: list[Address] = []
        # (node, i, end): order[i:end] is node's run, the cover below it
        stack = [(ROOT, 0, len(order))]
        while stack:
            node, i, end = stack.pop()
            if i == end:
                out.append(node)
                continue
            n = len(node)
            for c in reversed(after[node[-1] if node else -1]):
                k = end
                while k > i and order[k - 1][n] == c:
                    k -= 1
                if end - k != 1 or len(order[k]) > n + 1:
                    stack.append((node + (c,), k, end))
                end = k
        return out

    def leq(self, other: "CylinderClopen") -> bool:
        # the meet is self exactly when it yields self's addresses in
        # order; the None after it fails a meet that stops short
        self._same_shape(other)
        mine = self.addresses
        if len(mine) == 1:
            # one cylinder lies inside other exactly when covered
            return covered(mine[0], other.addresses)
        run = chain(_meeting(mine, other.addresses), (None,))
        return all(map(eq, mine, run))

    def lt(self, other: "CylinderClopen") -> bool:
        return self.leq(other) and self != other

    def meets(self, other: "CylinderClopen") -> bool:
        self._same_shape(other)
        return next(_meeting(self.addresses, other.addresses), None) is not None

    # -- measure --------------------------------------------------------------

    def measure(self) -> Fraction:
        # one weight per depth, times the number of cover addresses there
        counts = Counter(map(len, self.addresses))
        size = self.shape.sphere_size
        return sum((Fraction(k, size(d)) for d, k in counts.items()), Fraction(0))

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        return format_clopen(self)


# -- textual form -----------------------------------------------------------
#
# {} is zero, TOP is the full boundary, otherwise {01,02} style covers with
# addresses as digit strings (dot-separated above degree 10).


def format_address(shape: TreeShape, addr: Address) -> str:
    if shape.degree <= 10:
        return "".join(map(str, addr))
    return ".".join(map(str, addr))


def read_address(shape: TreeShape, text: str) -> Address:
    """Unchecked letters of ``format_address`` text: split on dots above
    degree 10, else one digit per letter with dots between them allowed."""
    text = text.strip()
    parts = text.split(".") if shape.degree > 10 or "." in text else text
    if not text or not all(map(str.isdecimal, parts)):
        raise ValueError(f"address must be digits, got {text!r}")
    return tuple(map(int, parts))


def parse_address(shape: TreeShape, text: str) -> Address:
    addr = read_address(shape, text)
    shape.require_legal(addr)
    return addr


# letters 0..9 as ASCII digits and back, for one bytes pass over a cover
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_LETTERS = bytes.maketrans(b"0123456789", bytes(range(10)))


def format_clopen(clopen: CylinderClopen) -> str:
    """The clopen's text, built on first use and then kept with it.

    Rendering assumes every letter is below the degree, as every checked
    constructor and every Boolean operation guarantees: up to degree 10
    the cover's addresses are written as bytes, one letter each, and
    translated to digits in one pass.
    """
    try:
        return clopen._text
    except AttributeError:
        text = clopen.__dict__["_text"] = _cover_text(clopen)
        return text


def _cover_text(clopen: CylinderClopen) -> str:
    if clopen.is_top():
        return "TOP"
    if clopen.shape.degree <= 10:
        return "{" + b",".join(map(bytes, clopen.addresses)).translate(_DIGITS).decode() + "}"
    # format_address's rule, inline
    return "{" + ",".join([".".join(map(str, a)) for a in clopen.addresses]) + "}"


def parse_clopen(shape: TreeShape, text: str) -> CylinderClopen:
    text = text.strip()
    if text == "TOP":
        return CylinderClopen.top(shape)
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"clopen text must be TOP or brace-delimited: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return CylinderClopen.zero(shape)
    # from_addresses checks every address's legality, once.  Up to degree
    # 10 one digit is one letter, so an ASCII body of digits and commas is
    # read in one bytes pass, each part's bytes its letters; anything else,
    # an empty part too, goes through read_address and its errors.
    if shape.degree <= 10 and body.isascii():
        raw = body.encode()
        if not raw.translate(None, b"0123456789,"):
            parts = raw.translate(_LETTERS).split(b",")
            if all(parts):
                return CylinderClopen.from_addresses(shape, parts)
    addrs = [read_address(shape, tok) for tok in body.split(",")]
    return CylinderClopen.from_addresses(shape, addrs)


@lru_cache(maxsize=None)
def sphere_list(shape: TreeShape, n: int) -> tuple[Address, ...]:
    """Cached lexicographically ordered depth-n sphere."""
    return tuple(shape.sphere(n))
