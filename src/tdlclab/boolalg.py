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
complete sibling family has been merged into its parent.  The full
boundary is the distinguished TOP value (all length-1 addresses merged
once more); it is not itself an address.  The empty set is the empty
cover.  All arithmetic is exact; measures are Fractions, never floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import PrecisionError

Address = tuple[int, ...]

ROOT: Address = ()


@dataclass(frozen=True)
class TreeShape:
    """Shape descriptor: kind 'rooted' or 'regular' plus the degree."""

    kind: str
    degree: int

    def __post_init__(self) -> None:
        if self.kind not in ("rooted", "regular"):
            raise ValueError(f"unknown tree kind {self.kind!r}")
        if self.degree < 2:
            raise ValueError("degree must be at least 2")
        if self.kind == "regular" and self.degree < 3:
            # q = 2 leaves every vertex with a single child and no branching;
            # nothing in scope needs it and several constructions assume q >= 3.
            raise ValueError("regular shape needs degree >= 3")
        # _after[c] lists the letters that may follow c, _after[-1] those at
        # v0.  Not a field: equality, hashing and repr see kind and degree.
        every = tuple(range(self.degree))
        after = [
            every if self.kind == "rooted" else tuple(c for c in every if c != last)
            for last in every
        ]
        object.__setattr__(self, "_after", (*after, every))

    # -- address structure ------------------------------------------------

    def colours(self) -> range:
        return range(self.degree)

    def child_letters(self, addr: Address) -> tuple[int, ...]:
        """Letters that may follow ``addr``."""
        return self._after[addr[-1] if addr else -1]

    def children(self, addr: Address) -> tuple[Address, ...]:
        return tuple(addr + (c,) for c in self.child_letters(addr))

    def is_legal(self, addr: Address) -> bool:
        return _position(self, addr) is not None

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
        """All addresses of length exactly n, in lexicographic order."""
        if n == 0:
            yield ROOT
            return
        for prefix in self.sphere(n - 1):
            for c in self.child_letters(prefix):
                yield prefix + (c,)

    def ball(self, n: int) -> Iterator[Address]:
        for k in range(n + 1):
            yield from self.sphere(k)

    def address_weight(self, addr: Address) -> Fraction:
        """Uniform-measure weight of the cylinder at ``addr``."""
        return Fraction(1, self.sphere_size(len(addr)))


def rooted(degree: int) -> TreeShape:
    return TreeShape("rooted", degree)


def regular(degree: int) -> TreeShape:
    return TreeShape("regular", degree)


# -- depth-n bitsets -----------------------------------------------------
#
# At depth n a clopen is an int with one bit per address of the depth-n
# sphere: bit i stands for sphere_list(shape, n)[i].  The sphere is in
# lexicographic order, so the depth-n descendants of a shallower address
# fill one contiguous run of bits, located by arithmetic on the address.
# No table of runs is kept: images under tree words reach depth 15 on the
# 3-regular tree, where a table of the whole ball holds tens of megabytes.


def _position(shape: TreeShape, addr: Address) -> int | None:
    """Index of ``addr`` in the sphere of its length, or None if illegal."""
    d = shape.degree
    pos = 0
    if shape.kind == "rooted":
        for a in addr:
            if not 0 <= a < d:
                return None
            pos = pos * d + a
        return pos
    prev = None
    for a in addr:
        if not 0 <= a < d or a == prev:
            return None
        # below v0 the children carry the q-1 letters other than ``prev``
        pos = a if prev is None else pos * (d - 1) + a - (a > prev)
        prev = a
    return pos


def _mask_of(shape: TreeShape, addrs: Iterable[Address], n: int) -> int:
    """Depth-n bitset of a union of cylinders of length <= n.

    Raises ValueError on an illegal address.
    """
    size = shape.sphere_size(n)
    # below depth 1 every vertex has this many children
    branch = shape.degree if shape.kind == "rooted" else shape.degree - 1
    mask = 0
    for a in addrs:
        pos = _position(shape, a)
        if pos is None:
            raise ValueError(f"illegal address {a!r} for {shape}")
        width = branch ** (n - len(a)) if a else size
        mask |= ((1 << width) - 1) << (pos * width)
    return mask


def _read(shape: TreeShape, n: int, mask: int, atoms: bool) -> list[Address]:
    """Addresses read top-down from a depth-n bitset.

    A vertex whose run is full is emitted, an empty run is skipped, and a
    mixed run descends to the children: with ``atoms`` false this yields
    the canonical antichain.  With ``atoms`` true full runs descend too,
    down to the depth-n addresses of the set bits.
    """
    size = shape.sphere_size(n)
    if mask == (1 << size) - 1 and not (atoms and n):
        return [ROOT]
    out: list[Address] = []
    stack = [(ROOT, mask, size)] if mask else []
    while stack:
        addr, run, width = stack.pop()
        letters = shape.child_letters(addr)
        width //= len(letters)
        ones = (1 << width) - 1
        descend = atoms and len(addr) + 1 < n
        # the children's runs tile the parent's, lowest letter lowest
        for c in letters:
            part = run & ones
            run >>= width
            if part == ones and not descend:
                out.append(addr + (c,))
            elif part:
                stack.append((addr + (c,), part, width))
    return out


@dataclass(frozen=True)
class CylinderClopen:
    """Canonical clopen subset of the boundary of ``shape``.

    ``cover`` is a canonical antichain; TOP is stored as the singleton
    cover {()} and rendered as the distinguished value.  The Boolean
    operations work on depth-n bitsets and read the cover back from the
    result, so equality, hashing and text only ever see the cover.
    """

    shape: TreeShape
    cover: frozenset[Address]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(shape: TreeShape) -> "CylinderClopen":
        return CylinderClopen(shape, frozenset())

    @staticmethod
    def top(shape: TreeShape) -> "CylinderClopen":
        return CylinderClopen(shape, frozenset({ROOT}))

    @staticmethod
    def cylinder(shape: TreeShape, addr: Address) -> "CylinderClopen":
        shape.require_legal(addr)
        return CylinderClopen(shape, frozenset({addr}))

    @staticmethod
    def from_addresses(shape: TreeShape, addrs: Iterable[Address]) -> "CylinderClopen":
        material = [tuple(a) for a in addrs]
        n = max(map(len, material), default=0)
        return CylinderClopen._from_mask(shape, n, _mask_of(shape, material, n))

    @staticmethod
    def _from_mask(shape: TreeShape, n: int, mask: int) -> "CylinderClopen":
        return CylinderClopen(shape, frozenset(_read(shape, n, mask, atoms=False)))

    def _mask(self, n: int) -> int:
        """This clopen as a depth-n bitset; n is at least its depth."""
        return _mask_of(self.shape, self.cover, n)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.cover

    def is_top(self) -> bool:
        return ROOT in self.cover

    @property
    def depth(self) -> int:
        return max((len(a) for a in self.cover), default=0)

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
        cut = {a[:n] for a in self.cover}
        return frozenset(_read(self.shape, n, _mask_of(self.shape, cut, n), atoms=True))

    # -- Boolean operations --------------------------------------------------
    #
    # Each operation is one int operation on the two depth-n masks, n the
    # larger depth: zero is the mask 0 and TOP the full mask, so neither
    # needs a case of its own.

    def _masks(self, other: "CylinderClopen") -> tuple[int, int, int]:
        if self.shape != other.shape:
            raise ValueError("mixed tree shapes in one operation")
        n = max(self.depth, other.depth)
        return n, self._mask(n), other._mask(n)

    def meet(self, other: "CylinderClopen") -> "CylinderClopen":
        n, a, b = self._masks(other)
        return CylinderClopen._from_mask(self.shape, n, a & b)

    def join(self, other: "CylinderClopen") -> "CylinderClopen":
        n, a, b = self._masks(other)
        return CylinderClopen._from_mask(self.shape, n, a | b)

    def minus(self, other: "CylinderClopen") -> "CylinderClopen":
        n, a, b = self._masks(other)
        return CylinderClopen._from_mask(self.shape, n, a & ~b)

    def complement(self) -> "CylinderClopen":
        n = self.depth
        full = (1 << self.shape.sphere_size(n)) - 1
        return CylinderClopen._from_mask(self.shape, n, self._mask(n) ^ full)

    def leq(self, other: "CylinderClopen") -> bool:
        _, a, b = self._masks(other)
        return a & ~b == 0

    def lt(self, other: "CylinderClopen") -> bool:
        return self.leq(other) and self != other

    def meets(self, other: "CylinderClopen") -> bool:
        _, a, b = self._masks(other)
        return a & b != 0

    # -- measure --------------------------------------------------------------

    def measure(self) -> Fraction:
        return sum(
            (self.shape.address_weight(a) for a in self.cover), Fraction(0)
        )

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        return format_clopen(self)

    def sorted_cover(self) -> list[Address]:
        return sorted(self.cover)


# -- depth partitions -----------------------------------------------------


@dataclass(frozen=True)
class DepthPartition:
    """A finite list of pairwise disjoint nonzero clopens joining to TOP."""

    shape: TreeShape
    parts: tuple[CylinderClopen, ...]

    def __post_init__(self) -> None:
        total = CylinderClopen.zero(self.shape)
        for i, p in enumerate(self.parts):
            if p.shape != self.shape:
                raise ValueError("partition part over a different shape")
            if p.is_zero():
                raise ValueError("partition contains the zero clopen")
            if total.meets(p):
                raise ValueError(f"partition parts overlap at index {i}")
            total = total.join(p)
        if not total.is_top():
            raise ValueError("partition does not cover the boundary")


# -- textual form -----------------------------------------------------------
#
# {} is zero, TOP is the full boundary, otherwise {01,02} style covers with
# addresses as digit strings (dot-separated above degree 10).


def format_address(shape: TreeShape, addr: Address) -> str:
    if shape.degree <= 10:
        return "".join(str(c) for c in addr)
    return ".".join(str(c) for c in addr)


def read_address(shape: TreeShape, text: str) -> Address:
    """Unchecked letters of ``format_address`` text: split on dots above
    degree 10, else one digit per letter with dots between them allowed."""
    text = text.strip()
    parts = text.split(".") if shape.degree > 10 or "." in text else text
    if not text or not all(map(str.isdecimal, parts)):
        raise ValueError(f"address must be digits, got {text!r}")
    return tuple(int(part) for part in parts)


def parse_address(shape: TreeShape, text: str) -> Address:
    addr = read_address(shape, text)
    shape.require_legal(addr)
    return addr


def format_clopen(clopen: CylinderClopen) -> str:
    if clopen.is_top():
        return "TOP"
    if clopen.is_zero():
        return "{}"
    inner = ",".join(
        format_address(clopen.shape, a) for a in clopen.sorted_cover()
    )
    return "{" + inner + "}"


def parse_clopen(shape: TreeShape, text: str) -> CylinderClopen:
    text = text.strip()
    if text == "TOP":
        return CylinderClopen.top(shape)
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"clopen text must be TOP or brace-delimited: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return CylinderClopen.zero(shape)
    addrs = [parse_address(shape, tok) for tok in body.split(",")]
    return CylinderClopen.from_addresses(shape, addrs)


@lru_cache(maxsize=None)
def sphere_list(shape: TreeShape, n: int) -> tuple[Address, ...]:
    """Cached lexicographically ordered depth-n sphere."""
    return tuple(shape.sphere(n))
