"""Boundary dynamics at truncation depth: minimality, skewering,
minorising sets, pair compression, free subsemigroups, orbit joins and
invariant-measure feasibility.

Searches are breadth-first by word length with a fixed generator order,
so the first witness is deterministic.  Image states are deduplicated on
the exact clopen value: every enumerated set is the exact image of the
starting set under the recorded word, which keeps reachability sound
for end-level claims.  On one tree a search state is a vertex, standing
for its one-cylinder clopen, or any other clopen; the two never name the
same value, and a vertex deeper than a generator's displacement moves by
applying the generator to its address.  On two copies a state is a
single-tree state tagged by its copy, (c, s), and the searches run on
the single tree, the one choice of the action graph's constructor: no
first word from (c, s) uses the other copy's generators, which fix
every state of c, so it is a word from s with each letter tagged name@c.

The minimality, minorising and degree searches start once from every
depth-n state, and those searches share one action graph per call: the
generators' Schreier graph on search states, with int ids, neighbour
ids in generator order and each state's met depth-n states, built only
as far as the searches reach and dropped when the call returns.  There
a vertex is a node of an address trie, and below every generator's
displacement and sites it steps by the wreath recursion g(v x) =
g(v) pi(x), from its parent's step and one section lookup, with no
address built (Nekrashevych, *Self-Similar Groups*, 2005, section 1.3).
Each start is then a breadth-first search over ids with parent
pointers, which visits the states in the order of a search over the
states themselves and spells words only for the states it records (the
orbit algorithm with Schreier vectors; Holt, Eick and O'Brien, *Handbook
of Computational Group Theory*, 2005, section 4.1).  The graph also holds
the invariant blocks, read by the fixed-point scan, and a search stops
once it has met its start's block.  A search whose orbit closes within
the word bound refutes; one cut off by the bound reports exhaustion.
The words at the bound are stepped once more, only to tell the two
apart.  The standard contexts take their rotations from
``tree.site_decorations`` at the base vertex and at its first child.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from fractions import Fraction

from .boolalg import ROOT, CylinderClopen, TreeShape, format_address, regular, sphere_list
from .errors import NotSkewering, SearchExhausted
from .permgrp import FiniteGroup
from .tree import (
    IsometrySpec,
    SpecWord,
    hyperbolic_isometry,
    site_decorations,
    spec_image_clopen,
)

Word = tuple[str, ...]

_RHS = -1  # the right-side key of a sparse simplex row


class ActionContext:
    """Named generators acting on one tree boundary.

    Generator words are applied in listed order (the first name acts
    first).  Inverses are added automatically with a trailing tilde
    unless the generator is an involution, which its square decides on
    one ball of its own size, whatever the depth.
    """

    def __init__(
        self,
        shape: TreeShape,
        generators: dict[str, IsometrySpec],
        depth: int,
        word_bound: int = 8,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if word_bound < 1:
            raise ValueError("word bound must be at least 1")
        self.shape = shape
        self.depth = depth
        self.word_bound = word_bound
        self._gens: dict[str, SpecWord] = {}
        self._inverse_names: dict[str, str] = {}
        # the action graph steps every generator by the wreath recursion
        # below the largest IsometrySpec.section_depth
        self.section_depth = max(spec.section_depth for spec in generators.values())
        for name, spec in generators.items():
            if "~" in name:
                raise ValueError("generator names may not contain '~'")
            self._gens[name] = word = SpecWord.of(spec)
            # Is g an involution?  With d its displacement and R its
            # section depth, |g(u)| >= |u| - d and g(u)'s first R - 1
            # letters depend on u's first R - 1 + d, so for
            # |u| >= R - 1 + d, g^2(u x) = g^2(u) tau(x), tau fixed by
            # u's first R - 1 + d letters.  If g^2 fixes the ball of
            # radius R + d + 1, it fixes the grandchildren of each u at
            # depth R - 1 + d, whose last letters run through every
            # colour, so tau = 1 and, by induction on depth, g^2 fixes
            # every vertex: that ball decides g^2 = 1 exactly.
            square = SpecWord(shape, ((spec, 2),))
            if square.is_identity_on(spec.section_depth + spec.displacement + 1):
                self._inverse_names[name] = name
            else:
                self._gens[name + "~"] = word.inverse()
                self._inverse_names[name] = name + "~"
                self._inverse_names[name + "~"] = name
        self.gen_names = tuple(self._gens)
        self._displacement = {name: w.displacement for name, w in self._gens.items()}
        self.max_displacement = max(self._displacement.values())
        self._image_memo: dict[tuple[str, CylinderClopen], CylinderClopen] = {}
        self._cylinders: dict[tuple, CylinderClopen] = {}

    def generator(self, name: str) -> SpecWord:
        return self._gens[name]

    def inverse_name(self, name: str) -> str:
        return self._inverse_names[name]

    def word(self, names: Word) -> SpecWord:
        return SpecWord(self.shape, tuple((self._gens[n], 1) for n in reversed(names)))

    def states(self) -> tuple:
        return sphere_list(self.shape, self.depth)

    def state_clopen(self, state) -> CylinderClopen:
        """The clopen of a search state: a vertex stands for its cylinder,
        built once and then kept, so the image memo meets one object."""
        if type(state) is tuple:
            got = self._cylinders.get(state)
            if got is None:
                got = self._cylinders[state] = CylinderClopen.cylinder(self.shape, state)
            return got
        return state

    def state_label(self, state) -> str:
        return format_address(self.shape, state)

    def image(self, name: str, clopen):
        key = (name, clopen)
        got = self._image_memo.get(key)
        if got is None:
            got = spec_image_clopen(self._gens[name], clopen)
            self._image_memo[key] = got
        return got

    def word_image(self, names: Word, clopen):
        for name in names:
            clopen = self.image(name, clopen)
        return clopen

    def step(self, name: str, state):
        """One search step.  The cylinder at a vertex deeper than the
        generator's displacement is its own atom in ``spec_image_clopen``,
        so its image is the cylinder at the image vertex; any other state
        goes through the memoised image, and a one-cylinder image becomes
        a vertex again."""
        if type(state) is tuple and len(state) > self._displacement[name]:
            return self._gens[name]._apply(state)
        image = self.image(name, self.state_clopen(state))
        if len(image.cover) == 1:
            (vertex,) = image.cover
            return vertex
        return image

    def _strictly_inside(self, state, addr) -> bool:
        """Whether a search state lies strictly inside the cylinder at addr."""
        if type(state) is tuple:
            return len(state) > len(addr) and state[: len(addr)] == addr
        return state.lt(self.state_clopen(addr))

    def all_fix_base(self) -> bool:
        return self.max_displacement == 0


class TwoCopyContext:
    """Product control: two tree copies, generators acting copy-wise.

    Generator names carry the copy tag (name@0, name@1); no generator
    maps one copy into the other, which is the point of the example.
    A state is a single-tree state tagged by its copy, (copy, s); the
    searches run on the base context alone and tag what they find,
    states and letters, with the start's copy.
    """

    def __init__(
        self,
        shape: TreeShape,
        generators: dict[str, IsometrySpec],
        depth: int,
        word_bound: int = 8,
    ) -> None:
        self._base = ActionContext(shape, generators, depth, word_bound)
        self.depth = depth
        self.word_bound = word_bound
        self.gen_names = tuple(
            f"{name}@{copy}" for copy in (0, 1) for name in self._base.gen_names
        )

    def states(self) -> tuple:
        """Copy 0's single-tree states, then copy 1's, each tagged."""
        inner = self._base.states()
        return tuple((copy, s) for copy in (0, 1) for s in inner)

    def state_label(self, state) -> str:
        copy, addr = state
        return f"{copy}:{self._base.state_label(addr)}"

    def all_fix_base(self) -> bool:
        return self._base.all_fix_base()


def _bfs(names, bound, step, start, cut=None):
    """Breadth-first (state, word) pairs from (start, ()), deduplicated by
    value; ``step(name, state)`` is one step and words of length
    ``bound`` are not expanded.

    Given a list ``cut``, the search decides whether the bound cut its
    orbit off: once every pair is yielded, the states at the bound are
    stepped once more, only to test for an unseen image, and the first
    one found is appended to ``cut``.  An empty ``cut`` after the last
    pair means the orbit closed within the bound.
    """
    seen = {start: ()}
    queue = deque([start])
    yield start, ()
    while queue:
        x = queue.popleft()
        w = seen[x]
        if len(w) >= bound:
            if cut is not None and not cut and any(step(n, x) not in seen for n in names):
                cut.append(x)
            continue
        for name in names:
            y = step(name, x)
            if y not in seen:
                seen[y] = w + (name,)
                queue.append(y)
                yield y, w + (name,)


def reachable_images(ctx, start):
    """BFS over exact word-images of a clopen, deduplicated by value.

    Yields (clopen, word) pairs in breadth-first order starting with
    (start, ()).  Words longer than the context bound are not expanded.
    """
    yield from _bfs(ctx.gen_names, ctx.word_bound, ctx.image, start)


class _ActionGraph:
    """The generators' Schreier graph on search states, built as far as
    the searches over it reach.

    A vertex state is a node of an address trie: an int id with its
    parent's id, its last letter and its depth in flat lists, and its
    children's ids in ``kids``, at id * degree + letter.  Every other
    state is a clopen, keyed by its value, with depth -1.  The depth-n
    nodes take ids 0 to N - 1 in ``ctx.states()`` order, so a depth-n
    state's id is its index; the trie above them follows, and any other
    state takes the next id when a step first reaches it.  Each id keeps
    the depth-n states it meets, as indices: an int when it meets one, as
    a node at depth n or deeper does, which takes its parent's, and a
    tuple otherwise.

    An expanded id keeps the ids of its neighbours in ``gen_names``
    order.  A node deeper than the context's ``section_depth`` R steps
    by the wreath recursion g(v x) = g(v) pi(x): to the child of its
    parent's image at its letter's image under g's section pi, which is
    constant below R.  So each section is read once per anchor, a node
    at depth R, by applying each generator's one-letter ``SpecWord``, whose
    map is its atom's, to the addresses one level below it, and a
    parent's image is its neighbour when it is expanded.
    Only shallower nodes and clopens step by ``ctx.step`` on their
    spelled state; the searches name states by index and spell none.

    A graph lives for one search call, never on the context; built for
    two copies, it is their base's.  Its ``blocks``, sets of indices, are
    the invariant blocks: each closes the least state in no earlier
    block under the states that steps meet, so a word image of a
    state's cylinder meets only states of its block.
    """

    def __init__(self, ctx: ActionContext | TwoCopyContext) -> None:
        self.ctx = ctx = getattr(ctx, "_base", ctx)
        self.starts = ctx.states()
        self.index = {s: i for i, s in enumerate(self.starts)}
        self._names = ctx.gen_names
        self._degree = ctx.shape.degree
        self._leaf = (-1,) * self._degree
        self._reach = ctx.section_depth
        self.parent: list[int] = []
        self.letter: list[int] = []
        self.depth: list[int] = []
        self.anchor: list[int] = []  # the ancestor at depth R, or -1
        self.kids: list[int] = []  # -1 for a child not built yet
        self.met: list = []
        self.edges: list = []
        self._clopens: dict = {}  # clopen -> id, and back
        self._sections: dict = {}  # anchor -> letter -> image letters
        n = ctx.depth
        for i, s in enumerate(self.starts):
            self._node(-1, s[-1], n, -1, i)
        self._root = self._node(-1, -1, 0, -1, None)
        for i, s in enumerate(self.starts):
            q = self._root
            for x in s[:-1]:
                q = self._child(q, x)
            self.parent[i] = q
            self.kids[q * self._degree + self.letter[i]] = i
            self.anchor[i] = i if n == self._reach else self.anchor[q]
        # a node above depth n meets the depth-n nodes below it
        above: dict[int, list] = {}
        for i in range(len(self.starts)):
            q = self.parent[i]
            while q >= 0:
                above.setdefault(q, []).append(i)
                q = self.parent[q]
        for q, below in above.items():
            self.met[q] = tuple(below)
        self.blocks: list[set] = []
        for seed in range(len(self.starts)):
            if any(seed in b for b in self.blocks):
                continue
            block, todo = {seed}, [seed]
            while todo:
                for y in self.neighbours(todo.pop()):
                    m = self.met[y]
                    new = ({m} if type(m) is int else set(m)) - block
                    block |= new
                    todo += new
            self.blocks.append(block)

    def _node(self, parent, letter, depth, anchor, met) -> int:
        i = len(self.met)
        self.parent.append(parent)
        self.letter.append(letter)
        self.depth.append(depth)
        self.anchor.append(anchor)
        self.kids.extend(self._leaf)
        self.met.append(met)
        self.edges.append(None)
        return i

    def _child(self, q: int, x: int) -> int:
        """The node below node q at letter x, built on first use; a node
        deeper than depth n meets what its parent meets."""
        i = self.kids[q * self._degree + x]
        if i < 0:
            depth = self.depth[q] + 1
            i = self._node(q, x, depth, self.anchor[q], self.met[q])
            if depth == self._reach:
                self.anchor[i] = i
            self.kids[q * self._degree + x] = i
        return i

    def _id(self, state) -> int:
        """The id of a search state; a clopen's met states are its
        shadow at depth n."""
        if type(state) is tuple:
            i = self._root
            for x in state:
                i = self._child(i, x)
            return i
        i = self._clopens.get(state)
        if i is None:
            met = sorted(self.index[b] for b in state.shadow(self.ctx.depth))
            i = self._node(-1, -1, -1, -1, met[0] if len(met) == 1 else tuple(met))
            self._clopens[state] = i
            self._clopens[i] = state
        return i

    def _spell(self, i: int):
        """The search state of an id: its clopen, or its address."""
        if self.depth[i] < 0:
            return self._clopens[i]
        letters = []
        while self.parent[i] >= 0:
            letters.append(self.letter[i])
            i = self.parent[i]
        return tuple(reversed(letters))

    def _section(self, anchor: int) -> tuple:
        """Letter -> its image under each generator, in ``gen_names``
        order, below an anchor, read from the anchor's children."""
        rows = self._sections.get(anchor)
        if rows is None:
            addr, degree = self._spell(anchor), self._degree
            letters = self.ctx.shape.child_letters(addr)
            columns = []
            for name in self._names:
                image = self.ctx._gens[name]._apply
                column = list(range(degree))
                for x in letters:
                    column[x] = image(addr + (x,))[-1]
                # pi permutes the colours, so on a regular tree the
                # anchor's own last letter, no child's, takes the
                # colour that no child's letter does
                for colour in set(range(degree)).difference(column[x] for x in letters):
                    column[addr[-1]] = colour
                columns.append(column)
            rows = self._sections[anchor] = tuple(zip(*columns))
        return rows

    def _images(self, i: int) -> tuple:
        """Each generator's image of id i, in ``gen_names`` order: read
        from the edges when i is expanded.  A deeper node expands its
        parent first, so each id's images are computed once."""
        got = self.edges[i]
        if got is not None:
            return got
        if self.depth[i] > self._reach:
            # the recursion on the parent's images
            row = self._section(self.anchor[i])[self.letter[i]]
            kids, degree = self.kids, self._degree
            return tuple([
                j if (j := kids[q * degree + y]) >= 0 else self._child(q, y)
                for q, y in zip(self.neighbours(self.parent[i]), row)
            ])
        state, step = self._spell(i), self.ctx.step
        return tuple([self._id(step(name, state)) for name in self._names])

    def neighbours(self, i: int) -> tuple:
        got = self.edges[i]
        if got is None:
            got = self.edges[i] = self._images(i)
        return got


def _first_words(graph: _ActionGraph, start, inside: bool = False) -> dict:
    """Depth-n state -> first breadth-first word whose image of the
    cylinder at the depth-n state ``start`` meets it, searched over
    ``graph``: the shortlex-least such word up to the word bound, by
    length and then generator order, the first-applied letter most
    significant.

    With ``inside`` a state is recorded only when the image lies strictly
    inside its cylinder.  The depth-n cylinders partition the boundary,
    so that is an image meeting that one state and differing from its
    cylinder; search states name each clopen once, so that is an id
    meeting one depth-n state and not its id.  The search stops once
    every state of its block is recorded, and it spells only the
    recorded words, from parent pointers.
    """
    met, edges = graph.met, graph.edges
    names = graph.ctx.gen_names
    width = len(names)
    root = graph.index[start]  # start's id, which meets only itself
    total = len(next(b for b in graph.blocks if root in b))
    # id -> its parent's id * width + the position of the last letter
    parent = {root: -1}
    # depth-n state index -> the first id meeting it
    found: dict[int, int] = {} if inside else {root: root}

    def search() -> None:
        missing = total - len(found)  # states of the block not yet found
        level = [root]
        for _ in range(graph.ctx.word_bound):
            if not missing or not level:
                return
            deeper = []
            for x in level:
                for g, y in enumerate(edges[x] or graph.neighbours(x)):
                    if y in parent:
                        continue
                    parent[y] = x * width + g
                    deeper.append(y)
                    m = met[y]
                    if type(m) is int:
                        if m not in found and not (inside and m == y):
                            found[m] = y
                            missing -= 1
                    elif not inside:
                        for b in m:
                            if b not in found:
                                found[b] = y
                                missing -= 1
                    if not missing:
                        return
            level = deeper

    search()
    words = {root: ()}  # the spelled ids; a word extends its parent's
    for i in found.values():
        path = []
        while i not in words:
            path.append(i)
            i = parent[i] // width
        for j in reversed(path):
            words[j] = words[i] + (names[parent[j] % width],)
            i = j
    return {graph.starts[b]: words[i] for b, i in found.items()}


def _tagged(copy: int, names: tuple, words: dict, memo: dict) -> dict:
    """Single-tree first words over ``names`` read on one copy: states
    (copy, b), letters name@copy, each word tagged once per ``memo``."""
    tag = {g: f"{g}@{copy}" for g in names}.__getitem__
    return {(copy, b): memo.get(w) or memo.setdefault(w, tuple(map(tag, w))) for b, w in words.items()}


def _start_words(ctx, inside: bool = False, graph=None):
    """(start, its ``_first_words``) for each depth-n start, in
    ``ctx.states()`` order, over ``graph`` or a new one.  On two copies
    that is the base context's graph: a generator of the other copy
    fixes every state of the start's copy, so no first word uses it,
    and the words from (c, s) are those from s, tagged.  Each base start
    is searched once, and both copies read its run."""
    graph = graph or _ActionGraph(ctx)
    if graph.ctx is ctx:
        for a in graph.starts:
            yield a, _first_words(graph, a, inside)
        return
    runs = [(s, _first_words(graph, s, inside)) for s in graph.starts]
    names, graph, memos = graph.ctx.gen_names, None, ({}, {})  # copy 1 reads only the runs
    for c in (0, 1):
        for s, words in runs:
            yield (c, s), _tagged(c, names, words, memos[c])


def check_minimal(ctx) -> dict:
    """Every ordered pair of depth-n cylinders linked by a short word.

    The witness for (a, b) is a word whose exact image of a meets b, so
    some end of a lands in b: the shortlex-least one within the word
    bound, shorter words first, then generator order with the
    first-applied letter most significant.  On two copies it is the
    single-tree word with each letter tagged @c.  The first missing pair
    is reported as the counterexample.
    """
    states = ctx.states()
    labels = {s: ctx.state_label(s) for s in states}
    witnesses: dict[str, list[str]] = {}
    counterexample = None
    longest = 0
    for a, met in _start_words(ctx):
        if counterexample is not None:
            # the witnesses are dropped now: read only the longest word
            longest = max(longest, max(map(len, met.values())))
            continue
        prefix = labels[a] + "->"
        for b, label in labels.items():
            w = met.get(b)
            if w is not None:
                witnesses[prefix + label] = list(w)
                if len(w) > longest:
                    longest = len(w)
            elif counterexample is None:
                counterexample = [labels[a], label]
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


def skewering_search(ctx) -> dict:
    """Word and cylinder with the image strictly inside the cylinder.

    Candidates run through all cylinders up to the working depth.  When
    every generator fixes the base vertex, word images preserve each
    sphere and hence exact measures, so no strict shrink can exist at
    any bound; that refutation needs no search.  A candidate whose
    image orbit closes within the word bound is refuted outright, while
    a bound that cuts an orbit off, a word at the bound stepping to an
    unseen image, reports exhaustion instead.
    """
    shape = ctx.shape
    if ctx.all_fix_base():
        return {
            "verdict": "refuted_at_depth",
            "reason": (
                "every generator fixes the base vertex, so word images "
                "preserve sphere measures and never shrink strictly"
            ),
            "depth": ctx.depth,
            "word_bound": ctx.word_bound,
            "candidates_tested": 0,
        }
    candidates = [addr for k in range(1, ctx.depth + 1) for addr in sphere_list(shape, k)]
    all_saturated = True
    for a in candidates:
        cut: list = []
        for state, word in _bfs(ctx.gen_names, ctx.word_bound, ctx.step, a, cut):
            if word and ctx._strictly_inside(state, a):
                alpha = ctx.state_clopen(a)
                galpha = ctx.state_clopen(state)
                return {
                    "verdict": "found",
                    "word": list(word),
                    "alpha": alpha,
                    "galpha": galpha,
                    "alpha_measure": alpha.measure(),
                    "galpha_measure": galpha.measure(),
                    "depth": ctx.depth,
                    "word_bound": ctx.word_bound,
                }
        if cut:
            all_saturated = False
    if all_saturated:
        return {
            "verdict": "refuted_at_depth",
            "reason": "every candidate's image orbit closed within the bound",
            "depth": ctx.depth,
            "word_bound": ctx.word_bound,
            "candidates_tested": len(candidates),
        }
    return {
        "verdict": "not-found-within-bounds",
        "reason": "word bound reached with unexplored images left",
        "depth": ctx.depth,
        "word_bound": ctx.word_bound,
        "candidates_tested": len(candidates),
    }


def minorising_set(ctx) -> dict:
    """Small set of cylinders with translates strictly below every state.

    Tries single candidates first in state order; when none covers all
    targets alone, covers them greedily.  The witness map records, for
    each depth-n cylinder, the candidate and word whose image sits
    strictly inside it: the shortlex-least such word within the word
    bound, shorter words first, then generator order with the
    first-applied letter most significant.  On two copies it is the
    single-tree word with each letter tagged @c.
    """
    return _minorising_set(ctx, _start_words(ctx, inside=True))


def _minorising_set(ctx, runs) -> dict:
    """``minorising_set`` read off ``runs``, its ``inside`` start words."""
    states = ctx.states()
    coverage: dict = {}
    for c, found in runs:
        coverage[c] = found
        if len(found) == len(states):
            return _minorising_report(ctx, [c], {b: (c, w) for b, w in found.items()})
    chosen: list = []
    assigned: dict = {}
    remaining = set(states)
    while remaining:
        best = None
        for c in states:
            gain = len(remaining & set(coverage[c]))
            if gain and (best is None or gain > best[0]):
                best = (gain, c)
        if best is None:
            missing = sorted(ctx.state_label(b) for b in remaining)
            raise SearchExhausted(
                f"minorising witness for {', '.join(missing)}", ctx.word_bound
            )
        _, c = best
        chosen.append(c)
        for b in list(remaining):
            if b in coverage[c]:
                assigned[b] = (c, coverage[c][b])
                remaining.discard(b)
    return _minorising_report(ctx, chosen, assigned)


def _minorising_report(ctx, chosen, assigned) -> dict:
    witnesses = {
        ctx.state_label(b): {
            "candidate": ctx.state_label(c),
            "word": list(word),
        }
        for b, (c, word) in assigned.items()
    }
    longest = max((len(w["word"]) for w in witnesses.values()), default=0)
    return {
        "verdict": "verified",
        "set": [ctx.state_label(c) for c in chosen],
        "set_size": len(chosen),
        "witnesses": witnesses,
        "top_witness": {
            "candidate": ctx.state_label(chosen[0]),
            "word": [],
            "note": "a cylinder is already strictly below the full boundary",
        },
        "max_word_length": longest,
        "depth": ctx.depth,
        "word_bound": ctx.word_bound,
    }


def minorising_degree(ctx) -> dict:
    """Count of minimal invariant opens built from translate unions.

    For each candidate cylinder the union of its word-translates is
    tracked as its shadow: the depth-n cylinders it meets by a word
    within the word bound, as a mask over ``ctx.states()`` indices, read
    off the searches of ``check_minimal``, on the one action graph that
    the initial set's searches then reuse.  The distinct minimal shadows
    are the invariant opens at depth, their count is the degree, and the
    first candidate of each open forms the reduced set; the opens are
    ordered by their sorted labels.  When the degree is one the
    dense-orbit consequence is read off the same shadows: every state
    must reach every state.  When every generator fixes the base vertex
    no translate shrinks strictly, so there is no initial minorising set
    to report and none is searched for.
    """
    graph = _ActionGraph(ctx)
    states = ctx.states()
    bit = {s: 1 << i for i, s in enumerate(states)}
    every = (1 << len(bit)) - 1
    # distinct bits, so each sum is their OR; a start meeting every state,
    # as each does on a minimal action, takes the full mask at once
    shadows = [
        every if len(met) == len(bit) else sum(map(bit.__getitem__, met))
        for _, met in _start_words(ctx, graph=graph)
    ]
    runs, graph = _start_words(ctx, True, graph), None  # now only the set's run holds it
    initial = None if ctx.all_fix_base() else _minorising_set(ctx, runs)["set"]
    distinct = set(shadows)
    opens = sorted(
        (sorted(ctx.state_label(s) for i, s in enumerate(states) if m >> i & 1), m)
        for m in distinct
        if not any(o != m and o & m == o for o in distinct)
    )
    return {
        "verdict": "verified",
        "degree": len(opens),
        "invariant_opens": [labels for labels, _ in opens],
        "reduced_set": [ctx.state_label(states[shadows.index(m)]) for _, m in opens],
        "initial_set": initial,
        "dense_orbit_check": all(m == every for m in shadows) if len(opens) == 1 else None,
        "depth": ctx.depth,
        "word_bound": ctx.word_bound,
    }


def _schedule(ctx, xi, eta, target, word, strategy) -> dict:
    trace = []
    cur = (ctx.state_clopen(xi), ctx.state_clopen(eta))
    for name in word:
        cur = (ctx.image(name, cur[0]), ctx.image(name, cur[1]))
        trace.append([str(cur[0]), str(cur[1])])
    if not (cur[0].leq(target) and cur[1].leq(target)):
        # a search handed over a word that misses the target: a fault
        # (exit 70), raised whether or not asserts are compiled in
        raise AssertionError(f"schedule {list(word)} does not land inside {target}")
    return {
        "verdict": "verified",
        "source": [ctx.state_label(xi), ctx.state_label(eta)],
        "target": str(target),
        "word": list(word),
        "word_length": len(word),
        "trace": trace,
        "strategy": strategy,
    }


def pair_compression(ctx, xi, eta, target) -> dict:
    """Word moving both ends of a pair inside the target clopen.

    Cheap schedules first: plain powers of one generator, then a power
    with a single base-fixing rotation before or after it.  The full
    pair BFS is the fallback; it is exact but explores the product of
    the two image orbits.  When that orbit closes within the word bound
    with no word, the pair is refuted at depth; a search cut off by the
    bound raises SearchExhausted.
    """
    if target.is_zero():
        raise ValueError("target clopen is zero")
    start = (ctx.state_clopen(xi), ctx.state_clopen(eta))

    def step(name, pair):
        return ctx.image(name, pair[0]), ctx.image(name, pair[1])

    def done(pair) -> bool:
        return pair[0].leq(target) and pair[1].leq(target)

    if done(start):
        return _schedule(ctx, xi, eta, target, (), "empty")

    for name in ctx.gen_names:
        cur = start
        for k in range(1, ctx.word_bound + 1):
            cur = step(name, cur)
            if done(cur):
                return _schedule(ctx, xi, eta, target, (name,) * k, "power")

    for rot in [n for n in ctx.gen_names if ctx.generator(n).displacement == 0]:
        for name in ctx.gen_names:
            if name == rot:
                continue
            cur = step(rot, start)
            for k in range(1, ctx.word_bound):
                cur = step(name, cur)
                if done(cur):
                    return _schedule(ctx, xi, eta, target, (rot,) + (name,) * k, "rotation+power")
            cur = start
            for k in range(1, ctx.word_bound):
                cur = step(name, cur)
                if done(step(rot, cur)):
                    return _schedule(ctx, xi, eta, target, (name,) * k + (rot,), "power+rotation")

    cut: list = []
    for pair, word in _bfs(ctx.gen_names, ctx.word_bound, step, start, cut):
        if done(pair):
            return _schedule(ctx, xi, eta, target, word, "bfs")
    ends = [ctx.state_label(xi), ctx.state_label(eta)]
    if cut:
        raise SearchExhausted(f"compression of ({', '.join(ends)}) into {target}", ctx.word_bound)
    return {
        "verdict": "refuted_at_depth",
        "reason": "no word moves both ends into the target: their orbit closed within the bound",
        "source": ends,
        "target": str(target),
        "depth": ctx.depth,
        "word_bound": ctx.word_bound,
    }


def free_semigroup_certificate(ctx, length_bound: int = 8) -> dict:
    """Two words with pairwise-distinct images on all short products.

    g comes from the skewering search; h = r g r^-1 conjugates g by a
    rotation r, the first breadth-first word in the base-fixing
    generators within the word bound that keeps alpha in place and moves
    g.alpha into the leftover beta, off g.alpha.  Every product with
    first letter g has its alpha image inside g.alpha, likewise for h,
    and those two clopens are disjoint, which replays the prefix argument
    structurally; on top of that the images of all words up to the
    length bound are compared for literal distinctness.  Distinct images put the words in
    distinct alpha-stabiliser cosets, witnessing discreteness of the
    generated pair.  A refuted skewering search raises NotSkewering with
    its reason.  A rotation search whose orbit closes within the bound
    with no such r is refuted at depth.  Either search cut off by the
    word bound raises SearchExhausted.

    Every entry of ``checks`` holds by construction, so a false one
    raises AssertionError.  The skewering search found g.alpha < alpha.
    The rotation search stopped on r with r.alpha = alpha and r.g.alpha
    inside beta and off g.alpha; r^-1 fixes alpha too, so h.alpha =
    r.g.alpha.  Prefix containment and distinct images then follow by
    ping-pong (Tits, "Free subgroups in linear groups", *J. Algebra* 20,
    1972).
    """
    if length_bound < 0:
        raise ValueError(f"length bound must be at least 0, got {length_bound}")
    sk = skewering_search(ctx)
    if sk["verdict"] == "refuted_at_depth":
        raise NotSkewering(sk["reason"])
    if sk["verdict"] != "found":
        raise SearchExhausted("skewering pair for the free subsemigroup", ctx.word_bound)
    g_word = tuple(sk["word"])
    alpha = sk["alpha"]
    galpha = sk["galpha"]
    beta = alpha.minus(galpha)
    g = ctx.word(g_word)

    fixers = [name for name in ctx.gen_names if ctx.generator(name).displacement == 0]

    def step(name, pair):
        return ctx.image(name, pair[0]), ctx.image(name, pair[1])

    r_word, cut = None, []
    for (ralpha, moved), word in _bfs(fixers, ctx.word_bound, step, (alpha, galpha), cut):
        if word and ralpha == alpha and moved.leq(beta) and not moved.meets(galpha):
            r_word = word
            break
    if r_word is None:
        if cut:
            raise SearchExhausted(
                "base-fixing rotation separating the skewering image", ctx.word_bound
            )
        return {
            "verdict": "refuted_at_depth",
            "reason": (
                "no word in the base-fixing generators fixes alpha and moves "
                "g.alpha into the leftover beta: their orbit on the pair closed "
                "within the bound"
            ),
            "g": list(g_word),
            "depth": ctx.depth,
            "word_bound": ctx.word_bound,
        }
    # h = r g r^-1 maps alpha to r.g.alpha; the first-applied letter leads
    h_word = tuple(map(ctx.inverse_name, reversed(r_word))) + g_word + r_word
    h = ctx.word(h_word)
    halpha = spec_image_clopen(h, alpha)

    table: dict[str, CylinderClopen] = {"": alpha}
    level = {"": alpha}
    for _ in range(length_bound):
        nxt: dict[str, CylinderClopen] = {}
        for word, clopen in level.items():
            nxt["g" + word] = spec_image_clopen(g, clopen)
            nxt["h" + word] = spec_image_clopen(h, clopen)
        table.update(nxt)
        level = nxt

    images = list(table.values())
    distinct = len(set(images)) == len(images)
    g_first_ok = all(
        clopen.leq(galpha) for word, clopen in table.items() if word[:1] == "g"
    )
    h_first_ok = all(
        clopen.leq(halpha) for word, clopen in table.items() if word[:1] == "h"
    )
    checks = {
        "g_alpha_strictly_inside": galpha.lt(alpha),
        "h_alpha_inside_leftover": halpha.leq(beta),
        "first_letter_images_disjoint": not galpha.meets(halpha),
        "g_prefix_containment": g_first_ok,
        "h_prefix_containment": h_first_ok,
        "all_images_distinct": distinct,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        # a fault (exit 70), raised whether or not asserts are compiled in
        raise AssertionError(f"free-semigroup checks fail: {', '.join(failed)}")
    return {
        "verdict": "verified",
        "g": list(g_word),
        "h": list(h_word),
        "rotation": " ".join(r_word),
        "alpha": alpha,
        "g_alpha": galpha,
        "h_alpha": halpha,
        "beta": beta,
        "length_bound": length_bound,
        "image_count": len(set(images)),
        "expected_images": 2 ** (length_bound + 1) - 1,
        "checks": checks,
        "coset_note": (
            "distinct alpha-images put every pair of listed words in "
            "distinct alpha-stabiliser cosets"
        ),
        "word_table": {w: str(c) for w, c in sorted(table.items())},
    }


def orbit_join(ctx, alpha) -> dict:
    """Invariant-at-depth join of generator translates.

    Saturates beta with generator images until nothing grows, then
    greedily picks translate witnesses from the breadth-first image
    enumeration until their join recovers the saturation.
    """
    if alpha.is_zero():
        raise ValueError("orbit join needs a nonzero starting clopen")
    beta = alpha
    rounds = 0
    grown = True
    while grown:
        if rounds > ctx.word_bound:
            raise SearchExhausted("orbit join fixpoint", ctx.word_bound)
        grown = False
        for name in ctx.gen_names:
            img = ctx.image(name, beta)
            if not img.leq(beta):
                beta = beta.join(img)
                grown = True
        rounds += 1

    witnesses: list[Word] = []
    if beta != alpha:
        acc = None
        for clopen, word in reachable_images(ctx, alpha):
            if acc is None:
                acc = clopen
                witnesses.append(word)
            elif not clopen.leq(acc):
                acc = acc.join(clopen)
                witnesses.append(word)
            if acc == beta:
                break
        else:
            raise SearchExhausted("orbit join witnesses", ctx.word_bound)
    return {
        "verdict": "verified",
        "alpha": alpha,
        "alpha_star": beta,
        "is_top": beta.is_top(),
        "witness_words": [list(w) for w in witnesses],
        "witness_count": len(witnesses),
        "rounds": rounds,
        "depth": ctx.depth,
    }


def _phase_one_feasible(
    rows: list[tuple[dict[int, Fraction], Fraction]], nvars: int
) -> tuple[bool, dict[int, Fraction]]:
    """Exact phase-one simplex with Bland's rule; equalities, x >= 0.

    The tableau is sparse: each row, the objective row included, is a
    ``{column: Fraction}`` dict without zeros.  Column ``nvars + i`` is
    row i's artificial variable and the reserved key ``_RHS`` holds the
    right side, made nonnegative by negating the row.
    """
    tableau: list[dict[int, Fraction]] = []
    obj: dict[int, Fraction] = {}
    for i, (coeffs, rhs) in enumerate(rows):
        sign = -1 if rhs < 0 else 1
        row = {j: sign * v for j, v in {**coeffs, _RHS: rhs}.items() if v}
        for j, v in row.items():
            obj[j] = obj.get(j, 0) + v
        row[nvars + i] = Fraction(1)
        tableau.append(row)
    obj = {j: v for j, v in obj.items() if v}
    basis = [nvars + i for i in range(len(rows))]

    while True:
        enter = min(
            (j for j, v in obj.items() if 0 <= j < nvars and v > 0), default=None
        )
        if enter is None:
            break
        ratios = [
            (row.get(_RHS, Fraction(0)) / row[enter], basis[i], i)
            for i, row in enumerate(tableau)
            if row.get(enter, 0) > 0
        ]
        if not ratios:
            break
        pivot_row = min(ratios)[2]
        factor = tableau[pivot_row][enter]
        prow = {j: v / factor for j, v in tableau[pivot_row].items()}
        tableau[pivot_row] = prow
        for row in (*tableau, obj):
            f = row.get(enter)
            if f is None or row is prow:
                continue
            for j, p in prow.items():
                v = row.pop(j, 0) - f * p
                if v:
                    row[j] = v
        basis[pivot_row] = enter

    if obj.get(_RHS):
        return False, {}
    return True, {
        b: row.get(_RHS, Fraction(0)) for b, row in zip(basis, tableau) if b < nvars
    }


def _forcing_order(rows: list[tuple[list, list]], nvars: int) -> tuple[list[int], int]:
    """LP presolve's forcing rule on the invariance rows, for x >= 0.

    A row ``(plus, minus)`` with exactly one side still holding live (not
    yet forced) atoms forces them to 0, and every row that holds a newly
    forced atom is queued again.  Returns the indices of the forcing
    rows, in the order they forced, and the number of atoms left live.
    """
    rows_of: list[list[int]] = [[] for _ in range(nvars)]
    for i, (plus, minus) in enumerate(rows):
        for j in (*plus, *minus):
            rows_of[j].append(i)
    live = [True] * nvars
    queue = deque(range(len(rows)))
    order = []
    while queue:
        i = queue.popleft()
        plus, minus = rows[i]
        plus = [j for j in plus if live[j]]
        minus = [j for j in minus if live[j]]
        if bool(plus) == bool(minus):
            continue
        order.append(i)
        for j in plus or minus:
            live[j] = False
            queue.extend(rows_of[j])
    return order, sum(live)


def _invariance_rows(ctx: ActionContext) -> tuple[list, int]:
    """One row ``(plus, minus)`` per generator g and working cylinder C
    with g·C ≠ C, over the atoms one displacement level deeper: the atoms
    of g·C outside C, then those of C outside g·C, for "μ(g·C) = μ(C)".

    The atoms are the sphere in address order, so the atoms below a
    vertex are one run of indices.  g·C is a step of the search state C:
    a vertex deeper than g's displacement moves by the vertex rule, and
    any other image is the memoised clopen image, a union of runs."""
    depth = ctx.depth
    shape = ctx.shape
    level = depth + ctx.max_displacement
    atoms = sphere_list(shape, level)
    width = [shape.sphere_size(level) // shape.sphere_size(k) for k in range(level + 1)]

    def below(v) -> range:
        start = bisect_left(atoms, v)
        return range(start, start + width[len(v)])

    rows = []
    for name in ctx.gen_names:
        for c in sphere_list(shape, depth):
            inside = below(c)
            image = ctx.step(name, c)
            if type(image) is tuple:
                image = below(image)
            else:
                image = {j for v in image.cover for j in below(v)}
            plus = [j for j in image if j not in inside]
            minus = [j for j in inside if j not in image]
            if plus or minus:
                rows.append((plus, minus))
    return rows, len(atoms)


def invariant_measure_search(ctx: ActionContext) -> dict:
    """Exact feasibility of a generator-invariant probability on cylinders.

    Variables are the atoms one displacement level below the working
    depth, so every generator image of a working cylinder is a union of
    them; a row of ``_invariance_rows`` reads "sum(plus) = sum(minus)".
    The uniform weights solve a row exactly when its sides have one
    length.  Else the forcing rule: weights are nonnegative, so a row with
    one side empty forces the atoms on its other side to 0; when that
    forces every atom the unit sum cannot hold, with no pivot.  Otherwise
    phase-one simplex decides over the rationals on the unit-sum row, then
    +1 on plus and -1 on minus, and keeps the vertex the full tableau
    reaches.  An infeasible system is explained by the skewering chain:
    invariance forces equal weight on arbitrarily many pairwise-disjoint
    translates.
    """
    if not isinstance(ctx, ActionContext):
        raise TypeError("measure search runs on the single-tree context")
    depth = ctx.depth
    shape = ctx.shape
    level = depth + ctx.max_displacement
    rows, nvars = _invariance_rows(ctx)
    atoms = sphere_list(shape, level)

    if all(len(plus) == len(minus) for plus, minus in rows):
        uniform = Fraction(1, nvars)
        return {
            "verdict": "feasible",
            "depth": depth,
            "atom_level": level,
            "uniform": True,
            "weights": {format_address(shape, a): uniform for a in atoms},
        }

    if _forcing_order(rows, nvars)[1]:
        one, zero = Fraction(1), Fraction(0)
        system = [(dict.fromkeys(range(nvars), one), one)]
        system += [({**dict.fromkeys(p, one), **dict.fromkeys(m, -one)}, zero) for p, m in rows]
        feasible, solution = _phase_one_feasible(system, nvars)
        if feasible:
            return {
                "verdict": "feasible",
                "depth": depth,
                "atom_level": level,
                "uniform": False,
                "weights": {
                    format_address(shape, a): solution.get(j, zero) for j, a in enumerate(atoms)
                },
            }

    certificate: dict = {
        "note": (
            "invariance forces every word translate of a shrinking "
            "cylinder to carry the weight of the cylinder itself, and "
            "the finite system already has no nonnegative solution"
        ),
    }
    sk = skewering_search(ctx)
    if sk["verdict"] == "found":
        word = tuple(sk["word"])
        alpha = sk["alpha"]
        beta = alpha.minus(sk["galpha"])
        translates = []
        cur = beta
        for _ in range(3):
            translates.append(str(cur))
            cur = ctx.word_image(word, cur)
        certificate.update(
            {
                "skewering_word": list(word),
                "alpha": str(alpha),
                "beta": str(beta),
                "disjoint_translates": translates,
            }
        )
    return {
        "verdict": "infeasible",
        "depth": depth,
        "atom_level": level,
        "certificate": certificate,
    }


def _site_generators(shape: TreeShape, local: FiniteGroup, prefix: str, v) -> dict:
    """The decorations at the one site v, named prefix0, prefix1, ..."""
    return {f"{prefix}{k}": spec for k, spec in enumerate(site_decorations(shape, local, (v,)))}


def translation_rotation_context(
    local: FiniteGroup,
    depth: int = 3,
    word_bound: int = 6,
) -> ActionContext:
    """Translations along every colour plus the local recolourings and
    one deeper site rotation; the standard transitive working context."""
    shape = regular(local.degree)
    gens = {
        **{f"t{c}": hyperbolic_isometry(shape, (c,)) for c in shape.colours()},
        **_site_generators(shape, local, "rho", ROOT),
        **_site_generators(shape, local, "s", (0,)),
    }
    return ActionContext(shape, gens, depth, word_bound)


def skewering_context(
    local: FiniteGroup,
    depth: int = 2,
    word_bound: int = 6,
) -> ActionContext:
    """One translation plus rotations that leave no finite end orbit.

    The root cycle and the deeper site rotation spread the translation
    axis around, so no averaged point mass survives; this is the
    standard context for the measure dichotomy.  A local group that
    leaves either site without a rotation raises a ValueError.
    """
    shape = regular(local.degree)
    roots = site_decorations(shape, local, (ROOT,))
    below = site_decorations(shape, local, ((0,),))
    for site, found in (("v0", roots), ("0", below)):
        if not found:
            raise ValueError(f"the skewering context needs a site rotation at {site}, "
                             "and the local group gives none there")
    moves_all = (r for r in roots if all(r.sites[0][1](c) != c for c in shape.colours()))
    gens = {
        "t0": hyperbolic_isometry(shape, (0,)),
        "s0": below[0],
        "rho": next(moves_all, roots[0]),
    }
    return ActionContext(shape, gens, depth, word_bound)


def rotation_context(
    local: FiniteGroup,
    depth: int = 2,
    word_bound: int = 4,
) -> ActionContext:
    """Base-fixing recolourings only; every orbit is finite."""
    shape = regular(local.degree)
    return ActionContext(shape, _site_generators(shape, local, "rho", ROOT), depth, word_bound)


def two_copy_product_context(
    local: FiniteGroup,
    depth: int = 2,
    word_bound: int = 6,
) -> TwoCopyContext:
    """Two boundary copies with the translation context acting copy-wise."""
    shape = regular(local.degree)
    gens = {f"t{c}": hyperbolic_isometry(shape, (c,)) for c in shape.colours()}
    gens.update(_site_generators(shape, local, "rho", ROOT))
    return TwoCopyContext(shape, gens, depth, word_bound)
