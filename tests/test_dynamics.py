"""Boundary dynamics: minimality, skewering, minorising data, pair
compression, free subsemigroups, orbit joins, invariant measures."""
from __future__ import annotations

import copy
import functools
import gc
import random
import weakref
from fractions import Fraction

import pytest

from tdlclab.boolalg import ROOT, CylinderClopen, regular
from tdlclab.certificates import canonical_json
from tdlclab.errors import NotSkewering, SearchExhausted
from tdlclab.permgrp import FiniteGroup, Perm, cyclic_group, dihedral_group, symmetric_group
from tdlclab.tree import IsometrySpec, SpecWord, hyperbolic_isometry, site_group, spec_image_clopen
from tdlclab import dynamics as dy
from tdlclab import localstruct as ls

from oracles import (
    oracle_check_minimal,
    oracle_first_words,
    oracle_forcing_order,
    oracle_forcing_replay,
    oracle_invariance_rows,
    oracle_minorising_degree,
    oracle_phase_one_feasible,
    oracle_rooted_generators,
    oracle_rotation_context,
    oracle_shortlex_words,
    oracle_skewering,
    oracle_skewering_context,
    oracle_translation_rotation_context,
    oracle_two_copy_product_context,
)

T3 = regular(3)
S3 = symmetric_group(3)
# degree 12, with orbits {0, 1}, {2, 10} and {3, 4, 11}: labels such as
# "10" sort before "2", so label order is not address order
G12 = FiniteGroup(12, [Perm.from_cycles(12, (2, 10), (0, 1)), Perm.from_cycles(12, (3, 11, 4))])


def cyl(*addr):
    return CylinderClopen.cylinder(T3, tuple(addr))


# ---------------------------------------------------------------- contexts


def test_context_adds_inverses_and_detects_involutions():
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    assert "t0" in ctx.gen_names and "t0~" in ctx.gen_names
    # the root transposition and the site rotation square to the identity
    assert "rho0~" not in ctx.gen_names
    assert "s0~" not in ctx.gen_names
    assert ctx.inverse_name("t0") == "t0~"
    assert ctx.inverse_name("t0~") == "t0"
    assert ctx.inverse_name("rho0") == "rho0"
    assert ctx.word(("t0", "t0~")).is_identity_on(6)


def _generators(ctx) -> dict:
    """A context's generator specs by name, in ``gen_names`` order, with
    the added inverses left out; on two copies, the base context's."""
    base = getattr(ctx, "_base", ctx)
    return {name: base.generator(name).factors[0][0] for name in base.gen_names if "~" not in name}


def _built(make, local):
    """(generator names and specs in order, all generator names), or the
    exception type when the recipe refuses the local group."""
    try:
        ctx = make(local, depth=2)
    except Exception as exc:  # the old recipe's exception is the reference
        return type(exc)
    return list(_generators(ctx).items()), ctx.gen_names


_SITE_LOCALS = {
    "C3": cyclic_group(3),
    "S3": S3,
    "D4": dihedral_group(4),
    "S4": symmetric_group(4),
}


@pytest.mark.parametrize("name", sorted(_SITE_LOCALS))
def test_standard_contexts_match_their_hand_built_recipes(name):
    """The four standard contexts build their site generators through
    ``site_decorations``; the recipes that built them by hand give the
    same names, in the same order, and equal specs.  In C3 only the
    identity fixes a colour, so the skewering context, which needs a
    site rotation below the base vertex, refuses it: the library with a
    ValueError naming that site, the recipe with an IndexError."""
    local = _SITE_LOCALS[name]
    pairs = (
        (dy.translation_rotation_context, oracle_translation_rotation_context),
        (dy.skewering_context, oracle_skewering_context),
        (dy.rotation_context, oracle_rotation_context),
        (dy.two_copy_product_context, oracle_two_copy_product_context),
    )
    for new, old in pairs:
        if name == "C3" and new is dy.skewering_context:
            assert _built(old, local) is IndexError
            with pytest.raises(ValueError, match="site rotation at 0,"):
                new(local)
            continue
        assert _built(new, local) == _built(old, local), new.__name__


def test_skewering_context_names_the_missing_base_rotation():
    with pytest.raises(ValueError, match="site rotation at v0,"):
        dy.skewering_context(FiniteGroup(3, []))


def test_rooted_default_generators_match_the_interleaved_loop():
    """``cli.build_context`` on a rooted spec with no named elements names
    the base-vertex and the first-child decorations rho0, s0, rho1, s1,
    ..., as the hand-built loop did, over one to three local generators."""
    from tdlclab import cli
    from test_cli import ROOTED_BINARY

    generators = {
        2: ["(0 1)"],
        3: ["(0 1 2)", "(1 2), (0 1 2)"],
        4: ["(0 1 2 3), (1 3)", "(0 1), (0 1 2 3)", "(0 1), (1 2), (2 3)"],
    }
    lengths = set()
    for degree, texts in generators.items():
        for gens in texts:
            text = ROOTED_BINARY.replace("degree = 2", f"degree = {degree}")
            spec = cli.parse_spec_text(text.replace("generators = (0 1)", f"generators = {gens}"))
            got = _generators(cli.build_context(spec))
            assert list(got.items()) == list(oracle_rooted_generators(spec).items()), gens
            lengths.add(len(got))
    assert lengths == {2, 4, 6}


def _listed_generators() -> list:
    """The distinct generator specs of every context in this file (60
    seeded random ones) and of every spec text in ``test_cli``."""
    from tdlclab import cli
    from test_cli import (
        DEG12, LONE_AXIS, ROOTED_BINARY, ROTONLY, TWOCOPY, US3, US3_ELEMENTS, US3_WORD,
    )

    contexts = [make() for make, _ in _DEGREE_CONTEXTS.values()]
    contexts += [make() for make in _VERTEX_CONTEXTS.values()]
    rng = random.Random(17)
    contexts += [_random_context(rng) for _ in range(60)]
    specs = []
    for text in (US3, US3_ELEMENTS, US3_WORD, ROTONLY, LONE_AXIS, DEG12, ROOTED_BINARY, TWOCOPY):
        spec = cli.parse_spec_text(text)
        contexts.append(cli.build_context(spec))
        specs += [el for el in spec.elements.values() if isinstance(el, IsometrySpec)]
    for ctx in contexts:
        ctx = getattr(ctx, "_base", ctx)
        specs += [ctx.generator(name).factors[0][0] for name in ctx.gen_names if "~" not in name]
    return list(dict.fromkeys(specs))


def test_involutions_are_decided_on_a_ball_of_the_generators_size():
    # the context decides g^2 = 1 on the ball of radius 2d + s + 2; the
    # radius depth + 2d + s + 2 it used before gives the same verdict at
    # depths 1 to 8.  Those balls are nested, so once g^2 fixes one, it
    # fixes the smaller ones.  A degree-12 ball past 200,000 vertices is
    # skipped, which leaves the degree-12 translation at depth 1 only.
    seen = set()
    for spec in _listed_generators():
        shape, d, s = spec.shape, abs(spec.displacement), spec.depth
        square = SpecWord(shape, ((spec, 2),))
        fixed = False
        for depth in range(8, 0, -1):
            radius = depth + 2 * d + s + 2
            if sum(map(shape.sphere_size, range(radius + 1))) > 200_000:
                continue
            fixed = fixed or square.is_identity_on(radius)
            involution = dy.ActionContext(shape, {"g": spec}, depth).inverse_name("g") == "g"
            assert involution == fixed, (spec, depth)
            seen.add(involution)
    assert seen == {False, True}


def test_context_rejects_bad_parameters():
    gens = {"t0": hyperbolic_isometry(T3, (0,))}
    with pytest.raises(ValueError):
        dy.ActionContext(T3, gens, depth=0)
    with pytest.raises(ValueError):
        dy.ActionContext(T3, gens, depth=2, word_bound=0)
    with pytest.raises(ValueError):
        dy.ActionContext(T3, {"bad~name": hyperbolic_isometry(T3, (0,))}, depth=2)


def test_word_image_agrees_with_composed_recipe():
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    rng = random.Random(7)
    for _ in range(20):
        names = tuple(rng.choice(ctx.gen_names) for _ in range(rng.randint(1, 4)))
        start = ctx.state_clopen(rng.choice(ctx.states()))
        assert spec_image_clopen(ctx.word(names), start) == ctx.word_image(names, start)


# -------------------------------------------------------------- minimality


def test_minimal_translation_rotation_depth3():
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    report = dy.check_minimal(ctx)
    assert report["verdict"] == "minimal-at-depth"
    assert report["counterexample"] is None
    assert report["state_count"] == 12
    assert len(report["witness_words"]) == 144
    assert report["max_word_length"] == 2
    assert all(len(w) <= 6 for w in report["witness_words"].values())


def test_minimal_monotone_in_depth():
    """Witnesses only lengthen with depth.

    Let a' and b' be depth-(n+1) states below the depth-n states a and b,
    so cyl a contains cyl a' and cyl b contains cyl b'.  The depth-(n+1)
    witness w for (a', b') has w(cyl a') meeting cyl b', so w(cyl a),
    which contains w(cyl a'), meets cyl b, which contains cyl b'.  So w
    is a word within the bound for (a, b), and the depth-n witness, the
    shortlex-least such word, is no longer than w.  Every depth-n pair
    has such children, so ``max_word_length`` cannot fall either, and
    minimality at depth n + 1 implies it at depth n.
    """
    reports = {}
    for n in range(1, 6):
        ctx = dy.translation_rotation_context(S3, depth=n, word_bound=6)
        report = dy.check_minimal(ctx)
        assert report["verdict"] == "minimal-at-depth"
        words = report["witness_words"]
        label = ctx.state_label
        reports[n] = ctx.states(), label, words, report["max_word_length"]
    for n in range(1, 5):
        states, label, words, longest = reports[n]
        deeper, label1, words1, longest1 = reports[n + 1]
        below = {a: [c for c in deeper if c[:n] == a] for a in states}
        assert all(len(kids) == 2 for kids in below.values())
        for a in states:
            for b in states:
                w = words[f"{label(a)}->{label(b)}"]
                for a1 in below[a]:
                    for b1 in below[b]:
                        assert len(w) <= len(words1[f"{label1(a1)}->{label1(b1)}"])
        assert longest <= longest1


@pytest.mark.parametrize(
    "build",
    [
        *(functools.partial(dy.translation_rotation_context, S3, depth=n, word_bound=6)
          for n in (1, 2, 3, 4)),
        functools.partial(dy.two_copy_product_context, S3, depth=2, word_bound=6),
        functools.partial(dy.two_copy_product_context, S3, depth=3, word_bound=4),
        functools.partial(dy.rotation_context, S3, depth=2),
        functools.partial(dy.skewering_context, S3, depth=3),
        lambda: dy.ActionContext(T3, {"e": IsometrySpec(T3)}, depth=1, word_bound=2),
    ],
    ids=["depth-1", "depth-2", "depth-3", "depth-4", "two-copy-2", "two-copy-3",
         "rotations", "skewering", "identity"],
)
def test_check_minimal_matches_the_three_lookup_oracle(build):
    # witness keys in the same order: --format text prints them in that order
    new, old = dy.check_minimal(build()), oracle_check_minimal(build())
    assert new == old
    if new["witness_words"] is not None:
        assert list(new["witness_words"].items()) == list(old["witness_words"].items())


def test_not_minimal_for_end_stabilising_rotation():
    stab = S3.point_stabilizer(0)
    gens = {"s0": IsometrySpec(T3, sites=(((0,), stab.pruned_gens[0]),))}
    ctx = dy.ActionContext(T3, gens, depth=1, word_bound=4)
    report = dy.check_minimal(ctx)
    assert report["verdict"] == "not-minimal-at-depth"
    assert report["counterexample"] == ["0", "1"]


def test_not_minimal_identity_only():
    ctx = dy.ActionContext(T3, {"e": IsometrySpec(T3)}, depth=1, word_bound=2)
    report = dy.check_minimal(ctx)
    assert report["verdict"] == "not-minimal-at-depth"
    assert report["counterexample"] == ["0", "1"]


def test_two_copy_not_minimal_across_copies():
    two = dy.two_copy_product_context(S3, depth=2, word_bound=6)
    report = dy.check_minimal(two)
    assert report["verdict"] == "not-minimal-at-depth"
    a, b = report["counterexample"]
    assert a.split(":")[0] != b.split(":")[0]


# ---------------------------------------------------------------- skewering


def test_skewering_found_on_translations():
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    report = dy.skewering_search(ctx)
    assert report["verdict"] == "found"
    assert report["word"] == ["t0"]
    assert str(report["alpha"]) == "{0}"
    assert str(report["galpha"]) == "{01}"
    assert report["galpha"].lt(report["alpha"])
    assert report["galpha_measure"] < report["alpha_measure"]
    assert report["alpha_measure"] == Fraction(1, 3)
    assert report["galpha_measure"] == Fraction(1, 6)


def test_skewering_refuted_when_base_is_fixed():
    ctx = dy.rotation_context(S3, depth=2, word_bound=4)
    report = dy.skewering_search(ctx)
    assert report["verdict"] == "refuted_at_depth"
    assert "base vertex" in report["reason"]


def test_skewering_refuted_by_orbit_saturation():
    # the edge inversion moves the base vertex but generates a finite orbit
    ctx = dy.ActionContext(T3, {"m0": IsometrySpec(T3, word=(0,))}, depth=2, word_bound=4)
    assert ctx.gen_names == ("m0",)
    report = dy.skewering_search(ctx)
    assert report["verdict"] == "refuted_at_depth"
    assert "orbit closed" in report["reason"]


# ----------------------------------------------------------- minorising data


def test_minorising_set_single_cylinder():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=6)
    report = dy.minorising_set(ctx)
    assert report["set"] == ["01"]
    assert report["set_size"] == 1
    assert sorted(report["witnesses"]) == ["01", "02", "10", "12", "20", "21"]
    assert report["max_word_length"] <= 5
    # replay every witness: the image must sit strictly below its target
    start = cyl(0, 1)
    for target, data in report["witnesses"].items():
        image = ctx.word_image(tuple(data["word"]), start)
        assert image.lt(cyl(*[int(c) for c in target]))
    assert report["top_witness"]["word"] == []


def test_minorising_witnesses_project_down():
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    report = dy.minorising_set(ctx)
    start = cyl(*[int(c) for c in report["set"][0]])
    for target, data in report["witnesses"].items():
        image = ctx.word_image(tuple(data["word"]), start)
        shallower = cyl(*[int(c) for c in target[:2]])
        assert image.lt(shallower)


def test_minorising_set_two_copy_needs_both_copies():
    two = dy.two_copy_product_context(S3, depth=2, word_bound=6)
    report = dy.minorising_set(two)
    assert report["set_size"] == 2
    assert sorted(label.split(":")[0] for label in report["set"]) == ["0", "1"]


def test_minorising_degree_single_tree():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=6)
    report = dy.minorising_degree(ctx)
    assert report["degree"] == 1
    assert len(report["reduced_set"]) == 1
    assert report["invariant_opens"] == [["01", "02", "10", "12", "20", "21"]]
    assert report["dense_orbit_check"] is True


def test_minorising_degree_two_copy():
    two = dy.two_copy_product_context(S3, depth=2, word_bound=6)
    report = dy.minorising_degree(two)
    assert report["degree"] == 2
    assert len(report["reduced_set"]) == 2
    sides = [set(label.split(":")[0] for label in open_) for open_ in report["invariant_opens"]]
    assert sides == [{"0"}, {"1"}]
    assert report["dense_orbit_check"] is None


_DEGREE_CONTEXTS = {
    "translation-rotation-2": (lambda: dy.translation_rotation_context(S3, depth=2), 1),
    "translation-rotation-3": (lambda: dy.translation_rotation_context(S3, depth=3), 1),
    "skewering": (lambda: dy.skewering_context(S3), 1),
    # measure-preserving rotations never shrink a cylinder strictly, so
    # there is no minorising set; the degree counts the state orbits
    "rotations-only": (lambda: dy.rotation_context(S3), None),
    "half-tree-stabiliser": (lambda: ls.half_tree_stabiliser_context(S3, 0, depth=2), None),
    "two-copy": (lambda: dy.two_copy_product_context(S3, depth=2), 2),
    # 8 and 62 opens, among them ["10", "2"]
    "degree-12-rotations-1": (lambda: dy.rotation_context(G12, depth=1), None),
    "degree-12-rotations-2": (lambda: dy.rotation_context(G12, depth=2), None),
}


def _state_orbit_count(ctx):
    """Orbits of the generators on the depth-n states, by union-find;
    only meaningful when every generator fixes the base vertex."""
    parent = {s: s for s in ctx.states()}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for name in ctx.gen_names:
        word = ctx.generator(name)
        for s in ctx.states():
            parent[find(s)] = find(word.apply(s))
    return len({find(s) for s in ctx.states()})


@pytest.mark.parametrize("name", sorted(_DEGREE_CONTEXTS))
def test_dense_orbit_check_agrees_with_check_minimal(name):
    make, degree = _DEGREE_CONTEXTS[name]
    ctx = make()
    report = dy.minorising_degree(ctx)
    if degree is None:
        assert ctx.all_fix_base()
        assert report["initial_set"] is None
        degree = _state_orbit_count(ctx)
    else:
        assert report["initial_set"] == dy.minorising_set(ctx)["set"]
    assert report["degree"] == degree
    minimal = dy.check_minimal(ctx)["verdict"] == "minimal-at-depth"
    assert report["dense_orbit_check"] == (minimal if degree == 1 else None)


def _rooted_contexts() -> list:
    """The contexts ``cli.build_context`` makes for rooted specs: a site
    rotation at the base vertex and one below it per local generator."""
    from tdlclab import cli
    from test_cli import ROOTED_BINARY

    rooted_sym3 = ROOTED_BINARY.replace("degree = 2", "degree = 3").replace(
        "generators = (0 1)", "generators = (1 2), (0 1 2)"
    )
    return [
        cli.build_context(cli.parse_spec_text(f"{text}\n[limits]\ndepth = {depth}\n"))
        for text in (ROOTED_BINARY, rooted_sym3)
        for depth in (1, 2, 3, 4)
    ]


def _degree_or_exhaustion(degree, ctx):
    try:
        return degree(ctx)
    except SearchExhausted as exc:
        return str(exc)


def test_minorising_degree_matches_the_frozenset_oracle():
    # same report and key order on every degree context, two copies at
    # depths 2 to 4, seeded random contexts and the CLI's rooted ones
    contexts = [make() for make, _ in _DEGREE_CONTEXTS.values()]
    contexts += [dy.two_copy_product_context(S3, depth=n) for n in (2, 3, 4)]
    rng = random.Random(23)
    contexts += [_random_context(rng) for _ in range(60)]
    contexts += _rooted_contexts()
    degrees = set()
    for ctx in contexts:
        new = _degree_or_exhaustion(dy.minorising_degree, ctx)
        old = _degree_or_exhaustion(oracle_minorising_degree, ctx)
        assert new == old
        if isinstance(new, dict):
            assert list(new.items()) == list(old.items())
            degrees.add(new["degree"])
    assert {1, 2, 8, 62} <= degrees


def test_two_copy_degree_steps_stay_near_one_tree(monkeypatch):
    """Two copies search one base graph, each base start once per call.

    An expansion steps one state by every generator, counted when the
    call's graphs are done.  ``check_minimal`` searches every start on
    either context, so two copies expand exactly the base graph.  On two
    copies no start covers the other copy, so ``minorising_set`` tries
    every start, and ``minorising_degree``, whose initial set and shadows
    share one graph, expands exactly one base graph searched from every
    start with ``inside`` and then without (211 ids here)."""
    two = dy.two_copy_product_context(S3, depth=4, word_bound=8)
    graphs = []
    build = dy._ActionGraph.__init__

    def kept(self, ctx):
        build(self, ctx)
        graphs.append(self)

    def expanded(run) -> int:
        graphs.clear()
        run()
        return sum(e is not None for graph in graphs for e in graph.edges)

    def every_base_start():
        graph = dy._ActionGraph(two._base)
        for inside in (True, False):
            for a in graph.starts:
                dy._first_words(graph, a, inside)

    monkeypatch.setattr(dy._ActionGraph, "__init__", kept)
    minimal = expanded(lambda: dy.check_minimal(two))
    assert minimal == expanded(lambda: dy.check_minimal(two._base))
    degree = expanded(lambda: dy.minorising_degree(two))
    assert degree == expanded(every_base_start), degree


def _order_free_results(ctx) -> dict:
    """What a search reports that no generator order may change."""
    base = getattr(ctx, "_base", ctx)
    try:
        degree = dy.minorising_degree(ctx)
        degree = {k: degree[k] for k in ("degree", "invariant_opens", "reduced_set", "initial_set")}
    except SearchExhausted as exc:
        degree = str(exc)
    out = {
        "minimal": dy.check_minimal(ctx)["verdict"],
        "lengths": {(a, b): len(w) for a, met in dy._start_words(ctx) for b, w in met.items()},
        "degree": degree,
        "blocks": dy._ActionGraph(base).blocks,
    }
    if ctx is base:
        out["measure"] = dy.invariant_measure_search(ctx)["verdict"]
        out["live"] = dy._forcing_order(*dy._invariance_rows(ctx))[1]
    return out


def test_generator_order_changes_no_length_verdict_degree_or_block():
    """Reordering a context's generators keeps every result below.

    Proof.  A reordering permutes ``gen_names``, added inverses included,
    and each generator steps a state by its own map alone, so the action
    graph has the same edges, only listed in another order.
    - ``_first_words`` is a breadth-first search from the start's id, cut
      at the word bound and stopped once its block is met.  The first id
      meeting b is found at the level of b's graph distance from the
      start, and which ids lie within the bound does not depend on the
      order of the edges.  So each per-pair word length and the set of
      pairs found are kept, and with them ``check_minimal``'s verdict.
    - ``minorising_degree``'s shadows are those sets of met states, so its
      opens and degree are kept.  The reduced set takes the first start
      of each open in state order, and the initial set tries candidates
      in state order over the same coverage sets, ``inside`` ones.
    - ``_ActionGraph.blocks`` closes the least unplaced state under the
      met states of its neighbours: a closure on the edge set.
    - ``_invariance_rows`` makes one row per working cylinder and
      generator, so a reordering permutes the rows.  A forcing pass
      reaches one fixpoint whatever the row order, and whether a
      nonnegative solution exists does not depend on the row order
      either, so the measure verdict is kept.
    - So is the forcing pass's live-atom count: the forcing rule is
      monotone (an atom a row forces, it still forces once more atoms
      are forced), so every row order reaches its least fixpoint.

    The words themselves, which break ties by generator order, and the
    weights that the simplex reaches may change; they are not compared.
    """
    contexts = [make() for make, _ in _DEGREE_CONTEXTS.values()]
    contexts += _rooted_contexts()[:6]
    rng = random.Random(43)
    contexts += [_random_context(rng) for _ in range(12)]
    for ctx in contexts:
        want = _order_free_results(ctx)
        gens = list(_generators(ctx).items())
        base = getattr(ctx, "_base", ctx)
        for _ in range(2):
            rng.shuffle(gens)
            other = type(ctx)(base.shape, dict(gens), ctx.depth, ctx.word_bound)
            assert _order_free_results(other) == want, [name for name, _ in gens]


def test_raising_the_word_bound_keeps_every_first_word():
    """Every first word found under word bound b is the same word under
    b + 1, with ``inside`` on and off, so ``minimal-at-depth`` never
    turns into ``not-minimal-at-depth`` when the bound is raised.

    Proof.  The action graph does not read the word bound; only
    ``_first_words`` does, as the number of breadth-first levels it
    expands.  Under b + 1 the search makes the same moves as under b for
    levels 1 to b: the same ids in the same order, with the same parent
    pointers, and a state once recorded is never recorded again.  So
    either it stops inside those levels where the run under b stopped,
    or it goes on to level b + 1, which only records states still
    missing.  Each word recorded under b is spelled from parent pointers
    set at levels 1 to b, so it is spelled the same under b + 1.  A
    context minimal under b has every pair found there; all of them are
    found under b + 1 with the same words, so the report is the same but
    for its ``word_bound``.
    """
    contexts = [make() for make, _ in _DEGREE_CONTEXTS.values()]
    contexts += [dy.two_copy_product_context(S3, depth=n) for n in (2, 3)]
    rng = random.Random(47)
    contexts += [_random_context(rng) for _ in range(20)]
    kept = {"minimal-at-depth": 0, "not-minimal-at-depth": 0}
    for ctx in contexts:
        base = getattr(ctx, "_base", ctx)
        gens = _generators(ctx)
        at = {b: type(ctx)(base.shape, gens, ctx.depth, b) for b in range(1, 6)}
        for b in range(1, 5):
            for inside in (False, True):
                higher = dict(dy._start_words(at[b + 1], inside))
                for a, words in dy._start_words(at[b], inside):
                    assert higher[a].items() >= words.items(), (b, inside, a)
            report = dy.check_minimal(at[b])
            kept[report["verdict"]] += 1
            if report["verdict"] == "minimal-at-depth":
                assert dy.check_minimal(at[b + 1]) == {**report, "word_bound": b + 1}
    assert all(kept.values()), kept


def _with_word_bound(spec, word_bound):
    """A copy of the parsed spec with ``word_bound`` set."""
    out = copy.copy(spec)
    out.word_bound = word_bound
    return out


def test_orbit_join_exhausts_only_when_the_bound_cuts_its_search():
    """``orbit_join`` raises ``SearchExhausted`` only when its bound cuts a
    search.  The fixpoint raises when the saturation needs more passes
    than the bound allows: a pass is counted only while the last one
    grew, so it raises exactly when the unbounded saturation takes more
    than bound + 1 passes, and otherwise it reaches the same saturation.
    The witnesses raise only when ``_bfs`` reports a cut: a closed orbit
    yields every image of alpha, and their join is the saturation.  The
    specs' translations leave every orbit open, so the rotation-only
    spec adds orbits that close within the bound."""
    from tdlclab import cli
    from test_cli import ROTONLY, US3, US3_ELEMENTS

    raised = set()
    for text in (US3, US3_ELEMENTS, ROTONLY):
        spec = cli.parse_spec_text(text)
        alphas = [CylinderClopen.cylinder(spec.shape, a) for n in (1, 2) for a in spec.shape.sphere(n)]
        alphas += [a.complement() for a in alphas]
        free = cli.build_context(_with_word_bound(spec, 12))
        joins = {alpha: dy.orbit_join(free, alpha) for alpha in alphas}
        for bound in range(1, 7):
            ctx = cli.build_context(_with_word_bound(spec, bound))
            for alpha in alphas:
                passes = joins[alpha]["rounds"]
                try:
                    report = dy.orbit_join(ctx, alpha)
                except SearchExhausted as exc:
                    if "fixpoint" in str(exc):
                        assert passes > bound + 1, (alpha, bound)
                    else:
                        cut = []
                        for _ in dy._bfs(ctx.gen_names, bound, ctx.image, alpha, cut):
                            pass
                        assert cut, (alpha, bound)
                    raised.add((str(exc).split(" (")[0], text == ROTONLY))
                    continue
                assert passes <= bound + 1, (alpha, bound)
                assert report["alpha_star"] == joins[alpha]["alpha_star"], (alpha, bound)
    assert raised == {
        ("search exhausted: orbit join fixpoint", False),
        ("search exhausted: orbit join witnesses", False),
        ("search exhausted: orbit join witnesses", True),
    }


# ------------------------------------------------- vertex states vs clopens


def _axis01_context(depth):
    # displacement 2: a vertex of length 2 is not its own atom, so it
    # moves through the clopen path
    gens = {
        "g": hyperbolic_isometry(T3, (0, 1)),
        "r": IsometrySpec(T3, sites=(((), S3.pruned_gens[0]),)),
    }
    return dy.ActionContext(T3, gens, depth=depth, word_bound=5)


_VERTEX_CONTEXTS = {
    **{
        f"translation-rotation-{n}": (lambda n=n: dy.translation_rotation_context(S3, depth=n))
        for n in (2, 3, 4, 5)
    },
    **{f"axis01-{n}": (lambda n=n: _axis01_context(n)) for n in (2, 3)},
    "skewering-3": lambda: dy.skewering_context(S3, depth=3),
    "rotations-only-2": lambda: dy.rotation_context(S3, depth=2),
    "rotations-only-3": lambda: dy.rotation_context(S3, depth=3),
    "two-copy-2": lambda: dy.two_copy_product_context(S3, depth=2),
    "two-copy-3": lambda: dy.two_copy_product_context(S3, depth=3, word_bound=4),
    # searches that stop at a block smaller than the state count
    "half-tree-stabiliser-2": lambda: ls.half_tree_stabiliser_context(S3, 0, depth=2),
    "two-copy-4": lambda: dy.two_copy_product_context(S3, depth=4, word_bound=8),
}


def _oracle_words(ctx) -> dict:
    return {
        inside: {a: oracle_first_words(ctx, a, inside) for a in ctx.states()}
        for inside in (False, True)
    }


def _tagged_oracle_words(two) -> dict:
    """Oracle words on two copies by the tagging rule: the base context's
    oracle words from s, read on copy c with each state b as (c, b) and
    each letter as name@c."""
    base = _oracle_words(two._base)
    return {
        inside: {
            (c, a): {(c, b): tuple(f"{x}@{c}" for x in w) for b, w in words.items()}
            for c in (0, 1)
            for a, words in base[inside].items()
        }
        for inside in (False, True)
    }


@functools.lru_cache(maxsize=None)
def _listed_oracle_words(name) -> dict:
    # the pair oracle never knows a block, so on two copies it runs every
    # search to the word bound: at depth 4 that is seconds, so there the
    # base oracle is read by the tagging rule, which the pair oracle
    # checks at depths 2 and 3; the two tests over the list share it
    ctx = _VERTEX_CONTEXTS[name]()
    return _tagged_oracle_words(ctx) if name == "two-copy-4" else _oracle_words(ctx)


def _assert_searches_match_oracles(ctx, want=None):
    want = want or _oracle_words(ctx)
    for inside in (False, True):
        for a, words in dy._start_words(ctx, inside):
            assert words == want[inside][a], (a, inside)
    if isinstance(ctx, dy.TwoCopyContext):
        return None
    report = dy.skewering_search(ctx)
    if ctx.all_fix_base():
        assert report["verdict"] == "refuted_at_depth"
        return report["verdict"]
    want = oracle_skewering(ctx)
    if report["verdict"] == "found":
        got = {k: report[k] for k in ("word", "alpha", "galpha")}
    else:
        got = {"saturated": report["verdict"] == "refuted_at_depth"}
    assert got == want
    return report["verdict"]


@pytest.mark.parametrize("name", sorted(_VERTEX_CONTEXTS))
def test_vertex_searches_match_clopen_oracles(name):
    _assert_searches_match_oracles(_VERTEX_CONTEXTS[name](), _listed_oracle_words(name))


def test_graph_met_states_match_a_cylinder_scan():
    # the searches read the depth-n states an id meets off the graph: a
    # trie node's from the trie, a clopen's from its shadow
    for name in ("translation-rotation-3", "axis01-3", "skewering-3", "two-copy-3"):
        ctx = _VERTEX_CONTEXTS[name]()
        ctx = getattr(ctx, "_base", ctx)
        graph = dy._ActionGraph(ctx)
        for a in graph.starts:
            dy._first_words(graph, a)
        for i, m in enumerate(graph.met):
            if m is None:  # the root, which no step reaches
                continue
            clopen = ctx.state_clopen(graph._spell(i))
            scan = tuple(j for j, s in enumerate(graph.starts) if clopen.meets(cyl(*s)))
            assert ((m,) if type(m) is int else m) == scan, (name, graph._spell(i))


def test_two_copy_oracle_catches_a_step_that_ignores_the_copy(monkeypatch):
    # every two-copy result tagged with copy 0: a copy-1 start reports
    # copy-0 states, reached by copy-0 letters
    tagged = dy._tagged
    monkeypatch.setattr(dy, "_tagged", lambda copy, names, words, memo: tagged(0, names, words, memo))
    with pytest.raises(AssertionError):
        _assert_searches_match_oracles(dy.two_copy_product_context(S3, depth=2))


def test_oracle_catches_neighbours_in_another_generator_order(monkeypatch):
    # words are spelled in gen_names order, so a graph that steps the
    # generators, and reads their sections, in another order puts the
    # wrong generator names on the first words
    build = dy._ActionGraph.__init__

    def reversed_order(self, ctx):
        flipped = copy.copy(ctx)
        flipped.gen_names = ctx.gen_names[::-1]
        build(self, flipped)
        self.ctx = ctx  # the searches spell words in the true order

    monkeypatch.setattr(dy._ActionGraph, "__init__", reversed_order)
    with pytest.raises(AssertionError):
        _assert_searches_match_oracles(dy.translation_rotation_context(S3, depth=2))


_SHORTLEX_CONTEXTS = {
    "translation-rotation-3": lambda: dy.translation_rotation_context(S3, depth=3, word_bound=4),
    "skewering-2": lambda: dy.skewering_context(S3, depth=2, word_bound=5),
    "skewering-3": lambda: dy.skewering_context(S3, depth=3, word_bound=4),
}


@pytest.mark.parametrize("name", sorted(_SHORTLEX_CONTEXTS))
def test_first_words_are_the_shortlex_least_words(name):
    """``_first_words`` keeps, for each state b, the shortlex-least word
    up to the bound whose image of the start's cylinder meets b (with
    ``inside``, lies strictly inside b).  A search that expands its ids
    level by level, each in generator order, meets the words of each
    length in shortlex order, and the first word to reach an id is the
    one its parent pointer spells; an image that another word reached
    first has a shortlex-smaller word already, and so do its images, so
    dropping it drops no least word.  The oracle tries every word."""
    ctx = _SHORTLEX_CONTEXTS[name]()
    graph = dy._ActionGraph(ctx)
    for inside in (False, True):
        for a in ctx.states():
            want = oracle_shortlex_words(ctx, a, inside)
            assert dy._first_words(graph, a, inside) == want, (a, inside)


@pytest.mark.parametrize("name", sorted(_VERTEX_CONTEXTS))
def test_first_words_do_not_depend_on_start_order(name):
    # ids follow discovery, so which start reached a state first decides
    # its id; the first words must not change with it.  Two copies search
    # the base graph, so there the base starts are reordered and the
    # words read on both copies as ``_start_words`` reads them
    ctx = _VERTEX_CONTEXTS[name]()
    two = isinstance(ctx, dy.TwoCopyContext)
    base = ctx._base if two else ctx
    states = list(base.states())
    shuffled = states[:]
    random.Random(name).shuffle(shuffled)
    for inside in (False, True):
        want = _listed_oracle_words(name)[inside]
        for order in (states[::-1], shuffled):
            graph = dy._ActionGraph(base)
            got = {a: dy._first_words(graph, a, inside) for a in order}
            if two:
                got = {
                    (c, a): dy._tagged(c, base.gen_names, w, {}) for c in (0, 1) for a, w in got.items()
                }
            assert got == want, inside


def test_graph_computes_each_ids_images_once(monkeypatch):
    # a node below the section depth steps by its parent's images, which
    # are then kept as the parent's edges, not computed again for each of
    # its children, however deep the recursion runs
    calls: dict[int, int] = {}
    images = dy._ActionGraph._images

    def counted(self, i):
        if self.edges[i] is None:
            calls[i] = calls.get(i, 0) + 1
        return images(self, i)

    monkeypatch.setattr(dy._ActionGraph, "_images", counted)
    ctx = dy.translation_rotation_context(S3, depth=5)
    graph = dy._ActionGraph(ctx)
    for a in graph.starts:
        dy._first_words(graph, a)
    assert max(calls.values()) == 1
    assert sum(e is not None for e in graph.edges) == len(calls)
    # the recursion ran, through more than one level below the anchors
    deep = [i for i in calls if graph.depth[i] > graph._reach + 1]
    assert deep and all(graph.edges[graph.parent[i]] is not None for i in deep)


def test_search_frees_its_graph_without_the_cycle_collector(monkeypatch):
    # a graph and the per-start search tables must go when the call
    # returns, not at some later collection, or they add to peak memory
    graphs = []
    build = dy._ActionGraph.__init__

    def tracked(self, ctx):
        build(self, ctx)
        graphs.append(weakref.ref(self))

    monkeypatch.setattr(dy._ActionGraph, "__init__", tracked)
    ctx = dy.translation_rotation_context(S3, depth=4)
    gc.collect()
    gc.disable()
    try:
        dy.check_minimal(ctx)
        dy.minorising_degree(ctx)
        # one graph per call: minorising_degree's initial set and shadows
        # share its one
        assert len(graphs) == 2
        assert all(ref() is None for ref in graphs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _random_context(rng):
    """One to three random translations, edge inversions and single-site
    rotations on the 3-regular tree, at depth 1 to 3."""
    gens = {}
    for k in range(rng.randint(1, 3)):
        kind = rng.choice(("axis", "inversion", "site"))
        if kind == "axis":
            length = rng.randint(1, 3)
            while True:
                axis = tuple(rng.randrange(3) for _ in range(length))
                if all(x != y for x, y in zip(axis, axis[1:])) and (
                    length == 1 or axis[0] != axis[-1]
                ):
                    break
            gens[f"a{k}"] = hyperbolic_isometry(T3, axis)
        elif kind == "inversion":
            gens[f"m{k}"] = IsometrySpec(T3, word=(rng.randrange(3),))
        else:
            site = rng.choice([v for n in range(3) for v in T3.sphere(n)])
            perm = rng.choice(sorted(site_group(T3, S3, site).element_set, key=str))
            gens[f"s{k}"] = IsometrySpec(T3, sites=((site, perm),))
    return dy.ActionContext(T3, gens, depth=rng.randint(1, 3), word_bound=rng.randint(1, 5))


def test_vertex_searches_match_clopen_oracles_seeded():
    rng = random.Random(17)
    verdicts = set()
    for _ in range(60):
        verdicts.add(_assert_searches_match_oracles(_random_context(rng)))
    assert verdicts == {"found", "refuted_at_depth", "not-found-within-bounds"}


def test_check_minimal_moves_deep_vertices_without_clopen_images(monkeypatch):
    # a one-cylinder state deeper than the mover's displacement is its own
    # atom, so the search must never hand it to spec_image_clopen
    def guarded(mover, clopen):
        if len(clopen.cover) == 1 and clopen.depth > len(mover.apply(ROOT)):
            raise AssertionError(f"clopen image of the deep cylinder {clopen}")
        return spec_image_clopen(mover, clopen)

    monkeypatch.setattr(dy, "spec_image_clopen", guarded)
    ctx = dy.translation_rotation_context(S3, depth=5)
    assert dy.check_minimal(ctx)["verdict"] == "minimal-at-depth"


# ------------------------------------------------------------- compression


def test_pair_compression_plain_power():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=8)
    schedule = dy.pair_compression(ctx, (1, 2), (2, 1), cyl(0))
    assert schedule["word"] == ["t0", "t0"]
    assert schedule["strategy"] == "power"
    assert schedule["word_length"] == 2
    assert len(schedule["trace"]) == 2


def test_pair_compression_repelling_end_mixes_a_rotation():
    gens = {
        "t0": hyperbolic_isometry(T3, (0,)),
        "rho": IsometrySpec(T3, sites=(((), Perm((1, 2, 0))),)),
    }
    ctx = dy.ActionContext(T3, gens, depth=2, word_bound=8)
    # (1,0) holds the repelling end of the only translation available
    schedule = dy.pair_compression(ctx, (1, 0), (0, 1), cyl(0, 2))
    assert schedule["word"] == ["rho", "t0~", "t0~", "rho~"]
    assert schedule["strategy"] == "bfs"
    final_xi, final_eta = schedule["trace"][-1]
    target = cyl(0, 2)
    assert ctx.word_image(tuple(schedule["word"]), ctx.state_clopen((1, 0))).leq(target)
    assert ctx.word_image(tuple(schedule["word"]), ctx.state_clopen((0, 1))).leq(target)
    assert final_xi != final_eta


def test_pair_compression_degenerate_pair():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=8)
    schedule = dy.pair_compression(ctx, (1, 2), (1, 2), cyl(0))
    assert schedule["verdict"] == "verified"
    assert schedule["word_length"] <= 8


def test_schedule_refuses_a_word_that_misses_the_target():
    # t0 t0 lands (1,2) and (2,1) inside cyl(0), but the empty word does
    # not: a fault even when asserts are compiled out
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=8)
    assert dy._schedule(ctx, (1, 2), (2, 1), cyl(0), ("t0", "t0"), "power")["verdict"] == "verified"
    with pytest.raises(AssertionError, match="does not land inside"):
        dy._schedule(ctx, (1, 2), (2, 1), cyl(0), (), "empty")


def test_pair_compression_rejects_zero_target():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=8)
    with pytest.raises(ValueError):
        dy.pair_compression(ctx, (1, 2), (2, 1), CylinderClopen.from_addresses(T3, []))


def test_pair_compression_exhausts_when_no_word_compresses():
    # base-fixing rotations permute the depth-2 sphere, so two distinct
    # states never land in one depth-2 cylinder, whatever the word; at
    # bound 1 a word of length 1 steps to a pair the search never reached
    ctx = dy.rotation_context(S3, depth=2, word_bound=1)
    xi, eta = ctx.states()[:2]
    with pytest.raises(SearchExhausted):
        dy.pair_compression(ctx, xi, eta, cyl(0, 1))


@pytest.mark.parametrize("bound", [2, 3, 4, 8])
def test_pair_compression_refutes_a_closed_orbit(bound):
    # the same pair: its orbit closes with words of length at most 2, so
    # at bound 2 the words at the bound step to no unseen pair
    ctx = dy.rotation_context(S3, depth=2, word_bound=bound)
    xi, eta = ctx.states()[:2]
    report = dy.pair_compression(ctx, xi, eta, cyl(0, 1))
    assert report == {
        "verdict": "refuted_at_depth",
        "reason": "no word moves both ends into the target: their orbit closed within the bound",
        "source": ["01", "02"],
        "target": "{01}",
        "depth": 2,
        "word_bound": bound,
    }


def test_pair_compression_seeded_deep_pairs():
    ctx = dy.translation_rotation_context(S3, depth=6, word_bound=8)
    rng = random.Random(11)
    states = ctx.states()
    target = cyl(0, 1)
    for _ in range(10):
        xi, eta = rng.choice(states), rng.choice(states)
        schedule = dy.pair_compression(ctx, xi, eta, target)
        assert schedule["word_length"] <= 8
        for state in (xi, eta):
            assert ctx.word_image(tuple(schedule["word"]), ctx.state_clopen(state)).leq(target)


def test_state_clopen_keeps_one_cylinder_per_vertex():
    ctx = dy.translation_rotation_context(S3, depth=3)
    vertices = list(T3.ball(3))
    for v in vertices + vertices[::-1]:
        got = ctx.state_clopen(v)
        assert got is ctx.state_clopen(v) and got == CylinderClopen.cylinder(T3, v)
    # one kept cylinder per vertex asked about, and a clopen is its own state
    assert len(ctx._cylinders) == len(vertices)
    other = CylinderClopen.from_addresses(T3, [(0, 1), (1,)])
    assert ctx.state_clopen(other) is other and len(ctx._cylinders) == len(vertices)


def _report_or_exhaustion(ctx, xi, eta, target) -> str:
    try:
        return canonical_json(dy.pair_compression(ctx, xi, eta, target))
    except SearchExhausted as exc:
        return f"exhausted: {exc}"


def test_pair_compression_reports_match_on_warm_and_fresh_contexts_seeded():
    # one context answering every query in turn, its kept cylinders and
    # images warm, against a fresh context per query
    warm = dy.translation_rotation_context(S3, depth=4, word_bound=6)
    rng = random.Random(29)
    states = warm.states()
    targets = [CylinderClopen.cylinder(T3, a) for k in (1, 2, 3) for a in T3.sphere(k)]
    targets.append(CylinderClopen.from_addresses(T3, [(0, 1), (2, 0, 1)]))
    texts = []
    for _ in range(30):
        xi, eta, target = rng.choice(states), rng.choice(states), rng.choice(targets)
        fresh = dy.translation_rotation_context(S3, depth=4, word_bound=6)
        texts.append(_report_or_exhaustion(warm, xi, eta, target))
        assert texts[-1] == _report_or_exhaustion(fresh, xi, eta, target)
    # the sample reaches the powers, a rotation schedule and the pair BFS
    for strategy in ("power", "power+rotation", "bfs"):
        assert any(f'"strategy":"{strategy}"' in t for t in texts)


def test_pair_compression_power_then_rotation_replays_seeded():
    # depth-1..3 cylinder targets send some pairs past the plain powers and
    # rotation-first schedules to a power followed by one base-fixing
    # rotation; each such word, replayed as one composed recipe, moves
    # both ends inside the target
    ctx = dy.translation_rotation_context(S3, depth=3)
    rng = random.Random(7)
    states = ctx.states()
    targets = [CylinderClopen.cylinder(T3, a) for k in (1, 2, 3) for a in T3.sphere(k)]
    found = 0
    for _ in range(40):
        xi, eta, target = rng.choice(states), rng.choice(states), rng.choice(targets)
        try:
            schedule = dy.pair_compression(ctx, xi, eta, target)
        except SearchExhausted:
            continue
        if schedule["strategy"] != "power+rotation":
            continue
        found += 1
        *powers, rot = word = tuple(schedule["word"])
        assert len(set(powers)) == 1 and rot not in powers
        assert ctx.generator(rot).displacement == 0
        assert len(word) <= ctx.word_bound
        mover = ctx.word(word)
        for state in (xi, eta):
            assert spec_image_clopen(mover, ctx.state_clopen(state)).leq(target)
    assert found >= 3


# ---------------------------------------------------------- free subsemigroup


def test_free_semigroup_certificate_shipped_example():
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    report = dy.free_semigroup_certificate(ctx, length_bound=8)
    assert report["verdict"] == "verified"
    assert report["g"] == ["t0"]
    assert report["h"] == ["s0", "t0", "s0"]
    assert str(report["alpha"]) == "{0}"
    assert str(report["g_alpha"]) == "{01}"
    assert str(report["h_alpha"]) == "{02}"
    assert report["image_count"] == 511
    assert report["expected_images"] == 511
    assert all(report["checks"].values())
    assert not report["g_alpha"].meets(report["h_alpha"])
    assert report["word_table"][""] == "{0}"
    assert report["word_table"]["g"] == "{01}"
    assert report["word_table"]["h"] == "{02}"


def test_free_semigroup_no_collisions_one_level_past_the_bound():
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    report = dy.free_semigroup_certificate(ctx, length_bound=9)
    assert report["image_count"] == 1023
    assert report["verdict"] == "verified"


def test_free_semigroup_length_one_is_trivial():
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    report = dy.free_semigroup_certificate(ctx, length_bound=1)
    assert report["image_count"] == 3
    assert report["verdict"] == "verified"


def test_free_semigroup_rotation_is_a_base_fixing_word():
    # neither root recolouring fixes alpha = {0}, but a b~ acts as (1 2)
    # at the root: the rotation is a word, and h = r g r^-1 replays
    gens = {
        "g": hyperbolic_isometry(T3, (0,)),
        "a": IsometrySpec(T3, sites=(((), Perm.from_cycles(3, (0, 1))),)),
        "b": IsometrySpec(T3, sites=(((), Perm.from_cycles(3, (0, 1, 2))),)),
    }
    ctx = dy.ActionContext(T3, gens, depth=3, word_bound=6)
    report = dy.free_semigroup_certificate(ctx, length_bound=4)
    assert report["verdict"] == "verified"
    assert report["rotation"] == "a b~"
    assert report["h"] == ["b", "a", "g", "a", "b~"]
    assert ctx.word_image(tuple(report["h"]), report["alpha"]) == report["h_alpha"]
    assert str(report["h_alpha"]) == "{02}"


def test_free_semigroup_needs_a_translation():
    with pytest.raises(NotSkewering, match="fixes the base vertex"):
        dy.free_semigroup_certificate(dy.rotation_context(S3, depth=2))


# ---------------------------------------------------------------- orbit join


def test_orbit_join_reaches_the_full_boundary():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=6)
    report = dy.orbit_join(ctx, cyl(0, 1))
    assert report["is_top"]
    assert str(report["alpha_star"]) == "TOP"
    assert 1 <= report["witness_count"] <= 6
    # replay: the chosen translate words really join to the saturation
    acc = None
    for word in report["witness_words"]:
        image = ctx.word_image(tuple(word), cyl(0, 1))
        acc = image if acc is None else acc.join(image)
    assert acc == report["alpha_star"]


def test_orbit_join_top_needs_no_witnesses():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=6)
    report = dy.orbit_join(ctx, CylinderClopen.top(T3))
    assert report["witness_count"] == 0
    assert report["is_top"]


def test_orbit_join_rejects_zero():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=6)
    with pytest.raises(ValueError):
        dy.orbit_join(ctx, CylinderClopen.zero(T3))


# ----------------------------------------------------------- invariant measure


def test_measure_uniform_for_rotations():
    report = dy.invariant_measure_search(dy.rotation_context(S3, depth=2))
    assert report["verdict"] == "feasible"
    assert report["uniform"] is True
    assert set(report["weights"].values()) == {Fraction(1, 6)}
    assert sum(report["weights"].values()) == 1


def test_measure_feasible_for_identity_only():
    ctx = dy.ActionContext(T3, {"e": IsometrySpec(T3)}, depth=1, word_bound=2)
    report = dy.invariant_measure_search(ctx)
    assert report["verdict"] == "feasible"
    assert report["uniform"] is True


def test_measure_infeasible_for_skewering_context():
    for n in (2, 3, 4):
        report = dy.invariant_measure_search(dy.skewering_context(S3, depth=n))
        assert report["verdict"] == "infeasible"
        cert = report["certificate"]
        assert cert["skewering_word"] == ["t0"]
        assert cert["disjoint_translates"] == ["{02}", "{012}", "{0102}"]


def test_skewering_plus_minimal_forces_infeasibility():
    ctx = dy.translation_rotation_context(S3, depth=2, word_bound=6)
    assert dy.check_minimal(ctx)["verdict"] == "minimal-at-depth"
    assert dy.skewering_search(ctx)["verdict"] == "found"
    assert dy.invariant_measure_search(ctx)["verdict"] == "infeasible"


def _lone_axis_context():
    # one translation plus the swap of its two axis ends: the pair of
    # axis directions is preserved, so a finite invariant measure exists
    gens = {
        "t0": hyperbolic_isometry(T3, (0,)),
        "swap": IsometrySpec(T3, sites=(((), Perm((1, 0, 2))),)),
    }
    return dy.ActionContext(T3, gens, depth=2, word_bound=6)


def test_averaged_point_mass_survives_a_lone_axis():
    report = dy.invariant_measure_search(_lone_axis_context())
    assert report["verdict"] == "feasible"
    assert report["uniform"] is False
    weights = report["weights"]
    assert sum(weights.values()) == 1
    assert weights["010"] == Fraction(1, 2)
    assert weights["101"] == Fraction(1, 2)


def _random_system(rng):
    """Mixed-sign rows; half of them are built to have the solution x."""
    nvars, m = rng.randint(1, 6), rng.randint(1, 6)
    x = [Fraction(rng.randint(0, 2)) for _ in range(nvars)]
    solvable = rng.random() < 0.5
    rows = []
    for _ in range(m):
        coeffs = {
            j: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for j in range(nvars)
            if rng.random() < 0.7
        }
        if solvable:
            rhs = sum((v * x[j] for j, v in coeffs.items()), Fraction(0))
        else:
            rhs = Fraction(rng.randint(-3, 3))
        rows.append((coeffs, rhs))
    return rows, nvars


def _assert_solvers_agree(rows, nvars):
    got = dy._phase_one_feasible(rows, nvars)
    assert got == oracle_phase_one_feasible(rows, nvars)
    assert all(type(v) is Fraction for v in got[1].values())
    return got


def test_sparse_phase_one_matches_dense_oracle_seeded():
    rng = random.Random(11)
    verdicts, signs = set(), set()
    for _ in range(300):
        rows, nvars = _random_system(rng)
        verdicts.add(_assert_solvers_agree(rows, nvars)[0])
        signs.update((rhs > 0) - (rhs < 0) for _, rhs in rows)
    assert verdicts == {True, False}
    assert signs == {-1, 0, 1}


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize(
    "make",
    [dy.translation_rotation_context, dy.skewering_context, dy.rotation_context],
)
def test_sparse_phase_one_matches_dense_oracle_on_contexts(make, depth):
    _assert_solvers_agree(*oracle_invariance_rows(make(S3, depth=depth)))


def test_sparse_phase_one_matches_dense_oracle_off_uniform():
    feasible, solution = _assert_solvers_agree(
        *oracle_invariance_rows(_lone_axis_context())
    )
    assert feasible
    assert len(set(solution.values())) > 1


_ROW_CONTEXTS = {
    "lone-axis": _lone_axis_context,
    **{
        f"{kind}-{n}": (lambda make=make, n=n: make(S3, depth=n))
        for kind, make in (
            ("translation-rotation", dy.translation_rotation_context),
            ("skewering", dy.skewering_context),
            ("rotations-only", dy.rotation_context),
        )
        for n in (2, 3, 4)
    },
    # g has displacement 2, so its rows take the clopen image at depth 2
    # and the vertex rule deeper down
    **{f"axis01-{n}": (lambda n=n: _axis01_context(n)) for n in (2, 3, 4)},
}


def _summed(rows, nvars):
    """Signed rows as the rational system the simplex reads: the
    unit-sum row, then +1 on plus and -1 on minus, right side 0."""
    one = Fraction(1)
    system = [({j: one for j in range(nvars)}, one)]
    for plus, minus in rows:
        coeffs = {j: one for j in plus}
        coeffs.update({j: -one for j in minus})
        system.append((coeffs, Fraction(0)))
    return system, nvars


def _by_sign(rows):
    """The zero-rhs rows of a rational system as signed rows, the
    positive coefficients' atoms then the negative ones', with the index
    of each kept row in the system."""
    kept, signed = [], []
    for i, (coeffs, rhs) in enumerate(rows):
        if not rhs:
            kept.append(i)
            signed.append((
                [j for j, v in coeffs.items() if v > 0],
                [j for j, v in coeffs.items() if v < 0],
            ))
    return kept, signed


def test_measure_rows_match_the_summed_rows(monkeypatch):
    seen = []
    solve = dy._phase_one_feasible
    monkeypatch.setattr(
        dy, "_phase_one_feasible", lambda *system: seen.append(system) or solve(*system)
    )
    for name, make in _ROW_CONTEXTS.items():
        ctx = make()
        rows, nvars = dy._invariance_rows(ctx)
        assert _summed(rows, nvars) == oracle_invariance_rows(ctx), name
        # two disjoint sides of distinct atom indices, not both empty
        for plus, minus in rows:
            assert plus or minus, name
            assert all(type(j) is int for j in (*plus, *minus)), name
            assert len({*plus, *minus}) == len(plus) + len(minus), name
        dy.invariant_measure_search(ctx)
    # the simplex reads exact rationals
    assert seen
    assert all(
        type(v) is Fraction
        for system, _ in seen
        for coeffs, rhs in system
        for v in (*coeffs.values(), rhs)
    )


def test_lone_axis_reaches_the_simplex_with_the_summed_rows(monkeypatch):
    # one atom stays live, so the unchanged rows go to the simplex
    seen = []
    solve = dy._phase_one_feasible
    monkeypatch.setattr(
        dy, "_phase_one_feasible", lambda *system: seen.append(system) or solve(*system)
    )
    ctx = _lone_axis_context()
    report = dy.invariant_measure_search(ctx)
    assert seen == [oracle_invariance_rows(ctx)]
    assert report["verdict"] == "feasible"
    weights = report["weights"]
    assert weights["010"] == weights["101"] == Fraction(1, 2)


def _measure_like_system(rng):
    """The unit row, then +-1 zero-rhs rows; half of the systems are
    built to be solved by a nonzero 0/1 vector x scaled to sum 1."""
    nvars = rng.randint(2, 8)
    x = [rng.randint(0, 1) for _ in range(nvars)]
    x[rng.randrange(nvars)] = 1
    support = [j for j in range(nvars) if x[j]]
    solvable = rng.random() < 0.5
    rows = [({j: Fraction(1) for j in range(nvars)}, Fraction(1))]
    for _ in range(rng.randint(1, 6)):
        coeffs = {
            j: Fraction(rng.choice((-1, 1)))
            for j in range(nvars)
            if rng.random() < 0.5 and not (solvable and x[j])
        }
        if solvable:
            # as many +1 as -1 atoms inside the support of x
            picked = rng.sample(support, 2 * rng.randint(0, len(support) // 2))
            half = len(picked) // 2
            coeffs.update({j: Fraction(1) for j in picked[:half]})
            coeffs.update({j: Fraction(-1) for j in picked[half:]})
        if coeffs:
            rows.append((coeffs, Fraction(0)))
    return rows, nvars


def _forcing_systems():
    """400 seeded rational systems, the unit-sum row first: measure-like
    ones and ones with general coefficients and right sides."""
    rng = random.Random(23)
    for k in range(400):
        if k % 2:
            yield _measure_like_system(rng)
        else:
            rows, nvars = _random_system(rng)
            yield [({j: Fraction(1) for j in range(nvars)}, Fraction(1)), *rows], nvars


def test_forcing_never_refutes_a_feasible_system_seeded():
    outcomes = set()
    for rows, nvars in _forcing_systems():
        kept, signed = _by_sign(rows)
        order, live = dy._forcing_order(signed, nvars)
        order = [kept[i] for i in order]
        feasible = oracle_phase_one_feasible(rows, nvars)[0]
        assert not (feasible and not live)
        assert oracle_forcing_replay(rows, order, nvars) == (not live)
        outcomes.add(("forced" if not live else "live", feasible))
    assert outcomes == {("forced", False), ("live", False), ("live", True)}


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize(
    "make",
    [dy.translation_rotation_context, dy.skewering_context, dy.rotation_context],
)
def test_forcing_order_replays_on_contexts(make, depth):
    rows, nvars = oracle_invariance_rows(make(S3, depth=depth))
    kept, signed = _by_sign(rows)
    assert kept == list(range(1, len(rows)))
    order, live = dy._forcing_order(signed, nvars)
    # signed row i is row i + 1 of the system, after the unit-sum row
    order = [i + 1 for i in order]
    # rotations preserve the uniform measure; the other two skewer
    assert (live == 0) == (make is not dy.rotation_context)
    assert oracle_forcing_replay(rows, order, nvars) == (live == 0)
    # the last row forced atoms that no earlier row forced
    assert not oracle_forcing_replay(rows, order[:-1], nvars)


def test_signed_forcing_matches_the_rational_presolve_seeded():
    outcomes = set()
    for rows, nvars in _forcing_systems():
        kept, signed = _by_sign(rows)
        order, live = dy._forcing_order(signed, nvars)
        assert ([kept[i] for i in order], live) == oracle_forcing_order(rows, nvars)
        outcomes.add((bool(order), bool(live)))
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_signed_rows_match_the_rational_presolve_on_contexts():
    uniforms = set()
    for name, make in _ROW_CONTEXTS.items():
        ctx = make()
        rows, nvars = dy._invariance_rows(ctx)
        system, _ = oracle_invariance_rows(ctx)
        order, live = dy._forcing_order(rows, nvars)
        # the unit-sum row is row 0 of the system, so each index moves by one
        assert ([i + 1 for i in order], live) == oracle_forcing_order(system, nvars), name
        # uniform by side lengths, as the rational sum with weight 1/N
        uniform = all(
            sum(v * Fraction(1, nvars) for v in coeffs.values()) == rhs
            for coeffs, rhs in system
        )
        assert dy.invariant_measure_search(ctx).get("uniform", False) is uniform, name
        uniforms.add(uniform)
    assert uniforms == {True, False}


def test_labels_and_weights_stay_distinct_above_degree_ten():
    # at degree 12 the states (1, 11) and (11, 1) must not share a label
    shape = regular(12)
    cycle = Perm(tuple((c + 1) % 12 for c in range(12)))
    gens = {"r": IsometrySpec(shape, sites=((ROOT, cycle),))}
    ctx = dy.ActionContext(shape, gens, depth=2)
    states = ctx.states()
    assert len({ctx.state_label(s) for s in states}) == len(states) == 132
    report = dy.invariant_measure_search(ctx)
    assert len(report["weights"]) == 132
    assert sum(report["weights"].values()) == 1


# -------------------------------------------------------------------- replay


def test_reports_replay_byte_for_byte():
    def build():
        ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
        return {
            "skewering": dy.skewering_search(ctx),
            "free": dy.free_semigroup_certificate(ctx, length_bound=6),
            "minimal": dy.check_minimal(ctx),
        }

    assert canonical_json(build()) == canonical_json(build())
