"""Rerun the registered mutants: each must make its tests fail.

    python3 tools/mutants.py [--only SUBSTR] [--list]

Each case names a file under ``src/``, one exact snippet of that file,
its replacement, and the pytest arguments (test files, node ids, ``-k``
expressions) whose run the mutant must fail.  For each case the tool
copies ``src/`` and ``tests/`` into a temporary directory, applies the
mutant there, runs ``pytest -x -q`` on those arguments, and reports the
mutant killed (the run failed) or survived (it passed).  A snippet that
does not occur exactly once in its file is stale: the case is reported
and the run fails, so a change that rewrites mutated code restates or
retires its mutant.  Nothing inside the repository is written.  The exit
code is 0 when every case is killed and 1 otherwise.

Tier-1 checks only that every snippet occurs exactly once
(``tests/test_mutants.py``); the full run is not part of it.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest arguments that must fail


MUTANTS = (
    # an exact table missing one moved point is no isometry; tables of
    # exact elements are built unchecked, so the seeded test that checks
    # each of them on the whole ball catches it
    Mutant(
        "moved-drops-its-last-point",
        "src/tdlclab/tree.py",
        "    for x in points:\n"
        "        y = image(x)\n"
        "        if y != x:\n"
        "            yield x, y\n",
        "    pairs = [(x, y) for x in points for y in (image(x),) if y != x]\n"
        "    yield from pairs[:-1]\n",
        ("tests/test_boundary.py::test_exact_tables_pass_checked_table_seeded",),
    ),
    # the one ball-table builder accepts a negative radius
    Mutant(
        "ball-table-takes-negative-precision",
        "src/tdlclab/tree.py",
        "    if r < 0:\n"
        "        raise PrecisionExhausted(\"negative precision\")\n",
        "",
        ("tests/test_tree.py::test_precision_exhaustion_raises",),
    ),
    # a regular local action that reads every neighbour's colour as
    # fixed where the neighbour's image lies toward the base vertex
    Mutant(
        "universal-group-reads-the-return-colour-as-fixed",
        "src/tdlclab/tree.py",
        "images.append(inb[-1] if len(inb) == below else iv[-1])",
        "images.append(inb[-1] if len(inb) == below else c)",
        ("tests/test_tree.py::test_universal_membership_matches_the_whole_ball_oracle_seeded",),
    ),
    # a support test that takes the base vertex for a child of itself,
    # so a table that moves it tests nothing
    Mutant(
        "support-in-skips-the-base-vertex",
        "src/tdlclab/boundary.py",
        "if not (v and v[:-1] in table)",
        "if v[:-1] not in table",
        ("tests/test_boundary.py::test_support_in_matches_full_ball_oracle_seeded",),
    ),
    # region vertices that stop one level above the radius
    Mutant(
        "region-vertices-drop-the-deepest-level",
        "src/tdlclab/boundary.py",
        "for d in range(len(a) + 1, max_depth + 1):",
        "for d in range(len(a) + 1, max_depth):",
        ("tests/test_boundary.py", "-k", "region_vertices_match"),
    ),
    # the shrinking check reads only the first step of the chain, so a
    # chain that stalls later still reports shrinking
    Mutant(
        "chain-rechecks-only-the-first-step",
        "src/tdlclab/boundary.py",
        "zip(chain, chain[1:])",
        "zip(chain, chain[1:2])",
        ("tests/test_boundary.py::test_goodshrink_reports_a_stalled_chain_as_refuted",),
    ),
    # the chain stops one image before the end of its 2*depth window
    Mutant(
        "chain-one-image-short",
        "src/tdlclab/boundary.py",
        "while len(chain) < 2 * depth + 1:",
        "while len(chain) < 2 * depth:",
        ("tests/test_boundary.py", "-k", "step_by_step_oracle"),
    ),
    # tits-core handed the attracting half-tree's image, not beta
    Mutant(
        "half-tree-hands-over-the-image",
        "src/tdlclab/boundary.py",
        "return a, a.minus(image)",
        "return a, image",
        ("tests/test_boundary.py", "-k", "hands_over_beta"),
    ),
    # force a row when both sides are live, not when exactly one is
    Mutant(
        "forcing-on-both-sides",
        "src/tdlclab/dynamics.py",
        "if bool(plus) == bool(minus):",
        "if not (plus or minus):",
        ("tests/test_dynamics.py", "-k", "forcing or rational"),
    ),
    # a one-site regular spec that recolours only the letter after its
    # site, as a rooted site would, instead of every letter below it
    Mutant(
        "one-site-recolours-one-letter",
        "src/tdlclab/tree.py",
        "                return v + tuple([images[x] for x in addr[n:]])\n",
        "                return v + (images[addr[n]],) + addr[n + 1:] if len(addr) > n else addr\n",
        ("tests/test_tree.py::test_one_site_specs_apply_as_the_portrait_loop",),
    ),
    # the site walk stops one level short of the ball about c, so a
    # witness stating its support reads too few points
    Mutant(
        "site-walk-radius-one-short",
        "src/tdlclab/tree.py",
        "chain.from_iterable(_slice(shape, v, c, r) for v in u.support)",
        "chain.from_iterable(_slice(shape, v, c, r - 1) for v in u.support)",
        ("tests/test_boundary.py::test_conjugating_by_a_base_fixing_rotation_keeps_every_contraction_onset",),
    ),
    # the depth sphere read as outside the depth ball in the shift check
    Mutant(
        "shift-inside-drops-the-sphere",
        "src/tdlclab/boundary.py",
        "                if len(x) <= depth:\n",
        "                if len(x) < depth:\n",
        ("tests/test_boundary.py::test_conjugation_shifts_match_the_whole_ball_oracle",),
    ),
    # the last word found per state kept instead of the first, so a
    # depth-n witness may be longer than its children's
    Mutant(
        "first-words-keep-the-last",
        "src/tdlclab/dynamics.py",
        "                        if m not in found and not (inside and m == y):\n"
        "                            found[m] = y\n"
        "                            missing -= 1\n",
        "                        if not (inside and m == y):\n"
        "                            missing -= m not in found\n"
        "                            found[m] = y\n",
        ("tests/test_dynamics.py::test_minimal_monotone_in_depth",),
    ),
    # copy 1's first words tagged as copy 0's, so the degree's copy-1
    # masks read as copy 0's, not past them
    Mutant(
        "degree-copy-masks-unshifted",
        "src/tdlclab/dynamics.py",
        "yield (c, s), _tagged(c, names, words, memos[c])",
        "yield (c, s), _tagged(0, names, words, memos[c])",
        ("tests/test_dynamics.py", "-k", "two_copy"),
    ),
    # the degree's shadows searched on a second graph of their own, which
    # expands again what the initial set's searches expanded
    Mutant(
        "degree-builds-its-own-graph",
        "src/tdlclab/dynamics.py",
        "        for _, met in _start_words(ctx, graph=graph)\n",
        "        for _, met in _start_words(ctx)\n",
        ("tests/test_dynamics.py::test_two_copy_degree_steps_stay_near_one_tree",),
    ),
    # an open's labels listed in state order, not sorted
    Mutant(
        "degree-labels-unsorted",
        "src/tdlclab/dynamics.py",
        "(sorted(ctx.state_label(s) for i, s in enumerate(states) if m >> i & 1), m)",
        "([ctx.state_label(s) for i, s in enumerate(states) if m >> i & 1], m)",
        ("tests/test_dynamics.py::test_minorising_degree_matches_the_frozenset_oracle",),
    ),
    # a mask kept minimal when it lies inside another, not when one lies
    # inside it
    Mutant(
        "degree-subset-test-reversed",
        "src/tdlclab/dynamics.py",
        "if not any(o != m and o & m == o for o in distinct)",
        "if not any(o != m and o & m == m for o in distinct)",
        ("tests/test_dynamics.py::test_minorising_degree_matches_the_frozenset_oracle",),
    ),
    # rooted site pools counted over the n-ball, one level too many
    Mutant(
        "rooted-pools-count-the-n-ball",
        "src/tdlclab/tree.py",
        "        return [(local, shape.ball_size(n - 1))]\n",
        "        return [(local, shape.ball_size(n))]\n",
        ("tests/test_tree.py::test_site_model_matches_a_walk_of_the_ball",),
    ),
    # each child orbit cut to its largest letter
    Mutant(
        "child-orbits-keep-the-largest-letter",
        "src/tdlclab/tree.py",
        "    splits = (sorted(orb & letters) for orb in",
        "    splits = (sorted(orb & letters)[-1:] for orb in",
        ("tests/test_tree.py::test_site_model_matches_a_walk_of_the_ball",),
    ),
    # one reference cycle per start, which the collector, off in the
    # CLI, never frees
    Mutant(
        "start-words-build-a-cycle",
        "src/tdlclab/dynamics.py",
        "        for a in graph.starts:\n"
        "            yield a, _first_words(graph, a, inside)\n",
        "        for a in graph.starts:\n"
        "            loop = [a]\n"
        "            loop.append(loop)\n"
        "            yield a, _first_words(graph, a, inside)\n",
        ("tests/test_cli.py", "-k", "cycles"),
    ),
    # each coset representative multiplied by the new generator alone,
    # which misses cosets when the old group is not normal
    Mutant(
        "cosets-by-the-new-generator-only",
        "src/tdlclab/permgrp.py",
        "            for s in kept_images:\n",
        "            for s in kept_images[-1:]:\n",
        ("tests/test_permgrp.py", "-k", "grow"),
    ),
    # a closure whose order equals the cap refused
    Mutant(
        "closure-cap-refuses-its-own-order",
        "src/tdlclab/permgrp.py",
        "if len(seen) + len(group) > cap:",
        "if len(seen) + len(group) >= cap:",
        ("tests/test_permgrp.py::test_closure_cap_is_the_largest_order_that_closes",),
    ),
    # the composition series descends to the first candidate hyperplane,
    # not to the greatest one the selection walk leaves
    Mutant(
        "composition-takes-the-first-maximal",
        "src/tdlclab/permgrp.py",
        "        if len(candidates) == 1:\n",
        "        if len(candidates) >= 1:\n",
        ("tests/test_permgrp.py::test_prime_index_step_matches_the_lattice_on_seeded_groups",),
    ),
    # the memoised labels handed out as they are kept, open to a caller
    Mutant(
        "composition-memo-hands-out-its-list",
        "src/tdlclab/permgrp.py",
        "    return g.invariant_memo[key].copy()\n",
        "    return g.invariant_memo[key]\n",
        ("tests/test_permgrp.py::test_composition_factors_run_once_per_group_and_hand_out_new_lists",),
    ),
    # the selection walk keeps the candidates whose kernel holds the
    # element, so the least element list wins
    Mutant(
        "prime-index-walk-keeps-the-kernels-holding-the-element",
        "src/tdlclab/permgrp.py",
        "leave_out = [f for f in candidates if sum(a * b for a, b in zip(c, f)) % p]",
        "leave_out = [f for f in candidates if not sum(a * b for a, b in zip(c, f)) % p]",
        ("tests/test_permgrp.py::test_prime_index_step_matches_the_lattice_on_corpus_and_named_cases",),
    ),
    # E is G' alone, without the p-th powers, so G/E need not be a vector
    # space over F_p
    Mutant(
        "prime-index-kernel-skips-the-p-th-powers",
        "src/tdlclab/permgrp.py",
        "_grow(seen, kept, [x**p for x in g.pruned_gens], g.cap)",
        "_grow(seen, kept, [], g.cap)",
        ("tests/test_permgrp.py::test_prime_index_step_matches_the_lattice_on_corpus_and_named_cases",),
    ),
    # a step of prime index 61 no longer meets the maximals of index 60,
    # so A5 x C61 descends to A5 first
    Mutant(
        "prime-index-threshold-raised",
        "src/tdlclab/permgrp.py",
        "if n is None or current.order // n.order > 60:",
        "if n is None or current.order // n.order > 61:",
        ("tests/test_permgrp.py::test_prime_index_61_loses_to_the_maximal_of_index_60",),
    ),
    # a step of prime index never meets the maximals with a non-abelian
    # quotient, whatever its index
    Mutant(
        "composition-skips-the-index-60-comparison",
        "src/tdlclab/permgrp.py",
        "if n is None or current.order // n.order > 60:",
        "if n is None:",
        ("tests/test_permgrp.py::test_prime_index_61_loses_to_the_maximal_of_index_60",),
    ),
    # the radical grown from the class alone, so each class that passes
    # replaces the radical found so far instead of joining it
    Mutant(
        "radical-restarts-from-the-class-alone",
        "src/tdlclab/permgrp.py",
        "seen, kept = dict.fromkeys(n.image_set), list(n.pruned_gens)",
        "seen, kept = {_identity_images(g.degree): None}, []",
        ("tests/test_permgrp.py::test_cores_and_melnikov_match_the_lattice_route_on_corpus_and_named_groups",),
    ),
    # the soluble radical's bound halved: a radical of order |G| / 60,
    # as C59 in C59 x A5, no longer fits under it
    Mutant(
        "soluble-radical-bound-too-tight",
        "src/tdlclab/permgrp.py",
        "g.order if g.is_soluble() else g.order // 60",
        "g.order if g.is_soluble() else g.order // 120",
        ("tests/test_permgrp.py::test_cores_and_melnikov_match_the_lattice_route_on_corpus_and_named_groups",),
    ),
    # the soluble radical bounded by |G| / 60 even when G is soluble
    Mutant(
        "soluble-radical-bound-drops-the-soluble-case",
        "src/tdlclab/permgrp.py",
        "g.order if g.is_soluble() else g.order // 60",
        "g.order // 60",
        ("tests/test_permgrp.py::test_cores_and_melnikov_match_the_lattice_route_on_corpus_and_named_groups",),
    ),
    # Melnikov meets G'G^p for the least prime of |G:G'| only
    Mutant(
        "melnikov-meets-only-the-least-prime",
        "src/tdlclab/permgrp.py",
        "    for p in prime_factors(g.order // derived.order):\n",
        "    for p in list(prime_factors(g.order // derived.order))[:1]:\n",
        ("tests/test_permgrp.py::test_cores_and_melnikov_match_the_lattice_route_on_corpus_and_named_groups",),
    ),
    # Melnikov never meets the maximal normal subgroups of non-abelian quotient
    Mutant(
        "melnikov-skips-the-non-abelian-maximals",
        "src/tdlclab/permgrp.py",
        "    for m in _non_abelian_maximals(g):\n",
        "    for m in _non_abelian_maximals(g)[:0]:\n",
        ("tests/test_permgrp.py::test_cores_and_melnikov_match_the_lattice_route_on_corpus_and_named_groups",),
    ),
    # a round that finds no new maximal ends the search instead of
    # shrinking T: S5 x A5 grows to 1 x A5 first and loses S5 x 1
    Mutant(
        "non-abelian-maximals-stop-at-a-stuck-round",
        "src/tdlclab/permgrp.py",
        "            found.append(n)\n",
        "            found.append(n)\n        else:\n            break\n",
        ("tests/test_permgrp.py::test_non_abelian_maximals_and_factors_match_the_lattice_on_corpus_and_named_groups",),
    ),
    # trial closures capped at |G|/120: the maximal C2 of A5 x C2, of
    # order exactly |G|/60, no longer fits
    Mutant(
        "non-abelian-maximals-cap-too-tight",
        "src/tdlclab/permgrp.py",
        "    cap = g.order // 60\n",
        "    cap = g.order // 120\n",
        ("tests/test_permgrp.py::test_non_abelian_maximals_and_factors_match_the_lattice_on_corpus_and_named_groups",),
    ),
    # the order check on a non-abelian maximal passes whatever it cuts
    Mutant(
        "melnikov-order-check-vacuous",
        "src/tdlclab/permgrp.py",
        "if len(cut) != len(meet) and len(cut) * index != len(meet):",
        "if len(cut) > len(meet):",
        ("tests/test_permgrp.py::test_melnikov_order_check_refuses_a_normal_subgroup_that_is_not_maximal",),
    ),
    # the rooted default names s before rho: the same specs, with the
    # first-word tie-break between them reversed
    Mutant(
        "rooted-default-lists-s-first",
        "src/tdlclab/cli.py",
        '        site_gens[f"rho{k}"], site_gens[f"s{k}"] = rho, s\n',
        '        site_gens[f"s{k}"], site_gens[f"rho{k}"] = s, rho\n',
        ("tests/test_dynamics.py::test_rooted_default_generators_match_the_interleaved_loop",),
    ),
    # site permutations number the sphere from its last point: the same
    # group, conjugated by the reversal
    Mutant(
        "site-permutations-number-the-sphere-in-reverse",
        "src/tdlclab/tree.py",
        "    index = {a: i for i, a in enumerate(points)}\n",
        "    index = {a: len(points) - 1 - i for i, a in enumerate(points)}\n",
        ("tests/test_tree.py", "-k", "site_permutations_match"),
    ),
    # an unexpanded parent's images computed again for each child
    Mutant(
        "graph-recomputes-an-unexpanded-parent",
        "src/tdlclab/dynamics.py",
        "for q, y in zip(self.neighbours(self.parent[i]), row)",
        "for q, y in zip(self._images(self.parent[i]), row)",
        ("tests/test_dynamics.py::test_graph_computes_each_ids_images_once",),
    ),
    # the first-word search skips whichever generator is listed last
    Mutant(
        "first-words-skip-the-last-generator",
        "src/tdlclab/dynamics.py",
        "for g, y in enumerate(edges[x] or graph.neighbours(x)):",
        "for g, y in enumerate((edges[x] or graph.neighbours(x))[:-1]):",
        ("tests/test_dynamics.py::test_generator_order_changes_no_length_verdict_degree_or_block",),
    ),
    # PR 33's slice mutants: the walk reopens the branch it came from
    Mutant(
        "slice-reopens-the-branch-it-came-from",
        "src/tdlclab/boolalg.py",
        "        level = [at + (x,) for x in children(at) if x != came]\n",
        "        level = [at + (x,) for x in children(at)]\n",
        ("tests/test_tree.py::test_slice_matches_the_pulled_ball_seeded",
         "tests/test_boundary.py::test_half_tree_slices_match_the_pulled_ball_reading"),
    ),
    # the walk goes one level deeper than the radius allows
    Mutant(
        "slice-walks-one-level-too-many",
        "src/tdlclab/boolalg.py",
        "        for _ in range(d + 1, r):\n",
        "        for _ in range(d, r):\n",
        ("tests/test_tree.py::test_slice_matches_the_pulled_ball_seeded",
         "tests/test_boundary.py::test_half_tree_slices_match_the_pulled_ball_reading"),
    ),
    # the walk starts at v when c lies inside v's subtree, the wrong side
    # of the edge
    Mutant(
        "slice-starts-at-v-inside-its-subtree",
        "src/tdlclab/boolalg.py",
        "        at, d = c, 0\n",
        "        at, d = v, len(c) - n\n",
        ("tests/test_tree.py::test_slice_matches_the_pulled_ball_seeded",
         "tests/test_boundary.py::test_half_tree_slices_match_the_pulled_ball_reading"),
    ),
    # PR 32's clopen mutants: the complement kept on the shape, stale for
    # every other clopen on it
    Mutant(
        "complement-kept-on-the-shape",
        "src/tdlclab/boolalg.py",
        '        comp = self.__dict__.get("_complement")\n'
        "        if comp is None:\n"
        '            comp = self.__dict__["_complement"] =',
        '        comp = self.shape.__dict__.get("_complement")\n'
        "        if comp is None:\n"
        '            comp = self.shape.__dict__["_complement"] =',
        ("tests/test_boolalg.py::test_complement_is_kept_and_stays_out_of_the_fields",),
    ),
    # dotted bodies read in bulk, each dot read as a letter
    Mutant(
        "bulk-parse-takes-dotted-tokens",
        "src/tdlclab/boolalg.py",
        'if not raw.translate(None, b"0123456789,"):',
        'if not raw.translate(None, b"0123456789,."):',
        ("tests/test_boolalg.py::test_parse_clopen_matches_per_token_reading",),
    ),
    # an empty part read in bulk as the root, so {01,,2} reads as TOP
    Mutant(
        "bulk-parse-takes-an-empty-part",
        "src/tdlclab/boolalg.py",
        "            if all(parts):\n",
        "            if True:\n",
        ("tests/test_boolalg.py::test_parse_clopen_matches_per_token_reading",),
    ),
    # the text and the hash kept on the shape, stale for every other
    # clopen on it
    Mutant(
        "clopen-text-kept-on-the-shape",
        "src/tdlclab/boolalg.py",
        "        return clopen._text\n"
        "    except AttributeError:\n"
        '        text = clopen.__dict__["_text"] =',
        "        return clopen.shape._text\n"
        "    except AttributeError:\n"
        '        text = clopen.shape.__dict__["_text"] =',
        ("tests/test_boolalg.py::test_complement_is_kept_and_stays_out_of_the_fields",),
    ),
    Mutant(
        "clopen-hash-kept-on-the-shape",
        "src/tdlclab/boolalg.py",
        "            return self._hash\n"
        "        except AttributeError:\n"
        '            h = self.__dict__["_hash"] =',
        "            return self.shape._hash\n"
        "        except AttributeError:\n"
        '            h = self.shape.__dict__["_hash"] =',
        ("tests/test_boolalg.py::test_complement_is_kept_and_stays_out_of_the_fields",),
    ),
    # record equality reads the last field alone, so a shape compares by
    # its degree and rooted(3) == regular(3)
    Mutant(
        "record-equality-reads-the-last-field",
        "src/tdlclab/boolalg.py",
        "            return self._key() == other._key()\n",
        "            return self._key()[-1:] == other._key()[-1:]\n",
        ("tests/test_records.py::test_tree_shape",),
    ),
    # the canonical pass keeps the parent as its last address
    Mutant(
        "canonical-keeps-the-parent-as-last",
        "src/tdlclab/boolalg.py",
        "        last, n = a, len(a)\n",
        "        last, n = a[:-1], len(a) - 1\n",
        ("tests/test_boolalg.py::test_canonical_pass_matches_the_previous_pass_seeded",),
    ),
    # covered accepts a proper prefix only, not the address itself
    Mutant(
        "covered-skips-the-address-itself",
        "src/tdlclab/boolalg.py",
        "    return i > 0 and addr[: len(order[i - 1])] == order[i - 1]\n",
        "    return i > 0 and addr[: len(order[i - 1])] == order[i - 1] != addr\n",
        ("tests/test_boolalg.py::test_covered_matches_the_prefix_scan_seeded",),
    ),
    # leq of one cylinder answers whether it meets other, not whether
    # it lies inside
    Mutant(
        "one-cylinder-leq-answers-meets",
        "src/tdlclab/boolalg.py",
        "            return covered(mine[0], other.addresses)\n",
        "            return next(_meeting(mine, other.addresses), None) is not None\n",
        ("tests/test_boolalg.py::test_leq_of_one_cylinder_matches_the_merge_seeded",),
    ),
    # the depth read off the last address in address order, which need
    # not be the deepest
    Mutant(
        "depth-reads-the-last-address",
        "src/tdlclab/boolalg.py",
        "        return max(map(len, self.addresses), default=0)\n",
        "        return len(self.addresses[-1]) if self.addresses else 0\n",
        ("tests/test_boolalg.py::test_refine_roundtrip_seeded",),
    ),
    # a cylinder stores the address sequence it was given, so a list
    # address is kept as a list
    Mutant(
        "cylinder-keeps-the-given-sequence",
        "src/tdlclab/boolalg.py",
        "        addr = tuple(addr)\n",
        "",
        ("tests/test_boolalg.py::test_cylinder_takes_any_address_sequence",),
    ),
    # the kept cylinders are keyed on the vertex's depth, so a second
    # vertex at one depth gets the first one's cylinder
    Mutant(
        "cylinder-kept-per-depth",
        "src/tdlclab/dynamics.py",
        "            got = self._cylinders.get(state)\n"
        "            if got is None:\n"
        "                got = self._cylinders[state] = CylinderClopen.cylinder(self.shape, state)\n",
        "            got = self._cylinders.get(len(state))\n"
        "            if got is None:\n"
        "                got = self._cylinders[len(state)] = CylinderClopen.cylinder(self.shape, state)\n",
        ("tests/test_dynamics.py::test_state_clopen_keeps_one_cylinder_per_vertex",),
    ),
    # the measure counts one address per depth
    Mutant(
        "measure-one-address-per-depth",
        "src/tdlclab/boolalg.py",
        "(Fraction(k, size(d)) for d, k in counts.items())",
        "(Fraction(1, size(d)) for d, k in counts.items())",
        ("tests/test_boolalg.py::test_measure_matches_the_per_address_sum_seeded",),
    ),
    # the complement walk: a run of one address deeper than its child is
    # taken for the child itself and not walked
    Mutant(
        "complement-walk-skips-a-deeper-single",
        "src/tdlclab/boolalg.py",
        "                if end - k != 1 or len(order[k]) > n + 1:\n",
        "                if end - k != 1:\n",
        ("tests/test_boolalg.py::test_algebra_matches_set_model_to_depth_6",),
    ),
    # children pushed first letter first: the right gaps, out of order
    Mutant(
        "complement-walk-pushes-first-letter-first",
        "src/tdlclab/boolalg.py",
        "            for c in reversed(after[node[-1] if node else -1]):\n"
        "                k = end\n"
        "                while k > i and order[k - 1][n] == c:\n"
        "                    k -= 1\n"
        "                if end - k != 1 or len(order[k]) > n + 1:\n"
        "                    stack.append((node + (c,), k, end))\n"
        "                end = k\n",
        "            for c in after[node[-1] if node else -1]:\n"
        "                k = i\n"
        "                while k < end and order[k][n] == c:\n"
        "                    k += 1\n"
        "                if k - i != 1 or len(order[i]) > n + 1:\n"
        "                    stack.append((node + (c,), i, k))\n"
        "                i = k\n",
        ("tests/test_boolalg.py::test_algebra_matches_set_model_to_depth_6",),
    ),
    # PR 35's mutants: witnesses written in witness-length order
    Mutant(
        "witnesses-in-length-order",
        "src/tdlclab/dynamics.py",
        '        "witness_words": witnesses if minimal else None,\n',
        '        "witness_words": dict(sorted(witnesses.items(), key=lambda kv: len(kv[1])))'
        " if minimal else None,\n",
        ("tests/test_dynamics.py::test_check_minimal_matches_the_three_lookup_oracle",),
    ),
    # max_word_length read from the last pair, not the longest word
    Mutant(
        "max-word-length-from-the-last-pair",
        "src/tdlclab/dynamics.py",
        "                if len(w) > longest:\n                    longest = len(w)\n",
        "                longest = len(w)\n",
        ("tests/test_dynamics.py::test_check_minimal_matches_the_three_lookup_oracle",),
    ),
    # an illegal site reported at the portrait's first site
    Mutant(
        "portrait-error-at-the-first-site",
        "src/tdlclab/tree.py",
        "                raise SiteError(str(exc), addr) from None\n",
        "                raise SiteError(str(exc), sites[0][0]) from None\n",
        ("tests/test_tree.py::test_site_faults_name_the_site_that_failed",),
    ),
    # the return-colour fault raised as a plain ValueError, with no site
    Mutant(
        "return-colour-error-as-a-plain-value-error",
        "src/tdlclab/tree.py",
        "                    raise SiteError(\n"
        '                        f"site {addr!r} disagrees',
        "                    raise ValueError(\n"
        '                        f"site {addr!r} disagrees',
        ("tests/test_tree.py::test_site_faults_name_the_site_that_failed",),
    ),
    # the product check drops its last pair of families
    Mutant(
        "rist-product-drops-the-last-pair",
        "src/tdlclab/localstruct.py",
        "    pairs = list(combinations(range(len(families)), 2))\n",
        "    pairs = list(combinations(range(len(families)), 2))[:-1]\n",
        ("tests/test_localstruct.py::test_rist_product_matches_pairwise_closures_seeded",),
    ),
    # perp's trivial intersection read from the realized orders, which
    # a miscounted model would then pass
    Mutant(
        "perp-trivial-intersection-from-the-realized-orders",
        "src/tdlclab/localstruct.py",
        'entry["trivial_intersection"] = both == order_a * order_b',
        'entry["trivial_intersection"] = both == sub_a * sub_b',
        ("tests/test_localstruct.py::test_a_miscounted_model_is_refuted_as_before",),
    ),
    # every pair of three or four families read as the whole product
    Mutant(
        "rist-product-reads-the-join-for-every-pair",
        "src/tdlclab/localstruct.py",
        "(joined if len(pairs) == 1 else",
        "(joined if len(pairs) <= 6 else",
        ("tests/test_localstruct.py", "-k", "their_own_blocks"),
    ),
    # the star builds its witnesses and their commutation at every
    # depth, though above the cap it reads only arithmetic
    Mutant(
        "star-builds-permutations-past-the-cap",
        "src/tdlclab/localstruct.py",
        "        if level <= _REALIZE_CAP:\n            group = level_group(shape, local, d)\n",
        "        _rist_product(shape, local, regions, d)\n"
        "        if level <= _REALIZE_CAP:\n            group = level_group(shape, local, d)\n",
        ("tests/test_localstruct.py::test_star_builds_no_site_permutations_past_the_cap",),
    ),
    # a state met by a clopen image recorded again at a later word
    Mutant(
        "first-words-rerecord-shared-states",
        "src/tdlclab/dynamics.py",
        "                        for b in m:\n"
        "                            if b not in found:\n"
        "                                found[b] = y\n"
        "                                missing -= 1\n",
        "                        for b in m:\n"
        "                            missing -= b not in found\n"
        "                            found[b] = y\n",
        ("tests/test_dynamics.py::test_raising_the_word_bound_keeps_every_first_word",),
    ),
    # the skewering context checks the base-vertex rotation only
    Mutant(
        "skewering-checks-only-the-base-vertex",
        "src/tdlclab/dynamics.py",
        'for site, found in (("v0", roots), ("0", below)):',
        'for site, found in (("v0", roots),):',
        ("tests/test_dynamics.py", "-k", "standard_contexts"),
    ),
    # the site pools count a local group of another degree
    Mutant(
        "site-pools-skip-the-degree-check",
        "src/tdlclab/tree.py",
        "    if local.degree != shape.degree:\n"
        '        raise ValueError("local group degree does not match the shape")\n'
        '    if shape.kind == "rooted":\n',
        '    if shape.kind == "rooted":\n',
        ("tests/test_tree.py::test_site_permutations_refuse_a_local_group_of_another_degree",),
    ),
    # the seed may no longer be zero
    Mutant(
        "limits-seed-minimum-one",
        "src/tdlclab/cli.py",
        '_LIMIT_MINIMUMS = {"depth": 1, "word_bound": 1, "seed": 0}',
        '_LIMIT_MINIMUMS = {"depth": 1, "word_bound": 1, "seed": 1}',
        ("tests/test_cli.py::test_limits_and_their_flags_share_each_minimum",),
    ),
    # a false free-semigroup check passes unraised, so a broken
    # construction exits 0 with a certificate
    Mutant(
        "free-semigroup-failed-check-passes",
        "src/tdlclab/dynamics.py",
        "    if failed:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_certify_free_semigroup_failed_check_exits_70_without_certificate",),
    ),
    # a false realised check of report-local passes unraised, so a broken
    # level group or kernel exits 0 with a "verified" report
    Mutant(
        "report-local-passes-a-false-check",
        "src/tdlclab/cli.py",
        "    if failed:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_report_local_failed_check_exits_70_without_report",),
    ),
    # an exact image kept as the sorted images of the atoms, with no
    # canonical pass: a complete family is not merged into its parent
    Mutant(
        "image-skips-the-canonical-pass",
        "src/tdlclab/tree.py",
        "    return CylinderClopen._ordered(clopen.shape, _canonical(clopen.shape, images))\n",
        "    return CylinderClopen._ordered(clopen.shape, images)\n",
        ("tests/test_tree.py", "-k", "unchecked_image"),
    ),
    # the image's shape check by identity alone refuses a clopen on an
    # equal shape built apart
    Mutant(
        "image-shape-check-by-identity",
        "src/tdlclab/tree.py",
        "    if clopen.shape is not mover.shape and clopen.shape != mover.shape:\n",
        "    if clopen.shape is not mover.shape:\n",
        ("tests/test_tree.py::test_image_clopen_rejects_a_clopen_of_another_shape",),
    ),
    # each skewering candidate starts a cut of its own, so a cut candidate
    # followed by a closed one reports every orbit closed
    Mutant(
        "skewering-closed-after-a-cut-candidate",
        "src/tdlclab/dynamics.py",
        "_bfs(ctx.gen_names, ctx.word_bound, ctx.step, a, cut)",
        "_bfs(ctx.gen_names, ctx.word_bound, ctx.step, a, (cut := []))",
        ("tests/test_dynamics.py::test_skewering_cut_before_a_closed_candidate_reports_exhaustion",),
    ),
    # a measure found by the simplex reported as the uniform one
    Mutant(
        "measure-simplex-reads-uniform",
        "src/tdlclab/dynamics.py",
        '            "uniform": uniform,\n',
        '            "uniform": True,\n',
        ("tests/test_dynamics.py::test_feasible_measures_keep_one_key_order",),
    ),
    # the free semigroup's rotation search takes a generator that moves
    # the base vertex one step
    Mutant(
        "fixers-take-a-displacing-generator",
        "src/tdlclab/dynamics.py",
        "if ctx._displacement[name] == 0]",
        "if ctx._displacement[name] <= 1]",
        ("tests/test_cli.py::test_certify_free_semigroup_rotation_search_exit_codes",),
    ),
    # pair compression's rotations take a generator that moves the base
    # vertex one step
    Mutant(
        "rotations-take-a-displacing-generator",
        "src/tdlclab/dynamics.py",
        "if ctx._displacement[n] == 0]",
        "if ctx._displacement[n] <= 1]",
        ("tests/test_dynamics.py::test_pair_compression_power_then_rotation_replays_seeded",),
    ),
    # a MemoryError falls through to the fault line and exits 70
    Mutant(
        "memory-error-is-a-fault",
        "src/tdlclab/cli.py",
        '    (MemoryError, EXIT_CAP, "out of memory: "),\n',
        "",
        ("tests/test_cli.py", "-k", "exit_table"),
    ),
    # a search that ran out (exit 4) still writes a certificate
    Mutant(
        "certificate-written-on-exit-4",
        "src/tdlclab/cli.py",
        "    if code != EXIT_EXHAUSTED:\n",
        "    if True:\n",
        ("tests/test_cli.py::test_certify_writes_one_certificate_on_exit_0_or_1_only",),
    ),
    # a refutation's certificate reads verified
    Mutant(
        "refuted-certificate-reads-verified",
        "src/tdlclab/cli.py",
        'verdict = "verified" if code == EXIT_VERIFIED else "refuted_at_depth"',
        'verdict = "verified"',
        ("tests/test_cli.py::test_certify_writes_one_certificate_on_exit_0_or_1_only",),
    ),
    # goodshrink's report drops kappa, which the CLI no longer adds back
    Mutant(
        "goodshrink-report-loses-kappa",
        "src/tdlclab/boundary.py",
        '        "kappa": str(kappa),\n',
        "",
        ("tests/test_cli.py::test_certify_goodshrink_reports_kappa",),
    ),
)


def occurrences(mutant: Mutant, root: Path = HERE) -> int:
    """How often the mutant's snippet occurs in its file under root."""
    return (root / mutant.path).read_text().count(mutant.snippet)


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply the mutant to a copy of the tree and run its tests:
    ("killed" | "survived" | "error N", seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(HERE / part, root / part, ignore=ignore)
        target = root / mutant.path
        target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - started
    # pytest exits 1 when a test failed and 0 when all passed
    status = {0: "survived", 1: "killed"}.get(proc.returncode, f"error {proc.returncode}")
    return status, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", help="run the cases whose name contains this")
    parser.add_argument("--list", action="store_true", help="list the cases and stop")
    args = parser.parse_args()
    chosen = [m for m in MUTANTS if args.only in m.name]
    killed = 0
    for m in chosen:
        if args.list:
            print(f"{m.name}: {m.path} -> {' '.join(m.tests)}")
            continue
        count = occurrences(m)
        if count != 1:
            print(f"STALE    {m.name}: snippet occurs {count} times in {m.path}", flush=True)
            continue
        status, elapsed = run(m)
        killed += status == "killed"
        print(f"{status:<8} {elapsed:6.1f}s  {m.name}", flush=True)
    if args.list:
        return 0
    print(f"{killed}/{len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
