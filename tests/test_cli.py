"""End-to-end CLI coverage: spec parsing, verbs, exit codes, artifacts."""
from __future__ import annotations

import gc
import json
import re
import subprocess
import sys

import pytest

from tdlclab import cli, dynamics, permgrp
from tdlclab.certificates import canonical_json, normalise
from tdlclab.errors import (
    ClosureCapExceeded, NotSkewering, PrecisionExhausted, SearchExhausted, SpecFileError,
)
from tdlclab.tree import SpecWord

US3 = """\
[tree]
kind = regular
degree = 3

[local_group]
generators = (1 2), (0 1 2)

[limits]
depth = 3
word_bound = 6
"""

US3_ELEMENTS = """\
[tree]
kind = regular
degree = 3

[local_group]
generators = (1 2), (0 1 2)

[elements]
g = hyperbolic axis=0
u1 = portrait 01:(0 2)
rho = portrait root:(0 1 2)
c = word g u1 g~

[limits]
depth = 3
word_bound = 6
seed = 7
"""

# US3_ELEMENTS plus a word element, itself a product of two letters
US3_WORD = US3_ELEMENTS.replace("c = word g u1 g~\n", "c = word g u1 g~\nh = word g g\n")

ROTONLY = """\
[tree]
kind = regular
degree = 3

[local_group]
generators = (1 2), (0 1 2)

[elements]
r0 = portrait root:(1 2)
r1 = portrait root:(0 1 2)

[limits]
depth = 2
word_bound = 4
"""

# one translation and the swap of its two axis ends: a finite invariant
# measure exists, and its weights are not uniform
LONE_AXIS = """\
[tree]
kind = regular
degree = 3

[local_group]
generators = (1 2), (0 1 2)

[elements]
t = hyperbolic axis=0
swap = portrait root:(0 1)
"""

# degree 12: addresses with a colour of 10 or more are written with dots
DEG12 = """\
[tree]
kind = regular
degree = 12

[local_group]
generators = (0 1 2 3 4 5 6 7 8 9 10 11)

[elements]
r = portrait root:(0 1 2 3 4 5 6 7 8 9 10 11)
t = hyperbolic axis=0

[limits]
word_bound = 4
"""

ROOTED_BINARY = """\
[tree]
kind = rooted
degree = 2

[local_group]
generators = (0 1)
"""

TWOCOPY = """\
[tree]
kind = two-copy
degree = 3

[local_group]
generators = (1 2), (0 1 2)

[limits]
depth = 2
word_bound = 6
"""


@pytest.fixture
def spec_file(tmp_path):
    def write(text, name="group.spec"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.startswith("{") else None
    return code, report, captured


# ------------------------------------------------------------------- parsing


def test_parse_spec_round_trip():
    spec = cli.parse_spec_text(US3_ELEMENTS)
    assert spec.kind == "regular"
    assert spec.shape.degree == 3
    assert spec.local.order == 6
    assert list(spec.elements) == ["g", "u1", "rho", "c"]
    assert spec.depth == 3
    assert spec.word_bound == 6
    assert spec.seed == 7
    # the word element composes g u1 g~ with g acting first
    c = spec.elements["c"]
    g, u1 = spec.elements["g"], spec.elements["u1"]
    probe = (1, 0, 1)
    assert c.apply(probe) == g.apply_inverse(u1.apply(g.apply(probe)))


@pytest.mark.parametrize(
    "mutation, line, fragment",
    [
        ("kind = regular\n", 2, "missing 'kind'"),
        ("kind = mobius\n", 2, "unknown tree kind"),
        ("degree = 3\nflavour = hot\n", 4, "unknown key 'flavour'"),
    ],
)
def test_parse_errors_carry_positions(mutation, line, fragment):
    if "mobius" in mutation:
        text = US3.replace("kind = regular\n", "kind = mobius\n")
    elif "flavour" in mutation:
        text = US3.replace("degree = 3\n", "degree = 3\nflavour = hot\n")
    else:
        text = US3.replace("kind = regular\n", "")
        line = 1
        fragment = "missing 'kind'"
    with pytest.raises(SpecFileError) as err:
        cli.parse_spec_text(text)
    assert fragment in str(err.value)
    if "flavour" in mutation:
        assert err.value.line == 4


def test_parse_rejects_malformed_cycle():
    text = US3.replace("(1 2), (0 1 2)", "(1 2, (0 1 2)")
    with pytest.raises(SpecFileError) as err:
        cli.parse_spec_text(text)
    assert err.value.line == 6
    assert err.value.column == 14


def test_parse_rejects_bad_portrait_site():
    text = US3_ELEMENTS.replace("u1 = portrait 01:(0 2)", "u1 = portrait 01:(1 2)")
    with pytest.raises(SpecFileError) as err:
        cli.parse_spec_text(text)
    assert "return colour" in str(err.value)


def test_parse_reads_dotted_sites_and_axes_above_degree_ten():
    text = DEG12.replace("t =", "u = portrait 1.11:(0 2)\nt =").replace("axis=0", "axis=11")
    elements = cli.parse_spec_text(text).elements
    assert elements["u"].apply((1, 11, 0)) == (1, 11, 2)
    assert elements["t"].apply(()) == (11,)


def test_parse_rejects_elements_on_two_copy():
    text = TWOCOPY + "\n[elements]\ng = hyperbolic axis=0\n"
    with pytest.raises(SpecFileError) as err:
        cli.parse_spec_text(text)
    assert "two-copy" in str(err.value)


_HEAD = "[tree]\nkind = regular\ndegree = 3\n\n[local_group]\ngenerators = (1 2), (0 1 2)\n"
_ELEMENTS = _HEAD + "\n[elements]\n"


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("[tree\nkind = regular\n", "unterminated section header", 1, 1),
        ("[trees]\n", "unknown section [trees]", 1, 1),
        (_HEAD + "[tree]\n", "duplicate section [tree]", 7, 1),
        ("kind = regular\n[tree]\n", "content before any section header", 1, 1),
        ("[tree]\nkind regular\n", "expected 'key = value'", 2, 1),
        ("[tree]\n  = regular\n", "empty key", 2, 1),
        ("[tree]\nkind = regular\ndegree = 3\n", "missing [local_group] section", 1, 1),
        ("[local_group]\ngenerators = (0 1)\n", "missing [tree] section", 1, 1),
        ("[tree]\nkind = cubic\ndegree = 3\n[local_group]\n", "unknown tree kind 'cubic'", 2, 8),
        ("[tree]\nkind = regular\ndegre = 3\n[local_group]\n",
         "unknown key 'degre' in [tree]", 3, 1),
        ("[tree]\ndegree = 3\n[local_group]\n", "missing 'kind' in [tree]", 1, 1),
        ("\n[tree]\nkind = rooted\n[local_group]\n", "missing 'degree' in [tree]", 2, 1),
        ("[tree]\nkind = regular\ndegree = 2\n[local_group]\n",
         "regular shape needs degree >= 3", 1, 1),
        ("[tree]\nkind = regular\ndegree = 3\n[local_group]\ngens = (0 1)\n",
         "unknown key 'gens' in [local_group]", 5, 1),
        ("[tree]\nkind = regular\ndegree = 3\n[local_group]\ngenerators = (0 1),  (0 5)\n",
         "point 5 out of range for degree 3", 5, 22),
        (_ELEMENTS + "2g = hyperbolic axis=0\n", "element name '2g' is not an identifier", 9, 1),
        (_ELEMENTS + "g = hyperbolic axis=0\ng = hyperbolic axis=1\n", "duplicate element 'g'", 10, 1),
        (_ELEMENTS + "g = elliptic axis=0\n",
         "unknown element form 'elliptic' (want hyperbolic, portrait or word)", 9, 5),
        (_ELEMENTS + "g = hyperbolic axes=0\n", "hyperbolic takes 'axis=<colour word>'", 9, 5),
        (_ELEMENTS + "g = hyperbolic axis=00\n", "axis word is not freely reduced", 9, 5),
        (_ELEMENTS + "u = portrait\n", "portrait needs at least one 'addr:(cycles)' site", 9, 13),
        (_ELEMENTS + "u = portrait 01(0 2)\n", "site '01(0 2)' wants 'addr:(cycles)'", 9, 14),
        (_ELEMENTS + "u = portrait  01:(0 2) 0x:(0 2)\n", "bad site address '0x'", 9, 24),
        (_ELEMENTS + "u = portrait 01:(0 7)\n", "point 7 out of range for degree 3", 9, 17),
        (_ELEMENTS + "u = portrait 01:(0 2) 01:(0 2)\n", "duplicate site (0, 1)", 9, 23),
        (_ELEMENTS + "u = portrait 00:(1 2)\n",
         "illegal address (0, 0) for TreeShape(kind='regular', degree=3)", 9, 14),
        # a repeated illegal site is at fault where it first occurs
        (_ELEMENTS + "u = portrait 00:(1 2) 00:(1 2)\n",
         "illegal address (0, 0) for TreeShape(kind='regular', degree=3)", 9, 14),
        # a site's own fault points at that site, not at the portrait's first
        (_ELEMENTS + "u = portrait 01:(0 2) 00:(1 2)\n",
         "illegal address (0, 0) for TreeShape(kind='regular', degree=3)", 9, 23),
        (_ELEMENTS + "u = portrait 02:(0 1) 01:(0 1)\n",
         "site (0, 1) disagrees with its surroundings on the return colour 1", 9, 23),
        (_ELEMENTS + "w = word\n", "word needs at least one element name", 9, 5),
        (_ELEMENTS + "g = hyperbolic axis=0\nw = word g h~\n",
         "word references unknown element 'h'", 10, 5),
        (_HEAD + "[limits]\ndepht = 3\n", "unknown key 'depht' in [limits]", 8, 1),
        (_HEAD + "[limits]\ndepth = three\n", "expected an integer, got 'three'", 8, 9),
        (_HEAD + "[limits]\nword_bound = 0\n", "value 0 below minimum 1", 8, 14),
    ],
    ids=[
        "unterminated-section", "unknown-section", "duplicate-section", "content-before-header",
        "no-equals", "empty-key", "missing-local-group", "missing-tree", "unknown-kind",
        "unknown-tree-key", "missing-kind", "missing-degree", "bad-degree", "unknown-local-key",
        "bad-generator", "element-name", "duplicate-element", "unknown-form", "bad-axis-form",
        "bad-axis", "empty-portrait", "site-without-colon", "bad-site-address", "bad-site-cycle",
        "repeated-site", "illegal-site", "repeated-illegal-site", "illegal-later-site", "return-colour-site", "empty-word", "unknown-word-element",
        "unknown-limits-key", "non-integer", "below-minimum",
    ],
)
def test_malformed_specs_name_the_fault_and_its_position(text, message, line, column):
    with pytest.raises(SpecFileError) as err:
        cli.parse_spec_text(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_cli_reports_a_malformed_spec(spec_file, capsys):
    code, report, captured = run_cli(
        capsys, "dynamics", "minimal", spec_file(_ELEMENTS + "u = portrait 01:(0 7)\n")
    )
    assert code == 2
    assert report is None
    assert captured.err == "spec error: line 9, column 17: point 7 out of range for degree 3\n"


# -------------------------------------------------------------- report-local


def test_report_local_eta_and_orbit_bounds(spec_file, capsys):
    code, report, _ = run_cli(
        capsys, "report-local", spec_file(US3), "--depths", "1..4"
    )
    assert code == 0
    results = report["results"]
    assert results["eta"]["primes"] == [2]
    assert results["eta"]["orders"] == [6, 48, 3072, 12582912]
    bounds = results["sphere_orbits"]["kernel_orbit_bound"]
    assert bounds == {"1": 2, "2": 2, "3": 2, "4": 2}
    checks = results["sphere_orbits"]["kernel_realized"]
    assert all(entry["matches_structural"] for entry in checks.values())
    assert results["levels"]["composition_factors"]["3"] == ["C2"] * 10 + ["C3"]
    assert all(results["levels"]["realized_factor_checks"].values())
    assert report["spec_hash"]


@pytest.mark.parametrize(
    "target, fake, failed",
    [  # the structural factors gain a C2; the structural kernel bound drops to 1
        ("_level_factors", lambda real: lambda *a: real(*a) + ["C2"], "composition factors"),
        ("child_orbits", lambda real: lambda *a: [(0,)], "kernel orbits"),
    ],
    ids=["factors", "kernel"],
)
def test_report_local_failed_check_exits_70_without_report(spec_file, capsys, monkeypatch, target, fake, failed):
    # both checks hold by the structure theory, so a false one is a fault
    monkeypatch.setattr(cli, target, fake(getattr(cli, target)))
    code, report, captured = run_cli(capsys, "report-local", spec_file(US3), "--depths", "1..2")
    assert (code, report) == (70, None)
    assert captured.err.startswith(
        f"internal error: AssertionError: report-local checks fail: {failed} at depth 1, {failed} at depth 2")


def test_report_local_rooted_binary(spec_file, capsys):
    code, report, _ = run_cli(
        capsys, "report-local", spec_file(ROOTED_BINARY), "--depths", "1..3"
    )
    assert code == 0
    results = report["results"]
    assert results["eta"]["primes"] == [2]
    assert set(results["levels"]["composition_factors"]["3"]) == {"C2"}


# ------------------------------------------------------------------ dynamics


def test_word_elements_are_not_dynamics_generators():
    # c = g u1 g~ is a product of earlier elements and adds no generator;
    # involutions get no separate inverse
    ctx = cli.build_context(cli.parse_spec_text(US3_ELEMENTS))
    assert ctx.gen_names == ("g", "g~", "u1", "rho", "rho~")


def test_dynamics_minimal_standard_context(spec_file, capsys):
    code, report, captured = run_cli(capsys, "dynamics", "minimal", spec_file(US3))
    assert code == 0
    assert report["results"]["verdict"] == "minimal-at-depth"
    assert "minimal-at-depth" in captured.err


def test_dynamics_measure_rotation_only_feasible(spec_file, capsys):
    code, report, _ = run_cli(capsys, "dynamics", "measure", spec_file(ROTONLY))
    assert code == 1
    results = report["results"]
    assert results["verdict"] == "feasible"
    assert results["uniform"] is True
    assert set(results["weights"].values()) == {"1/6"}


def test_dynamics_measure_lone_axis_feasible_off_uniform(spec_file, capsys):
    code, report, _ = run_cli(
        capsys, "dynamics", "measure", spec_file(LONE_AXIS), "--depth", "2"
    )
    assert code == 1
    results = report["results"]
    assert results["verdict"] == "feasible"
    assert results["uniform"] is False
    # an atom off the axis keeps the Fraction zero, written "0/1"
    assert set(results["weights"].values()) == {"1/2", "0/1"}


@pytest.mark.parametrize(
    "spec, argv, verdict",
    [
        (DEG12, ["proximal", "--depth", "2", "--target", "1.11"], "verified"),
        (DEG12.replace("t =", "u = portrait 1.11:(0 2)\nt ="), ["measure", "--depth", "1"],
         "infeasible"),
        (DEG12.replace("axis=0", "axis=11"), ["measure", "--depth", "1"], "infeasible"),
        # the powers of t push a depth-2 cylinder down to depth 10
        (DEG12.replace("axis=0", "axis=11").replace("word_bound = 4", "word_bound = 8"),
         ["proximal", "--depth", "2", "--target", "1.11"], "verified"),
    ],
    ids=["target", "portrait-site", "axis", "deep-images"],
)
def test_dotted_addresses_above_degree_ten(spec_file, capsys, spec, argv, verdict):
    code, report, _ = run_cli(capsys, "dynamics", argv[0], spec_file(spec), *argv[1:])
    assert code == 0
    assert report["results"]["verdict"] == verdict


def test_dynamics_degree_two_copy(spec_file, capsys):
    code, report, _ = run_cli(capsys, "dynamics", "degree", spec_file(TWOCOPY))
    assert code == 0
    assert report["results"]["degree"] == 2


def test_dynamics_degree_rotations_only_exits_zero(spec_file, capsys):
    # every generator fixes the base vertex: no minorising set is searched
    code, report, _ = run_cli(
        capsys, "dynamics", "degree", spec_file(ROTONLY), "--depth", "2"
    )
    assert code == 0
    results = report["results"]
    assert results["verdict"] == "verified"
    assert results["initial_set"] is None
    # the root recolourings by Sym(3) permute the six depth-2 vertices
    # transitively, so there is one invariant open
    assert results["degree"] == 1


def test_dynamics_skewering_and_measure_infeasible(spec_file, capsys):
    code, report, _ = run_cli(capsys, "dynamics", "skewering", spec_file(US3))
    assert code == 0
    assert report["results"]["word"] == ["t0"]
    code, report, _ = run_cli(capsys, "dynamics", "measure", spec_file(US3))
    assert code == 0
    assert report["results"]["verdict"] == "infeasible"


def test_dynamics_measure_decides_the_readme_spec_without_a_simplex(
    spec_file, capsys, monkeypatch
):
    def refuse(*system):
        raise AssertionError("the simplex was run")

    monkeypatch.setattr(cli.dynamics, "_phase_one_feasible", refuse)
    code, report, _ = run_cli(
        capsys, "dynamics", "measure", spec_file(US3), "--depth", "6"
    )
    assert code == 0
    assert report["results"]["verdict"] == "infeasible"
    assert report["results"]["certificate"]["skewering_word"] == ["t0"]


def test_dynamics_proximal_seeded(spec_file, capsys):
    code, report, _ = run_cli(
        capsys, "dynamics", "proximal", spec_file(US3), "--seed", "5"
    )
    assert code == 0
    results = report["results"]
    assert results["verdict"] == "verified"
    assert results["word_length"] <= 6
    again_code, again, _ = run_cli(
        capsys, "dynamics", "proximal", spec_file(US3), "--seed", "5"
    )
    assert again["results"] == results


def test_dynamics_proximal_refutes_a_closed_pair_orbit(spec_file, capsys):
    # rotations alone: the pair orbit closes within the bound (exit 1),
    # and a bound that cuts it off exhausts the search (exit 4)
    code, report, _ = run_cli(capsys, "dynamics", "proximal", spec_file(ROTONLY))
    assert code == 1
    assert report["results"]["verdict"] == "refuted_at_depth"
    assert report["results"]["source"] == ["12", "01"]
    code, report, captured = run_cli(
        capsys, "dynamics", "proximal", spec_file(ROTONLY), "--word-bound", "1"
    )
    assert code == 4
    assert report is None
    assert captured.err == "search exhausted: compression of (12, 01) into {01} (bound 1)\n"


@pytest.mark.parametrize("bound, exit_code", [(1, 4), (2, 1), (3, 1), (4, 1)])
def test_dynamics_proximal_decides_closure_at_the_bound(spec_file, capsys, bound, exit_code):
    # the (12, 01) pair orbit under the rotations is complete with words
    # of length 2: at bound 2 its last level steps to no unseen pair, so
    # the orbit closed (exit 1, as at any larger bound); at bound 1 a
    # word at the bound steps to an unseen pair, so the bound cut it off
    code, report, captured = run_cli(
        capsys, "dynamics", "proximal", spec_file(ROTONLY), "--word-bound", str(bound)
    )
    assert code == exit_code
    if exit_code == 1:
        assert report["results"]["verdict"] == "refuted_at_depth"
        assert report["results"]["word_bound"] == bound
    else:
        assert report is None
        assert "search exhausted" in captured.err


def test_dynamics_two_copy_rejects_single_tree_checks(spec_file, capsys):
    code, _, captured = run_cli(capsys, "dynamics", "measure", spec_file(TWOCOPY))
    assert code == 2
    assert "single-tree" in captured.err


# ------------------------------------------------------------------- certify


def test_certify_contraction_writes_certificate(spec_file, capsys, tmp_path):
    out = tmp_path / "contraction.cert.json"
    code, report, _ = run_cli(
        capsys,
        "certify", "contraction", spec_file(US3_ELEMENTS),
        "--element", "g", "--u", "u1", "--ball", "4", "--out", str(out),
    )
    assert code == 0
    assert report["results"]["verdict"] == "contracts"
    assert report["results"]["k"] == 3
    cert = json.loads(out.read_text())
    assert cert["kind"] == "contraction"
    assert cert["verdict"] == "verified"
    assert cert["group_spec_hash"] == report["spec_hash"]


def test_certify_goodshrink_elliptic_refutes(spec_file, capsys, tmp_path):
    text = US3_ELEMENTS.replace("depth = 3", "depth = 3")
    out = tmp_path / "gs.cert.json"
    code, report, _ = run_cli(
        capsys,
        "certify", "goodshrink", spec_file(text),
        "--element", "rho", "--out", str(out),
    )
    assert code == 1
    assert report["results"]["error"] == "NotSkewering"
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "refuted_at_depth"


def test_certify_free_semigroup_word_table(spec_file, capsys, tmp_path):
    out = tmp_path / "free.cert.json"
    code, report, _ = run_cli(
        capsys,
        "certify", "free-semigroup", spec_file(US3),
        "--L", "8", "--out", str(out),
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert len(cert["checks"]["word_table"]) == 511
    assert cert["checks"]["all_images_distinct"] is True


def test_certify_free_semigroup_refutes_on_rotations(spec_file, capsys, tmp_path):
    # every generator fixes the base vertex, so the skewering search is
    # refuted, whatever the word bound: exit 1, with a refuted certificate
    out = tmp_path / "free.cert.json"
    code, report, _ = run_cli(
        capsys, "certify", "free-semigroup", spec_file(ROTONLY), "--out", str(out)
    )
    assert code == 1
    assert report["results"]["error"] == "NotSkewering"
    assert "fixes the base vertex" in report["results"]["reason"]
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "refuted_at_depth"
    assert cert["checks"] == {"reason": report["results"]["reason"]}


def test_certify_free_semigroup_failed_check_exits_70_without_certificate(
    spec_file, capsys, tmp_path, monkeypatch
):
    # every check holds by construction, so one made to fail is a fault:
    # here g and h are built as the identity, so h.alpha = alpha misses beta
    monkeypatch.setattr(dynamics.ActionContext, "word", lambda self, names: SpecWord(self.shape, ()))
    out = tmp_path / "free.cert.json"
    code, report, captured = run_cli(
        capsys, "certify", "free-semigroup", spec_file(US3), "--out", str(out)
    )
    assert (code, report, out.exists()) == (70, None, False)
    assert captured.err.startswith(
        "internal error: AssertionError: free-semigroup checks fail: h_alpha_inside_leftover"
    )


def test_certify_free_semigroup_rotation_search_exit_codes(spec_file, capsys, tmp_path):
    # g = t0 skewers, but no word in the base-fixing generators rho and
    # u1 separates g.alpha from it: their orbit on the pair closes at
    # three states, reached by words of length 1, which refutes (exit 1)
    # at any bound from 1 on.  With the root recolourings a = (0 1) and
    # b = (0 1 2) the rotation is the two-letter a b~, so at bound 1 the
    # one-letter words step to unseen pairs and the bound cuts the
    # search off (exit 4); at bound 2 it verifies
    out = tmp_path / "free.cert.json"
    for bound in ("6", "1"):
        code, report, _ = run_cli(
            capsys, "certify", "free-semigroup", spec_file(US3_ELEMENTS),
            "--word-bound", bound, "--out", str(out),
        )
        assert code == 1
        assert report["results"]["verdict"] == "refuted_at_depth"
        assert "base-fixing generators" in report["results"]["reason"]
        cert = json.loads(out.read_text())
        assert cert["verdict"] == "refuted_at_depth"
        assert cert["checks"] == {"reason": report["results"]["reason"]}
    two_letters = US3_ELEMENTS.split("[elements]")[0] + (
        "[elements]\ng = hyperbolic axis=0\na = portrait root:(0 1)\n"
        "b = portrait root:(0 1 2)\n\n[limits]\ndepth = 3\nword_bound = 6\n"
    )
    code, _, captured = run_cli(
        capsys, "certify", "free-semigroup", spec_file(two_letters),
        "--word-bound", "1", "--L", "3", "--out", str(out),
    )
    assert code == 4
    assert "base-fixing rotation separating the skewering image (bound 1)" in captured.err
    code, report, _ = run_cli(
        capsys, "certify", "free-semigroup", spec_file(two_letters),
        "--word-bound", "2", "--L", "3", "--out", str(out),
    )
    assert code == 0
    assert report["results"]["rotation"] == "a b~"


def test_certify_orbit_join_and_tits_core(spec_file, capsys, tmp_path):
    code, report, _ = run_cli(
        capsys,
        "certify", "orbit-join", spec_file(US3),
        "--alpha", "01", "--out", str(tmp_path / "oj.cert.json"),
    )
    assert code == 0
    assert report["results"]["is_top"] is True
    code, report, _ = run_cli(
        capsys,
        "certify", "tits-core", spec_file(US3_ELEMENTS),
        "--element", "g", "--out", str(tmp_path / "tc.cert.json"),
    )
    assert code == 0
    assert report["results"]["generator_count"] > 0


def test_certify_nub_window(spec_file, capsys, tmp_path):
    code, report, _ = run_cli(
        capsys,
        "certify", "nub", spec_file(US3_ELEMENTS),
        "--element", "g", "--depth", "6", "--m", "2",
        "--out", str(tmp_path / "nub.cert.json"),
    )
    assert code == 0
    assert report["results"]["verdict"] == "verified"


@pytest.mark.parametrize(
    "spec, argv",
    [
        (US3_ELEMENTS, ["contraction", "--element", "g", "--u", "u1", "--ball", "-3"]),
        (US3_ELEMENTS, ["nub", "--element", "g", "--m", "-1"]),
        (US3, ["free-semigroup", "--L", "-1"]),
    ],
    ids=["ball", "m", "L"],
)
def test_certify_negative_bound_exits_2_without_certificate(
    spec_file, capsys, tmp_path, spec, argv
):
    # a negative bound used to verify vacuously on an empty window
    out = tmp_path / "neg.cert.json"
    code, report, captured = run_cli(
        capsys, "certify", argv[0], spec_file(spec), *argv[1:], "--out", str(out)
    )
    assert code == 2
    assert report is None
    assert "at least 0" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, argv",
    [
        (US3_ELEMENTS, ["nub", "--element", "g", "--m", "0"]),
        (US3, ["free-semigroup", "--L", "0"]),
    ],
    ids=["m", "L"],
)
def test_certify_zero_bound_still_verifies(spec_file, capsys, tmp_path, spec, argv):
    out = tmp_path / "zero.cert.json"
    code, report, _ = run_cli(
        capsys, "certify", argv[0], spec_file(spec), *argv[1:], "--out", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "verified"


@pytest.mark.parametrize("axis", ["01", "012"])
def test_certify_nub_longer_translation_exits_zero(spec_file, capsys, tmp_path, axis):
    # a translation of length d needs tables reaching d levels past the
    # depth ball; a shorter table used to raise KeyError (exit 2)
    text = US3_ELEMENTS.replace("g = hyperbolic axis=0\n", f"g = hyperbolic axis={axis}\n")
    code, report, _ = run_cli(
        capsys,
        "certify", "nub", spec_file(text), "--element", "g",
        "--out", str(tmp_path / "nub.cert.json"),
    )
    assert code == 0
    assert report["results"]["verdict"] == "verified"


@pytest.mark.parametrize(
    "kind, extra",
    [("goodshrink", []), ("nub", []), ("contraction", ["--u", "u1"])],
)
def test_certify_word_element_exits_zero(spec_file, capsys, tmp_path, kind, extra):
    # a word element's inverse used to crash with AttributeError (exit 1)
    code, report, _ = run_cli(
        capsys,
        "certify", kind, spec_file(US3_WORD), "--element", "h", *extra,
        "--out", str(tmp_path / "w.cert.json"),
    )
    assert code == 0
    assert report["results"]["verdict"] in ("verified", "contracts")


def test_certify_tits_core_word_element_reports(spec_file, capsys, tmp_path):
    code, report, _ = run_cli(
        capsys,
        "certify", "tits-core", spec_file(US3_WORD), "--element", "h",
        "--out", str(tmp_path / "tc.cert.json"),
    )
    assert code in (0, 1)
    assert report["results"]["verdict"] in ("verified", "refuted_at_depth")


@pytest.mark.parametrize(
    "text, element",
    [
        (US3_ELEMENTS.replace("g = hyperbolic axis=0\n", "g = hyperbolic axis=01\n"), "g"),
        (US3_WORD, "h"),
    ],
    ids=["axis-01", "word-gg"],
)
def test_certify_tits_core_length_two_translation_exits_zero(
    spec_file, capsys, tmp_path, text, element
):
    # rotations that move beta used to fail the normalisation check (exit 1);
    # with none left to check, neither report nor certificate claims it passed
    out = tmp_path / "tc.cert.json"
    code, report, _ = run_cli(
        capsys,
        "certify", "tits-core", spec_file(text), "--element", element,
        "--out", str(out),
    )
    assert code == 0
    assert report["results"]["verdict"] == "verified"
    assert report["results"]["rotation_count"] == 0
    assert "cone_rotations_normalise" not in report["results"]["checks"]
    assert "cone_rotations_normalise" not in json.loads(out.read_text())["checks"]


# ------------------------------------------------------------ serialisation


@pytest.mark.parametrize(
    "text, argv",
    [
        (US3_ELEMENTS, ["dynamics", "minimal", "--depth", "3"]),
        # Fraction weights, which normalise writes as text
        (LONE_AXIS, ["dynamics", "measure", "--depth", "2"]),
        (US3_ELEMENTS, ["certify", "goodshrink", "--element", "g"]),
    ],
    ids=["minimal", "measure", "certify"],
)
def test_one_normalise_pass_writes_what_two_passes_wrote(
    spec_file, capsys, tmp_path, monkeypatch, text, argv
):
    # the envelope keeps raw results and canonical_json normalises them
    # once; the bytes must equal those of the normalised envelope that the
    # CLI used to serialise, and the text format must show the same values
    reports, certs = [], []
    emit, make_cert = cli._emit, cli.certificate
    monkeypatch.setattr(cli, "_emit", lambda report, args: reports.append(report) or emit(report, args))
    monkeypatch.setattr(cli, "certificate", lambda **kw: certs.append(make_cert(**kw)) or certs[-1])
    out = tmp_path / "c.cert.json"
    argv = [*argv[:2], spec_file(text), *argv[2:], "--out", str(out)]
    code = cli.main(argv)
    payload = capsys.readouterr().out
    assert code in (0, 1)  # a feasible measure is the refuted verdict
    (report,) = reports
    assert payload == canonical_json(normalise(report)) + "\n"
    if argv[1] == "measure":
        assert report["results"]["uniform"] is False
    if argv[0] == "certify":
        (cert,) = certs
        assert out.read_text() == canonical_json(normalise(cert)) + "\n"
    else:
        assert out.read_text() == payload
        assert not certs
    assert cli.main([*argv, "--format", "text"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == sorted(cli._flatten(json.loads(payload)))


# -------------------------------------------------------------------- export


def test_export_cayley_abels_counts(spec_file, capsys, tmp_path):
    text = "[tree]\nkind = regular\ndegree = 3\n\n[local_group]\ngenerators = ()\n"
    dot = tmp_path / "ca.dot"
    code, report, _ = run_cli(
        capsys,
        "export", "cayley-abels", spec_file(text),
        "--depth", "2", "--dot", str(dot),
    )
    assert code == 0
    assert report["results"]["nodes"] == 10
    assert dot.read_text().startswith("graph cayley_abels")


def test_export_schreier_s4(spec_file, capsys, tmp_path):
    text = "[tree]\nkind = rooted\ndegree = 4\n\n[local_group]\ngenerators = (0 1), (0 1 2 3)\n"
    dot = tmp_path / "schreier.dot"
    code, report, _ = run_cli(
        capsys, "export", "schreier", spec_file(text), "--dot", str(dot)
    )
    assert code == 0
    assert report["results"]["nodes"] == 4


@pytest.mark.parametrize("point", ["99", "-1"])
def test_export_schreier_rejects_a_point_off_the_local_action(spec_file, capsys, point):
    code, _, captured = run_cli(
        capsys, "export", "schreier", spec_file(US3), f"--point={point}"
    )
    assert code == 2
    assert captured.out == ""
    assert f"point {point}" in captured.err


def test_export_stone_orbit_to_stdout(spec_file, capsys):
    code = cli.main(["export", "stone-orbit", spec_file(US3), "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("digraph stone_orbit")
    assert captured.out.count("label=\"") >= 6


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_two_copy_stone_orbit_is_the_base_orbit_per_copy(depth):
    # each copy's generators draw the single-tree orbit on their own copy
    # and fix every state of the other copy; inverse names draw nothing
    spec = cli.parse_spec_text(TWOCOPY)
    spec.depth = depth
    two = cli.build_context(spec)
    n = len(two._base.states())
    edge = re.compile(r'  n(\d+) -> n(\d+) \[label="(.+)"\];')
    base: dict[str, list] = {}
    for line in cli._stone_orbit_dot(two._base).splitlines():
        if m := edge.fullmatch(line):
            base.setdefault(m[3], []).append((int(m[1]), int(m[2])))
    want = []
    for copy in (0, 1):
        for name, edges in base.items():
            for c in (0, 1):
                for i in range(n):
                    targets = [j for a, j in edges if a == i] if c == copy else [i]
                    want += [(c * n + i, c * n + j, f"{name}@{copy}") for j in targets]
    got = [
        (int(m[1]), int(m[2]), m[3])
        for line in cli._stone_orbit_dot(two).splitlines()
        if (m := edge.fullmatch(line))
    ]
    assert got == want


# ---------------------------------------------------------------- exit codes


def test_exit_code_cap_exceeded(spec_file, capsys, monkeypatch):
    monkeypatch.setenv("TDLC_CAP", "4")
    code, _, captured = run_cli(capsys, "report-local", spec_file(US3))
    assert code == 3
    assert "cap" in captured.err


def test_cap_only_tightens(spec_file, capsys, monkeypatch):
    monkeypatch.setenv("TDLC_CAP", str(2**30))
    code, _, _ = run_cli(capsys, "dynamics", "minimal", spec_file(US3))
    assert code == 0


@pytest.mark.parametrize("fault", [AssertionError("broken invariant")])
def test_internal_fault_exits_70_not_refuted(spec_file, capsys, monkeypatch, fault):
    def handler(args, spec):
        raise fault

    monkeypatch.setitem(cli._HANDLERS, "dynamics", handler)
    code, report, captured = run_cli(capsys, "dynamics", "minimal", spec_file(US3))
    assert code == 70
    assert report is None
    assert captured.err.startswith(f"internal error: {type(fault).__name__}")


def test_a_failed_melnikov_order_check_exits_70(spec_file, capsys, monkeypatch):
    # A5 x C2 on a rooted degree-7 tree, handed its trivial subgroup as a
    # maximal normal subgroup: it cuts the meet A5 by 60, not by its
    # index 120, so the order check raises
    spec = ROOTED_BINARY.replace("degree = 2", "degree = 7").replace(
        "(0 1)", "(0 1 2), (2 3 4), (5 6)")
    monkeypatch.setattr(permgrp, "_non_abelian_maximals", lambda g: [g.subgroup(())])
    code, report, captured = run_cli(capsys, "report-local", spec_file(spec), "--depths", "1..2")
    assert (code, report) == (70, None)
    assert captured.err.startswith("internal error: AssertionError: a maximal of index 120 cuts the meet by 60")


@pytest.mark.parametrize(
    "fault, code, message",
    [
        (SpecFileError("bad key", 3), 2, "spec error: line 3, column 1: bad key"),
        (ClosureCapExceeded(4), 3, "cap exceeded: element closure exceeded cap 4"),
        # the host's memory is a bound, not a program fault; no test
        # allocates to provoke it
        (MemoryError(), 3, "out of memory: "),
        (SearchExhausted("pair", 6), 4, "search exhausted: pair (bound 6)"),
        (PrecisionExhausted("ball"), 4, "precision exhausted: ball"),
        (NotSkewering("fixed"), 1, "refuted: fixed"),
        (ValueError("bad"), 2, "error: bad"),
        # src/ raises no KeyError, and its TypeErrors are program faults
        (KeyError("missing"), 70, "internal error: KeyError: 'missing'"),
        (TypeError("kind"), 70, "internal error: TypeError: kind"),
        (OSError("disk"), 2, "error: disk"),
        (RuntimeError("loop"), 70, "internal error: RuntimeError: loop"),
    ],
    ids=lambda x: type(x).__name__ if isinstance(x, Exception) else None,
)
def test_exit_table_maps_each_fault_to_its_code_and_message(
    spec_file, capsys, monkeypatch, fault, code, message
):
    def handler(args, spec):
        raise fault

    monkeypatch.setitem(cli._HANDLERS, "dynamics", handler)
    got, report, captured = run_cli(capsys, "dynamics", "minimal", spec_file(US3))
    assert (got, report, captured.err) == (code, None, message + "\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_without_the_collector_and_restores_it(spec_file, capsys, monkeypatch, enabled):
    seen = []

    def handler(args, spec):
        seen.append(gc.isenabled())
        raise ValueError("stop")

    monkeypatch.setitem(cli._HANDLERS, "dynamics", handler)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_cli(capsys, "dynamics", "minimal", spec_file(US3))[0] == 2
        assert seen == [False]
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "family",
    [
        lambda f, n: ["report-local", f(US3), "--depths", f"1..{n}"],
        lambda f, n: ["dynamics", "minimal", f(US3), "--depth", str(n)],
        lambda f, n: ["dynamics", "minorising", f(US3), "--depth", str(n)],
        lambda f, n: ["dynamics", "degree", f(TWOCOPY), "--depth", str(n)],
        lambda f, n: ["dynamics", "measure", f(US3), "--depth", str(n)],
        lambda f, n: ["dynamics", "proximal", f(US3), "--depth", str(n)],
        lambda f, n: ["certify", "goodshrink", f(US3_ELEMENTS), "--element", "g", "--depth", str(n + 3)],
        lambda f, n: ["certify", "tits-core", f(US3_ELEMENTS), "--element", "g", "--depth", str(n + 3)],
        lambda f, n: ["export", "stone-orbit", f(US3), "--depth", str(n)],
        lambda f, n: ["export", "cayley-abels", f(US3), "--depth", str(n)],
    ],
    ids=["report-local", "minimal", "minorising", "degree", "measure", "proximal",
         "goodshrink", "tits-core", "stone-orbit", "cayley-abels"],
)
def test_verdict_paths_leave_no_more_cycles_one_level_deeper(spec_file, capsys, family):
    """The CLI runs with the cyclic collector off, so a verdict path that
    built reference cycles would hold their memory until exit.  Setup
    leaves a fixed number; one level deeper must leave no more."""
    was = gc.isenabled()
    gc.disable()
    try:
        found = []
        for n in (3, 4):
            gc.collect()
            code, _, _ = run_cli(capsys, *family(spec_file, n))
            assert code == 0
            found.append(gc.collect())
        assert found[1] <= found[0]
    finally:
        if was:
            gc.enable()


def test_precision_exhausted_exits_4_not_spec_error(spec_file, capsys, monkeypatch):
    # PrecisionExhausted is a ValueError, which used to exit 2
    def handler(args, spec):
        raise PrecisionExhausted("ball 5 not covered at precision 3")

    monkeypatch.setitem(cli._HANDLERS, "certify", handler)
    code, report, captured = run_cli(
        capsys, "certify", "contraction", spec_file(US3_ELEMENTS), "--element", "g"
    )
    assert code == 4
    assert report is None
    assert captured.err.startswith("precision exhausted: ball 5")


def test_unwritable_report_exits_2_not_refuted(spec_file, capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    code, report, captured = run_cli(
        capsys, "dynamics", "proximal", spec_file(US3), "--out", str(out)
    )
    assert code == 2
    assert report["results"]["verdict"] == "verified"
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert not out.exists()


def test_exit_code_missing_file(capsys):
    code = cli.main(["dynamics", "minimal", "no-such.spec"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


@pytest.mark.parametrize(
    "flag, value", [("--depth", "0"), ("--word-bound", "0"), ("--seed", "-1")]
)
def test_override_below_minimum_exits_2_without_report(spec_file, capsys, flag, value):
    # a spec's [limits] rejects these values; the flags must too
    code, _, captured = run_cli(capsys, "dynamics", "proximal", spec_file(US3), flag, value)
    assert code == 2
    assert captured.out == ""
    assert flag in captured.err


def test_limits_and_their_flags_share_each_minimum(spec_file, capsys):
    # each [limits] key takes its least value and refuses the one below,
    # and so does the flag that overrides it
    for key, least in (("depth", 1), ("word_bound", 1), ("seed", 0)):
        spec = cli.parse_spec_text(f"{_HEAD}[limits]\n{key} = {least}\n")
        assert getattr(spec, key) == least
        with pytest.raises(SpecFileError, match=f"below minimum {least}$"):
            cli.parse_spec_text(f"{_HEAD}[limits]\n{key} = {least - 1}\n")
        flag = "--" + key.replace("_", "-")
        code, _, captured = run_cli(
            capsys, "dynamics", "proximal", spec_file(US3), flag, str(least - 1)
        )
        assert (code, captured.err) == (2, f"error: {flag} must be at least {least}\n")


def test_one_process_answers_as_fresh_runs(spec_file, capsys):
    # the parser is built once per process; a usage error in between
    # leaves it as it was, so each call answers as a fresh interpreter does
    path = spec_file(US3)
    calls = (
        ["report-local", path, "--depths", "1..2"],
        ["dynamics", "nonsense", path],
        ["dynamics", "minimal", path, "--depth", "2"],
    )
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "tdlclab.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (fresh.returncode, fresh.stdout), argv
        assert captured.err.splitlines()[-1:] == fresh.stderr.splitlines()[-1:]
        codes.append(code)
    assert codes == [0, 2, 0] and fresh.stdout and cli._build_parser() is cli._build_parser()


def test_console_entry_point_subprocess(spec_file):
    proc = subprocess.run(
        [sys.executable, "-m", "tdlclab.cli", "dynamics", "minimal", spec_file(US3)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "dynamics minimal"
