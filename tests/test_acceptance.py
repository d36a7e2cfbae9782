"""Acceptance gate: thirteen criteria, one printed pass/fail line each.

Each criterion prints ``[NN] name: PASS/FAIL (detail)``; run with
``pytest tests/test_acceptance.py -s`` to watch the lines live (without
``-s`` pytest shows them only for failing criteria).  Criteria carry the
stated wall-clock bounds as assertions; certificates produced along the
way are registered and replayed byte-for-byte by the final criterion,
which also reruns the ball checks of the goodshrink and nub certificates
on the check path of ``oracles.check_ball_witnesses``.
"""
from __future__ import annotations

import json
import random
import time

from tdlclab.boolalg import CylinderClopen, regular
from tdlclab.boundary import goodshrink_construct, nub_window
from tdlclab.certificates import canonical_json, certificate
from tdlclab.permgrp import (
    DEFAULT_CAP,
    composition_factors,
    dihedral_group,
    direct_product,
    melnikov_subgroup,
    pi_core,
    pi_residual,
    prosoluble_core,
    prosoluble_residual,
    symmetric_group,
    wielandt_check,
    wreath_c2_tower,
)
from tdlclab.tree import (
    congruence_kernel,
    hyperbolic_isometry,
    level_group,
    level_order,
    local_prime_content,
    sphere_orbit_classes,
)
from tdlclab import dynamics as dy
from tdlclab import localstruct as ls

from oracles import (
    check_ball_witnesses,
    corpus,
    oracle_composition_factors,
    oracle_melnikov,
    oracle_pi_core,
    oracle_pi_residual,
    oracle_prosoluble_core,
    oracle_prosoluble_residual,
)
from util import random_clopen

T3 = regular(3)
S3 = symmetric_group(3)
T0 = hyperbolic_isometry(T3, (0,))
HALF0 = CylinderClopen.cylinder(T3, (0,))
BETA = CylinderClopen.cylinder(T3, (0, 2))

GROUP_SPEC = "universal group of Sym(3) acting on the 3-regular tree boundary"

# criterion 13 replays every certificate registered here: kind -> (thunk, bytes)
_REPLAY: dict[str, tuple] = {}
# and reruns the ball checks of those registered here on validated
# tables: kind -> thunk giving the checks and verdict
_BALL_CHECKS: dict[str, object] = {}


def _report(num: int, name: str, ok: bool, started: float, bound: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < bound else "FAIL"
    held = "<" if elapsed < bound else ">="
    extra = f" ({detail}; {elapsed:.2f}s {held} {bound:.0f}s)" if detail else f" ({elapsed:.2f}s)"
    print(f"[{num:02d}] {name}: {status}{extra}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < bound, f"criterion {num} ({name}) took {elapsed:.2f}s, bound {bound}s"


def _freeze(kind: str, thunk) -> dict:
    cert = thunk()
    _REPLAY[kind] = (thunk, canonical_json(cert))
    return cert


def test_criterion_01_sphere_orbit_bound():
    started = time.perf_counter()
    info = sphere_orbit_classes(T3, S3, 4)
    worst = 0
    for n in range(1, 5):
        for rep in info["classes"][n]:
            pool = S3.point_stabilizer(rep[-1])
            letters = set(T3.child_letters(rep))
            worst = max(
                worst,
                max(len(orb & letters) for orb in pool.orbits() if orb & letters),
            )
        if level_order(T3, S3, n + 1) <= DEFAULT_CAP:
            group = level_group(T3, S3, n + 1)
            kern = congruence_kernel(group, T3, n + 1, n)
            worst = max(worst, max(len(orb) for orb in kern.orbits()))
    _report(1, "sphere-orbit-bound", worst <= 2, started, 10.0,
            f"max orbit size {worst} over levels 1..4")


def test_criterion_02_eta_report():
    started = time.perf_counter()
    content = local_prime_content(T3, S3, 4)
    two = content["exponents"][2]
    three = content["exponents"][3]
    ok = (
        content["growing_primes"] == {2}
        and content["orders"] == [6, 48, 3072, 12582912]
        and all(b > a for a, b in zip(two, two[1:]))
        and len(set(three)) == 1
    )
    _report(2, "eta-report", ok, started, 1.0, f"eta={sorted(content['growing_primes'])}")


def test_criterion_03_finite_group_oracles():
    started = time.perf_counter()
    comparisons = 0
    ok = True
    for name, g in corpus().items():
        for pi in ({2}, {3}, {2, 3}, {2, 5}):
            ok &= pi_core(g, pi).element_set == oracle_pi_core(g, pi)
            ok &= pi_residual(g, pi).element_set == oracle_pi_residual(g, pi)
            comparisons += 2
        ok &= prosoluble_core(g).element_set == oracle_prosoluble_core(g)
        ok &= prosoluble_residual(g).element_set == oracle_prosoluble_residual(g)
        ok &= melnikov_subgroup(g).element_set == oracle_melnikov(g)
        ok &= sorted(composition_factors(g)) == sorted(oracle_composition_factors(g))
        comparisons += 4
    _report(3, "finite-group-oracles", ok, started, 60.0,
            f"{comparisons} comparisons across 9 groups")


def _random_subnormal_chain(rng, g):
    chain = [g]
    for _ in range(rng.randint(1, 3)):
        tail = chain[-1]
        if tail.order == 1:
            break
        seed = rng.choice(tail.element_list)
        nxt = tail.normal_closure([seed])
        if nxt.order == tail.order:
            nxt = tail.normal_closure([])
        chain.append(nxt)
    return chain


def test_criterion_04_wielandt_property():
    started = time.perf_counter()
    rng = random.Random(41)
    pool = [
        symmetric_group(4),
        direct_product(S3, S3),
        wreath_c2_tower(3),
        dihedral_group(6),
    ]
    pis = [{2}, {3}, {2, 3}, {2, 5}]
    ok = all(
        wielandt_check(
            g := rng.choice(pool), _random_subnormal_chain(rng, g), rng.choice(pis)
        )["holds"]
        for _ in range(100)
    )
    _report(4, "wielandt-property", ok, started, 60.0, "100 seeded subnormal samples")


def test_criterion_05_boolean_laws():
    started = time.perf_counter()
    rng = random.Random(5)
    ok = True
    for _ in range(1000):
        a = random_clopen(rng, T3, 6)
        b = random_clopen(rng, T3, 6)
        c = random_clopen(rng, T3, 6)
        ok &= a.meet(b.join(c)) == a.meet(b).join(a.meet(c))
        ok &= a.join(b.meet(c)) == a.join(b).meet(a.join(c))
        ok &= a.join(b).complement() == a.complement().meet(b.complement())
        ok &= a.meet(b).complement() == a.complement().join(b.complement())
        ok &= a.complement().complement() == a
    _report(5, "boolean-laws", ok, started, 5.0, "1000 seeded triples at depth 6")


def _goodshrink_cert() -> dict:
    kappa, rep = goodshrink_construct(S3, T0, HALF0, 6)
    return certificate(
        kind="goodshrink",
        group_spec=GROUP_SPEC,
        parameters={"alpha": str(HALF0), "depth": 6, "n0": rep["n0"]},
        checks={**rep["checks"], "kappa": str(kappa)},
        verdict=rep["verdict"],
        bounds={"depth": 6, "u_level": rep["u_level"]},
    )


def test_criterion_06_goodshrink_certificate():
    started = time.perf_counter()
    cert = _freeze("goodshrink", _goodshrink_cert)
    _BALL_CHECKS["goodshrink"] = lambda: check_ball_witnesses("goodshrink", S3, T0, HALF0, 6)
    checks = cert["checks"]
    named = (
        "conjugation_preserves_kappa",
        "product_inclusion",
        "factors_commute",
        "kappa_witnesses_contract",
    )
    ok = cert["verdict"] == "verified" and all(checks[k] for k in named)
    _report(6, "goodshrink-certificate", ok, started, 30.0,
            "four checks at depth 6 on the length-1 translation")


def _nub_cert() -> dict:
    rep = nub_window(S3, T0, BETA, 3, 3, 8)
    return certificate(
        kind="nub-window",
        group_spec=GROUP_SPEC,
        parameters={"beta": str(BETA), "m": 3, "v_level": 3, "depth": 8},
        checks={
            **rep["checks"],
            "factor_pair_checks": rep["factor_pair_checks"],
            "witnesses_per_factor": rep["witnesses_per_factor"],
        },
        verdict=rep["verdict"],
        bounds={"depth": 8},
    )


def test_criterion_07_nub_window():
    started = time.perf_counter()
    cert = _freeze("nub-window", _nub_cert)
    _BALL_CHECKS["nub-window"] = lambda: check_ball_witnesses("nub", S3, T0, BETA, 3, 3, 8)
    checks = cert["checks"]
    ok = (
        cert["verdict"] == "verified"
        and checks["factor_pair_checks"] == 21
        and checks["cross_factor_commutators_trivial"]
        and checks["conjugation_shifts_families"]
        and checks["witnesses_per_factor"] == 3
    )
    _report(7, "nub-window", ok, started, 30.0,
            "21 cross-pair commutators trivial at depth 8, g-shift on all witnesses")


def _free_semigroup_cert() -> dict:
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    rep = dy.free_semigroup_certificate(ctx, length_bound=8)
    return certificate(
        kind="free-semigroup",
        group_spec=GROUP_SPEC,
        parameters={"length_bound": 8, "g": rep["g"], "h": rep["h"]},
        checks={
            **rep["checks"],
            "image_count": rep["image_count"],
            "expected_images": rep["expected_images"],
            "word_table": rep["word_table"],
        },
        verdict=rep["verdict"],
        bounds={"depth": 3, "word_bound": 6},
    )


def test_criterion_08_free_subsemigroup():
    started = time.perf_counter()
    cert = _freeze("free-semigroup", _free_semigroup_cert)
    checks = cert["checks"]
    ok = (
        cert["verdict"] == "verified"
        and checks["image_count"] == 511
        and checks["expected_images"] == 511
        and checks["all_images_distinct"]
        and len(checks["word_table"]) == 511
    )
    _report(8, "free-subsemigroup", ok, started, 10.0,
            "511 pairwise-distinct alpha-images, zero collisions")


def _compression_cert() -> dict:
    ctx = dy.translation_rotation_context(S3, depth=6, word_bound=8)
    states = ctx.states()
    target = CylinderClopen.cylinder(T3, (0, 1))
    rng = random.Random(1009)
    schedules = {}
    worst = 0
    for i in range(100):
        xi, eta = rng.sample(states, 2)
        rep = dy.pair_compression(ctx, xi, eta, target)
        assert rep["verdict"] == "verified"
        schedules[str(i)] = {
            "pair": rep["source"],
            "word": rep["word"],
            "length": rep["word_length"],
        }
        worst = max(worst, rep["word_length"])
    return certificate(
        kind="pair-compression",
        group_spec=GROUP_SPEC,
        parameters={"samples": 100, "target": str(target), "seed": 1009},
        checks={"schedules": schedules, "max_word_length": worst},
        verdict="verified",
        bounds={"depth": 6, "word_bound": 8},
    )


def test_criterion_09_pair_compression():
    started = time.perf_counter()
    cert = _freeze("pair-compression", _compression_cert)
    checks = cert["checks"]
    ok = (
        len(checks["schedules"]) == 100
        and checks["max_word_length"] <= 8
        and all(s["length"] <= 8 for s in checks["schedules"].values())
    )
    _report(9, "pair-compression", ok, started, 60.0,
            f"100/100 seeded depth-6 pairs, max word {checks['max_word_length']}")


def _degree_cert() -> dict:
    single = dy.minorising_degree(dy.translation_rotation_context(S3, depth=2, word_bound=6))
    double = dy.minorising_degree(dy.two_copy_product_context(S3, depth=2, word_bound=6))
    return certificate(
        kind="minorising-degree",
        group_spec=GROUP_SPEC,
        parameters={"depth": 2, "word_bound": 6},
        checks={
            "single_tree_degree": single["degree"],
            "single_dense_orbit": single["dense_orbit_check"],
            "two_copy_degree": double["degree"],
            "two_copy_opens": double["invariant_opens"],
        },
        verdict="verified",
        bounds={"depth": 2, "word_bound": 6},
    )


def test_criterion_10_minorising_degree():
    started = time.perf_counter()
    cert = _freeze("minorising-degree", _degree_cert)
    checks = cert["checks"]
    ok = (
        checks["single_tree_degree"] == 1
        and checks["single_dense_orbit"] is True
        and checks["two_copy_degree"] == 2
    )
    _report(10, "minorising-degree", ok, started, 30.0,
            "single tree d=1, two-copy product d=2")


def _measure_cert() -> dict:
    entries = {}
    for n in (2, 3, 4):
        rep = dy.invariant_measure_search(dy.skewering_context(S3, depth=n))
        entries[f"skewering_depth_{n}"] = {
            "verdict": rep["verdict"],
            "skewering_word": rep["certificate"].get("skewering_word"),
            "disjoint_translates": rep["certificate"].get("disjoint_translates"),
        }
    rot = dy.invariant_measure_search(dy.rotation_context(S3, depth=2))
    entries["rotation_only"] = {
        "verdict": rot["verdict"],
        "uniform": rot["uniform"],
        "weights": rot["weights"],
    }
    all_ok = all(
        entries[f"skewering_depth_{n}"]["verdict"] == "infeasible" for n in (2, 3, 4)
    ) and rot["verdict"] == "feasible" and rot["uniform"]
    return certificate(
        kind="measure-dichotomy",
        group_spec=GROUP_SPEC,
        parameters={"skewering_depths": [2, 3, 4], "rotation_depth": 2},
        checks=entries,
        verdict="verified" if all_ok else "refuted_at_depth",
        bounds={"max_depth": 4},
    )


def test_criterion_11_invariant_measure_dichotomy():
    started = time.perf_counter()
    cert = _freeze("measure-dichotomy", _measure_cert)
    checks = cert["checks"]
    from fractions import Fraction  # exactness witness, not convenience

    uniform = set(checks["rotation_only"]["weights"].values()) == {"1/6"}
    ok = cert["verdict"] == "verified" and uniform
    assert Fraction("1/6") * 6 == 1
    _report(11, "measure-dichotomy", ok, started, 10.0,
            "skewering infeasible at depths 2..4, rotations uniform 1/6")


def _scan_cert() -> dict:
    entries = {}
    for n in (1, 2, 3, 4):
        scan = ls.fixed_point_scan(dy.translation_rotation_context(S3, depth=n, word_bound=6))
        entries[f"depth_{n}"] = {
            "verdict": scan["verdict"],
            "classes": [str(c.region) for c in scan["classes"]],
        }
    control = ls.fixed_point_scan(ls.half_tree_stabiliser_context(S3, 0, depth=2))
    entries["half_tree_control"] = {
        "verdict": control["verdict"],
        "classes": [str(c.region) for c in control["classes"]],
    }
    full_ok = all(
        entries[f"depth_{n}"]["verdict"] == "exactly-zero-and-top" for n in (1, 2, 3, 4)
    )
    control_ok = len(entries["half_tree_control"]["classes"]) == 4
    return certificate(
        kind="fixed-point-scan",
        group_spec=GROUP_SPEC,
        parameters={"depths": [1, 2, 3, 4], "control": "half-tree stabiliser"},
        checks=entries,
        verdict="verified" if full_ok and control_ok else "refuted_at_depth",
        bounds={"max_depth": 4},
    )


def test_criterion_12_fixed_point_scan():
    started = time.perf_counter()
    cert = _freeze("fixed-point-scan", _scan_cert)
    checks = cert["checks"]
    ok = (
        cert["verdict"] == "verified"
        and all(checks[f"depth_{n}"]["classes"] == ["{}", "TOP"] for n in (1, 2, 3, 4))
        and checks["half_tree_control"]["classes"] == ["{}", "{0}", "{1,2}", "TOP"]
    )
    _report(12, "fixed-point-scan", ok, started, 30.0,
            "exactly {0, top} at depths 1..4; control shows 4 classes")


def test_criterion_13_certificate_replay():
    started = time.perf_counter()
    expected = {
        "goodshrink", "nub-window", "free-semigroup", "pair-compression",
        "minorising-degree", "measure-dichotomy", "fixed-point-scan",
    }
    ok = set(_REPLAY) == expected
    mismatches = []
    for kind, (thunk, first) in sorted(_REPLAY.items()):
        again = canonical_json(thunk())
        if again != first:
            mismatches.append(kind)
    # the check path must reach the certificate's checks and verdict
    disagreements = []
    for kind, thunk in sorted(_BALL_CHECKS.items()):
        cert, check = json.loads(_REPLAY[kind][1]), thunk()
        if check["verdict"] != cert["verdict"] or any(
            cert["checks"].get(name) != value for name, value in check["checks"].items()
        ):
            disagreements.append(kind)
    ok = ok and not mismatches and set(_BALL_CHECKS) == {"goodshrink", "nub-window"}
    ok = ok and not disagreements
    _report(13, "certificate-replay", ok, started, 60.0,
            f"{len(_REPLAY)} certificates replayed byte-for-byte, "
            f"{len(_BALL_CHECKS)} rechecked on validated tables"
            + (f"; mismatches: {mismatches}" if mismatches else "")
            + (f"; check path disagrees: {disagreements}" if disagreements else ""))
