"""Canonical certificate bytes and replay equality."""
from __future__ import annotations

import copy
import json
import random
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction

import pytest

from tdlclab import cli
from tdlclab import dynamics as dy
from tdlclab.certificates import (
    canonical_json,
    certificate,
    normalise,
    replay_matches,
    serialise,
    spec_hash,
)
from tdlclab.permgrp import symmetric_group

from oracles import oracle_normalise
from test_cli import LONE_AXIS, US3, US3_ELEMENTS

S3 = symmetric_group(3)


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [2, 3], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": (2, 3), "b": 1})
    assert a == b


def test_normalise_folds_library_types():
    assert normalise(Fraction(3, 6)) == "1/2"
    assert normalise(frozenset({3, 1, 2})) == [1, 2, 3]
    assert normalise({(0, 1): True}) == {"0.1": True}
    assert normalise((None, False, 7)) == [None, False, 7]


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        canonical_json({"x": 0.5})


def test_spec_hash_is_stable_hex():
    h = spec_hash("[tree]\nkind = regular\n")
    assert len(h) == 64
    assert h == spec_hash("[tree]\nkind = regular\n")
    assert h != spec_hash("[tree]\nkind = rooted\n")


def test_certificate_shape_and_replay():
    cert = certificate(
        kind="contraction",
        group_spec="demo",
        parameters={"depth": 3, "measure": Fraction(1, 3)},
        checks={"onset_monotone": True},
        verdict="verified",
        bounds={"ball": 3},
    )
    for field in (
        "schema_version",
        "kind",
        "tool_version",
        "group_spec_hash",
        "parameters",
        "checks",
        "verdict",
        "bounds",
    ):
        assert field in cert
    again = certificate(
        kind="contraction",
        group_spec="demo",
        parameters={"measure": Fraction(1, 3), "depth": 3},
        checks={"onset_monotone": True},
        verdict="verified",
        bounds={"ball": 3},
    )
    assert replay_matches(cert, again)
    other = certificate(
        kind="contraction",
        group_spec="demo",
        parameters={"depth": 4},
        checks={"onset_monotone": True},
        verdict="verified",
        bounds={"ball": 3},
    )
    assert not replay_matches(cert, other)


def test_certificate_rejects_unknown_verdicts():
    with pytest.raises(ValueError):
        certificate("k", "s", {}, {}, "maybe", {})


# -- the fold against the copying oracle ------------------------------------------


def _library_reports():
    ctx = dy.translation_rotation_context(S3, depth=3, word_bound=6)
    two = dy.two_copy_product_context(S3, depth=3, word_bound=6)
    yield "check_minimal", dy.check_minimal(ctx)
    yield "check_minimal-two-copy", dy.check_minimal(two)
    yield "minorising_set", dy.minorising_set(ctx)
    yield "minorising_degree-two-copy", dy.minorising_degree(two)
    yield "invariant_measure_search", dy.invariant_measure_search(ctx)


_CLI_RUNS = {
    "goodshrink": (US3_ELEMENTS, ["certify", "goodshrink", "--element", "g", "--depth", "4"]),
    "nub": (US3_ELEMENTS, ["certify", "nub", "--element", "g", "--depth", "5", "--m", "1"]),
    "tits-core": (US3_ELEMENTS, ["certify", "tits-core", "--element", "g", "--depth", "4"]),
    "contraction": (US3_ELEMENTS, ["certify", "contraction", "--element", "g", "--u", "u1",
                                   "--ball", "4"]),
    "free-semigroup": (US3, ["certify", "free-semigroup", "--L", "4"]),
    # Fraction weights on a feasible measure
    "measure-lone-axis": (LONE_AXIS, ["dynamics", "measure", "--depth", "2"]),
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Raw reports, each before any fold: library results, and for each CLI
    run its envelope and what it handed to ``certificate``."""
    out = dict(_library_reports())
    tmp = tmp_path_factory.mktemp("fold")
    with pytest.MonkeyPatch.context() as mp:
        caught = []
        emit, make_cert = cli._emit, cli.certificate
        mp.setattr(cli, "_emit", lambda report, args: caught.append(report) or emit(report, args))
        mp.setattr(cli, "certificate", lambda **kw: caught.append(kw) or make_cert(**kw))
        for name, (text, argv) in _CLI_RUNS.items():
            spec = tmp / f"{name}.spec"
            spec.write_text(text)
            caught.clear()
            code = cli.main([*argv[:2], str(spec), *argv[2:], "--out", str(tmp / f"{name}.json")])
            assert code in (0, 1), name
            for i, report in enumerate(caught):
                out[f"{name}-{i}"] = report
    return out


def _same_fold(value):
    """The fold and its oracle agree on value, key order and bytes, the fold
    leaves its input as it was, and plain JSON folds to itself."""
    before = copy.deepcopy(value)
    new, old = normalise(value), oracle_normalise(value)
    assert new == old
    # dumps without sort_keys reads dicts in insertion order, as text output does
    assert json.dumps(new) == json.dumps(old)
    assert serialise(new) == serialise(old)
    assert value == before
    plain = json.loads(json.dumps(old))  # exact JSON types all through
    assert normalise(plain) is plain


def test_normalise_matches_the_copying_oracle_on_reports(reports):
    assert len(reports) == 16
    for name, report in reports.items():
        _same_fold(report)


def test_normalise_passes_a_plain_report_through(reports):
    # the minimality report is plain JSON already: nothing is copied
    report = reports["check_minimal"]
    assert normalise(report) is report
    measure = reports["measure-lone-axis-0"]
    assert normalise(measure) is not measure  # its Fraction weights fold


def _random_leaf(rng):
    return rng.choice([
        lambda: rng.choice(["", "a", "b0", "x.y"]),
        lambda: rng.randint(-3, 3),
        lambda: rng.random() < 0.5,
        lambda: None,
        lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
    ])()


def _random_key(rng):
    return rng.choice([
        lambda: rng.choice(["a", "b", "1", "0.1", "True"]),
        lambda: rng.randint(0, 2),  # folds onto "0".."2", and can collide
        lambda: tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2))),
        lambda: rng.random() < 0.5,
    ])()


def _random_value(rng, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return _random_leaf(rng)
    size = rng.randint(0, 4)
    kind = rng.choice(["list", "tuple", "dict", "set", "frozenset", "plain"])
    if kind == "plain":
        # plain JSON, which the fold must return as it is
        return oracle_normalise(_random_value(rng, depth - 1))
    if kind in ("set", "frozenset"):
        member = rng.choice([
            lambda: rng.randint(0, 9),
            lambda: rng.choice("abcde"),
            lambda: (rng.randint(0, 2), rng.randint(0, 2)),
            lambda: Fraction(rng.randint(0, 5), rng.randint(1, 3)),
        ])
        items = {member() for _ in range(size)}
        return items if kind == "set" else frozenset(items)
    if kind == "dict":
        return {_random_key(rng): _random_value(rng, depth - 1) for _ in range(size)}
    items = [_random_value(rng, depth - 1) for _ in range(size)]
    return items if kind == "list" else tuple(items)


def test_normalise_matches_the_copying_oracle_seeded():
    rng = random.Random(36)
    for _ in range(3000):
        _same_fold(_random_value(rng, 4))


class _Colour(IntEnum):
    RED = 1


class _Name(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        _Colour.RED,
        [_Colour.RED, 2],
        {"c": _Colour.RED},
        _Name("n"),
        [_Name("n"), "m"],
        {_Name("k"): 1, "j": [_Name("v")]},
        OrderedDict([("b", 1), ("a", (2, 3))]),
        [OrderedDict(a=1)],
        {"a": 1, 2: "b", (3, 4): {5: Fraction(1, 2)}},
        {1: "int first", "1": "str after"},
        {"1": "str first", 1: "int after"},
        (True, None, [False, ()]),
        [[], {}, ()],
    ],
    ids=["int-enum", "int-enum-in-list", "int-enum-value", "str-subclass",
         "str-subclass-in-list", "str-subclass-key", "ordered-dict", "ordered-dict-in-list",
         "mixed-keys", "colliding-keys", "colliding-keys-reversed", "bools-and-none", "empties"],
)
def test_normalise_matches_the_copying_oracle_on_subclasses_and_keys(value):
    _same_fold(value)


@pytest.mark.parametrize(
    "value",
    [0.5, [1, 2, 0.5], (1, 0.5), {"a": 0.5}, {"a": [1, {"b": (0.5,)}]}, {(0, 1): 0.5},
     {0.5}, [Fraction(1, 2), 1.0]],
    ids=["top", "list-of-ints", "tuple", "dict-value", "nested", "tuple-key-value",
         "set", "after-a-fold"],
)
def test_floats_are_refused_wherever_they_sit(value):
    with pytest.raises(TypeError):
        normalise(value)
    with pytest.raises(TypeError):
        oracle_normalise(value)
