"""Byte-stable verification certificates.

A certificate records what was checked, at which truncation depths, and
with what outcome.  Serialization is canonical: keys sorted, separators
fixed, containers normalised to JSON types in a deterministic order.
Replaying means recomputing the certificate from its inputs and
comparing the serialized bytes; any drift in the underlying machinery
shows up as a byte difference.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import islice

from . import __version__

SCHEMA_VERSION = 1


# the JSON leaves that fold to themselves, by exact type: a subclass
# (an int enum, say) takes the general path below
_LEAVES = frozenset({str, int, bool, type(None)})


def normalise(value):
    """Fold library and container types onto plain JSON values.

    A value that is plain JSON already is returned as it is, not copied:
    a list or dict is copied only from its first member that folds, so
    callers must not mutate what they pass in or get back.
    """
    kind = type(value)
    if kind in _LEAVES:
        return value
    if kind is list or kind is tuple:
        for i, item in enumerate(value):
            if type(item) in _LEAVES:
                continue
            folded = normalise(item)
            if folded is not item:
                return [*value[:i], folded, *map(normalise, value[i + 1:])]
        return value if kind is list else list(value)
    if kind is dict:
        for i, (key, item) in enumerate(value.items()):
            if type(key) is str:
                item_kind = type(item)
                if item_kind in _LEAVES:
                    continue
                if item_kind is list:  # a list of leaves, read here without a call
                    for member in item:
                        if type(member) not in _LEAVES:
                            break
                    else:
                        continue
                folded = normalise(item)
                if folded is item:
                    continue
            else:
                key, folded = normalise_key(key), normalise(item)
            items = iter(value.items())
            out = dict(islice(items, i))
            next(items)
            out[key] = folded
            return _fold_items(out, items)
        return value
    return _fold(value)


def _fold_items(out: dict, items) -> dict:
    for k, v in items:
        out[normalise_key(k)] = normalise(v)
    return out


def _fold(value):
    """Fold a value of any type but an exact leaf, list, tuple or dict."""
    if isinstance(value, (str, int)):  # bool and None have no subclasses
        return value
    if isinstance(value, dict):
        return _fold_items({}, value.items())
    if isinstance(value, (set, frozenset)):
        return sorted(normalise(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [normalise(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        raise TypeError("floats have no canonical bytes; use Fraction")
    text = str(value)
    if not text:
        raise TypeError(f"cannot serialise {type(value).__name__}")
    return text


def normalise_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return ".".join(str(k) for k in key)
    return str(key)


def serialise(plain) -> str:
    """Canonical text of a value that ``normalise`` already folded."""
    return json.dumps(plain, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(data) -> str:
    return serialise(normalise(data))


def spec_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def certificate(
    kind: str,
    group_spec: str,
    parameters: dict,
    checks: dict,
    verdict: str,
    bounds: dict,
) -> dict:
    if verdict not in ("verified", "refuted_at_depth"):
        raise ValueError(f"unknown verdict {verdict!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "tool_version": __version__,
        "group_spec_hash": spec_hash(group_spec),
        "parameters": normalise(parameters),
        "checks": normalise(checks),
        "verdict": verdict,
        "bounds": normalise(bounds),
    }


def replay_matches(cert: dict, recomputed: dict) -> bool:
    """Byte equality of the canonical forms."""
    return canonical_json(cert) == canonical_json(recomputed)
