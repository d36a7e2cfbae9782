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

from . import __version__

SCHEMA_VERSION = 1


def normalise(value):
    """Fold library and container types onto plain JSON values."""
    if isinstance(value, str):  # the commonest leaf, tested first
        return value
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                k = normalise_key(k)
            out[k] = normalise(v)
        return out
    if isinstance(value, (set, frozenset)):
        return sorted(normalise(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [normalise(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError("floats have no canonical bytes; use Fraction")
    text = str(value)
    if not text:
        raise TypeError(f"cannot serialise {type(value).__name__}")
    return text


def normalise_key(key) -> str:
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
