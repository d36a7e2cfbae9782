"""Command-line front end: group specs in, reports, certificates and graphs out.

A group spec is a small text file with up to four sections::

    [tree]
    kind = regular          # regular | rooted | two-copy
    degree = 3

    [local_group]
    generators = (1 2), (0 1 2)

    [elements]
    g = hyperbolic axis=0
    u1 = portrait 01:(1 2)
    r = portrait root:(0 1 2)
    c = word g u1 g~

    [limits]
    depth = 4
    word_bound = 8
    seed = 0

Unknown sections or keys are rejected with a line/column position.  The
elements section names exact isometry recipes: ``hyperbolic axis=W``
translates along the axis spelled by the colour word W, ``portrait``
lists recolouring sites as ``addr:(cycles)`` with ``root`` for the base
vertex, and ``word`` composes previously defined names (first name acts
first, trailing ``~`` inverts).  W and addr are written as reports write
addresses, with dots between letters above degree 10.  Two-copy specs
take no elements: the context fixes its own copy-wise generators.

Machine output is one canonical JSON report on stdout; human trace lines
go to stderr, or replace the report entirely under ``--format text``.
Exit codes: 0 verified, 1 refuted at this depth, 2 malformed input (a
point outside any cycle, ``--depth`` or ``--word-bound`` below 1,
``--seed`` below 0 and a negative certify bound included; an unwritable
report too), 3 closure cap exceeded or out of memory (MemoryError), 4
search exhausted or a ball table asked past its precision
(PrecisionExhausted), 70 internal fault, such as a KeyError, a
TypeError or a failed self-check.  Only the hyperbolic and portrait
elements act as dynamics generators; a word adds nothing to the group
they generate and is reached with ``--element``.
"""
from __future__ import annotations

import argparse
import functools
import gc
import os
import random
import re
import sys
from pathlib import Path

from . import __version__
from .boolalg import (
    ROOT,
    Address,
    CylinderClopen,
    TreeShape,
    _Record,
    parse_address,
    read_address,
    regular,
    rooted,
    sphere_list,
)
from .boundary import (
    contraction_certificates,
    goodshrink_construct,
    nub_window,
    tits_core_generators,
)
from .certificates import canonical_json, certificate, normalise, serialise, spec_hash
from .errors import (
    ClosureCapExceeded,
    DisjointnessFailure,
    NotSkewering,
    PrecisionExhausted,
    SearchExhausted,
    SiteError,
    SpecFileError,
)
from .permgrp import (
    DEFAULT_CAP,
    FiniteGroup,
    composition_factors,
    melnikov_subgroup,
    parse_perm,
    pi_core,
    pi_residual,
    prosoluble_core,
    prosoluble_residual,
)
from .tree import (
    IsometrySpec,
    SpecWord,
    cayley_abels_dot,
    child_orbits,
    congruence_kernel,
    hyperbolic_isometry,
    level_group,
    level_order,
    local_prime_content,
    schreier_dot,
    site_decorations,
    site_pools,
    spec_image_clopen,
    sphere_orbit_classes,
)
from . import dynamics

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_EXHAUSTED = 4
EXIT_SOFTWARE = 70  # an internal fault, never a verdict

_VERDICT_EXIT = {
    "verified": EXIT_VERIFIED,
    "minimal-at-depth": EXIT_VERIFIED,
    "found": EXIT_VERIFIED,
    "infeasible": EXIT_VERIFIED,
    "contracts": EXIT_VERIFIED,
    "refuted_at_depth": EXIT_REFUTED,
    "not-minimal-at-depth": EXIT_REFUTED,
    "feasible": EXIT_REFUTED,
    "not-found-within-bounds": EXIT_EXHAUSTED,
    "no-contraction-within-bounds": EXIT_EXHAUSTED,
}

_SECTIONS = ("tree", "local_group", "elements", "limits")
# each [limits] key with its least value; the flags that override them
# check the same minimums, in this order
_LIMIT_MINIMUMS = {"depth": 1, "word_bound": 1, "seed": 0}
_AXIS_RE = re.compile(r"^axis\s*=\s*([0-9.]+)$")
_WINDOW_RE = re.compile(r"^([0-9]+)\.\.([0-9]+)$")


def _split_outside_parens(text: str) -> list[tuple[int, str]]:
    """Whitespace-split with offsets, treating (...) groups as opaque."""
    tokens: list[tuple[int, str]] = []
    depth = 0
    current = ""
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        if ch.isspace() and depth == 0:
            if current:
                tokens.append((start, current))
                current = ""
        else:
            if not current:
                start = i
            current += ch
    if current:
        tokens.append((start, current))
    return tokens


class GroupSpec(_Record):
    """Parsed spec file: the tree, the local group, named movers, limits."""

    _fields = ("kind", "shape", "local", "elements", "depth", "word_bound", "seed", "cap", "text")

    def __init__(
        self,
        kind: str,
        shape: TreeShape,
        local: FiniteGroup,
        elements: dict[str, object] | None = None,
        depth: int = 4,
        word_bound: int = 8,
        seed: int = 0,
        cap: int = DEFAULT_CAP,
        text: str = "",
    ) -> None:
        elements = {} if elements is None else elements
        self.__dict__.update(
            kind=kind, shape=shape, local=local, elements=elements, depth=depth,
            word_bound=word_bound, seed=seed, cap=cap, text=text,
        )


# -- spec file parsing ----------------------------------------------------------


class _SpecParser:
    def __init__(self, text: str, cap: int) -> None:
        self.text = text
        self.cap = cap
        self.entries: dict[str, list[tuple[int, int, str, int, str]]] = {
            s: [] for s in _SECTIONS
        }
        self.section_lines: dict[str, int] = {}

    def fail(self, message: str, line: int, column: int = 1):
        raise SpecFileError(message, line, column)

    def scan_lines(self) -> None:
        section = None
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.split(" #", 1)[0].rstrip()
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if stripped.startswith("["):
                if not stripped.endswith("]"):
                    self.fail("unterminated section header", lineno, line.index("[") + 1)
                name = stripped[1:-1].strip()
                if name not in _SECTIONS:
                    self.fail(f"unknown section [{name}]", lineno, line.index("[") + 1)
                if name in self.section_lines:
                    self.fail(f"duplicate section [{name}]", lineno, line.index("[") + 1)
                self.section_lines[name] = lineno
                section = name
                continue
            if section is None:
                self.fail("content before any section header", lineno)
            if "=" not in line:
                self.fail("expected 'key = value'", lineno)
            key_part, value_part = line.split("=", 1)
            key = key_part.strip()
            if not key:
                self.fail("empty key", lineno)
            key_col = line.index(key) + 1
            value = value_part.strip()
            value_col = (len(key_part) + 1) + (len(value_part) - len(value_part.lstrip())) + 1
            self.entries[section].append((lineno, key_col, key, value_col, value))

    def parse(self) -> GroupSpec:
        self.scan_lines()
        for required in ("tree", "local_group"):
            if required not in self.section_lines:
                self.fail(f"missing [{required}] section", 1)
        kind, shape = self.parse_tree()
        local = self.parse_local(shape)
        spec = GroupSpec(kind=kind, shape=shape, local=local, cap=self.cap, text=self.text)
        self.parse_elements(spec)
        self.parse_limits(spec)
        return spec

    def parse_tree(self) -> tuple[str, TreeShape]:
        kind = None
        degree = None
        for lineno, key_col, key, value_col, value in self.entries["tree"]:
            if key == "kind":
                if value not in ("regular", "rooted", "two-copy"):
                    self.fail(f"unknown tree kind {value!r}", lineno, value_col)
                kind = value
            elif key == "degree":
                degree = self.parse_int(value, lineno, value_col)
            else:
                self.fail(f"unknown key {key!r} in [tree]", lineno, key_col)
        line = self.section_lines["tree"]
        if kind is None:
            self.fail("missing 'kind' in [tree]", line)
        if degree is None:
            self.fail("missing 'degree' in [tree]", line)
        try:
            shape = rooted(degree) if kind == "rooted" else regular(degree)
        except ValueError as exc:
            self.fail(str(exc), line)
        return kind, shape

    def parse_local(self, shape: TreeShape) -> FiniteGroup:
        gens = []
        for lineno, key_col, key, value_col, value in self.entries["local_group"]:
            if key != "generators":
                self.fail(f"unknown key {key!r} in [local_group]", lineno, key_col)
            offset = 0
            for token in value.split(","):
                stripped = token.strip()
                if stripped:
                    col = value_col + offset + token.index(stripped[0])
                    try:
                        gens.append(parse_perm(stripped, shape.degree))
                    except ValueError as exc:
                        self.fail(str(exc), lineno, col)
                offset += len(token) + 1
        return FiniteGroup(shape.degree, gens, cap=self.cap)

    def parse_elements(self, spec: GroupSpec) -> None:
        rows = self.entries["elements"]
        if spec.kind == "two-copy" and rows:
            self.fail(
                "two-copy specs take no elements; the product context fixes its generators",
                rows[0][0],
            )
        for lineno, key_col, name, value_col, value in rows:
            if not name.isidentifier():
                self.fail(f"element name {name!r} is not an identifier", lineno, key_col)
            if name in spec.elements:
                self.fail(f"duplicate element {name!r}", lineno, key_col)
            head, _, rest = value.partition(" ")
            rest = rest.strip()
            if head == "hyperbolic":
                spec.elements[name] = self.parse_hyperbolic(spec.shape, rest, lineno, value_col)
            elif head == "portrait":
                # its errors point into the sites, which start where rest does
                at = value_col + len(value) - len(rest)
                spec.elements[name] = self.parse_portrait(spec.shape, rest, lineno, at)
            elif head == "word":
                spec.elements[name] = self.parse_word(spec, rest, lineno, value_col)
            else:
                self.fail(
                    f"unknown element form {head!r} (want hyperbolic, portrait or word)",
                    lineno,
                    value_col,
                )

    def parse_hyperbolic(self, shape, rest, lineno, col) -> IsometrySpec:
        m = _AXIS_RE.match(rest)
        if not m:
            self.fail("hyperbolic takes 'axis=<colour word>'", lineno, col)
        try:
            return hyperbolic_isometry(shape, read_address(shape, m.group(1)))
        except ValueError as exc:
            self.fail(str(exc), lineno, col)

    def parse_portrait(self, shape, rest, lineno, col) -> IsometrySpec:
        if not rest:
            self.fail("portrait needs at least one 'addr:(cycles)' site", lineno, col)
        sites, columns = [], {}
        for offset, token in _split_outside_parens(rest):
            addr_text, sep, perm_text = token.partition(":")
            if not sep:
                self.fail(f"site {token!r} wants 'addr:(cycles)'", lineno, col + offset)
            try:
                addr = ROOT if addr_text == "root" else read_address(shape, addr_text)
            except ValueError:
                self.fail(f"bad site address {addr_text!r}", lineno, col + offset)
            try:
                perm = parse_perm(perm_text, shape.degree)
            except ValueError as exc:
                self.fail(str(exc), lineno, col + offset + len(addr_text) + 1)
            sites.append((addr, perm))
            columns.setdefault(addr, []).append(col + offset)
        try:
            return IsometrySpec(shape, sites=tuple(sites))
        except SiteError as exc:
            # a duplicate is found at the repeat, any other fault at the first occurrence
            self.fail(str(exc), lineno, columns[exc.site][str(exc).startswith("duplicate")])

    def parse_word(self, spec: GroupSpec, rest, lineno, col) -> SpecWord:
        names = rest.split()
        if not names:
            self.fail("word needs at least one element name", lineno, col)
        factors = []
        # listed order acts first, so the rightmost name lands leftmost
        for token in reversed(names):
            base, invert = (token[:-1], True) if token.endswith("~") else (token, False)
            element = spec.elements.get(base)
            if element is None:
                self.fail(f"word references unknown element {base!r}", lineno, col)
            factors.append((element, -1 if invert else 1))
        return SpecWord(spec.shape, tuple(factors))

    def parse_limits(self, spec: GroupSpec) -> None:
        for lineno, key_col, key, value_col, value in self.entries["limits"]:
            if key not in _LIMIT_MINIMUMS:
                self.fail(f"unknown key {key!r} in [limits]", lineno, key_col)
            setattr(spec, key, self.parse_int(value, lineno, value_col, _LIMIT_MINIMUMS[key]))

    def parse_int(self, value, lineno, col, minimum=None) -> int:
        try:
            number = int(value)
        except ValueError:
            self.fail(f"expected an integer, got {value!r}", lineno, col)
        if minimum is not None and number < minimum:
            self.fail(f"value {number} below minimum {minimum}", lineno, col)
        return number


def parse_spec_text(text: str, cap: int = DEFAULT_CAP) -> GroupSpec:
    return _SpecParser(text, cap).parse()


def load_spec(path: str | Path, cap: int = DEFAULT_CAP) -> GroupSpec:
    return parse_spec_text(Path(path).read_text(), cap)


# -- context assembly -----------------------------------------------------------


def build_context(spec: GroupSpec):
    """Action context for the spec: named elements if any, else the
    standard transitive family for the shape."""
    if spec.kind == "two-copy":
        return dynamics.two_copy_product_context(
            spec.local, depth=spec.depth, word_bound=spec.word_bound
        )
    gens = {
        name: el for name, el in spec.elements.items() if isinstance(el, IsometrySpec)
    }
    if gens:
        return dynamics.ActionContext(spec.shape, gens, spec.depth, spec.word_bound)
    if spec.shape.kind == "regular":
        return dynamics.translation_rotation_context(
            spec.local, depth=spec.depth, word_bound=spec.word_bound
        )
    # a rooted site group is the local group: rho0, s0, rho1, s1, ...
    rhos = site_decorations(spec.shape, spec.local, (ROOT,))
    below = site_decorations(spec.shape, spec.local, ((0,),))
    site_gens: dict[str, IsometrySpec] = {}
    for k, (rho, s) in enumerate(zip(rhos, below)):
        site_gens[f"rho{k}"], site_gens[f"s{k}"] = rho, s
    if not site_gens:
        raise ValueError("spec yields no generators for a dynamics context")
    return dynamics.ActionContext(spec.shape, site_gens, spec.depth, spec.word_bound)


def _resolve_element(spec: GroupSpec, name: str | None, displacing: bool):
    if name is not None:
        element = spec.elements.get(name)
        if element is None:
            raise ValueError(f"unknown element {name!r}; define it under [elements]")
        return element
    for element in spec.elements.values():
        if bool(element.displacement) == displacing:
            return element
    if displacing and spec.shape.kind == "regular":
        return hyperbolic_isometry(spec.shape, (0,))
    kind = "translating" if displacing else "base-fixing"
    raise ValueError(f"spec defines no {kind} element; name one with the flag")


def _parse_address(text: str, shape: TreeShape) -> Address:
    if text in ("", "root"):
        return ROOT
    return parse_address(shape, text)


def _attracting_clopen(spec: GroupSpec, g, flag: str | None) -> CylinderClopen:
    if flag is not None:
        return CylinderClopen.cylinder(spec.shape, _parse_address(flag, spec.shape))
    return CylinderClopen.cylinder(spec.shape, g.apply(ROOT)[:1])


# -- report plumbing ------------------------------------------------------------


def _envelope(command: str, spec: GroupSpec, parameters: dict, results: dict,
              certificates: list | None = None) -> dict:
    return {
        "command": command,
        "tool_version": __version__,
        "spec_hash": spec_hash(spec.text),
        # _emit normalises the report once, for either format
        "parameters": parameters,
        "results": results,
        "certificates": certificates or [],
        "bounds": {
            "depth": spec.depth,
            "word_bound": spec.word_bound,
            "seed": spec.seed,
            "cap": spec.cap,
        },
    }


def _write_certificate(spec: GroupSpec, kind: str, parameters: dict, checks: dict,
                       verdict: str, out: str | None) -> dict:
    cert = certificate(
        kind=kind,
        group_spec=spec.text,
        parameters=parameters,
        checks=checks,
        verdict=verdict,
        bounds={"depth": spec.depth, "word_bound": spec.word_bound, "cap": spec.cap},
    )
    path = Path(out) if out else Path(f"{kind}.cert.json")
    # certificate() has normalised every part already
    path.write_text(serialise(cert) + "\n")
    return {"kind": kind, "path": str(path), "verdict": verdict}


def _flatten(value, prefix: str = ""):
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _flatten(inner, f"{prefix}{key}.")
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, inner in enumerate(value):
            yield from _flatten(inner, f"{prefix}{i}.")
    else:
        yield f"{prefix.rstrip('.')} = {value}"


def _emit(report: dict, args) -> None:
    out = getattr(args, "out", None) if args.command != "certify" else None
    if args.format == "json":
        payload = canonical_json(report)
        print(payload)
        verdict = report["results"].get("verdict", "done")
        print(f"# {report['command']}: {verdict}", file=sys.stderr)
    else:
        plain = normalise(report)
        for line in _flatten(plain):
            print(line)
        payload = serialise(plain) if out else None
    if out:
        Path(out).write_text(payload + "\n")


# -- report-local ---------------------------------------------------------------


_FACTOR_CHECK_BOUND = 512


def _level_factors(shape: TreeShape, local: FiniteGroup, n: int) -> list[str]:
    """Composition factors of the depth-n truncation: each level kernel is
    a direct product of site groups, so these are the site pools'."""
    pools = site_pools(shape, local, n)
    return sorted(f for group, count in pools for f in composition_factors(group) * count)


def run_report_local(args, spec: GroupSpec) -> tuple[dict, int]:
    window = args.depths or f"1..{spec.depth}"
    m = _WINDOW_RE.match(window)
    if not m:
        raise ValueError(f"--depths wants 'a..b', got {window!r}")
    first, last = int(m.group(1)), int(m.group(2))
    if not 1 <= first <= last:
        raise ValueError(f"--depths window {window!r} is empty or starts below 1")

    shape, local = spec.shape, spec.local
    content = local_prime_content(shape, local, max(last, 2))
    orbit_info = sphere_orbit_classes(shape, local, last)
    # each depth's level group is built once, for both checks
    level = functools.cache(lambda n: level_group(shape, local, n))

    kernel_bounds: dict[int, int] = {}
    kernel_checks: dict[int, dict] = {}
    for n in range(first, last + 1):
        kernel_bounds[n] = max(
            (len(split) for rep in orbit_info["classes"][n] for split in child_orbits(shape, local, rep)),
            default=1,
        )
        if level_order(shape, local, n + 1) <= spec.cap:
            kern = congruence_kernel(level(n + 1), shape, n + 1, n)
            realized = max(len(orb) for orb in kern.orbits())
            kernel_checks[n] = {
                "realized_max_orbit": realized,
                "matches_structural": realized == kernel_bounds[n],
            }

    factors: dict[int, list[str]] = {}
    factor_checks: dict[int, bool] = {}
    for n in range(first, last + 1):
        factors[n] = _level_factors(shape, local, n)
        if level_order(shape, local, n) <= min(spec.cap, _FACTOR_CHECK_BOUND):
            factor_checks[n] = sorted(composition_factors(level(n))) == factors[n]
    # each check compares a realised group with the structural model, a
    # theorem, so a false one is a fault (exit 70), raised unconditionally
    failed = [f"kernel orbits at depth {n}" for n, c in kernel_checks.items() if not c["matches_structural"]]
    failed += [f"composition factors at depth {n}" for n, ok in factor_checks.items() if not ok]
    if failed:
        raise AssertionError(f"report-local checks fail: {', '.join(failed)}")

    eta = sorted(content["growing_primes"])
    pi = frozenset(eta)
    local_data = {
        "order": local.order,
        "composition_factors": composition_factors(local),
        "melnikov_order": melnikov_subgroup(local).order,
        "prosoluble_core_order": prosoluble_core(local).order,
        "prosoluble_residual_order": prosoluble_residual(local).order,
        "eta_core_order": pi_core(local, pi).order if eta else 1,
        "eta_residual_order": pi_residual(local, pi).order if eta else local.order,
    }

    results = {
        "verdict": "verified",
        "window": [first, last],
        "eta": {
            "primes": eta,
            "orders": content["orders"],
            "exponents": content["exponents"],
        },
        "sphere_orbits": {
            "class_counts": orbit_info["counts"],
            "kernel_orbit_bound": kernel_bounds,
            "kernel_realized": kernel_checks,
        },
        "levels": {
            "composition_factors": factors,
            "realized_factor_checks": factor_checks,
        },
        "local": local_data,
    }
    report = _envelope(
        "report-local", spec, {"depths": [first, last]}, results
    )
    return report, EXIT_VERIFIED


# -- dynamics -------------------------------------------------------------------

_TWO_COPY_CHECKS = ("minimal", "minorising", "degree")


def run_dynamics(args, spec: GroupSpec) -> tuple[dict, int]:
    ctx = build_context(spec)
    if spec.kind == "two-copy" and args.check not in _TWO_COPY_CHECKS:
        raise ValueError(
            f"check {args.check!r} works on single-tree specs only; "
            f"two-copy supports {', '.join(_TWO_COPY_CHECKS)}"
        )
    parameters = {"check": args.check}
    if args.check == "minimal":
        results = dynamics.check_minimal(ctx)
    elif args.check == "skewering":
        results = dynamics.skewering_search(ctx)
    elif args.check == "minorising":
        results = dynamics.minorising_set(ctx)
    elif args.check == "degree":
        results = dynamics.minorising_degree(ctx)
    elif args.check == "proximal":
        states = ctx.states()
        rng = random.Random(spec.seed)
        xi = rng.choice(states)
        eta = xi
        while eta == xi:
            eta = rng.choice(states)
        default = states[0][: min(2, spec.depth)]
        addr = _parse_address(args.target, spec.shape) if args.target else default
        target = CylinderClopen.cylinder(spec.shape, addr)
        parameters["target"] = str(target)
        results = dynamics.pair_compression(ctx, xi, eta, target)
    elif args.check == "measure":
        results = dynamics.invariant_measure_search(ctx)
    else:  # argparse guards; defensive
        raise ValueError(f"unknown dynamics check {args.check!r}")
    report = _envelope(f"dynamics {args.check}", spec, parameters, results)
    return report, _VERDICT_EXIT[results["verdict"]]


# -- certify --------------------------------------------------------------------


def _refuted_on(error: type[Exception], compute) -> dict:
    """Run compute(); the given error becomes a refuted-at-depth result."""
    try:
        return compute()
    except error as exc:
        return {"verdict": "refuted_at_depth", "error": error.__name__, "reason": str(exc)}


def _results_certificate(spec: GroupSpec, kind: str, parameters: dict, results: dict, out) -> dict:
    """Certificate of a result: its checks, or the reason it was refuted."""
    checks = results.get("checks", {"reason": results.get("reason", "")})
    return _write_certificate(spec, kind, parameters, checks, results["verdict"], out)


def run_certify(args, spec: GroupSpec) -> tuple[dict, int]:
    if spec.kind == "two-copy":
        raise ValueError("certificates work on single-tree specs only")
    kind = args.kind
    certs: list[dict] = []
    if kind == "contraction":
        g = _resolve_element(spec, args.element, displacing=True)
        if args.u is None:
            raise ValueError("contraction needs --u naming the contracted element")
        u = _resolve_element(spec, args.u, displacing=False)
        ball = args.ball if args.ball is not None else spec.depth
        parameters = {"element": args.element, "u": args.u, "ball": ball}
        results = contraction_certificates(g, [u], ball)[0]
        if results["verdict"] == "contracts":
            certs.append(
                _write_certificate(
                    spec, kind, parameters,
                    {k: results[k] for k in ("k", "ball", "checked_radius", "onset_monotone")},
                    "verified", args.out,
                )
            )
    elif kind == "goodshrink":
        g = _resolve_element(spec, args.element, displacing=True)
        alpha = _attracting_clopen(spec, g, args.alpha)
        parameters = {"element": args.element, "alpha": str(alpha), "n0": args.n0}

        def construct() -> dict:
            kappa, results = goodshrink_construct(spec.local, g, alpha, spec.depth, n0=args.n0)
            return {**results, "kappa": str(kappa)}

        results = _refuted_on(NotSkewering, construct)
        certs.append(_results_certificate(spec, kind, parameters, results, args.out))
    elif kind == "nub":
        g = _resolve_element(spec, args.element, displacing=True)
        if args.alpha is not None:
            beta = CylinderClopen.cylinder(spec.shape, _parse_address(args.alpha, spec.shape))
        else:
            alpha = _attracting_clopen(spec, g, None)
            beta = alpha.minus(spec_image_clopen(g, alpha))
        parameters = {"element": args.element, "beta": str(beta), "m": args.m, "v_level": args.v_level}
        results = _refuted_on(
            DisjointnessFailure,
            lambda: nub_window(spec.local, g, beta, args.v_level, args.m, spec.depth),
        )
        certs.append(_results_certificate(spec, kind, parameters, results, args.out))
    elif kind == "free-semigroup":
        ctx = build_context(spec)
        bound = args.length_bound if args.length_bound is not None else 8
        parameters = {"length_bound": bound}
        results = _refuted_on(
            NotSkewering, lambda: dynamics.free_semigroup_certificate(ctx, length_bound=bound)
        )
        certified = results
        if "checks" in results:
            # the certificate records the image table beside the checks
            table = {k: results[k] for k in ("image_count", "expected_images", "word_table")}
            certified = {**results, "checks": {**results["checks"], **table}}
        certs.append(_results_certificate(spec, kind, parameters, certified, args.out))
    elif kind == "tits-core":
        g = _resolve_element(spec, args.element, displacing=True)
        parameters = {"element": args.element}

        def core() -> dict:
            gens, results = tits_core_generators(spec.local, g, spec.depth)
            return {**results, "generator_count": len(gens)}

        results = _refuted_on(NotSkewering, core)
        certs.append(_results_certificate(spec, kind, parameters, results, args.out))
    else:  # orbit-join
        ctx = build_context(spec)
        addr = _parse_address(args.alpha, spec.shape) if args.alpha else sphere_list(spec.shape, 1)[0]
        alpha = CylinderClopen.cylinder(spec.shape, addr)
        parameters = {"alpha": str(alpha)}
        results = dynamics.orbit_join(ctx, alpha)
        certs.append(
            _write_certificate(
                spec, kind, parameters,
                {
                    "alpha_star": str(results["alpha_star"]),
                    "is_top": results["is_top"],
                    "witness_count": results["witness_count"],
                },
                results["verdict"], args.out,
            )
        )
    report = _envelope(f"certify {kind}", spec, parameters, results, certs)
    return report, _VERDICT_EXIT[results["verdict"]]


# -- export ---------------------------------------------------------------------


def _stone_orbit_dot(ctx) -> str:
    """Edges from each depth-n state to those its image meets, read off one
    single-tree action graph; on two copies a copy's generators draw
    them on their own copy and a self-loop on the other copy's states."""
    graph = dynamics._ActionGraph(ctx)
    n, copies = len(graph.starts), (0, 1) if graph.ctx is not ctx else (0,)
    lines = ["digraph stone_orbit {"]
    for i, s in enumerate(ctx.states()):
        lines.append(f'  n{i} [label="{ctx.state_label(s)}"];')
    for copy in copies:
        for g, name in enumerate(graph.ctx.gen_names):
            if "~" in name:
                continue
            label = f"{name}@{copy}" if len(copies) == 2 else name
            for c in copies:
                for i in range(n):
                    met = graph.met[graph.neighbours(i)[g]] if c == copy else i
                    for j in (met,) if type(met) is int else met:
                        lines.append(f'  n{c * n + i} -> n{c * n + j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_export(args, spec: GroupSpec) -> tuple[dict, int]:
    if args.what == "cayley-abels":
        dot = cayley_abels_dot(spec.shape, spec.local, spec.depth)
    elif args.what == "schreier":
        dot = schreier_dot(spec.local, args.point)
    else:
        dot = _stone_orbit_dot(build_context(spec))
    nodes = sum("label=" in line and "->" not in line and "--" not in line for line in dot.splitlines())
    edges = sum(("->" in line or " -- " in line) for line in dot.splitlines())
    if args.dot:
        Path(args.dot).write_text(dot)
        results = {"verdict": "verified", "nodes": nodes, "edges": edges, "path": args.dot}
        report = _envelope(f"export {args.what}", spec, {"what": args.what}, results)
        return report, EXIT_VERIFIED
    sys.stdout.write(dot)
    return {}, EXIT_VERIFIED


# -- entry point ----------------------------------------------------------------


def _cap_from_env() -> int:
    raw = os.environ.get("TDLC_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"TDLC_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise ValueError(f"TDLC_CAP must be positive, got {cap}")
    # the env var only tightens the cap
    return min(cap, DEFAULT_CAP)


def _add_common(sub) -> None:
    sub.add_argument("spec", help="group spec file")
    sub.add_argument("--depth", type=int, help="override the [limits] depth")
    sub.add_argument("--word-bound", type=int, help="override the [limits] word bound")
    sub.add_argument("--seed", type=int, help="override the [limits] seed")
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument(
        "--out",
        help="write the JSON report here too (for certify: the certificate file)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tdlclab",
        description="Finite-depth laboratory for groups acting on tree boundaries.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report-local", help="prime content, sphere orbits, level factors")
    _add_common(report)
    report.add_argument("--depths", help="level window a..b (default 1..depth)")

    dyn = sub.add_parser("dynamics", help="boundary dynamics checks")
    dyn.add_argument(
        "check",
        choices=("minimal", "skewering", "minorising", "degree", "proximal", "measure"),
    )
    _add_common(dyn)
    dyn.add_argument("--target", help="target cylinder address for proximal")

    cert = sub.add_parser("certify", help="emit a replayable certificate file")
    cert.add_argument(
        "kind",
        choices=("contraction", "goodshrink", "nub", "free-semigroup", "tits-core", "orbit-join"),
    )
    _add_common(cert)
    cert.add_argument("--element", help="named element from [elements]")
    cert.add_argument("--u", help="contracted element for contraction")
    cert.add_argument("--ball", type=int, help="ball radius for contraction")
    cert.add_argument("--L", dest="length_bound", type=int, help="free-semigroup word length bound")
    cert.add_argument("--alpha", help="clopen cylinder address override")
    cert.add_argument("--m", type=int, default=3, help="nub window half-width")
    cert.add_argument("--v-level", type=int, default=3, help="nub witness level")
    cert.add_argument("--n0", type=int, help="goodshrink power override")

    exp = sub.add_parser("export", help="DOT graph exports")
    exp.add_argument("what", choices=("cayley-abels", "schreier", "stone-orbit"))
    _add_common(exp)
    exp.add_argument("--dot", help="write the DOT file here (default: stdout)")
    exp.add_argument("--point", type=int, default=0, help="base point for schreier")

    return parser


_HANDLERS = {
    "report-local": run_report_local,
    "dynamics": run_dynamics,
    "certify": run_certify,
    "export": run_export,
}


# (exception types, exit code, message prefix), read in order: the first
# match decides, and any other exception is an internal fault
_EXITS = (
    (SpecFileError, EXIT_PARSE, "spec error: "),
    (ClosureCapExceeded, EXIT_CAP, "cap exceeded: "),
    # a bound the host sets, not a defect
    (MemoryError, EXIT_CAP, "out of memory: "),
    (SearchExhausted, EXIT_EXHAUSTED, ""),
    # a ValueError, but a bound ran out: not a spec error
    (PrecisionExhausted, EXIT_EXHAUSTED, "precision exhausted: "),
    (NotSkewering, EXIT_REFUTED, "refuted: "),
    ((ValueError, OSError), EXIT_PARSE, "error: "),
)


def main(argv: list[str] | None = None) -> int:
    # the verdict paths build no reference cycles, so the cyclic collector
    # would only re-walk their heap; the caller's setting is restored
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        try:
            spec = load_spec(args.spec, _cap_from_env())
            for key, minimum in _LIMIT_MINIMUMS.items():
                value = getattr(args, key)
                if value is not None:
                    if value < minimum:
                        flag = "--" + key.replace("_", "-")
                        raise ValueError(f"{flag} must be at least {minimum}")
                    setattr(spec, key, value)
            report, code = _HANDLERS[args.command](args, spec)
            if report:
                _emit(report, args)
        except Exception as exc:
            for types, exit_code, prefix in _EXITS:
                if isinstance(exc, types):
                    print(f"{prefix}{exc}", file=sys.stderr)
                    return exit_code
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_SOFTWARE
        return code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
