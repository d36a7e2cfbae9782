"""Run-time layer tracing for the benchmark, without editing ``src/``.

``Tracer.install`` wraps the public functions and methods of each
tdlclab module (a layer) and rebinds every module-level reference to
them, so calls made through ``from .x import y`` are seen too.

Accounting uses one stack of open frames.  A frame opens when a call
enters a layer from outside it (another layer or the benchmark), and
for the few functions that have a metric of their own (``NAMED``).  A
frame's self time is its wall time minus that of the frames opened
inside it, and is charged both to its layer and to its function.  A
call from inside the same layer opens no frame: it only bumps a counter,
which keeps the cost of hot primitives such as ``meets`` or
``Perm.__mul__`` to a dictionary increment.  So ``<layer>.self_s`` is all
time spent in that layer's code, and ``<layer>.<function>.self_s`` is the
time in that function and the unnamed same-layer code it calls.

A generator entered from another layer gets a frame around each step, so
the time spent producing its items is charged to its own layer.  Errors
are exceptions that leave a layer through a frame.  Nothing here runs
while ``Tracer.on`` is false.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "boolalg", "permgrp", "tree", "boundary", "dynamics", "localstruct", "certificates", "cli",
)

# Functions reported with their own self time; each gets a frame even
# when called from its own layer.
NAMED = frozenset({
    "boundary.goodshrink_construct",
    "boundary.nub_window",
    "dynamics.check_minimal",
    "dynamics.invariant_measure_search",
    "dynamics.pair_compression",
    "cli.parse_spec_text",
})

# Dunder methods that are part of a public API (operators and construction).
_PUBLIC_DUNDERS = frozenset({"__init__", "__post_init__", "__call__", "__mul__", "__pow__", "__contains__"})


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _PUBLIC_DUNDERS


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.stack: list[list] = []  # [layer, time covered by child frames]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.extra: Counter = Counter()
        self._closed_sets: set = set()

    # -- frames --------------------------------------------------------------

    def _frame(self, layer: str, key: str, fn, args, kwargs):
        stack = self.stack
        frame = [layer, 0.0]
        stack.append(frame)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        except StopIteration:
            raise
        except BaseException:
            if len(stack) < 2 or stack[-2][0] != layer:
                self.errors[layer] += 1
            raise
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            own = elapsed - frame[1]
            self.self_s[layer] += own
            self.self_s[key] += own
            if stack:
                stack[-1][1] += elapsed

    def _wrap(self, layer: str, key: str, fn):
        inner = self._hooks(key, fn)
        named = key in NAMED
        calls, stack = self.calls, self.stack

        if inspect.isgeneratorfunction(fn):
            counted = key == "dynamics.reachable_images"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not self.on:
                    return fn(*args, **kwargs)
                calls[key] += 1
                gen = fn(*args, **kwargs)
                if stack and stack[-1][0] == layer:
                    return self._count_items(gen) if counted else gen
                return self._stepped(layer, key, gen, counted)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            calls[key] += 1
            if not named and stack and stack[-1][0] == layer:
                return inner(*args, **kwargs)
            return self._frame(layer, key, inner, args, kwargs)

        return wrapper

    def _count_items(self, gen):
        for item in gen:
            self.extra["dynamics.bfs.states"] += 1
            yield item

    def _stepped(self, layer, key, gen, counted):
        step = gen.__next__
        while True:
            try:
                item = self._frame(layer, key, step, (), {})
            except StopIteration:
                return
            if counted:
                self.extra["dynamics.bfs.states"] += 1
            yield item

    # -- per-function counters beyond call counts ----------------------------------

    def _hooks(self, key: str, fn):
        extra = self.extra
        if key == "boolalg.CylinderClopen.refine":
            def refine(*args, **kwargs):
                atoms = fn(*args, **kwargs)
                extra["boolalg.refine.atoms"] += len(atoms)
                return atoms
            return refine
        if key == "boolalg.CylinderClopen.meets":
            def meets(*args, **kwargs):
                hit = fn(*args, **kwargs)
                if hit:
                    extra["boolalg.meets.true"] += 1
                return hit
            return meets
        if key == "permgrp.FiniteGroup.element_set":
            def closure(group):
                elements = fn(group)
                extra["permgrp.closure.elements"] += len(elements)
                if elements not in self._closed_sets:
                    self._closed_sets.add(elements)
                    extra["permgrp.closure.distinct"] += 1
                return elements
            return closure
        if key in ("dynamics.ActionContext.image", "dynamics.TwoCopyContext.image"):
            def image(ctx, *args, **kwargs):
                before = len(ctx._image_memo)
                got = fn(ctx, *args, **kwargs)
                if len(ctx._image_memo) == before:
                    extra["dynamics.image.hits"] += 1
                return got
            return image
        if key == "certificates.canonical_json":
            def canonical_json(*args, **kwargs):
                text = fn(*args, **kwargs)
                extra["certificates.bytes"] += len(text.encode("utf-8"))
                return text
            return canonical_json
        return fn

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables and rebind references to them."""
        package = importlib.import_module("tdlclab")
        modules = {layer: importlib.import_module(f"tdlclab.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ or not _public(name):
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, f"{layer}.{name}", obj)
                    replaced[id(obj)] = wrapper
                    setattr(module, name, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for module in [package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, name, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if not _public(name):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(layer, key, attr.__func__))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(layer, key, attr.__func__))
            elif isinstance(attr, property):
                new = property(self._wrap(layer, key, attr.fget), attr.fset, attr.fdel, attr.__doc__)
            elif isinstance(attr, functools.cached_property):
                new = functools.cached_property(self._wrap(layer, key, attr.func))
                new.__set_name__(cls, name)
            elif inspect.isfunction(attr):
                new = self._wrap(layer, key, attr)
            else:
                continue
            setattr(cls, name, new)

    # -- report --------------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics as name -> {"value": ..., "unit": ...}."""
        calls, extra, own = self.calls, self.extra, self.self_s

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        def total(prefix: str, suffixes: tuple[str, ...] = ("",)) -> int:
            return sum(n for k, n in calls.items() if k.startswith(prefix) and k.endswith(suffixes))

        meets = calls["boolalg.CylinderClopen.meets"]
        closures = calls["permgrp.FiniteGroup.element_set"]
        images = calls["dynamics.ActionContext.image"] + calls["dynamics.TwoCopyContext.image"]
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (own[layer], "s")
        out.update({
            "boolalg.meets.calls": (meets, "count"),
            "boolalg.leq.calls": (calls["boolalg.CylinderClopen.leq"], "count"),
            "boolalg.refine.atoms": (extra["boolalg.refine.atoms"], "count"),
            "boolalg.meets.true_ratio": (ratio(extra["boolalg.meets.true"], meets), "ratio"),
            "boolalg.from_addresses.calls": (calls["boolalg.CylinderClopen.from_addresses"], "count"),
            "boolalg.complement.calls": (calls["boolalg.CylinderClopen.complement"], "count"),
            "permgrp.mul.calls": (calls["permgrp.Perm.__mul__"], "count"),
            "permgrp.inverse.calls": (calls["permgrp.Perm.inverse"], "count"),
            "permgrp.closure.calls": (closures, "count"),
            "permgrp.closure.elements": (extra["permgrp.closure.elements"], "count"),
            "permgrp.closure.distinct_ratio": (
                ratio(extra["permgrp.closure.distinct"], closures), "ratio"),
            "tree.apply.calls": (total("tree.", (".apply", ".apply_inverse")), "count"),
            "tree.spec_image_clopen.calls": (calls["tree.spec_image_clopen"], "count"),
            "tree.level_group.calls": (calls["tree.level_group"], "count"),
            "dynamics.image.calls": (images, "count"),
            "dynamics.image.memo_hit_ratio": (ratio(extra["dynamics.image.hits"], images), "ratio"),
            "dynamics.bfs.states": (extra["dynamics.bfs.states"], "count"),
            "localstruct.calls": (total("localstruct."), "count"),
            "certificates.bytes": (extra["certificates.bytes"], "bytes"),
        })
        for key in sorted(NAMED):
            out[f"{key}.self_s"] = (own[key], "s")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
