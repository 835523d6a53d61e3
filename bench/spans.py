"""Per-layer tracing for one benchmark child process.

``install()`` wraps the public functions listed in ``TARGETS`` from outside
the package: each wrapper times its call as a span and counts it.  Spans
are folded into running totals as they close instead of being kept in a
list, so a traced process holds no more memory than an untraced one.

Functions imported by name into other modules (``from .linalg import
solve_linear``) are rebound in every ``l2betti`` module, and ``install``
refuses to continue if an unwrapped alias is left behind.

``scalars`` is not wrapped: it is called tens of millions of times, so a
wrapper would dominate the measurement; its cost lands in the callers'
``self_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, extra); the stat is named "<module>.<path>",
# constructors without their ".__init__".  extra: "cells" adds rows*cols
# of the first ScalarMatrix argument, "hits" counts truthy results
# (inverse found, vector accepted).
TARGETS = [
    ("homology", "bar_complex", None),
    ("homology", "ChainComplex.__init__", None),
    ("homology", "betti_numbers", None),
    ("homology", "dim_homology", None),
    ("homology", "tensor_complex", None),
    ("homology", "induced_homology_map", None),
    ("homology", "dim_multiplicativity_check", None),
    ("modules", "dim_image", None),
    ("modules", "ModuleMap.compose", None),
    ("modules", "generalized_inverse", None),
    ("modules", "PresentedMap.__init__", None),
    ("modules", "hom_space", None),
    ("modules", "algebraic_closure", None),
    ("modules", "dim_image_l2", None),
    ("algebra", "TracialAlgebra.validate", None),
    ("algebra", "tensor_algebra", None),
    ("algebra", "enveloping_algebra", None),
    ("algebra", "FlipIsomorphism.from_enveloping", None),
    ("algebra", "TracialAlgebra.inverse_coords", "hits"),
    ("linalg", "solve_linear", "cells"),
    ("linalg", "kernel_data", "cells"),
    ("linalg", "rank", None),
    ("linalg", "ScalarSpan.insert", "hits"),
    ("linalg", "ScalarSpan.contains", None),
    ("catalog", "betti_of", None),
    ("cli", "main", None),
]

# Every public random_* generator in rand shares the one stat "rand".
RAND_STAT = "rand"


class Stat:
    """Running totals of one traced name.

    self_s: span durations minus the time their direct child spans cover.
    total_s / max_s: sum / maximum over the outermost spans of this name,
    so recursion is not counted twice.
    """

    __slots__ = ("calls", "self_s", "total_s", "max_s", "cells", "hits", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.max_s = 0.0
        self.cells = 0
        self.hits = 0
        self.depth = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "max_s": self.max_s,
            "cells": self.cells,
            "hits": self.hits,
        }


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        # child-time accumulator of every open span, innermost last
        self._open: list[float] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, fn, name: str, extra=None):
        stat = self.stat(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            if extra == "cells":
                stat.cells += args[0].rows * args[0].cols
            outermost = stat.depth == 0
            stat.depth += 1
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stat.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                if outermost:
                    stat.total_s += elapsed
                    if elapsed > stat.max_s:
                        stat.max_s = elapsed
            if extra == "hits" and result:
                stat.hits += 1
            return result

        return traced

    def summary(self) -> dict:
        return {name: stat.as_dict() for name, stat in sorted(self.stats.items())}


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "l2betti" or name.startswith("l2betti."))
    ]


def _rebind(original, wrapper) -> None:
    """Point every module-level alias of original at wrapper."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _wrap_attribute(tracer: Tracer, module, path: str, name: str, extra) -> object:
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, name, extra)
        _rebind(original, wrapper)
        return original
    owner = getattr(module, owner_name)
    raw = owner.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(tracer.wrap(raw.__func__, name, extra)))
        return raw.__func__
    setattr(owner, attr, tracer.wrap(raw, name, extra))
    return raw


def install() -> Tracer:
    """Wrap every target in the loaded l2betti package and return the tracer."""
    tracer = Tracer()
    originals = []
    for module_name, path, extra in TARGETS:
        module = importlib.import_module(f"l2betti.{module_name}")
        name = f"{module_name}.{path.removesuffix('.__init__')}"
        originals.append(_wrap_attribute(tracer, module, path, name, extra))
    rand = importlib.import_module("l2betti.rand")
    for attr, value in sorted(vars(rand).items()):
        if attr.startswith("random_") and callable(value):
            originals.append(value)
            _rebind(value, tracer.wrap(value, RAND_STAT))
    _check_no_stale_alias(originals)
    return tracer


def _check_no_stale_alias(originals: list) -> None:
    ids = {id(fn) for fn in originals}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if id(value) in ids:
                raise RuntimeError(f"{mod.__name__}.{attr} still points at the unwrapped function")
