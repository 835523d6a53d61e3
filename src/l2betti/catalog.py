"""Symbolic Betti sequences with values in [0, inf] and a catalog of
quantum-group shapes whose sequences are known in closed form.

ExtendedReal follows dimension-theoretic arithmetic: x + inf = inf,
x * inf = inf for x > 0, and 0 * inf = 0, the convention that keeps the
degree-wise Cauchy product well defined when one factor vanishes in a
degree while the other is infinite elsewhere.

The catalog evaluates descriptors to finitely supported sequences.  Shapes
with an underlying finite-dimensional algebra (a Cayley table, or an
algebra file) are recomputed through the homology engine rather than
quoted, so catalog values stay cross-checkable against the bar-complex
route; the free-group duals carry their known first value k - 1 and the
infinite coamenable shape contributes the zero sequence.  Products
convolve their arms.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebra import algebra_from_dict, group_algebra
from .homology import DEFAULT_CEILING, betti_numbers
from .scalars import parse_rational


class CatalogError(ValueError):
    """A descriptor that cannot be evaluated or parsed."""


class ExtendedReal:
    """A nonnegative rational or infinity; total commutative + and *."""

    __slots__ = ("finite",)

    def __init__(self, value: Union[Fraction, int, str, None] = 0):
        if value is None:
            self.finite = None
            return
        if isinstance(value, str):
            if value.strip() in ("inf", "infinity"):
                self.finite = None
                return
            value = parse_rational(value)
        value = Fraction(value)
        if value < 0:
            raise ValueError("extended reals here are nonnegative")
        self.finite = value

    @staticmethod
    def infinity() -> "ExtendedReal":
        return ExtendedReal(None)

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def is_zero(self) -> bool:
        return self.finite == 0

    def __add__(self, other: "ExtendedReal") -> "ExtendedReal":
        if self.is_infinite or other.is_infinite:
            return ExtendedReal(None)
        return ExtendedReal(self.finite + other.finite)

    def __mul__(self, other: "ExtendedReal") -> "ExtendedReal":
        if self.is_zero() or other.is_zero():
            return ExtendedReal(0)
        if self.is_infinite or other.is_infinite:
            return ExtendedReal(None)
        return ExtendedReal(self.finite * other.finite)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtendedReal):
            return self.finite == other.finite
        if other is None:
            return NotImplemented
        if self.is_infinite:
            return False
        return self.finite == other

    def __hash__(self):
        return hash(("extended", self.finite))

    def __str__(self):
        return "inf" if self.is_infinite else str(self.finite)

    def __repr__(self):
        return f"ExtendedReal({self})"


def _coerce(value) -> ExtendedReal:
    return value if isinstance(value, ExtendedReal) else ExtendedReal(value)


class BettiSequence:
    """Finitely supported map degree -> ExtendedReal; absent degrees are 0."""

    __slots__ = ("values",)

    def __init__(self, values: dict = ()):
        clean: dict[int, ExtendedReal] = {}
        for degree, value in dict(values).items():
            degree = int(degree)
            if degree < 0:
                raise ValueError("degrees are nonnegative")
            v = _coerce(value)
            if not v.is_zero():
                clean[degree] = v
        self.values = clean

    @staticmethod
    def delta(degree: int, value) -> "BettiSequence":
        return BettiSequence({degree: value})

    @staticmethod
    def zero() -> "BettiSequence":
        return BettiSequence({})

    def __getitem__(self, degree: int) -> ExtendedReal:
        return self.values.get(degree, ExtendedReal(0))

    def support(self) -> list[int]:
        return sorted(self.values)

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other) -> bool:
        return isinstance(other, BettiSequence) and self.values == other.values

    def __hash__(self):
        return hash(frozenset(self.values.items()))

    def to_strings(self) -> dict[str, str]:
        """Support-only serialization, degrees as decimal strings."""
        return {str(n): str(self.values[n]) for n in self.support()}

    def __repr__(self):
        inner = ", ".join(f"{n}: {v}" for n, v in sorted(self.values.items()))
        return "BettiSequence({%s})" % inner


def convolve(s: BettiSequence, t: BettiSequence) -> BettiSequence:
    """Degree-wise Cauchy product under [0, inf] arithmetic."""
    acc: dict[int, ExtendedReal] = {}
    for k, x in s.values.items():
        for l, y in t.values.items():
            term = x * y
            if term.is_zero():
                continue
            n = k + l
            acc[n] = acc.get(n, ExtendedReal(0)) + term
    return BettiSequence(acc)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteQG:
    """A finite quantum group of the given algebra dimension."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise CatalogError("finite quantum group dimension must be >= 1")


@dataclass(frozen=True)
class CocommutativeFinite:
    """The function algebra of the dual of a finite group, given by its
    Cayley table; its sequence is recomputed from the group algebra."""

    cayley: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "cayley", tuple(tuple(int(x) for x in row) for row in self.cayley)
        )


@dataclass(frozen=True)
class FreeGroupDual:
    """The dual of a free group on k >= 2 generators."""

    generators: int

    def __post_init__(self):
        if self.generators < 2:
            raise CatalogError("free-group dual needs at least 2 generators")


@dataclass(frozen=True)
class FiniteDimAlgebra:
    """An algebra description file to recompute through the bar complex."""

    path: str


@dataclass(frozen=True)
class Product:
    left: "QuantumGroupDescriptor"
    right: "QuantumGroupDescriptor"


@dataclass(frozen=True)
class CoamenableInfinite:
    """An infinite coamenable shape: the sequence vanishes identically."""


QuantumGroupDescriptor = Union[
    FiniteQG,
    CocommutativeFinite,
    FreeGroupDual,
    FiniteDimAlgebra,
    Product,
    CoamenableInfinite,
]


def betti_of(
    descriptor: QuantumGroupDescriptor,
    max_degree: int = 2,
    ceiling: int = DEFAULT_CEILING,
) -> BettiSequence:
    """Evaluate a descriptor to its Betti sequence.

    Closed-form arms return their known support; algebra-backed arms run
    the homology engine (max_degree and ceiling apply to those).
    """
    if isinstance(descriptor, FiniteQG):
        return BettiSequence({0: Fraction(1, descriptor.dim)})
    if isinstance(descriptor, FreeGroupDual):
        return BettiSequence({1: Fraction(descriptor.generators - 1)})
    if isinstance(descriptor, CocommutativeFinite):
        algebra = group_algebra([list(row) for row in descriptor.cayley])
        result = betti_numbers(algebra, 0, ceiling)
        return BettiSequence(result.values)
    if isinstance(descriptor, FiniteDimAlgebra):
        try:
            with open(descriptor.path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise CatalogError(f"cannot read algebra file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CatalogError(f"algebra file is not valid JSON: {exc}") from exc
        algebra = algebra_from_dict(doc)
        result = betti_numbers(algebra, max_degree, ceiling)
        return BettiSequence(result.values)
    if isinstance(descriptor, Product):
        return convolve(
            betti_of(descriptor.left, max_degree, ceiling),
            betti_of(descriptor.right, max_degree, ceiling),
        )
    if isinstance(descriptor, CoamenableInfinite):
        return BettiSequence.zero()
    raise CatalogError(f"unknown descriptor {descriptor!r}")


def fixed_point_classify(c: Union[Fraction, int, str]) -> set[ExtendedReal]:
    """Solutions of x = c * x in [0, inf] for a fixed rational 0 < c < 1:
    a dimension invariant under a compression by c can only be 0 or inf."""
    c = parse_rational(c) if isinstance(c, str) else Fraction(c)
    if not 0 < c < 1:
        raise ValueError("classification needs a rational strictly between 0 and 1")
    return {ExtendedReal(0), ExtendedReal.infinity()}


def rational_first_betti(target: Union[Fraction, int, str]) -> QuantumGroupDescriptor:
    """A descriptor whose sequence is exactly target at degree 1 and zero
    elsewhere: pair a finite shape of dimension q with a free-group dual on
    p + 1 generators, for target = p/q in lowest terms."""
    target = parse_rational(target) if isinstance(target, str) else Fraction(target)
    if target <= 0:
        raise ValueError("target must be a positive rational")
    p, q = target.numerator, target.denominator
    return Product(FiniteQG(q), FreeGroupDual(p + 1))


# ---------------------------------------------------------------------------
# descriptor serialization
# ---------------------------------------------------------------------------


def descriptor_to_dict(descriptor: QuantumGroupDescriptor) -> dict:
    if isinstance(descriptor, FiniteQG):
        return {"kind": "finite_qg", "dim": descriptor.dim}
    if isinstance(descriptor, CocommutativeFinite):
        return {
            "kind": "cocommutative_finite",
            "cayley": [list(row) for row in descriptor.cayley],
        }
    if isinstance(descriptor, FreeGroupDual):
        return {"kind": "free_group_dual", "k": descriptor.generators}
    if isinstance(descriptor, FiniteDimAlgebra):
        return {"kind": "finite_dim_algebra", "path": descriptor.path}
    if isinstance(descriptor, Product):
        return {
            "kind": "product",
            "left": descriptor_to_dict(descriptor.left),
            "right": descriptor_to_dict(descriptor.right),
        }
    if isinstance(descriptor, CoamenableInfinite):
        return {"kind": "coamenable_infinite"}
    raise CatalogError(f"unknown descriptor {descriptor!r}")


def descriptor_from_dict(
    doc: dict, base_dir: Optional[str] = None
) -> QuantumGroupDescriptor:
    """Parse a descriptor document.  A relative algebra-file path is taken
    relative to base_dir when one is given (the directory of the document
    it came from), and relative to the working directory otherwise."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CatalogError("descriptor document needs a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "finite_qg":
            return FiniteQG(int(doc["dim"]))
        if kind == "cocommutative_finite":
            return CocommutativeFinite(tuple(tuple(row) for row in doc["cayley"]))
        if kind == "free_group_dual":
            return FreeGroupDual(int(doc["k"]))
        if kind == "finite_dim_algebra":
            path = str(doc["path"])
            if base_dir is not None:
                # join keeps an absolute path as it is
                path = os.path.join(base_dir, path)
            return FiniteDimAlgebra(path)
        if kind == "product":
            return Product(
                descriptor_from_dict(doc["left"], base_dir),
                descriptor_from_dict(doc["right"], base_dir),
            )
        if kind == "coamenable_infinite":
            return CoamenableInfinite()
    except KeyError as exc:
        raise CatalogError(f"descriptor {kind!r} is missing field {exc}") from exc
    raise CatalogError(f"unknown descriptor kind {kind!r}")
