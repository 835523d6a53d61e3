"""Finite-dimensional tracial *-algebras given by structure constants.

An algebra is a basis b_0..b_{d-1} with products b_i b_j = sum_k c_ijk b_k,
a conjugate-linear involution given on the basis, a unit written in
coordinates, and a trace vector tau(b_i).  Constructors build multi-matrix
algebras (matrix units, weighted block traces), group algebras (Cayley
table, tau = coefficient of the identity), tensor products, opposites and
enveloping algebras A^ev = A (x) A^op.  Construction always validates the
axioms: associativity, unit laws, involution laws, traciality, tau(1) = 1,
and faithfulness (the Gram matrix tau(b_i^* b_j) has full rank).

Validated algebras here are semisimple (faithful positive trace), which the
dimension theory in modules.py relies on.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .linalg import NO_SOLUTION, ScalarMatrix, rank, solve_linear, solve_sparse
from .scalars import ONE, ZERO, ParseError, Scalar, format_rational, parse_rational

# sparse coordinate vector over the algebra basis
Coords = dict[int, Scalar]
# sparse linear combination: ((index, coefficient), ...)
Combo = tuple[tuple[int, Scalar], ...]

_FULL_CHECK_DIM = 24
_SAMPLED_TRIPLES = 4096


class AlgebraError(ValueError):
    """An algebra axiom failed at construction time."""


def _combo_from_coords(coords: Coords) -> Combo:
    return tuple(sorted(coords.items()))


class TracialAlgebra:
    """Structure-constant presentation of a tracial *-algebra."""

    def __init__(
        self,
        labels: Sequence[str],
        struct: dict[tuple[int, int], Combo],
        star: Sequence[Combo],
        unit: Coords,
        trace: Sequence[Scalar],
        description: Optional[dict] = None,
        env_of: Optional["TracialAlgebra"] = None,
        _check: str = "auto",
    ):
        self.dim = len(labels)
        self.labels = tuple(labels)
        self.struct = struct
        self.star = tuple(tuple(row) for row in star)
        self.unit = {i: v for i, v in unit.items() if not v.is_zero()}
        self.trace = tuple(trace)
        self.description = description or {"kind": "raw", "dim": self.dim}
        self.env_of = env_of
        self._gram_rows: Optional[list[dict[int, Scalar]]] = None
        self._gram_matrix: Optional[ScalarMatrix] = None
        self._inverse_cache: dict[Combo, Optional[Coords]] = {}
        self._separability: Optional[list[tuple[Coords, Coords]]] = None
        self._regular_trace: Optional[bool] = None
        self._dim_cache: dict = {}
        if len(self.star) != self.dim or len(self.trace) != self.dim:
            raise AlgebraError("star/trace length does not match basis size")
        self.validate(_check)

    # ------------------------------------------------------------------
    # raw basis arithmetic
    # ------------------------------------------------------------------

    def mul_coords(self, a: Coords, b: Coords) -> Coords:
        struct = self.struct
        acc: Coords = {}
        for i, x in a.items():
            for j, y in b.items():
                combo = struct.get((i, j))
                if not combo:
                    continue
                xy = x * y
                for k, c in combo:
                    cur = acc.get(k)
                    cur = xy * c if cur is None else cur + xy * c
                    if cur.is_zero():
                        acc.pop(k, None)
                    else:
                        acc[k] = cur
        return acc

    def basis_mul_coords(self, i: int, b: Coords) -> Coords:
        """Coordinates of b_i * x for sparse x."""
        struct = self.struct
        acc: Coords = {}
        for j, y in b.items():
            combo = struct.get((i, j))
            if not combo:
                continue
            for k, c in combo:
                cur = acc.get(k)
                cur = y * c if cur is None else cur + y * c
                if cur.is_zero():
                    acc.pop(k, None)
                else:
                    acc[k] = cur
        return acc

    def star_coords(self, a: Coords) -> Coords:
        acc: Coords = {}
        for i, x in a.items():
            xc = x.conj()
            for j, c in self.star[i]:
                cur = acc.get(j)
                cur = xc * c if cur is None else cur + xc * c
                if cur.is_zero():
                    acc.pop(j, None)
                else:
                    acc[j] = cur
        return acc

    def trace_coords(self, a: Coords) -> Scalar:
        acc = ZERO
        for i, x in a.items():
            t = self.trace[i]
            if not t.is_zero():
                acc = acc + x * t
        return acc

    def inner_coords(self, x: Coords, y: Coords) -> Scalar:
        """GNS inner product <x, y> = tau(y^* x), conjugate linear in y."""
        gram = self.gram_rows()
        acc = ZERO
        for ip, yv in y.items():
            row = gram[ip]
            for i, xv in x.items():
                g = row.get(i)
                if g is not None:
                    acc = acc + yv.conj() * xv * g
        return acc

    # ------------------------------------------------------------------
    # cached derived data
    # ------------------------------------------------------------------

    def gram_rows(self) -> list[dict[int, Scalar]]:
        if self._gram_rows is None:
            rows: list[dict[int, Scalar]] = []
            for ip in range(self.dim):
                star_ip = {j: c for j, c in self.star[ip]}
                row: dict[int, Scalar] = {}
                for i in range(self.dim):
                    v = self.trace_coords(self.mul_coords(star_ip, {i: ONE}))
                    if not v.is_zero():
                        row[i] = v
                rows.append(row)
            self._gram_rows = rows
        return self._gram_rows

    def gram_matrix(self) -> ScalarMatrix:
        if self._gram_matrix is None:
            d = self.dim
            m = ScalarMatrix.zeros(d, d)
            for ip, row in enumerate(self.gram_rows()):
                for i, v in row.items():
                    m.entries[ip * d + i] = v
            self._gram_matrix = m
        return self._gram_matrix

    def has_regular_trace(self) -> bool:
        """True when tau(a) = Tr(L_a)/dim, i.e. block weights are n_i/dim.

        For such traces the dimension of a submodule of M^l is its scalar
        dimension divided by dim(M); see modules.py.
        """
        if self._regular_trace is None:
            d = self.dim
            ok = True
            for i in range(d):
                tr = ZERO
                for j in range(d):
                    combo = self.struct.get((i, j))
                    if combo:
                        for k, c in combo:
                            if k == j:
                                tr = tr + c
                if tr != self.trace[i] * Scalar(d):
                    ok = False
                    break
            self._regular_trace = ok
        return self._regular_trace

    def separability_element(self) -> list[tuple[Coords, Coords]]:
        """Pairs (u_t, v_t) with sum u_t v_t = 1 and sum a u_t (x) v_t =
        sum u_t (x) v_t a; built from the dual basis of the trace form and
        the inverse of the central Casimir element."""
        if self._separability is None:
            d = self.dim
            # trace form B_ij = tau(b_i b_j); dual basis columns solve B Y = I
            b = ScalarMatrix.zeros(d, d)
            for i in range(d):
                for j in range(d):
                    v = self.trace_coords(self.mul_coords({i: ONE}, {j: ONE}))
                    if not v.is_zero():
                        b.entries[i * d + j] = v
            duals: list[Coords] = []
            for j in range(d):
                rhs = [ONE if i == j else ZERO for i in range(d)]
                col = solve_linear(b, rhs)
                if col is NO_SOLUTION:
                    raise AlgebraError("trace form is degenerate")
                duals.append({m: v for m, v in enumerate(col) if not v.is_zero()})
            casimir: Coords = {}
            for i in range(d):
                for k, v in self.mul_coords({i: ONE}, duals[i]).items():
                    cur = casimir.get(k, ZERO) + v
                    if cur.is_zero():
                        casimir.pop(k, None)
                    else:
                        casimir[k] = cur
            z_inv = self.inverse_coords(casimir)
            if z_inv is None:
                raise AlgebraError("Casimir element is not invertible")
            self._separability = [
                ({i: ONE}, self.mul_coords(duals[i], z_inv)) for i in range(d)
            ]
        return self._separability

    def coords_unit_multiple(self, a: Coords) -> Optional[Scalar]:
        """The scalar lambda with a = lambda * 1, or None."""
        if not a:
            return ZERO
        unit = self.unit
        i0 = next(iter(a))
        u = unit.get(i0)
        if u is None or len(a) != len(unit):
            return None
        lam = a[i0] / u
        for i, uv in unit.items():
            if a.get(i) != lam * uv:
                return None
        return lam

    def inverse_coords(self, a: Coords) -> Optional[Coords]:
        """Two-sided inverse of the element with coordinates a, or None."""
        key = _combo_from_coords(a)
        if key in self._inverse_cache:
            return self._inverse_cache[key]
        d = self.dim
        # sparse rows of L_a: column j holds the coordinates of a * b_j
        rows: list[dict[int, Scalar]] = [{} for _ in range(d)]
        for j in range(d):
            for k, v in self.mul_coords(a, {j: ONE}).items():
                rows[k][j] = v
        rhs = [self.unit.get(i, ZERO) for i in range(d)]
        sol = solve_sparse(rows, rhs, d)
        if sol is NO_SOLUTION:
            result: Optional[Coords] = None
        else:
            result = {i: v for i, v in enumerate(sol) if not v.is_zero()}
            # one-sided inverses are two-sided in finite dimension; verify
            if self.mul_coords(result, a) != self.unit:
                result = None
        self._inverse_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self, mode: str = "auto") -> None:
        d = self.dim
        if d < 1:
            raise AlgebraError("algebra must contain at least the unit")
        unit = self.unit
        for i in range(d):
            e = {i: ONE}
            if self.mul_coords(unit, e) != e or self.mul_coords(e, unit) != e:
                raise AlgebraError(f"unit law fails at basis element {i}")
        if mode not in ("auto", "full", "sampled"):
            raise AlgebraError(f"unknown validation mode {mode!r}")
        full = mode == "full" or (mode == "auto" and d <= _FULL_CHECK_DIM)
        if full:
            triples: Iterable[tuple[int, int, int]] = (
                (i, j, k) for i in range(d) for j in range(d) for k in range(d)
            )
        else:
            rng = random.Random(0xA55)
            triples = (
                (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                for _ in range(_SAMPLED_TRIPLES)
            )
        for i, j, k in triples:
            left = self.mul_coords(self.mul_coords({i: ONE}, {j: ONE}), {k: ONE})
            right = self.mul_coords({i: ONE}, self.mul_coords({j: ONE}, {k: ONE}))
            if left != right:
                raise AlgebraError(f"associativity fails at ({i},{j},{k})")
        for i in range(d):
            si = {j: c for j, c in self.star[i]}
            if self.star_coords(si) != {i: ONE}:
                raise AlgebraError(f"involution is not involutive at {i}")
        for i in range(d):
            for j in range(d):
                si = {m: c for m, c in self.star[i]}
                sj = {m: c for m, c in self.star[j]}
                lhs = self.star_coords(self.mul_coords({i: ONE}, {j: ONE}))
                rhs = self.mul_coords(sj, si)
                if lhs != rhs:
                    raise AlgebraError(f"(ab)* != b*a* at ({i},{j})")
        if self.trace_coords(unit) != ONE:
            raise AlgebraError("tau(1) != 1")
        for i in range(d):
            for j in range(d):
                ab = self.trace_coords(self.mul_coords({i: ONE}, {j: ONE}))
                ba = self.trace_coords(self.mul_coords({j: ONE}, {i: ONE}))
                if ab != ba:
                    raise AlgebraError(f"trace is not tracial at ({i},{j})")
        gram = self.gram_matrix()
        for i in range(d):
            diag = gram.at(i, i)
            if not diag.is_real() or diag.re <= 0:
                raise AlgebraError(f"tau(b_{i}^* b_{i}) is not positive")
            for j in range(d):
                if gram.at(i, j) != gram.at(j, i).conj():
                    raise AlgebraError("Gram matrix is not Hermitian")
        if rank(gram) != d:
            raise AlgebraError("trace is not faithful (Gram matrix is singular)")

    # ------------------------------------------------------------------
    # element API
    # ------------------------------------------------------------------

    def element(self, coords: Coords) -> "AlgebraElement":
        return AlgebraElement(self, {i: v for i, v in coords.items() if not v.is_zero()})

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, {i: ONE})

    def unit_element(self) -> "AlgebraElement":
        return AlgebraElement(self, dict(self.unit))

    def zero_element(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def from_scalar(self, value: Scalar) -> "AlgebraElement":
        if value.is_zero():
            return self.zero_element()
        return AlgebraElement(self, {i: value * v for i, v in self.unit.items()})

    def __repr__(self):
        kind = self.description.get("kind", "raw")
        return f"TracialAlgebra(dim={self.dim}, kind={kind})"


class AlgebraElement:
    """Element of a TracialAlgebra, sparse coordinates over the basis."""

    __slots__ = ("algebra", "coords", "_key")

    def __init__(self, algebra: TracialAlgebra, coords: Coords):
        self.algebra = algebra
        self.coords = coords
        self._key: Optional[Combo] = None

    def key(self) -> Combo:
        if self._key is None:
            self._key = _combo_from_coords(self.coords)
        return self._key

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_parent(other)
        acc = dict(self.coords)
        for i, v in other.coords.items():
            cur = acc.get(i, ZERO) + v
            if cur.is_zero():
                acc.pop(i, None)
            else:
                acc[i] = cur
        return AlgebraElement(self.algebra, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_parent(other)
        acc = dict(self.coords)
        for i, v in other.coords.items():
            cur = acc.get(i, ZERO) - v
            if cur.is_zero():
                acc.pop(i, None)
            else:
                acc[i] = cur
        return AlgebraElement(self.algebra, acc)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {i: -v for i, v in self.coords.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_parent(other)
        return AlgebraElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))

    def smul(self, factor: Scalar) -> "AlgebraElement":
        if factor.is_zero():
            return self.algebra.zero_element()
        return AlgebraElement(self.algebra, {i: factor * v for i, v in self.coords.items()})

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.star_coords(self.coords))

    def trace(self) -> Scalar:
        return self.algebra.trace_coords(self.coords)

    def as_unit_multiple(self) -> Optional[Scalar]:
        """The scalar lambda with self = lambda * 1, or None."""
        return self.algebra.coords_unit_multiple(self.coords)

    def inverse(self) -> Optional["AlgebraElement"]:
        inv = self.algebra.inverse_coords(self.coords)
        if inv is None:
            return None
        return AlgebraElement(self.algebra, dict(inv))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash(self.key())

    def _check_parent(self, other: "AlgebraElement") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")

    def __repr__(self):
        if not self.coords:
            return "0"
        labels = self.algebra.labels
        parts = [f"({v!r})*{labels[i]}" for i, v in sorted(self.coords.items())]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def multi_matrix_algebra(
    blocks: Sequence[int],
    weights: Sequence[Union[Fraction, int, str]],
) -> TracialAlgebra:
    """Direct sum of matrix blocks M_{n_1} + ... + M_{n_r} with basis the
    matrix units and trace sum_p t_p Tr_p, where sum_p t_p n_p = 1."""
    if len(blocks) != len(weights):
        raise AlgebraError("blocks and weights must have the same length")
    if not blocks:
        raise AlgebraError("need at least one block")
    sizes = [int(n) for n in blocks]
    ts: list[Fraction] = []
    for w in weights:
        ts.append(parse_rational(w) if isinstance(w, str) else Fraction(w))
    for n in sizes:
        if n < 1:
            raise AlgebraError("block sizes must be >= 1")
    for t in ts:
        if t <= 0:
            raise AlgebraError("trace weights must be positive")
    if sum(t * n for t, n in zip(ts, sizes)) != 1:
        raise AlgebraError("trace weights must satisfy sum t_p n_p = 1")

    index: dict[tuple[int, int, int], int] = {}
    labels: list[str] = []
    for p, n in enumerate(sizes):
        for i in range(n):
            for j in range(n):
                index[(p, i, j)] = len(labels)
                prefix = f"b{p}." if len(sizes) > 1 else ""
                labels.append(f"{prefix}e{i + 1}{j + 1}")
    struct: dict[tuple[int, int], Combo] = {}
    for p, n in enumerate(sizes):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        if j == k:
                            struct[(index[(p, i, j)], index[(p, k, l)])] = (
                                (index[(p, i, l)], ONE),
                            )
    star: list[Combo] = [()] * len(labels)
    trace: list[Scalar] = [ZERO] * len(labels)
    unit: Coords = {}
    for p, n in enumerate(sizes):
        for i in range(n):
            for j in range(n):
                star[index[(p, i, j)]] = ((index[(p, j, i)], ONE),)
            trace[index[(p, i, i)]] = Scalar(ts[p])
            unit[index[(p, i, i)]] = ONE
    description = {
        "kind": "multi_matrix",
        "blocks": sizes,
        "weights": [format_rational(t) for t in ts],
    }
    return TracialAlgebra(labels, struct, star, unit, trace, description)


def group_algebra(cayley: Sequence[Sequence[int]]) -> TracialAlgebra:
    """Group algebra from a Cayley table (cayley[g][h] = index of g*h).

    The table is validated as a group: identity, associativity, inverses.
    Involution sends g to g^{-1}; the trace is the coefficient of the
    identity."""
    n = len(cayley)
    if n < 1:
        raise AlgebraError("empty Cayley table")
    table = [list(row) for row in cayley]
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise AlgebraError("Cayley table is not a square over valid indices")
    identity = None
    for e in range(n):
        if all(table[e][h] == h for h in range(n)) and all(
            table[g][e] == g for g in range(n)
        ):
            identity = e
            break
    if identity is None:
        raise AlgebraError("Cayley table has no identity")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise AlgebraError(f"Cayley table not associative at ({a},{b},{c})")
    inverse = [None] * n
    for g in range(n):
        for h in range(n):
            if table[g][h] == identity and table[h][g] == identity:
                inverse[g] = h
                break
        if inverse[g] is None:
            raise AlgebraError(f"element {g} has no inverse")
    labels = [f"g{g}" for g in range(n)]
    labels[identity] = "e"
    struct = {(g, h): ((table[g][h], ONE),) for g in range(n) for h in range(n)}
    star: list[Combo] = [((inverse[g], ONE),) for g in range(n)]
    trace = [ONE if g == identity else ZERO for g in range(n)]
    unit: Coords = {identity: ONE}
    description = {"kind": "group", "cayley": [list(r) for r in table]}
    return TracialAlgebra(labels, struct, star, unit, trace, description)


def tensor_algebra(left: TracialAlgebra, right: TracialAlgebra) -> TracialAlgebra:
    """Tensor product with componentwise structure, (a (x) b)* = a* (x) b*,
    and product trace."""
    dl, dr = left.dim, right.dim

    def idx(i: int, j: int) -> int:
        return i * dr + j

    labels = [f"{a}|{b}" for a in left.labels for b in right.labels]
    struct: dict[tuple[int, int], Combo] = {}
    for (i1, j1), combo1 in left.struct.items():
        for (i2, j2), combo2 in right.struct.items():
            entries = []
            for k1, c1 in combo1:
                for k2, c2 in combo2:
                    entries.append((idx(k1, k2), c1 * c2))
            struct[(idx(i1, i2), idx(j1, j2))] = tuple(entries)
    star: list[Combo] = [()] * (dl * dr)
    for i in range(dl):
        for j in range(dr):
            row = []
            for a, ca in left.star[i]:
                for b, cb in right.star[j]:
                    row.append((idx(a, b), ca * cb))
            star[idx(i, j)] = tuple(row)
    unit: Coords = {}
    for i, u in left.unit.items():
        for j, v in right.unit.items():
            unit[idx(i, j)] = u * v
    trace = [left.trace[i] * right.trace[j] for i in range(dl) for j in range(dr)]
    description = {
        "kind": "tensor",
        "left": left.description,
        "right": right.description,
    }
    mode = "auto" if dl * dr <= _FULL_CHECK_DIM else "sampled"
    return TracialAlgebra(labels, struct, star, unit, trace, description, _check=mode)


def opposite_algebra(base: TracialAlgebra) -> TracialAlgebra:
    """Same space, reversed multiplication, same involution and trace."""
    struct = {(j, i): combo for (i, j), combo in base.struct.items()}
    labels = [f"{l}'" for l in base.labels]
    description = {"kind": "opposite", "base": base.description}
    mode = "auto" if base.dim <= _FULL_CHECK_DIM else "sampled"
    return TracialAlgebra(
        labels, struct, list(base.star), dict(base.unit), list(base.trace),
        description, _check=mode,
    )


_ENV_CACHE: dict[int, tuple[TracialAlgebra, TracialAlgebra]] = {}


def enveloping_algebra(base: TracialAlgebra) -> TracialAlgebra:
    """A^ev = A (x) A^op, the algebra acting on bimodules; carries env_of.

    Memoized per base instance so repeated constructions share caches.
    """
    hit = _ENV_CACHE.get(id(base))
    if hit is not None and hit[0] is base:
        return hit[1]
    env = tensor_algebra(base, opposite_algebra(base))
    env.env_of = base
    env.description = {"kind": "enveloping", "base": base.description}
    _ENV_CACHE[id(base)] = (base, env)
    return env


# ---------------------------------------------------------------------------
# the flip isomorphism  A^ev (x) B^ev  ->  (A (x) B)^ev
# ---------------------------------------------------------------------------


class FlipIsomorphism:
    """Basis permutation  a (x) c^op (x) b (x) d^op  ->  a (x) b (x) (c (x) d)^op.

    source_index and target algebras are exposed; transport() maps a pair
    (element of A^ev, element of B^ev) directly to an element of
    (A (x) B)^ev without materializing the source tensor algebra.
    """

    def __init__(self, left: TracialAlgebra, right: TracialAlgebra):
        self.left = left
        self.right = right
        self.env_left = enveloping_algebra(left)
        self.env_right = enveloping_algebra(right)
        self.mixed = tensor_algebra(left, right)
        self.target = enveloping_algebra(self.mixed)
        self._source: Optional[TracialAlgebra] = None

    @staticmethod
    def from_enveloping(env_left: TracialAlgebra, env_right: TracialAlgebra) -> "FlipIsomorphism":
        """Build the flip for two existing enveloping algebras, reusing them
        (and their caches) instead of constructing fresh copies."""
        if env_left.env_of is None or env_right.env_of is None:
            raise ValueError("from_enveloping expects enveloping-tagged algebras")
        iso = object.__new__(FlipIsomorphism)
        iso.left = env_left.env_of
        iso.right = env_right.env_of
        iso.env_left = env_left
        iso.env_right = env_right
        iso.mixed = tensor_algebra(iso.left, iso.right)
        iso.target = enveloping_algebra(iso.mixed)
        iso._source = None
        return iso

    @property
    def source(self) -> TracialAlgebra:
        if self._source is None:
            self._source = tensor_algebra(self.env_left, self.env_right)
        return self._source

    def source_index_to_target(self, s: int) -> int:
        dA, dB = self.left.dim, self.right.dim
        s_env_a, s_env_b = divmod(s, dB * dB)
        i, ip = divmod(s_env_a, dA)
        j, jp = divmod(s_env_b, dB)
        # target index inside (A x B) x (A x B)^op
        x = i * dB + j
        y = ip * dB + jp
        return x * (dA * dB) + y

    def permutation(self) -> list[int]:
        return [self.source_index_to_target(s) for s in range(
            self.left.dim ** 2 * self.right.dim ** 2)]

    def apply(self, element: AlgebraElement) -> AlgebraElement:
        if element.algebra is not self.source:
            raise ValueError("element does not live in the flip source algebra")
        coords = {self.source_index_to_target(s): v for s, v in element.coords.items()}
        return self.target.element(coords)

    def inverse_apply(self, element: AlgebraElement) -> AlgebraElement:
        if element.algebra is not self.target:
            raise ValueError("element does not live in the flip target algebra")
        inv = {self.source_index_to_target(s): s for s in range(
            self.left.dim ** 2 * self.right.dim ** 2)}
        coords = {inv[t]: v for t, v in element.coords.items()}
        return self.source.element(coords)

    def transport_coords(self, u: Coords, v: Coords) -> Coords:
        """Coordinate form of transport: u over A^ev, v over B^ev, result
        over (A (x) B)^ev."""
        dA, dB = self.left.dim, self.right.dim
        coords: Coords = {}
        for s_a, x in u.items():
            i, ip = divmod(s_a, dA)
            for s_b, y in v.items():
                j, jp = divmod(s_b, dB)
                t = (i * dB + j) * (dA * dB) + (ip * dB + jp)
                coords[t] = x * y
        return coords

    def transport(self, u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
        """Image of u (x) v, u in A^ev and v in B^ev, inside (A (x) B)^ev."""
        if u.algebra is not self.env_left or v.algebra is not self.env_right:
            raise ValueError("transport expects (A^ev, B^ev) elements")
        return self.target.element(self.transport_coords(u.coords, v.coords))


def flip_iso(left: TracialAlgebra, right: TracialAlgebra) -> FlipIsomorphism:
    return FlipIsomorphism(left, right)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def algebra_from_dict(doc: dict) -> TracialAlgebra:
    """Build an algebra from its description document.

    Formats: {"kind": "multi_matrix", "blocks": [...], "weights": ["p/q", ...]},
    {"kind": "group", "cayley": [[...]]},
    {"kind": "tensor", "left": {...}, "right": {...}}.
    """
    if not isinstance(doc, dict):
        raise ParseError("algebra description must be an object")
    kind = doc.get("kind")
    if kind == "multi_matrix":
        try:
            blocks = doc["blocks"]
            weights = doc["weights"]
        except KeyError as exc:
            raise ParseError(f"multi_matrix description missing {exc}") from None
        if not isinstance(blocks, list) or not isinstance(weights, list):
            raise ParseError("multi_matrix blocks/weights must be lists")
        return multi_matrix_algebra(blocks, [str(w) for w in weights])
    if kind == "group":
        try:
            cayley = doc["cayley"]
        except KeyError as exc:
            raise ParseError(f"group description missing {exc}") from None
        if not isinstance(cayley, list):
            raise ParseError("group cayley must be a list of rows")
        return group_algebra(cayley)
    if kind == "tensor":
        if "left" not in doc or "right" not in doc:
            raise ParseError("tensor description needs left and right")
        return tensor_algebra(algebra_from_dict(doc["left"]), algebra_from_dict(doc["right"]))
    raise ParseError(f"unknown algebra kind {kind!r}")


def algebra_to_dict(algebra: TracialAlgebra) -> dict:
    return algebra.description
