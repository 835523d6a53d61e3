"""Finitely generated modules over a tracial algebra and their dimensions.

Maps of free left modules M^k -> M^l are matrices of algebra elements:
entry (p, q) is the p-th component of the image of the q-th standard basis
vector, and the map acts by T(x)_p = sum_q x_q * T_{pq}.  The trace-valued
dimension of a module is the normalized trace of any idempotent presenting
it, computed here by two independent routes:

  * dim_image: split off free summands by pivoting on invertible entries,
    then measure the residue either through the scalar rank of its realized
    orbit (when tau is the normalized regular trace) or through a module-map
    generalized inverse s with T s T = T, whose idempotent s T has trace
    equal to the image dimension.
  * dim_image_l2: orthogonally project onto the realized image inside the
    inner-product space given by <x, y> = sum_j tau(y_j^* x_j) and sum the
    diagonal matrix coefficients of the projection.

Modules are presented as cokernels; submodules by ambient generators.  On
top of this sit Hom-space computation, the algebraic closure (intersection
of kernels of functionals), the projective part, and the dimension
comparisons for maps of presented modules.
"""

from __future__ import annotations

import heapq
import warnings
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .algebra import Coords, TracialAlgebra
from .linalg import (
    NO_SOLUTION,
    IllConditionedWarning,
    ScalarMatrix,
    ScalarSpan,
    kernel_basis,
    solve_linear,
)
from .scalars import ONE, ZERO, Scalar

# sparse vector in M^l: component index -> coordinates of an algebra element
Vector = dict[int, Coords]


class DimensionError(RuntimeError):
    """A dimension computation hit an impossible state (corrupt algebra)."""


def _coords_sub_into(acc: Coords, delta: Coords) -> None:
    for i, v in delta.items():
        cur = acc.get(i)
        cur = -v if cur is None else cur - v
        if cur.is_zero():
            acc.pop(i, None)
        else:
            acc[i] = cur


def _coords_add_into(acc: Coords, delta: Coords) -> None:
    for i, v in delta.items():
        cur = acc.get(i)
        cur = v if cur is None else cur + v
        if cur.is_zero():
            acc.pop(i, None)
        else:
            acc[i] = cur


def _vector_fingerprint(vec: Vector):
    return tuple(sorted((p, tuple(sorted(c.items()))) for p, c in vec.items()))


class ModuleMap:
    """Homomorphism M^k -> M^l of free left modules over a fixed algebra."""

    __slots__ = ("algebra", "domain_rank", "codomain_rank", "entries", "_fp")

    def __init__(
        self,
        algebra: TracialAlgebra,
        domain_rank: int,
        codomain_rank: int,
        entries: dict[tuple[int, int], Coords],
    ):
        if domain_rank < 0 or codomain_rank < 0:
            raise ValueError("module ranks must be nonnegative")
        self.algebra = algebra
        self.domain_rank = domain_rank
        self.codomain_rank = codomain_rank
        clean: dict[tuple[int, int], Coords] = {}
        for (p, q), coords in entries.items():
            if not (0 <= p < codomain_rank and 0 <= q < domain_rank):
                raise ValueError(f"entry position ({p},{q}) outside {codomain_rank}x{domain_rank}")
            if coords:
                clean[(p, q)] = coords
        self.entries = clean
        self._fp = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(algebra: TracialAlgebra, domain_rank: int, codomain_rank: int) -> "ModuleMap":
        return ModuleMap(algebra, domain_rank, codomain_rank, {})

    @staticmethod
    def identity(algebra: TracialAlgebra, rank: int) -> "ModuleMap":
        entries = {(p, p): dict(algebra.unit) for p in range(rank)}
        return ModuleMap(algebra, rank, rank, entries)

    @staticmethod
    def from_vector_columns(
        algebra: TracialAlgebra, codomain_rank: int, columns: Sequence[Vector]
    ) -> "ModuleMap":
        entries: dict[tuple[int, int], Coords] = {}
        for q, vec in enumerate(columns):
            for p, coords in vec.items():
                if coords:
                    entries[(p, q)] = dict(coords)
        return ModuleMap(algebra, len(columns), codomain_rank, entries)

    @staticmethod
    def hstack(maps: Sequence["ModuleMap"]) -> "ModuleMap":
        """Place maps side by side: M^(k1+k2+...) -> M^l."""
        if not maps:
            raise ValueError("hstack of nothing")
        algebra, l = maps[0].algebra, maps[0].codomain_rank
        entries: dict[tuple[int, int], Coords] = {}
        offset = 0
        for m in maps:
            if m.algebra is not algebra or m.codomain_rank != l:
                raise ValueError("hstack requires a common algebra and codomain")
            for (p, q), coords in m.entries.items():
                entries[(p, q + offset)] = coords
            offset += m.domain_rank
        return ModuleMap(algebra, offset, l, entries)

    @staticmethod
    def vstack(maps: Sequence["ModuleMap"]) -> "ModuleMap":
        """Stack maps on top of each other: M^k -> M^(l1+l2+...)."""
        if not maps:
            raise ValueError("vstack of nothing")
        algebra, k = maps[0].algebra, maps[0].domain_rank
        entries: dict[tuple[int, int], Coords] = {}
        offset = 0
        for m in maps:
            if m.algebra is not algebra or m.domain_rank != k:
                raise ValueError("vstack requires a common algebra and domain")
            for (p, q), coords in m.entries.items():
                entries[(p + offset, q)] = coords
            offset += m.codomain_rank
        return ModuleMap(algebra, k, offset, entries)

    # -- basic algebra ---------------------------------------------------

    def column_vector(self, q: int) -> Vector:
        vec: Vector = {}
        for (p, qq), coords in self.entries.items():
            if qq == q:
                vec[p] = coords
        return vec

    def columns(self) -> list[Vector]:
        """Every column_vector, indexed by q, from one pass over the entries;
        each column keeps the entry order column_vector gives it."""
        cols: list[Vector] = [{} for _ in range(self.domain_rank)]
        for (p, q), coords in self.entries.items():
            cols[q][p] = coords
        return cols

    def apply(self, x: Sequence[Coords]) -> list[Coords]:
        """Image of the vector with component coordinates x."""
        if len(x) != self.domain_rank:
            raise ValueError("vector length does not match domain rank")
        mul = self.algebra.mul_coords
        out: list[Coords] = [dict() for _ in range(self.codomain_rank)]
        for (p, q), coords in self.entries.items():
            xq = x[q]
            if xq:
                _coords_add_into(out[p], mul(xq, coords))
        return out

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other; entries (self o other)_{rq} = sum_p other_{pq} * self_{rp}."""
        if other.algebra is not self.algebra:
            raise ValueError("composition across algebras")
        if other.codomain_rank != self.domain_rank:
            raise ValueError("composition rank mismatch")
        mul = self.algebra.mul_coords
        by_p: dict[int, list[tuple[int, Coords]]] = {}
        for (r, p), coords in self.entries.items():
            by_p.setdefault(p, []).append((r, coords))
        entries: dict[tuple[int, int], Coords] = {}
        for (p, q), t in other.entries.items():
            for r, s in by_p.get(p, ()):
                prod = mul(t, s)
                if prod:
                    acc = entries.get((r, q))
                    if acc is None:
                        entries[(r, q)] = dict(prod)
                    else:
                        _coords_add_into(acc, prod)
        entries = {k: v for k, v in entries.items() if v}
        return ModuleMap(self.algebra, other.domain_rank, self.codomain_rank, entries)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if (
            other.algebra is not self.algebra
            or other.domain_rank != self.domain_rank
            or other.codomain_rank != self.codomain_rank
        ):
            raise ValueError("sum of incompatible maps")
        entries = {k: dict(v) for k, v in self.entries.items()}
        for k, v in other.entries.items():
            acc = entries.setdefault(k, {})
            _coords_add_into(acc, v)
        return ModuleMap(self.algebra, self.domain_rank, self.codomain_rank, entries)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return self + other.scale(Scalar(-1))

    def __neg__(self) -> "ModuleMap":
        return self.scale(Scalar(-1))

    def scale(self, factor: Scalar) -> "ModuleMap":
        if factor.is_zero():
            return ModuleMap.zero(self.algebra, self.domain_rank, self.codomain_rank)
        entries = {
            k: {i: factor * v for i, v in coords.items()}
            for k, coords in self.entries.items()
        }
        return ModuleMap(self.algebra, self.domain_rank, self.codomain_rank, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def fingerprint(self):
        if self._fp is None:
            self._fp = (
                self.domain_rank,
                self.codomain_rank,
                tuple(
                    sorted(
                        (p, q, tuple(sorted(c.items())))
                        for (p, q), c in self.entries.items()
                    )
                ),
            )
        return self._fp

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleMap):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.domain_rank == other.domain_rank
            and self.codomain_rank == other.codomain_rank
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.fingerprint())

    def __repr__(self):
        return (
            f"ModuleMap({self.codomain_rank}x{self.domain_rank}, "
            f"{len(self.entries)} nonzero entries)"
        )

    # -- scalar realization ----------------------------------------------

    def realize(self) -> ScalarMatrix:
        """The map on coordinates, a (l*d) x (k*d) matrix; column (q, i) is
        the realized image of b_i placed in component q."""
        d = self.algebra.dim
        rows, cols = self.codomain_rank * d, self.domain_rank * d
        out = ScalarMatrix.zeros(rows, cols)
        bm = self.algebra.basis_mul_coords
        for (p, q), coords in self.entries.items():
            for i in range(d):
                prod = bm(i, coords)
                col = q * d + i
                for m, v in prod.items():
                    out.entries[(p * d + m) * cols + col] = v
        return out

    def realized_column(self, q: int, i: int) -> dict[int, Scalar]:
        """Sparse realized image of b_i in component q, keys p*d + m."""
        d = self.algebra.dim
        bm = self.algebra.basis_mul_coords
        out: dict[int, Scalar] = {}
        for (p, qq), coords in self.entries.items():
            if qq != q:
                continue
            for m, v in bm(i, coords).items():
                out[p * d + m] = v
        return out


def vector_realized(algebra: TracialAlgebra, vec: Vector) -> dict[int, Scalar]:
    d = algebra.dim
    out: dict[int, Scalar] = {}
    for p, coords in vec.items():
        base = p * d
        for i, v in coords.items():
            out[base + i] = v
    return out


def vector_from_realized(algebra: TracialAlgebra, flat: dict[int, Scalar]) -> Vector:
    d = algebra.dim
    vec: Vector = {}
    for key, v in flat.items():
        if v.is_zero():
            continue
        p, i = divmod(key, d)
        vec.setdefault(p, {})[i] = v
    return vec


# ---------------------------------------------------------------------------
# image dimension, algebraic route
# ---------------------------------------------------------------------------


_GENERAL_PIVOT_MAX_COORDS = 12


def _frontend_eliminate(
    algebra: TracialAlgebra, gens: list[Vector]
) -> tuple[int, list[Vector]]:
    """Pivot on invertible entries to split off free rank-one summands.

    Each pivot at position p with invertible component removes the pivot
    generator and clears component p from every other generator; the pivot
    vector then generates a free summand meeting the span of the rest only
    in 0 (everything else vanishes at p).  Returns the number of pivots and
    the fully reduced residual generators, which vanish on every pivot
    position.  Pivot choice is a Markowitz-style fill heuristic and cannot
    affect the resulting dimension, only the amount of work.
    """
    unit_of = algebra.coords_unit_multiple
    mul = algebra.mul_coords
    alive = [bool(g) for g in gens]
    occ: dict[int, set[int]] = {}
    for gi, g in enumerate(gens):
        for p in g:
            occ.setdefault(p, set()).add(gi)

    heap: list[tuple[int, int, int]] = []

    def score(gi: int, p: int) -> int:
        return (len(gens[gi]) - 1) * (len(occ.get(p, ())) - 1)

    def push_unit_candidates(gi: int) -> None:
        g = gens[gi]
        for p, c in g.items():
            if unit_of(c) is not None:
                heapq.heappush(heap, (score(gi, p), gi, p))

    for gi in range(len(gens)):
        if alive[gi]:
            push_unit_candidates(gi)

    pivots = 0

    def do_pivot(
        gi: int, p: int, inv_scalar: Optional[Scalar], c_inv: Optional[Coords]
    ) -> None:
        nonlocal pivots
        v = gens[gi]
        alive[gi] = False
        for r in v:
            occ.get(r, set()).discard(gi)
        # scalar multiples of the unit multiply by scaling coordinates,
        # skipping the structure-constant product entirely
        unit_factors = {r: unit_of(vr) for r, vr in v.items()}
        for gj in list(occ.get(p, ())):
            if not alive[gj]:
                continue
            w = gens[gj]
            w_p = w.get(p)
            if w_p is None:
                continue
            if inv_scalar is not None:
                c = {i: inv_scalar * x for i, x in w_p.items()}
            else:
                c = mul(w_p, c_inv)
            for r, vr in v.items():
                lam_r = unit_factors[r]
                if lam_r is not None:
                    delta = {i: lam_r * x for i, x in c.items()}
                else:
                    delta = mul(c, vr)
                if not delta:
                    continue
                cur = w.get(r)
                if cur is None:
                    w[r] = {i: -x for i, x in delta.items()}
                    occ.setdefault(r, set()).add(gj)
                else:
                    _coords_sub_into(cur, delta)
                    if not cur:
                        del w[r]
                        occ.get(r, set()).discard(gj)
            if w:
                push_unit_candidates(gj)
            else:
                alive[gj] = False
        pivots += 1

    while True:
        progressed = False
        while heap:
            sc, gi, p = heapq.heappop(heap)
            if not alive[gi]:
                continue
            c = gens[gi].get(p)
            if c is None:
                continue
            lam = unit_of(c)
            if lam is None:
                continue
            cur = score(gi, p)
            if cur > sc:
                heapq.heappush(heap, (cur, gi, p))
                continue
            do_pivot(gi, p, lam.inverse(), None)
            progressed = True
        # no unit-multiple entries left; look for any invertible entry
        best = None
        for gi, g in enumerate(gens):
            if not alive[gi]:
                continue
            for p, c in g.items():
                if len(c) > _GENERAL_PIVOT_MAX_COORDS:
                    continue
                inv = algebra.inverse_coords(c)
                if inv is None:
                    continue
                sc = score(gi, p)
                if best is None or (sc, gi, p) < best[0]:
                    best = ((sc, gi, p), inv)
        if best is not None:
            (_, gi, p), inv = best
            do_pivot(gi, p, None, inv)
            progressed = True
            continue
        if not progressed:
            break

    residual: list[Vector] = []
    seen: set = set()
    for gi, g in enumerate(gens):
        if not alive[gi] or not g:
            continue
        fp = _vector_fingerprint(g)
        if fp in seen:
            continue
        seen.add(fp)
        residual.append(g)
    return pivots, residual


def _orbit_span(
    algebra: TracialAlgebra,
    gens: Iterable[Vector],
    seed: Optional[ScalarSpan] = None,
) -> ScalarSpan:
    """Scalar span of the left-module span of gens (plus an optional seed
    span that must already be closed under the left action).

    The span is kept closed under the action as an invariant: after each
    generator is absorbed together with its one generation of children
    b_i * g, the span equals the realized module span of everything seen so
    far.  A generator already contained in a closed span contributes
    nothing, and grandchildren are redundant since b_i(b_j g) = (b_i b_j)g.
    """
    span = seed if seed is not None else ScalarSpan()
    d = algebra.dim
    bm = algebra.basis_mul_coords
    for g in gens:
        if not span.insert(vector_realized(algebra, g)):
            continue
        for i in range(d):
            h: Vector = {}
            for p, coords in g.items():
                prod = bm(i, coords)
                if prod:
                    h[p] = prod
            if h:
                span.insert(vector_realized(algebra, h))
    return span


def _scalar_generalized_inverse(r: ScalarMatrix) -> ScalarMatrix:
    """Some S with R S R = R: invert a full-rank pivot submatrix of R and
    embed the inverse at the transposed position."""
    col_span = ScalarSpan()
    j_set: list[int] = []
    for c in range(r.cols):
        col = {i: r.at(i, c) for i in range(r.rows) if not r.at(i, c).is_zero()}
        if col and col_span.insert(col):
            j_set.append(c)
    row_span = ScalarSpan()
    i_set: list[int] = []
    for i in range(r.rows):
        row = {a: r.at(i, j) for a, j in enumerate(j_set) if not r.at(i, j).is_zero()}
        if row and row_span.insert(row):
            i_set.append(i)
    m = len(j_set)
    out = ScalarMatrix.zeros(r.cols, r.rows)
    if m == 0:
        return out
    if len(i_set) != m:
        raise DimensionError("pivot submatrix is not square")
    sub = ScalarMatrix.zeros(m, m)
    for a, i in enumerate(i_set):
        for b, j in enumerate(j_set):
            sub.entries[a * m + b] = r.at(i, j)
    for b in range(m):
        rhs = [ONE if a == b else ZERO for a in range(m)]
        col = solve_linear(sub, rhs)
        if col is NO_SOLUTION:
            raise DimensionError("pivot submatrix is singular")
        for a in range(m):
            if not col[a].is_zero():
                out.entries[j_set[a] * r.rows + i_set[b]] = col[a]
    return out


def _average_scalar_map(
    algebra: TracialAlgebra, s_mat: ScalarMatrix, domain_rank: int, codomain_rank: int
) -> ModuleMap:
    """Turn a linear map on coordinates into a module map by averaging
    against a separability element: Av(s)(x) = sum_t u_t s(v_t x)."""
    d = algebra.dim
    cols: list[dict[int, Scalar]] = [dict() for _ in range(s_mat.cols)]
    for ri in range(s_mat.rows):
        base = ri * s_mat.cols
        for ci in range(s_mat.cols):
            v = s_mat.entries[base + ci]
            if not v.is_zero():
                cols[ci][ri] = v
    pairs = algebra.separability_element()
    entries: dict[tuple[int, int], Coords] = {}
    for q in range(domain_rank):
        for u, v in pairs:
            y: dict[int, Scalar] = {}
            for i, val in v.items():
                for ri, sv in cols[q * d + i].items():
                    cur = y.get(ri)
                    cur = val * sv if cur is None else cur + val * sv
                    if cur.is_zero():
                        y.pop(ri, None)
                    else:
                        y[ri] = cur
            if not y:
                continue
            slices: dict[int, Coords] = {}
            for flat, val in y.items():
                p, idx = divmod(flat, d)
                slices.setdefault(p, {})[idx] = val
            for p, c in slices.items():
                prod = algebra.mul_coords(u, c)
                if prod:
                    acc = entries.setdefault((p, q), {})
                    _coords_add_into(acc, prod)
    entries = {k: v for k, v in entries.items() if v}
    return ModuleMap(algebra, domain_rank, codomain_rank, entries)


def _solve_generalized_inverse(tmap: ModuleMap) -> ModuleMap:
    """Directly solve the linear system T s T = T for the entries of s."""
    algebra = tmap.algebra
    d = algebra.dim
    k, l = tmap.domain_rank, tmap.codomain_rank
    n_unknowns = k * l * d
    if n_unknowns > 4000:
        raise ValueError("direct generalized-inverse solve is limited to small maps")
    mul = algebra.mul_coords
    a = ScalarMatrix.zeros(l * k * d, n_unknowns)
    rhs = [ZERO] * (l * k * d)
    for (u_row, q), coords in tmap.entries.items():
        for n, v in coords.items():
            rhs[(u_row * k + q) * d + n] = v
    for (p, q), t_pq in tmap.entries.items():
        for (u_row, r), t_ur in tmap.entries.items():
            for m in range(d):
                triple = mul(mul(t_pq, {m: ONE}), t_ur)
                col = (r * l + p) * d + m
                for n, v in triple.items():
                    row = (u_row * k + q) * d + n
                    idx = row * n_unknowns + col
                    a.entries[idx] = a.entries[idx] + v
    sol = solve_linear(a, rhs)
    if sol is NO_SOLUTION:
        raise DimensionError("generalized-inverse system is unsolvable")
    entries: dict[tuple[int, int], Coords] = {}
    for r in range(k):
        for p in range(l):
            coords = {
                m: sol[(r * l + p) * d + m]
                for m in range(d)
                if not sol[(r * l + p) * d + m].is_zero()
            }
            if coords:
                entries[(r, p)] = coords
    return ModuleMap(algebra, l, k, entries)


def generalized_inverse(tmap: ModuleMap, method: str = "average") -> ModuleMap:
    """A module map s: M^l -> M^k with T s T = T, verified exactly."""
    if method == "average":
        s_scalar = _scalar_generalized_inverse(tmap.realize())
        s = _average_scalar_map(
            algebra=tmap.algebra,
            s_mat=s_scalar,
            domain_rank=tmap.codomain_rank,
            codomain_rank=tmap.domain_rank,
        )
    elif method == "solve":
        s = _solve_generalized_inverse(tmap)
    else:
        raise ValueError(f"unknown generalized-inverse method {method!r}")
    if tmap.compose(s).compose(tmap) != tmap:
        raise DimensionError("generalized-inverse verification failed")
    return s


def endomorphism_trace(p: ModuleMap) -> Fraction:
    """Normalized trace sum_q tau(P_qq) of an endomorphism of M^k."""
    if p.domain_rank != p.codomain_rank:
        raise ValueError("trace of a non-endomorphism")
    total = ZERO
    for q in range(p.domain_rank):
        coords = p.entries.get((q, q))
        if coords:
            total = total + p.algebra.trace_coords(coords)
    if not total.is_real():
        raise DimensionError("endomorphism trace is not real")
    return Fraction(total.re)


def _residual_dim_general(
    algebra: TracialAlgebra, gens: list[Vector], codomain_rank: int
) -> Fraction:
    if not gens:
        return Fraction(0)
    w = ModuleMap.from_vector_columns(algebra, codomain_rank, gens)
    s = generalized_inverse(w, method="average")
    p = s.compose(w)
    return endomorphism_trace(p)


def dim_image(
    tmap: ModuleMap, *, order: Optional[Sequence[int]] = None, use_cache: bool = True
) -> Fraction:
    """Trace-valued dimension of the image submodule of M^l.

    The result does not depend on the order in which generators are
    processed; order permutes them to let tests confirm that.
    """
    algebra = tmap.algebra
    if order is not None and sorted(order) != list(range(tmap.domain_rank)):
        raise ValueError("order must be a permutation of the generator indices")
    if not tmap.entries:
        return Fraction(0)
    key = None
    if use_cache and order is None:
        key = tmap.fingerprint()
        hit = algebra._dim_cache.get(key)
        if hit is not None:
            return hit
    gens = []
    columns = tmap.columns()
    indices = range(tmap.domain_rank) if order is None else order
    for q in indices:
        vec = columns[q]
        if vec:
            gens.append({p: dict(c) for p, c in vec.items()})
    pivots, residual = _frontend_eliminate(algebra, gens)
    if not residual:
        total = Fraction(pivots)
    elif algebra.has_regular_trace():
        total = pivots + Fraction(_orbit_span(algebra, residual).dim, algebra.dim)
    else:
        total = pivots + _residual_dim_general(algebra, residual, tmap.codomain_rank)
    if total < 0 or total > tmap.codomain_rank:
        raise DimensionError(f"image dimension {total} outside [0, {tmap.codomain_rank}]")
    if key is not None:
        algebra._dim_cache[key] = total
    return total


def dim_kernel(tmap: ModuleMap) -> Fraction:
    """domain rank minus image dimension; kernels of module maps over a
    semisimple algebra are direct summands, so the two add up."""
    return Fraction(tmap.domain_rank) - dim_image(tmap)


# ---------------------------------------------------------------------------
# image dimension, inner-product route
# ---------------------------------------------------------------------------


def _gram_columns(algebra: TracialAlgebra) -> list[dict[int, Scalar]]:
    rows = algebra.gram_rows()
    cols: list[dict[int, Scalar]] = [dict() for _ in range(algebra.dim)]
    for ip, row in enumerate(rows):
        for i, v in row.items():
            cols[i][ip] = v
    return cols


def _apply_gram_form(
    algebra: TracialAlgebra, gram_cols: list[dict[int, Scalar]], vec: dict[int, Scalar]
) -> dict[int, Scalar]:
    """Apply the block-diagonal matrix of the inner product to a realized
    vector: out_(p,i') = sum_i tau(b_i'^* b_i) vec_(p,i)."""
    d = algebra.dim
    out: dict[int, Scalar] = {}
    for flat, v in vec.items():
        p, i = divmod(flat, d)
        base = p * d
        for ip, g in gram_cols[i].items():
            key = base + ip
            cur = out.get(key)
            cur = v * g if cur is None else cur + v * g
            if cur.is_zero():
                out.pop(key, None)
            else:
                out[key] = cur
    return out


def _pairing(left: dict[int, Scalar], right: dict[int, Scalar]) -> Scalar:
    """sum conj(left_c) * right_c over shared coordinates."""
    if len(left) > len(right):
        acc = ZERO
        for c, v in right.items():
            u = left.get(c)
            if u is not None:
                acc = acc + u.conj() * v
        return acc
    acc = ZERO
    for c, u in left.items():
        v = right.get(c)
        if v is not None:
            acc = acc + u.conj() * v
    return acc


def dim_image_l2(tmap: ModuleMap) -> Fraction:
    """Image dimension through the orthogonal projection onto the realized
    image in the inner product <x, y> = sum_j tau(y_j^* x_j)."""
    algebra = tmap.algebra
    d = algebra.dim
    if not tmap.entries:
        return Fraction(0)
    span = ScalarSpan()
    for q in range(tmap.domain_rank):
        for i in range(d):
            col = tmap.realized_column(q, i)
            if col:
                span.insert(col)
    basis = span.basis
    r = len(basis)
    if r == 0:
        return Fraction(0)
    gram_cols = _gram_columns(algebra)
    phi_basis = [_apply_gram_form(algebra, gram_cols, b) for b in basis]
    m = ScalarMatrix.zeros(r, r)
    for a in range(r):
        for b in range(r):
            m.entries[a * r + b] = _pairing(basis[a], phi_basis[b])
    total = ZERO
    for q in range(tmap.codomain_rank):
        e_q = {q * d + i: v for i, v in algebra.unit.items()}
        phi_e = _apply_gram_form(algebra, gram_cols, e_q)
        g = [_pairing(b, phi_e) for b in basis]
        y = solve_linear(m, g)
        if y is NO_SOLUTION:
            raise DimensionError("projection Gram matrix is singular")
        for a in range(r):
            total = total + g[a].conj() * y[a]
    if not total.is_real():
        raise DimensionError("projection trace is not real")
    return Fraction(total.re)


def dim_image_l2_float(tmap: ModuleMap, tol: float = 1e-9) -> float:
    """Floating-point variant of dim_image_l2, for cross-checks only."""
    import numpy as np
    from .linalg import to_complex_array

    algebra = tmap.algebra
    d = algebra.dim
    l = tmap.codomain_rank
    if not tmap.entries or l == 0:
        return 0.0
    g_c = to_complex_array(algebra.gram_matrix())
    try:
        chol = np.linalg.cholesky(g_c)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix numerically singular") from exc
    lh = chol.conj().T

    def transform(vec: np.ndarray) -> np.ndarray:
        return (lh @ vec.reshape(l, d).T).T.reshape(l * d)

    realized = to_complex_array(tmap.realize())
    cols = np.stack([transform(realized[:, c]) for c in range(realized.shape[1])], axis=1)
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    lo, hi = tol / 10.0, tol * 10.0
    if any(lo <= s <= hi for s in sv):
        warnings.warn(
            f"singular value inside ambiguous band [{lo:g}, {hi:g}]",
            IllConditionedWarning,
            stacklevel=2,
        )
    rank_f = int(sum(1 for s in sv if s > tol))
    if rank_f == 0:
        return 0.0
    u_r = u[:, :rank_f]
    total = 0.0
    for q in range(l):
        e_q = np.zeros(l * d, dtype=complex)
        for i, v in algebra.unit.items():
            e_q[q * d + i] = complex(v)
        w = u_r.conj().T @ transform(e_q)
        total += float(np.real(np.vdot(w, w)))
    return total


# ---------------------------------------------------------------------------
# presented modules, submodules, Hom, closure
# ---------------------------------------------------------------------------


class PresentedModule:
    """Module given as the cokernel of relations: M^k -> M^l."""

    __slots__ = ("algebra", "relations", "ambient_rank")

    def __init__(self, relations: ModuleMap):
        self.algebra = relations.algebra
        self.relations = relations
        self.ambient_rank = relations.codomain_rank

    @staticmethod
    def free(algebra: TracialAlgebra, rank: int) -> "PresentedModule":
        return PresentedModule(ModuleMap.zero(algebra, 0, rank))

    def __repr__(self):
        return f"PresentedModule(ambient={self.ambient_rank}, relations={self.relations.domain_rank})"


def dim_module(x: PresentedModule) -> Fraction:
    return Fraction(x.ambient_rank) - dim_image(x.relations)


class Submodule:
    """Submodule of a presented module, given by ambient generators."""

    __slots__ = ("ambient", "generators")

    def __init__(self, ambient: PresentedModule, generators: Sequence[Vector]):
        self.ambient = ambient
        gens: list[Vector] = []
        for vec in generators:
            clean: Vector = {}
            for p, coords in vec.items():
                if not (0 <= p < ambient.ambient_rank):
                    raise ValueError("generator component outside the ambient module")
                if coords:
                    clean[p] = dict(coords)
            gens.append(clean)
        self.generators = gens

    def generator_map(self) -> ModuleMap:
        return ModuleMap.from_vector_columns(
            self.ambient.algebra, self.ambient.ambient_rank, self.generators
        )

    def realized_span(self) -> ScalarSpan:
        """Scalar span of the submodule's preimage in M^l (generators'
        module span plus the relation image)."""
        algebra = self.ambient.algebra
        rel = self.ambient.relations
        span = ScalarSpan()
        for q in range(rel.domain_rank):
            for i in range(algebra.dim):
                col = rel.realized_column(q, i)
                if col:
                    span.insert(col)
        return _orbit_span(algebra, self.generators, seed=span)

    def __repr__(self):
        return f"Submodule({len(self.generators)} generators of {self.ambient!r})"


def dim_submodule(sub: Submodule) -> Fraction:
    rel = sub.ambient.relations
    stacked = ModuleMap.hstack([sub.generator_map(), rel])
    return dim_image(stacked) - dim_image(rel)


def submodule_contains(outer: Submodule, inner: Submodule) -> bool:
    if outer.ambient is not inner.ambient:
        raise ValueError("submodules of different ambient modules")
    span = outer.realized_span()
    algebra = outer.ambient.algebra
    return all(
        span.contains(vector_realized(algebra, g)) for g in inner.generators
    )


def submodule_equal(a: Submodule, b: Submodule) -> bool:
    return submodule_contains(a, b) and submodule_contains(b, a)


def hom_space(x: PresentedModule, target_rank: int) -> list[ModuleMap]:
    """Basis, over the scalars, of module maps X -> M^r for X = coker(T).

    A matrix of entries always defines a module map on the ambient free
    module; the only condition is vanishing on the columns of T.
    """
    algebra = x.algebra
    d = algebra.dim
    t = x.relations
    l, k = x.ambient_rank, t.domain_rank
    if l == 0 or target_rank == 0:
        return []
    a = ScalarMatrix.zeros(k * d, l * d)
    mul = algebra.mul_coords
    for (p, q), coords in t.entries.items():
        for m in range(d):
            prod = mul(coords, {m: ONE})
            for n, v in prod.items():
                idx = (q * d + n) * (l * d) + (p * d + m)
                a.entries[idx] = a.entries[idx] + v
    kern = kernel_basis(a)
    result: list[ModuleMap] = []
    for row_target in range(target_rank):
        for c in range(kern.cols):
            entries: dict[tuple[int, int], Coords] = {}
            for p in range(l):
                coords = {
                    m: kern.at(p * d + m, c)
                    for m in range(d)
                    if not kern.at(p * d + m, c).is_zero()
                }
                if coords:
                    entries[(row_target, p)] = coords
            result.append(ModuleMap(algebra, l, target_rank, entries))
    return result


def algebraic_closure(sub: Submodule) -> Submodule:
    """Intersection of the kernels of all functionals on the ambient module
    that vanish on the submodule."""
    x = sub.ambient
    algebra = x.algebra
    d = algebra.dim
    l = x.ambient_rank
    functionals = hom_space(x, 1)
    n_f = len(functionals)
    if n_f == 0:
        # intersection over an empty family: the whole ambient module
        gens = [{p: dict(algebra.unit)} for p in range(l)]
        return Submodule(x, gens)
    n_g = len(sub.generators)
    if n_g == 0:
        vanishing = functionals
    else:
        a = ScalarMatrix.zeros(n_g * d, n_f)
        for alpha, phi in enumerate(functionals):
            for g_idx, g in enumerate(sub.generators):
                value = phi.apply([g.get(p, {}) for p in range(l)])[0]
                for n, v in value.items():
                    a.entries[(g_idx * d + n) * n_f + alpha] = v
        kern = kernel_basis(a)
        vanishing = []
        for c in range(kern.cols):
            combo: Optional[ModuleMap] = None
            for alpha in range(n_f):
                coeff = kern.at(alpha, c)
                if coeff.is_zero():
                    continue
                term = functionals[alpha].scale(coeff)
                combo = term if combo is None else combo + term
            if combo is not None and not combo.is_zero():
                vanishing.append(combo)
    if not vanishing:
        gens = [{p: dict(algebra.unit)} for p in range(l)]
        return Submodule(x, gens)
    stacked = ModuleMap.vstack(vanishing)
    kern = kernel_basis(stacked.realize())
    gens = []
    for c in range(kern.cols):
        flat = {
            row: kern.at(row, c)
            for row in range(kern.rows)
            if not kern.at(row, c).is_zero()
        }
        vec = vector_from_realized(algebra, flat)
        if vec:
            gens.append(vec)
    return Submodule(x, gens)


class PresentedMap:
    """Map of presented modules, given by an ambient map of free modules
    that carries relations into relations."""

    __slots__ = ("source", "target", "ambient")

    def __init__(self, source: PresentedModule, target: PresentedModule, ambient: ModuleMap):
        if ambient.algebra is not source.algebra or source.algebra is not target.algebra:
            raise ValueError("map and modules must share the algebra")
        if (
            ambient.domain_rank != source.ambient_rank
            or ambient.codomain_rank != target.ambient_rank
        ):
            raise ValueError("ambient map ranks do not match the presentations")
        self.source = source
        self.target = target
        self.ambient = ambient
        self._check_well_defined()

    def _check_well_defined(self) -> None:
        algebra = self.source.algebra
        moved = self.ambient.compose(self.source.relations)
        if moved.is_zero():
            return
        rel = self.target.relations
        span = ScalarSpan()
        for q in range(rel.domain_rank):
            for i in range(algebra.dim):
                col = rel.realized_column(q, i)
                if col:
                    span.insert(col)
        for q in range(moved.domain_rank):
            for i in range(algebra.dim):
                col = moved.realized_column(q, i)
                if col and not span.contains(col):
                    raise ValueError("ambient map does not preserve the relations")

    def image_dim(self) -> Fraction:
        rel = self.target.relations
        stacked = ModuleMap.hstack([self.ambient, rel])
        return dim_image(stacked) - dim_image(rel)

    def __repr__(self):
        return f"PresentedMap({self.source!r} -> {self.target!r})"


def projective_part(x: PresentedModule) -> tuple[PresentedModule, PresentedMap]:
    """Quotient of X by the algebraic closure of its zero submodule, with
    the natural surjection."""
    closure_zero = algebraic_closure(Submodule(x, []))
    zmap = closure_zero.generator_map()
    quotient = PresentedModule(ModuleMap.hstack([x.relations, zmap]))
    pi = PresentedMap(x, quotient, ModuleMap.identity(x.algebra, x.ambient_rank))
    return quotient, pi


def check_image_dim_descends_to_projective_part(f: PresentedMap) -> dict:
    """Compare dim im(f) with dim im of the induced map between projective
    parts; over a faithful trace the two agree."""
    lhs = f.image_dim()
    px, _ = projective_part(f.source)
    py, _ = projective_part(f.target)
    pf = PresentedMap(px, py, f.ambient)
    rhs = pf.image_dim()
    return {"dim_image": lhs, "dim_image_projective": rhs, "equal": lhs == rhs}
