"""Chain complexes of free modules, bar resolutions, and Betti numbers.

A ChainComplex stores free-module ranks r_0..r_N and differentials
d_n: C_n -> C_{n-1}; d o d = 0 is checked exactly at construction.  The
truncated bar resolution of an algebra A, with coefficients induced up to
the enveloping algebra A^ev, has rank d^n in degree n (d = dim A); its
homology dimensions are the L2-Betti numbers of (A, tau).  Degree-n
homology dimension is computed by the three-term formula
r_n - dim im(d_n) - dim im(d_{n+1}).

The tensor complex of two complexes carries the usual signed differential;
when both factors live over enveloping algebras the coefficients are
transported along the flip rearrangement into the enveloping algebra of
the tensor-product algebra, so product Betti numbers can be compared with
the convolution of the factors' Betti numbers degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import (
    Coords,
    FlipIsomorphism,
    TracialAlgebra,
    enveloping_algebra,
    tensor_algebra,
)
from .linalg import NO_SOLUTION, ScalarMatrix, ScalarSpan, kernel_data, solve_linear
from .modules import (
    ModuleMap,
    PresentedMap,
    PresentedModule,
    Submodule,
    Vector,
    _apply_gram_form,
    _coords_add_into,
    _coords_sub_into,
    _gram_columns,
    _pairing,
    algebraic_closure,
    dim_image,
    dim_module,
    dim_submodule,
    vector_from_realized,
    vector_realized,
)
from .scalars import ONE, ZERO, Scalar

DEFAULT_CEILING = 2_000_000


class DepthTooLarge(Exception):
    """The requested bar depth would exceed the scalar-entry ceiling."""

    def __init__(self, needed: int, ceiling: int):
        super().__init__(
            f"bar complex needs {needed} scalar entries, ceiling is {ceiling}"
        )
        self.needed = needed
        self.ceiling = ceiling


class ChainComplex:
    """Free-module chain complex with exact d o d = 0 validation."""

    __slots__ = ("algebra", "ranks", "differentials")

    def __init__(
        self,
        algebra: TracialAlgebra,
        ranks: Sequence[int],
        differentials: dict[int, ModuleMap],
        validate: bool = True,
    ):
        self.algebra = algebra
        self.ranks = [int(r) for r in ranks]
        if not self.ranks:
            raise ValueError("a complex needs at least degree 0")
        if any(r < 0 for r in self.ranks):
            raise ValueError("ranks must be nonnegative")
        diffs: dict[int, ModuleMap] = {}
        for n, d in differentials.items():
            if not 1 <= n < len(self.ranks):
                raise ValueError(
                    f"differential degree {n} outside 1..{len(self.ranks) - 1}"
                )
            if d.algebra is not algebra:
                raise ValueError("differential over a different algebra")
            if d.domain_rank != self.ranks[n] or d.codomain_rank != self.ranks[n - 1]:
                raise ValueError(
                    f"differential {n} has shape {d.codomain_rank}x{d.domain_rank}, "
                    f"expected {self.ranks[n - 1]}x{self.ranks[n]}"
                )
            if d.entries:
                diffs[n] = d
        self.differentials = diffs
        if validate:
            for n in range(2, len(self.ranks)):
                lower = diffs.get(n - 1)
                upper = diffs.get(n)
                if lower is None or upper is None:
                    continue
                if not lower.compose(upper).is_zero():
                    raise ValueError(
                        f"differential squared is nonzero entering degree {n - 2}"
                    )

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n < len(self.ranks) else 0

    def differential(self, n: int) -> ModuleMap:
        stored = self.differentials.get(n)
        if stored is not None:
            return stored
        return ModuleMap.zero(self.algebra, self.rank(n), self.rank(n - 1))

    def __repr__(self):
        return f"ChainComplex(ranks={self.ranks})"


def dim_homology(cx: ChainComplex, n: int) -> Fraction:
    """r_n - dim im(d_n) - dim im(d_{n+1}); exact and nonnegative."""
    if n < 0 or n > cx.top_degree:
        return Fraction(0)
    value = (
        Fraction(cx.rank(n))
        - dim_image(cx.differential(n))
        - dim_image(cx.differential(n + 1))
    )
    if value < 0:
        raise ArithmeticError(f"negative homology dimension {value} in degree {n}")
    return value


# ---------------------------------------------------------------------------
# bar resolution with enveloping coefficients
# ---------------------------------------------------------------------------


def bar_complex(
    algebra: TracialAlgebra, depth: int, ceiling: int = DEFAULT_CEILING
) -> ChainComplex:
    """Truncated bar complex over A^ev: degree n is free of rank d^n.

    The differential alternates the n+1 face maps of the column index
    (i_0, ..., i_{n-1}): the outer two move the first (resp. last) slot
    into the left (resp. right) leg of the enveloping coefficient, the
    inner ones multiply adjacent slots through the structure constants.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    d = algebra.dim
    needed = d ** (depth + 2)
    if needed > ceiling:
        raise DepthTooLarge(needed, ceiling)
    env = enveloping_algebra(algebra)
    unit = algebra.unit
    left_coeff = [{i * d + ip: u for ip, u in unit.items()} for i in range(d)]
    right_coeff = [{i * d + j: u for i, u in unit.items()} for j in range(d)]
    unit_env = env.unit
    # interned signed multiples of the enveloping unit; shared dicts, safe
    # because the per-column accumulator copies before mutating
    scaled_units: dict[Scalar, Coords] = {}

    def unit_multiple(value: Scalar) -> Coords:
        hit = scaled_units.get(value)
        if hit is None:
            hit = {e: value * u for e, u in unit_env.items()}
            scaled_units[value] = hit
        return hit

    struct = algebra.struct
    ranks = [d**n for n in range(depth + 1)]
    diffs: dict[int, ModuleMap] = {}
    for n in range(1, depth + 1):
        entries: dict[tuple[int, int], Coords] = {}
        idx = [0] * n
        for q in range(d**n):
            rem = q
            for t in range(n - 1, -1, -1):
                rem, idx[t] = divmod(rem, d)
            acc: dict[int, Coords] = {}
            owned: set[int] = set()

            def add(p: int, coords: Coords, negate: bool) -> None:
                cur = acc.get(p)
                if cur is None:
                    if negate:
                        acc[p] = {e: -x for e, x in coords.items()}
                        owned.add(p)
                    else:
                        acc[p] = coords
                    return
                if p not in owned:
                    cur = dict(cur)
                    acc[p] = cur
                    owned.add(p)
                if negate:
                    _coords_sub_into(cur, coords)
                else:
                    _coords_add_into(cur, coords)

            # face 0: first slot into the left enveloping leg
            add(q % (d ** (n - 1)), left_coeff[idx[0]], False)
            # faces 1..n-1: multiply adjacent slots, sign (-1)^j
            for j in range(1, n):
                combo = struct.get((idx[j - 1], idx[j]))
                if not combo:
                    continue
                negate = bool(j % 2)
                head = 0
                for t in range(j - 1):
                    head = head * d + idx[t]
                tail = 0
                for t in range(j + 1, n):
                    tail = tail * d + idx[t]
                tail_weight = d ** (n - 1 - j)
                for m, c in combo:
                    p = (head * d + m) * tail_weight + tail
                    add(p, unit_multiple(c), negate)
            # face n: last slot into the right enveloping leg, sign (-1)^n
            add(q // d, right_coeff[idx[n - 1]], bool(n % 2))

            for p, coords in acc.items():
                if coords:
                    entries[(p, q)] = coords if p in owned else dict(coords)
        diffs[n] = ModuleMap(env, d**n, d ** (n - 1), entries)
    return ChainComplex(env, ranks, diffs)


@dataclass
class BettiResult:
    """Betti numbers up to a degree, with the truncation bookkeeping.

    depth is the top degree of the bar complex the values were read from.
    stabilized is the cross-check beta_0 == dim A as a module over A^ev,
    the latter computed by algebra_self_bimodule without a bar complex.
    """

    algebra_description: dict
    values: dict[int, Fraction]
    depth: int
    stabilized: bool


def betti_numbers(
    algebra: TracialAlgebra, max_degree: int, ceiling: int = DEFAULT_CEILING
) -> BettiResult:
    """Betti numbers beta_0..beta_max_degree from the truncated bar complex.

    beta_n reads only d_n and d_{n+1}, which a bar complex of depth
    max_degree + 1 already holds in final form, so one complex is built.
    stabilized compares beta_0 with the dimension of the self-bimodule,
    an independent route that never builds a bar complex.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    bar = bar_complex(algebra, max_degree + 1, ceiling)
    values = {n: dim_homology(bar, n) for n in range(max_degree + 1)}
    return BettiResult(
        algebra_description=algebra.description,
        values=values,
        depth=max_degree + 1,
        stabilized=values[0] == dim_module(algebra_self_bimodule(algebra)),
    )


def algebra_self_bimodule(algebra: TracialAlgebra) -> PresentedModule:
    """A as a cyclic module over A^ev: the kernel of a (x) b^op -> a b
    provides the relations.  Its dimension equals the degree-0 Betti number
    by a route that never builds a bar complex."""
    env = enveloping_algebra(algebra)
    d = algebra.dim
    mu = ScalarMatrix.zeros(d, env.dim)
    for i in range(d):
        for ip in range(d):
            col = i * d + ip
            for k, v in algebra.basis_mul_coords(i, {ip: ONE}).items():
                mu.entries[k * env.dim + col] = v
    kern, _ = kernel_data(mu)
    columns: list[Vector] = []
    for c in range(kern.cols):
        coords = {
            r: kern.at(r, c) for r in range(kern.rows) if not kern.at(r, c).is_zero()
        }
        if coords:
            columns.append({0: coords})
    return PresentedModule(ModuleMap.from_vector_columns(env, 1, columns))


# ---------------------------------------------------------------------------
# tensor complexes and the product formula
# ---------------------------------------------------------------------------


_TENSOR_CACHE: dict = {}
_FLIP_CACHE: dict = {}


def _tensor_algebra_cached(a: TracialAlgebra, b: TracialAlgebra) -> TracialAlgebra:
    key = (id(a), id(b))
    hit = _TENSOR_CACHE.get(key)
    if hit is not None and hit[0] is a and hit[1] is b:
        return hit[2]
    t = tensor_algebra(a, b)
    _TENSOR_CACHE[key] = (a, b, t)
    return t


def flip_for(env_a: TracialAlgebra, env_b: TracialAlgebra) -> FlipIsomorphism:
    """Cached flip (A^ev (x) B^ev) -> (A (x) B)^ev for enveloping factors."""
    key = (id(env_a), id(env_b))
    hit = _FLIP_CACHE.get(key)
    if hit is not None and hit[0] is env_a and hit[1] is env_b:
        return hit[2]
    iso = FlipIsomorphism.from_enveloping(env_a, env_b)
    _FLIP_CACHE[key] = (env_a, env_b, iso)
    return iso


def _plain_combiner(
    a: TracialAlgebra, b: TracialAlgebra
) -> Callable[[Coords, Coords], Coords]:
    db = b.dim

    def combine(u: Coords, v: Coords) -> Coords:
        return {i * db + j: x * y for i, x in u.items() for j, y in v.items()}

    return combine


def tensor_complex(f: ChainComplex, g: ChainComplex) -> ChainComplex:
    """Tensor-product complex: e(x (x) y) = f(x) (x) y + (-1)^k x (x) g(y)
    on the degree-k summand of the source.

    When both factors live over enveloping algebras the coefficients are
    transported along the flip into the enveloping algebra of the tensor
    algebra; otherwise they land in the plain tensor algebra.
    """
    a, b = f.algebra, g.algebra
    if a.env_of is not None and b.env_of is not None:
        iso = flip_for(a, b)
        target = iso.target
        combine = iso.transport_coords
    else:
        target = _tensor_algebra_cached(a, b)
        combine = _plain_combiner(a, b)
    unit_a, unit_b = a.unit, b.unit
    nf, ng = f.top_degree, g.top_degree
    top = nf + ng

    def blocks(n: int) -> list[tuple[int, int, int]]:
        """(k, l, offset) summands C_k (x) D_l of degree n, ascending k."""
        out = []
        offset = 0
        for k in range(max(0, n - ng), min(nf, n) + 1):
            out.append((k, n - k, offset))
            offset += f.rank(k) * g.rank(n - k)
        return out

    ranks = [
        sum(f.rank(k) * g.rank(l) for k, l, _ in blocks(n)) for n in range(top + 1)
    ]
    diffs: dict[int, ModuleMap] = {}
    for n in range(1, top + 1):
        target_offsets = {(k, l): off for k, l, off in blocks(n - 1)}
        entries: dict[tuple[int, int], Coords] = {}

        def add_entry(p: int, q: int, coords: Coords) -> None:
            if not coords:
                return
            acc = entries.get((p, q))
            if acc is None:
                entries[(p, q)] = dict(coords)
            else:
                _coords_add_into(acc, coords)
                if not acc:
                    del entries[(p, q)]

        for k, l, off in blocks(n):
            rg_l = g.rank(l)
            rf_k = f.rank(k)
            f_off = target_offsets.get((k - 1, l))
            if k >= 1 and f_off is not None:
                for (p, q), coords in f.differential(k).entries.items():
                    mixed = combine(coords, unit_b)
                    for y in range(rg_l):
                        add_entry(f_off + p * rg_l + y, off + q * rg_l + y, mixed)
            g_off = target_offsets.get((k, l - 1))
            if l >= 1 and g_off is not None:
                rg_prev = g.rank(l - 1)
                for (p, q), coords in g.differential(l).entries.items():
                    mixed = combine(unit_a, coords)
                    if k % 2:
                        mixed = {e: -x for e, x in mixed.items()}
                    for x in range(rf_k):
                        add_entry(g_off + x * rg_prev + p, off + x * rg_l + q, mixed)
        diffs[n] = ModuleMap(target, ranks[n], ranks[n - 1], entries)
    return ChainComplex(target, ranks, diffs)


def kuenneth_chain_check(f: ChainComplex, g: ChainComplex) -> dict:
    """Per-degree comparison of dim H_n(F (x) G) with the Cauchy product of
    the factors' homology dimension sequences; exact arithmetic."""
    e = tensor_complex(f, g)
    hf = [dim_homology(f, k) for k in range(f.top_degree + 1)]
    hg = [dim_homology(g, l) for l in range(g.top_degree + 1)]
    per_degree = {}
    all_equal = True
    for n in range(e.top_degree + 1):
        direct = dim_homology(e, n)
        conv = sum(
            (
                hf[k] * hg[n - k]
                for k in range(max(0, n - g.top_degree), min(f.top_degree, n) + 1)
            ),
            Fraction(0),
        )
        equal = direct == conv
        all_equal = all_equal and equal
        per_degree[n] = {"direct": direct, "convolved": conv, "equal": equal}
    return {"per_degree": per_degree, "all_equal": all_equal}


def kuenneth_betti_check(
    a: TracialAlgebra,
    b: TracialAlgebra,
    max_degree: int,
    ceiling: int = DEFAULT_CEILING,
) -> dict:
    """Betti numbers of A (x) B computed directly versus the convolution of
    the factor sequences; exact equality per degree."""
    mixed = _tensor_algebra_cached(a, b)
    direct = betti_numbers(mixed, max_degree, ceiling)
    left = betti_numbers(a, max_degree, ceiling)
    right = betti_numbers(b, max_degree, ceiling)
    per_degree = {}
    all_equal = True
    for n in range(max_degree + 1):
        conv = sum(
            (
                left.values.get(k, Fraction(0)) * right.values.get(n - k, Fraction(0))
                for k in range(n + 1)
            ),
            Fraction(0),
        )
        equal = direct.values[n] == conv
        all_equal = all_equal and equal
        per_degree[n] = {"direct": direct.values[n], "convolved": conv, "equal": equal}
    return {
        "per_degree": per_degree,
        "all_equal": all_equal,
        "stabilized": direct.stabilized and left.stabilized and right.stabilized,
    }


def dim_multiplicativity_check(x: PresentedModule, y: PresentedModule) -> dict:
    """dim of the external tensor module over (A (x) B)^ev versus the
    product of the factor dimensions; the tensor is presented as
    coker([T_X (x) I | I (x) T_Y])."""
    env_a, env_b = x.relations.algebra, y.relations.algebra
    if env_a.env_of is None or env_b.env_of is None:
        raise ValueError("expected modules over enveloping algebras")
    iso = flip_for(env_a, env_b)
    combine = iso.transport_coords
    target = iso.target
    lx, ly = x.ambient_rank, y.ambient_rank
    tx, ty = x.relations, y.relations
    unit_a, unit_b = env_a.unit, env_b.unit
    entries: dict[tuple[int, int], Coords] = {}
    for (p, q), coords in tx.entries.items():
        mixed = combine(coords, unit_b)
        for j in range(ly):
            entries[(p * ly + j, q * ly + j)] = mixed
    offset = tx.domain_rank * ly
    for (p, q), coords in ty.entries.items():
        mixed = combine(unit_a, coords)
        for i in range(lx):
            entries[(i * ly + p, offset + i * ty.domain_rank + q)] = mixed
    relations = ModuleMap(
        target, tx.domain_rank * ly + lx * ty.domain_rank, lx * ly, entries
    )
    tensor_dim = dim_module(PresentedModule(relations))
    product = dim_module(x) * dim_module(y)
    return {"tensor": tensor_dim, "product": product, "equal": tensor_dim == product}


# ---------------------------------------------------------------------------
# chain maps and induced maps on homology
# ---------------------------------------------------------------------------


class ChainMap:
    """Degreewise map of complexes over one algebra, commuting with the
    differentials (checked exactly)."""

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: ChainComplex,
        target: ChainComplex,
        components: dict[int, ModuleMap],
    ):
        if source.algebra is not target.algebra:
            raise ValueError("chain map between complexes over different algebras")
        self.source = source
        self.target = target
        top = max(source.top_degree, target.top_degree)
        comps: dict[int, ModuleMap] = {}
        for n, m in components.items():
            if not 0 <= n <= top:
                raise ValueError(f"component degree {n} out of range")
            if m.domain_rank != source.rank(n) or m.codomain_rank != target.rank(n):
                raise ValueError(f"component {n} rank mismatch")
            if m.entries:
                comps[n] = m
        self.components = comps
        for n in range(1, top + 1):
            lhs = self.target.differential(n).compose(self.component(n))
            rhs = self.component(n - 1).compose(self.source.differential(n))
            if lhs != rhs:
                raise ValueError(f"chain map does not commute with d at degree {n}")

    def component(self, n: int) -> ModuleMap:
        stored = self.components.get(n)
        if stored is not None:
            return stored
        return ModuleMap.zero(
            self.source.algebra, self.source.rank(n), self.target.rank(n)
        )

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


class _HomologyData:
    """Kernel generators in one degree and the presentation of homology.

    kappa sends the j-th module generator to the j-th scalar kernel basis
    vector of the realized differential; because basis vector j is 1 at its
    own free coordinate and 0 at the others, any realized kernel vector is
    rewritten over the generators by reading the free coordinates off.
    """

    __slots__ = (
        "algebra",
        "degree",
        "kappa",
        "free",
        "kernel_relations",
        "boundary_lifts",
        "presentation",
    )

    def __init__(self, cx: ChainComplex, n: int):
        algebra = cx.algebra
        self.algebra = algebra
        self.degree = n
        kern, free = kernel_data(cx.differential(n).realize())
        columns: list[Vector] = []
        for c in range(kern.cols):
            flat = {
                r: kern.at(r, c)
                for r in range(kern.rows)
                if not kern.at(r, c).is_zero()
            }
            columns.append(vector_from_realized(algebra, flat))
        self.kappa = ModuleMap.from_vector_columns(algebra, cx.rank(n), columns)
        self.free = free
        gens = self.kappa.domain_rank
        rel_kern, _ = kernel_data(self.kappa.realize())
        rel_cols: list[Vector] = []
        for c in range(rel_kern.cols):
            flat = {
                r: rel_kern.at(r, c)
                for r in range(rel_kern.rows)
                if not rel_kern.at(r, c).is_zero()
            }
            vec = vector_from_realized(algebra, flat)
            if vec:
                rel_cols.append(vec)
        self.kernel_relations = ModuleMap.from_vector_columns(algebra, gens, rel_cols)
        lift_cols = [
            self.express(vector_realized(algebra, col))
            for col in cx.differential(n + 1).columns()
        ]
        self.boundary_lifts = ModuleMap.from_vector_columns(algebra, gens, lift_cols)
        self.presentation = PresentedModule(
            ModuleMap.hstack([self.kernel_relations, self.boundary_lifts])
        )

    def express(self, flat: dict[int, Scalar]) -> Vector:
        """Rewrite a realized kernel vector over the generators, reading
        scalar coefficients off the free coordinates."""
        unit = self.algebra.unit
        vec: Vector = {}
        for t, coord in enumerate(self.free):
            coeff = flat.get(coord)
            if coeff is not None and not coeff.is_zero():
                vec[t] = {i: coeff * u for i, u in unit.items()}
        return vec


def homology_presentation(cx: ChainComplex, n: int) -> PresentedModule:
    """H_n as an explicit cokernel; its dim agrees with dim_homology."""
    return _HomologyData(cx, n).presentation


def _kernel_coefficient_map(
    data_src: _HomologyData, data_tgt: _HomologyData, phi_n: ModuleMap
) -> ModuleMap:
    """The map on kernel generators induced by a chain map component."""
    algebra = phi_n.algebra
    d = algebra.dim
    cols: list[Vector] = []
    for kap in data_src.kappa.columns():
        image = phi_n.apply([kap.get(p, {}) for p in range(phi_n.domain_rank)])
        flat: dict[int, Scalar] = {}
        for p, coords in enumerate(image):
            for i, v in coords.items():
                flat[p * d + i] = v
        cols.append(data_tgt.express(flat))
    return ModuleMap.from_vector_columns(algebra, data_tgt.kappa.domain_rank, cols)


def _boundary_scalar_basis(cx: ChainComplex, n: int) -> list[dict[int, Scalar]]:
    span = ScalarSpan()
    boundary = cx.differential(n + 1)
    d = cx.algebra.dim
    for q in range(boundary.domain_rank):
        for i in range(d):
            col = boundary.realized_column(q, i)
            if col:
                span.insert(col)
    return span.basis


def _harmonic_image_dim(phi: ChainMap, n: int) -> Fraction:
    """Image dimension of the induced map on harmonic subspaces: the trace
    orthogonal complements of the boundaries inside the cycles.

    Left multiplication is adjointable for the trace inner product, so
    both harmonic spaces are submodules and the induced map is the
    compression of the component to them.
    """
    algebra = phi.source.algebra
    d = algebra.dim
    gram_cols = _gram_columns(algebra)

    def harmonic_basis(cx: ChainComplex) -> list[dict[int, Scalar]]:
        realized = cx.differential(n).realize()
        rows = realized.sparse_rows()
        ncols = realized.cols
        for c in _boundary_scalar_basis(cx, n):
            phi_c = _apply_gram_form(algebra, gram_cols, c)
            rows.append({j: v.conj() for j, v in phi_c.items()})
        stacked = ScalarMatrix.zeros(len(rows), ncols)
        for r, row in enumerate(rows):
            base = r * ncols
            for j, v in row.items():
                stacked.entries[base + j] = v
        kern, _ = kernel_data(stacked)
        return [
            {r: kern.at(r, c) for r in range(kern.rows) if not kern.at(r, c).is_zero()}
            for c in range(kern.cols)
        ]

    harm_src = harmonic_basis(phi.source)
    bdry_tgt = _boundary_scalar_basis(phi.target, n)
    m = len(bdry_tgt)
    phi_bdry = [_apply_gram_form(algebra, gram_cols, c) for c in bdry_tgt]
    gram_b = ScalarMatrix.zeros(m, m)
    for i in range(m):
        for j in range(m):
            gram_b.entries[i * m + j] = _pairing(bdry_tgt[i], phi_bdry[j])
    phi_n = phi.component(n)
    gens: list[Vector] = []
    for v in harm_src:
        vec = vector_from_realized(algebra, v)
        image = phi_n.apply([vec.get(p, {}) for p in range(phi_n.domain_rank)])
        w: dict[int, Scalar] = {}
        for p, coords in enumerate(image):
            for i, val in coords.items():
                w[p * d + i] = val
        if w and m:
            rhs = [
                _pairing(c, _apply_gram_form(algebra, gram_cols, w)) for c in bdry_tgt
            ]
            sol = solve_linear(gram_b, rhs)
            if sol is NO_SOLUTION:
                raise ArithmeticError("boundary Gram system unsolvable")
            for j, coeff in enumerate(sol):
                if coeff.is_zero():
                    continue
                for coord, val in bdry_tgt[j].items():
                    cur = w.get(coord, ZERO) - coeff * val
                    if cur.is_zero():
                        w.pop(coord, None)
                    else:
                        w[coord] = cur
        if w:
            gens.append(vector_from_realized(algebra, w))
    if not gens:
        return Fraction(0)
    free_target = PresentedModule.free(algebra, phi.target.rank(n))
    return dim_submodule(Submodule(free_target, gens))


def induced_homology_map(phi: ChainMap, n: int) -> dict:
    """Induced map in degree n, measured three independent ways: on the
    homology presentations, into the quotient by the closure of the
    boundaries, and compressed to harmonic representatives.  Returns the
    three image dimensions, their agreement flag, and the presented map."""
    data_src = _HomologyData(phi.source, n)
    data_tgt = _HomologyData(phi.target, n)
    coeff = _kernel_coefficient_map(data_src, data_tgt, phi.component(n))
    plain = PresentedMap(data_src.presentation, data_tgt.presentation, coeff)
    dim_plain = plain.image_dim()

    cycles_tgt = PresentedModule(data_tgt.kernel_relations)
    boundary_sub = Submodule(cycles_tgt, data_tgt.boundary_lifts.columns())
    closed = algebraic_closure(boundary_sub)
    reduced_target = PresentedModule(
        ModuleMap.hstack([data_tgt.kernel_relations, closed.generator_map()])
    )
    reduced = PresentedMap(data_src.presentation, reduced_target, coeff)
    dim_reduced = reduced.image_dim()

    dim_l2 = _harmonic_image_dim(phi, n)
    return {
        "plain": dim_plain,
        "reduced": dim_reduced,
        "l2": dim_l2,
        "equal": dim_plain == dim_reduced == dim_l2,
        "map": plain,
    }
