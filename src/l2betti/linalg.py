"""Exact linear algebra over the Gaussian rationals, plus a float backend.

The exact engine is a fraction-free (Bareiss) elimination over the Gaussian
integers with full pivoting: rows are scaled to integer entries, every update
is (piv*a_rj - a_rc*a_pj) / prev_piv with exact division, and pivots are
chosen anywhere in the active submatrix, smallest squared modulus first, to
bound coefficient growth.  rank, solve_sparse (with its dense wrapper
solve_linear) and kernel_basis all sit on top of the same elimination.

The float backend mirrors rank via singular values and exists for stress
testing only; exact results never depend on it.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .scalars import Scalar, ZERO, ONE

GaussInt = tuple[int, int]

_GI_ZERO: GaussInt = (0, 0)
_GI_ONE: GaussInt = (1, 0)


class NoSolution:
    """Marker returned by solve_linear when the system is inconsistent."""

    _instance: Optional["NoSolution"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NoSolution"


NO_SOLUTION = NoSolution()


class IllConditionedWarning(UserWarning):
    """A float-backend singular value fell inside the ambiguous band."""


# ---------------------------------------------------------------------------
# Gaussian integer helpers (plain int pairs, no object overhead)
# ---------------------------------------------------------------------------


def _gi_mul(x: GaussInt, y: GaussInt) -> GaussInt:
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _gi_sub(x: GaussInt, y: GaussInt) -> GaussInt:
    return (x[0] - y[0], x[1] - y[1])


def _gi_norm(x: GaussInt) -> int:
    return x[0] * x[0] + x[1] * x[1]


def _gi_divexact(x: GaussInt, y: GaussInt) -> GaussInt:
    # exact division in Z[i]; the Bareiss identity guarantees divisibility
    a, b = x
    c, d = y
    n = c * c + d * d
    re_num = a * c + b * d
    im_num = b * c - a * d
    re, rr = divmod(re_num, n)
    im, ir = divmod(im_num, n)
    if rr or ir:
        raise ArithmeticError("inexact Gaussian-integer division in Bareiss step")
    return (re, im)


def _scale_row_to_ints(row: dict[int, Scalar]) -> dict[int, GaussInt]:
    """Clear denominators of one sparse row; row scaling preserves rank,
    kernels and solution sets of augmented systems."""
    lcm = 1
    for v in row.values():
        lcm = lcm * v.re.denominator // _gcd(lcm, v.re.denominator)
        lcm = lcm * v.im.denominator // _gcd(lcm, v.im.denominator)
    out: dict[int, GaussInt] = {}
    for j, v in row.items():
        re = v.re.numerator * (lcm // v.re.denominator)
        im = v.im.numerator * (lcm // v.im.denominator)
        if re or im:
            out[j] = (re, im)
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a if a else 1


# ---------------------------------------------------------------------------
# ScalarMatrix
# ---------------------------------------------------------------------------


class ScalarMatrix:
    """Dense row-major matrix of Scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "ScalarMatrix":
        return ScalarMatrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "ScalarMatrix":
        m = ScalarMatrix.zeros(n, n)
        for k in range(n):
            m.entries[k * n + k] = ONE
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "ScalarMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return ScalarMatrix(nrows, ncols, flat)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Scalar]], nrows: int) -> "ScalarMatrix":
        ncols = len(cols)
        m = ScalarMatrix.zeros(nrows, ncols)
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError("bad column length")
            for i, v in enumerate(col):
                m.entries[i * ncols + j] = v
        return m

    # -- access ----------------------------------------------------------

    def at(self, r: int, c: int) -> Scalar:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> list[Scalar]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def column(self, c: int) -> list[Scalar]:
        return [self.entries[r * self.cols + c] for r in range(self.rows)]

    def sparse_rows(self) -> list[dict[int, Scalar]]:
        out = []
        for r in range(self.rows):
            base = r * self.cols
            row = {}
            for c in range(self.cols):
                v = self.entries[base + c]
                if not v.is_zero():
                    row[c] = v
            out.append(row)
        return out

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = ScalarMatrix.zeros(self.rows, other.cols)
        oc = other.cols
        for i in range(self.rows):
            ibase = i * self.cols
            obase = i * oc
            for k in range(self.cols):
                a = self.entries[ibase + k]
                if a.is_zero():
                    continue
                kbase = k * oc
                for j in range(oc):
                    b = other.entries[kbase + j]
                    if not b.is_zero():
                        out.entries[obase + j] = out.entries[obase + j] + a * b
        return out

    def __add__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return ScalarMatrix(
            self.rows, self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return ScalarMatrix(
            self.rows, self.cols,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def scale(self, factor: Scalar) -> "ScalarMatrix":
        return ScalarMatrix(self.rows, self.cols, [factor * a for a in self.entries])

    def adjoint(self) -> "ScalarMatrix":
        out = ScalarMatrix.zeros(self.cols, self.rows)
        for r in range(self.rows):
            for c in range(self.cols):
                out.entries[c * self.rows + r] = self.entries[r * self.cols + c].conj()
        return out

    def transpose(self) -> "ScalarMatrix":
        out = ScalarMatrix.zeros(self.cols, self.rows)
        for r in range(self.rows):
            for c in range(self.cols):
                out.entries[c * self.rows + r] = self.entries[r * self.cols + c]
        return out

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        return f"ScalarMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------


class Echelon:
    """Result of one fraction-free elimination run.

    pivot order matters: pivot row t is guaranteed to vanish on the pivot
    columns of steps 1..t-1, which is what reverse-order back substitution
    relies on.
    """

    __slots__ = ("pivots", "rows", "free_rows", "ncols")

    def __init__(self, pivots, rows, free_rows, ncols):
        self.pivots = pivots        # list of (row_index, col) in elimination order
        self.rows = rows            # sparse GaussInt rows after elimination
        self.free_rows = free_rows  # indices of rows never chosen as pivot
        self.ncols = ncols

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _eliminate(rows: list[dict[int, GaussInt]], ncols: int,
               allowed_cols: Optional[set[int]] = None) -> Echelon:
    """Fraction-free Gaussian elimination with full pivoting.

    Mutates `rows`.  Only columns in allowed_cols may host pivots (used to
    keep augmented right-hand sides out of the pivot search).
    """
    active = [i for i, r in enumerate(rows) if r]
    zero_rows = [i for i, r in enumerate(rows) if not r]
    pivots: list[tuple[int, int]] = []
    used_cols: set[int] = set()
    prev = _GI_ONE
    while active:
        best = None
        best_norm = None
        for i in active:
            for j, v in rows[i].items():
                if j in used_cols:
                    continue
                if allowed_cols is not None and j not in allowed_cols:
                    continue
                n = _gi_norm(v)
                if best is None or n < best_norm or (n == best_norm and (i, j) < best[:2]):
                    best = (i, j, v)
                    best_norm = n
        if best is None:
            break
        p, c, piv = best
        active.remove(p)
        prow = rows[p]
        for r in active:
            row = rows[r]
            vc = row.get(c)
            new: dict[int, GaussInt] = {}
            if vc is None:
                for j, v in row.items():
                    w = _gi_divexact(_gi_mul(piv, v), prev)
                    if w != _GI_ZERO:
                        new[j] = w
            else:
                for j in row.keys() | prow.keys():
                    v = row.get(j, _GI_ZERO)
                    u = prow.get(j, _GI_ZERO)
                    w = _gi_divexact(_gi_sub(_gi_mul(piv, v), _gi_mul(vc, u)), prev)
                    if w != _GI_ZERO:
                        new[j] = w
            rows[r] = new
        pivots.append((p, c))
        used_cols.add(c)
        prev = piv
        active = [r for r in active if rows[r]]
    remaining = [i for i in range(len(rows)) if i not in {p for p, _ in pivots}]
    return Echelon(pivots, rows, remaining, ncols)


def _matrix_int_rows(a: ScalarMatrix) -> list[dict[int, GaussInt]]:
    return [_scale_row_to_ints(row) for row in a.sparse_rows()]


def rank(a: ScalarMatrix) -> int:
    """Exact rank via fraction-free elimination with full pivoting."""
    if a.rows == 0 or a.cols == 0:
        return 0
    return _eliminate(_matrix_int_rows(a), a.cols).rank


def _gi_to_scalar(x: GaussInt) -> Scalar:
    return Scalar(x[0], x[1])


def _back_substitute(ech: Echelon, assigned: dict[int, Scalar]) -> dict[int, Scalar]:
    """Complete `assigned` (values for non-pivot columns) to a full solution
    of [rows | implicit 0 rhs] by reverse pivot-order substitution."""
    values = dict(assigned)
    for (p, c) in reversed(ech.pivots):
        row = ech.rows[p]
        acc = ZERO
        for j, v in row.items():
            if j == c:
                continue
            xj = values.get(j, ZERO)
            if not xj.is_zero():
                acc = acc + _gi_to_scalar(v) * xj
        piv = _gi_to_scalar(row[c])
        values[c] = -acc / piv
    return values


def solve_linear(a: ScalarMatrix, b: Sequence[Scalar]):
    """Solve a x = b exactly.  Returns a list of Scalars (one particular
    solution, free variables set to zero) or NO_SOLUTION."""
    return solve_sparse(a.sparse_rows(), b, a.cols)


def solve_sparse(rows: Sequence[dict[int, Scalar]], b: Sequence[Scalar], ncols: int):
    """solve_linear for a matrix given by its sparse rows (column index ->
    nonzero Scalar, every index below ncols)."""
    if len(b) != len(rows):
        raise ValueError("rhs length mismatch")
    rhs_col = ncols  # augmented column index
    int_rows: list[dict[int, GaussInt]] = []
    for row, bi in zip(rows, b):
        aug = dict(row)
        if not bi.is_zero():
            aug[rhs_col] = bi
        int_rows.append(_scale_row_to_ints(aug))
    ech = _eliminate(int_rows, ncols + 1, allowed_cols=set(range(ncols)))
    for i in ech.free_rows:
        if int_rows[i]:
            # nonzero leftovers can only live in the rhs column
            return NO_SOLUTION
    # move the rhs to the other side: solve [A | -b] style via assignment
    values = {rhs_col: Scalar(-1)}
    values = _back_substitute(ech, values)
    return [values.get(j, ZERO) for j in range(ncols)]


def kernel_data(a: ScalarMatrix) -> tuple[ScalarMatrix, list[int]]:
    """Exact right-kernel basis together with the free-column indices.

    Basis column t has value 1 at coordinate free[t] and 0 at every other
    free coordinate, so the coefficients of any kernel vector over this
    basis can be read off at the free coordinates without solving.
    """
    if a.cols == 0:
        return ScalarMatrix.zeros(0, 0), []
    ech = _eliminate(_matrix_int_rows(a), a.cols)
    pivot_cols = {c for _, c in ech.pivots}
    free_cols = [j for j in range(a.cols) if j not in pivot_cols]
    basis: list[list[Scalar]] = []
    for f in free_cols:
        values = _back_substitute(ech, {f: ONE})
        basis.append([values.get(j, ZERO) for j in range(a.cols)])
    return ScalarMatrix.from_columns(basis, a.cols), free_cols


def kernel_basis(a: ScalarMatrix) -> ScalarMatrix:
    """Exact right-kernel basis; columns of the result span ker(a)."""
    return kernel_data(a)[0]


# ---------------------------------------------------------------------------
# Incremental span over Q(i): sparse reduced echelon for repeated insertion
# ---------------------------------------------------------------------------


class ScalarSpan:
    """Incrementally built subspace of Q(i)^n given by sparse vectors.

    Vectors are dicts coord -> Scalar.  Basis vectors are kept with their
    pivot entry normalized to 1; insert() reduces the incoming vector against
    the basis and either absorbs it (returns True, span grew) or discards it
    (returns False, vector was dependent).
    """

    __slots__ = ("pivot_to_index", "basis")

    def __init__(self):
        self.pivot_to_index: dict[int, int] = {}
        self.basis: list[dict[int, Scalar]] = []

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: dict[int, Scalar]) -> dict[int, Scalar]:
        # Always reduce against the earliest-inserted basis vector first.
        # Basis vectors are not back-reduced, but vector t only contains
        # pivot coordinates of vectors inserted after t, so the minimal
        # basis index present strictly increases and the loop terminates.
        v = dict(vec)
        while True:
            c_min = None
            idx_min = None
            for c in v:
                idx = self.pivot_to_index.get(c)
                if idx is not None and (idx_min is None or idx < idx_min):
                    c_min, idx_min = c, idx
            if c_min is None:
                return v
            coeff = v[c_min]
            for j, w in self.basis[idx_min].items():
                cur = v.get(j, ZERO) - coeff * w
                if cur.is_zero():
                    v.pop(j, None)
                else:
                    v[j] = cur

    def insert(self, vec: dict[int, Scalar]) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        # smallest coordinate as pivot keeps the choice deterministic
        piv = min(v)
        inv = v[piv].inverse()
        normalized = {j: inv * w for j, w in v.items()}
        self.pivot_to_index[piv] = len(self.basis)
        self.basis.append(normalized)
        return True

    def contains(self, vec: dict[int, Scalar]) -> bool:
        return not self.reduce(vec)


# ---------------------------------------------------------------------------
# Float backend
# ---------------------------------------------------------------------------


def to_complex_array(a: ScalarMatrix):
    import numpy as np

    out = np.zeros((a.rows, a.cols), dtype=complex)
    for r in range(a.rows):
        base = r * a.cols
        for c in range(a.cols):
            v = a.entries[base + c]
            if not v.is_zero():
                out[r, c] = complex(v)
    return out


def rank_float(a: ScalarMatrix, tol: float = 1e-9) -> int:
    """Float rank: count singular values above tol.

    Emits IllConditionedWarning when any singular value lands in the band
    [tol/10, 10*tol], where the answer is numerically ambiguous.
    """
    import numpy as np

    if a.rows == 0 or a.cols == 0:
        return 0
    sv = np.linalg.svd(to_complex_array(a), compute_uv=False)
    lo, hi = tol / 10.0, tol * 10.0
    if any(lo <= s <= hi for s in sv):
        warnings.warn(
            f"singular value inside ambiguous band [{lo:g}, {hi:g}]",
            IllConditionedWarning,
            stacklevel=2,
        )
    return int(sum(1 for s in sv if s > tol))
