"""Exact integer linear algebra: Hermite/Smith normal forms, congruence
solving and kernels modulo a lattice.

Conventions, fixed repo-wide: vectors are rows, relation systems and lattice
bases are matrix *rows*, and linear maps act by right multiplication
(``x -> x @ A``).  All arithmetic uses Python's unbounded integers.

Every lattice the rest of the package builds contains D*Z^n for a known D
(the exponent of the ambient group, or of a codomain), so its HNF is taken
modulo D and no entry exceeds D.  Only the exact paths, the Smith form
of a presentation, inversion and congruence solving, let intermediate
entries grow past any machine width.
"""

from __future__ import annotations

from itertools import compress
from math import prod
from typing import Iterable, NamedTuple, Optional, Sequence


class DimensionError(ValueError):
    """Matrix/vector shapes are incompatible."""


class NotUnimodularError(ValueError):
    """A matrix expected to be invertible over the integers is not."""


class InfiniteCodomainError(ValueError):
    """A lattice expected to have full rank (finite quotient) does not."""


class IntMatrix:
    """Immutable dense integer matrix, row major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable[int]]):
        entries = tuple(tuple(int(x) for x in row) for row in data)
        if len(entries) != rows:
            raise DimensionError(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise DimensionError(f"expected {cols} columns, got {len(row)}")
        self.rows = rows
        self.cols = cols
        self.data = entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        if cols is None:
            if not rows:
                raise DimensionError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return cls(n, n, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def diagonal_entries(self) -> list:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def to_lists(self) -> list:
        return [list(row) for row in self.data]

    def take_columns(self, idxs: Sequence[int]) -> "IntMatrix":
        return IntMatrix(self.rows, len(idxs), [[row[j] for j in idxs] for row in self.data])

    def take_rows(self, idxs: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(idxs), self.cols, [self.data[i] for i in idxs])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_lists()!r})"


def lincomb(coeffs: Sequence[int], rows, n: int) -> list:
    """sum_i coeffs_i * rows_i for rows of length n, as a list.  One of the
    two product kernels: every product of the package, user to canonical
    coordinates, r*m on generator tables and packed operator rows alike,
    is this or `bilinear`.  Zero coefficients are skipped, the first term
    is copied, and every later term costs only its nonzero entries, which
    `compress` finds at C level."""
    terms = compress(zip(coeffs, rows), coeffs)
    c, row = next(terms, (0, None))
    if row is None:
        return [0] * n
    acc = list(row) if c == 1 else [c * x for x in row]
    for c, row in terms:
        for t, x in compress(enumerate(row), row):
            acc[t] += c * x
    return acc


def bilinear(table, u: Sequence[int], w: Sequence[int], n: int) -> list:
    """sum_{i,j} u_i * w_j * table[i][j], as a list of n entries, for a
    table of length-n rows."""
    return lincomb(list(filter(None, u)),
                   [lincomb(w, row, n) for row in compress(table, u)], n)


def vec_mat(v: Sequence[int], m: IntMatrix) -> list:
    """Row vector times matrix."""
    if len(v) != m.rows:
        raise DimensionError(f"vector of length {len(v)} times {m.rows}x{m.cols}")
    return lincomb(v, m.data, m.cols)


def xgcd(a: int, b: int) -> tuple:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class SnfResult(NamedTuple):
    """Smith normal form of m: d = u @ m @ v for a unimodular u that is not
    built, and a unimodular v.

    Diagonal entries of d are nonnegative and form a divisibility chain
    d[0] | d[1] | ...; all off-diagonal entries are zero.
    """

    d: IntMatrix
    v: IntMatrix


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form over the integers.

    Pivoting is deterministic (smallest absolute nonzero entry, row-major
    tie break) so repeated runs of anything built on top produce identical
    transforms.  Row operations act on the working matrix only: no caller
    reads the left transform, so it is never accumulated.
    """
    r, c = m.rows, m.cols
    a = m.to_lists()
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_addmul(i, k, q):
        ai, ak = a[i], a[k]
        for j in range(c):
            ai[j] += q * ak[j]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]

    def col_addmul(j, k, q):
        for row in a:
            row[j] += q * row[k]
        for row in v:
            row[j] += q * row[k]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < r and t < c:
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)

        while True:
            dirty = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_addmul(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_addmul(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

        # The pivot must divide every entry of the trailing block, or the
        # diagonal would not be a divisibility chain.
        p = a[t][t]
        fix = None
        for i in range(t + 1, r):
            if any(x % p for x in a[i][t + 1:]):
                fix = i
                break
        if fix is not None:
            row_addmul(t, fix, 1)
            continue
        t += 1

    return SnfResult(IntMatrix(r, c, a), IntMatrix(c, c, v))


class Hnf(NamedTuple):
    """Row Hermite normal form, as a one-field tuple."""

    h: IntMatrix


def hnf(m: IntMatrix, modulus: Optional[int] = None) -> Hnf:
    """Row Hermite normal form: pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows at the bottom.

    Without a modulus the result is the HNF of the row lattice of m, with
    the shape of m.  A caller that needs the transform t with t @ m = h
    reads it from the HNF of [m | I]: its left block is h, its right one t.

    With a modulus D > 0 the lattice is the row span of m plus D*Z^c, and
    the result is its c x c basis, whose diagonal entries all divide D.
    Every row operation is reduced modulo D and D*e_j is folded in at
    column j (Domich, Kannan & Trotter 1987; Cohen, Alg. 2.4.8), so no
    entry exceeds D.  When the rows of m already span D*Z^c this is
    the exact HNF of m without its zero rows.
    """
    r, c = m.rows, m.cols
    mod = modulus
    if mod is not None and mod <= 0:
        raise ValueError(f"hnf modulus must be positive, got {mod}")
    if mod is None:
        rows = [list(row) for row in m.data if any(row)]
    else:
        rows = [[x % mod for x in row] for row in m.data]
        rows = [row for row in rows if any(row)]
    out = []
    for j in range(c):
        # Every row left in `rows` is zero before column j.  Fold the ones
        # that are not zero at j into a single pivot row by gcd steps.
        pivot = None
        rest = []
        for row in rows:
            x = row[j]
            if not x:
                rest.append(row)
                continue
            if pivot is None:
                pivot = row
                continue
            y = pivot[j]
            if x % y == 0:
                q = x // y
                row = [s - q * t for s, t in zip(row, pivot)]
            else:
                g, s, t = xgcd(y, x)
                u, w = y // g, x // g
                pivot, row = ([s * p + t * z for p, z in zip(pivot, row)],
                              [u * z - w * p for p, z in zip(pivot, row)])
                if mod is not None:
                    pivot = [p % mod for p in pivot]
            if mod is not None:
                row = [z % mod for z in row]
            if any(row):
                rest.append(row)
        if mod is not None:
            # The lattice holds mod*e_j: the pivot becomes gcd(pivot, mod),
            # and (mod/g) times the old pivot row, which vanishes at j, stays
            # behind for the later columns.
            if pivot is None:
                pivot = [0] * c
                pivot[j] = mod
            else:
                g, s, _ = xgcd(pivot[j], mod)
                extra = [(mod // g) * p % mod for p in pivot]
                if any(extra):
                    rest.append(extra)
                pivot = [s * p % mod for p in pivot]
        elif pivot is None:
            rows = rest
            continue
        elif pivot[j] < 0:
            pivot = [-p for p in pivot]
        piv = pivot[j]
        for i, prev in enumerate(out):
            q = prev[j] // piv
            if q:
                prev = [s - q * t for s, t in zip(prev, pivot)]
                if mod is not None:
                    prev = prev[:j + 1] + [s % mod for s in prev[j + 1:]]
                out[i] = prev
        out.append(pivot)
        rows = rest
    if mod is None:
        out.extend([0] * c for _ in range(r - len(out)))
    return Hnf(IntMatrix(len(out), c, out))


def _with_identity(m: IntMatrix) -> IntMatrix:
    """[m | I], whose HNF carries the transform in its right block."""
    r = m.rows
    return IntMatrix(r, m.cols + r, [list(row) + [1 if j == i else 0 for j in range(r)]
                                     for i, row in enumerate(m.data)])


def invert_unimodular(m: IntMatrix, modulus: Optional[int] = None) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1.

    With a modulus D, the inverse modulo D with entries in [0, D): m then
    only has to be invertible modulo D, and the HNF of [m | I] runs mod D.
    """
    if m.rows != m.cols:
        raise NotUnimodularError("not square")
    n = m.rows
    top = hnf(_with_identity(m), modulus).h.take_rows(range(n))
    if top.take_columns(range(n)) != IntMatrix.identity(n):
        raise NotUnimodularError("matrix is not unimodular" if modulus is None
                                 else f"matrix is not invertible modulo {modulus}")
    return top.take_columns(range(n, 2 * n))


def _echelon_pivots(h: IntMatrix) -> list:
    pivots = []
    for i, row in enumerate(h.data):
        j = next((k for k, x in enumerate(row) if x), None)
        if j is not None:
            pivots.append((i, j))
    return pivots


def _reduce_exact(h: IntMatrix, target: Sequence[int]):
    """Solve v @ h = target exactly for h in row echelon form.

    Returns the coefficient vector over the rows of h, or None when target
    is outside the row span.
    """
    residual = list(target)
    coeffs = [0] * h.rows
    for p, j in _echelon_pivots(h):
        q, rem = divmod(residual[j], h.data[p][j])
        if rem:
            return None
        if q:
            coeffs[p] = q
            row = h.data[p]
            for k in range(j, h.cols):
                if row[k]:
                    residual[k] -= q * row[k]
    if any(residual):
        return None
    return coeffs


def in_lattice(basis: IntMatrix, v: Sequence[int]) -> bool:
    """Membership of a row vector in the row lattice of `basis`."""
    return _reduce_exact(hnf(basis).h, v) is not None


def solve_congruence(a: IntMatrix, l: IntMatrix, t: Sequence[int]):
    """Find an integer row vector x with x @ a = t modulo the row lattice of l.

    `a` is k x n, `l` spans a sublattice of Z^n (possibly with zero rows),
    and t has length n.  Returns x of length k, or None when no solution
    exists.  Any returned solution is re-verified by substitution.
    """
    if a.cols != l.cols or len(t) != a.cols:
        raise DimensionError("solve_congruence: column counts differ")
    n, k = a.cols, a.rows
    # HNF of [a | I ; l | 0]: the rows whose left part is nonzero form the
    # HNF of the span of a and l, and their right parts say which
    # combination of the rows of a each one is.
    stacked = _with_identity(a).data + tuple(tuple(row) + (0,) * k for row in l.data)
    h = hnf(IntMatrix(len(stacked), n + k, stacked)).h
    top = [row for row in h.data if any(row[:n])]
    coeffs = _reduce_exact(IntMatrix(len(top), n, [row[:n] for row in top]), t)
    if coeffs is None:
        return None
    x = vec_mat(coeffs, IntMatrix(len(top), k, [row[n:] for row in top]))
    check = vec_mat(x, a)
    diff = [check[j] - t[j] for j in range(n)]
    if not in_lattice(l, diff):
        raise RuntimeError("solve_congruence produced an invalid solution")
    return x


def kernel_mod_lattice(a: IntMatrix, l: IntMatrix, domain: Optional[IntMatrix] = None,
                       modulus: Optional[int] = None) -> IntMatrix:
    """HNF basis of {x in Z^k : x @ a lies in the row lattice of l}, plus
    the row lattice of `domain` (k columns) when one is given.

    l must span a full-rank sublattice of Z^n so that the codomain Z^n/l is
    finite; then the result has full rank k and is k x k.  `modulus` is a
    positive D with D*Z^n inside the lattice of l (D kills the codomain);
    without one, D is the order of the codomain.  One HNF of
    [a | I ; l | 0 ; 0 | domain] modulo D gives the basis as its bottom k
    rows: the stacked lattice contains D*Z^(n+k), because D*(a_i | e_i)
    minus D*a_i in l is D*e_i.
    """
    if a.cols != l.cols:
        raise DimensionError("kernel_mod_lattice: column counts differ")
    n, k = a.cols, a.rows
    if domain is not None and domain.cols != k:
        raise DimensionError("kernel_mod_lattice: domain lattice has the wrong width")
    if modulus is None:
        hl = hnf(l).h
        pivots = _echelon_pivots(hl)
        if len(pivots) < n:
            raise InfiniteCodomainError("lattice does not have full rank; codomain is infinite")
        modulus = prod(hl.data[i][j] for i, j in pivots)
    rows = list(_with_identity(a).data)
    rows.extend(tuple(row) + (0,) * k for row in l.data)
    if domain is not None:
        rows.extend((0,) * n + tuple(row) for row in domain.data)
    h = hnf(IntMatrix(len(rows), n + k, rows), modulus).h
    ker = [row[n:] for row in h.data if not any(row[:n]) and any(row[n:])]
    if len(ker) != k:
        raise RuntimeError("kernel basis does not have full rank")
    return IntMatrix(k, k, ker)
