"""Integer linear algebra: Hermite/Smith normal forms, congruence solving
and kernels modulo a lattice.

Conventions, fixed repo-wide: vectors are rows, relation systems and lattice
bases are matrix *rows*, and linear maps act by right multiplication
(``x -> x @ A``).  A lattice, a basis or a coordinate transform is the
tuple of its rows, each a tuple of ints.  `IntMatrix(data, cols)` is only
what `hnf` and `snf` take and return: given the rows and their width, it
checks every row's width and counts the rows, and the benchmark's tracer
reads those counts and rows at these two calls.  All arithmetic uses
Python's unbounded integers.

Every lattice the package builds contains D*Z^n for a known D (the
exponent of the ambient group, or of a codomain), so its HNF is taken
modulo D and no entry exceeds D; solving congruences is taken modulo the
exponent too.  Only the Smith form of a presentation is exact, together
with its right transform and that transform's inverse, and lets
intermediate entries grow past any machine width.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import mod
from typing import Iterable, NamedTuple, Sequence

from .intstr import int_to_str


class DimensionError(ValueError):
    """Matrix/vector shapes are incompatible."""


class NotUnimodularError(ValueError):
    """A matrix expected to be invertible modulo a given modulus is not."""


class IntMatrix:
    """Immutable dense integer matrix, row major: the argument and the
    results of `hnf` and `snf`."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], cols: int):
        entries = tuple(map(tuple, data))
        for row in entries:
            if len(row) != cols:
                raise DimensionError(f"expected {cols} columns, got {len(row)}")
        self.rows = len(entries)
        self.cols = cols
        self.data = entries

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self.cols == other.cols
                and self.data == other.data)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {[list(row) for row in self.data]!r})"


def diagonal(entries: Sequence[int]) -> tuple:
    """The rows of the square matrix with `entries` on its diagonal."""
    n = len(entries)
    return tuple((0,) * i + (d,) + (0,) * (n - 1 - i) for i, d in enumerate(entries))


def lincomb(coeffs: Sequence[int], rows, n: int) -> list:
    """sum_i coeffs_i * rows_i for rows of length n, as a list.  The one
    product kernel: every product of the package, user to canonical
    coordinates, r*m on generator tables and packed operator rows alike,
    is this.  Zero coefficients are skipped, the first term
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
    built, a unimodular v, and vinv with vinv @ v = I exactly.  All three
    are exact: a caller reduces the entries it keeps.

    Diagonal entries of d are nonnegative and form a divisibility chain
    d[0] | d[1] | ...; all off-diagonal entries are zero.
    """

    d: IntMatrix
    v: IntMatrix
    vinv: IntMatrix


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form over the integers.

    Pivoting is deterministic (smallest absolute nonzero entry, row-major
    tie break) so repeated runs of anything built on top produce identical
    transforms.  The pivot search and the test that the pivot divides the
    trailing block are each one C-level pass (min or any over map and
    filter) over the block's rows, not one Python step per entry.  Row
    operations act on the working matrix only: no caller reads the left
    transform, so it is never accumulated.  Each column operation on v is
    undone by the inverse row operation on vinv (Cohen, Alg. 2.4.14):
    `col j += q*col k` by `row k -= q*row j`, a column swap by a row swap.
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m.data]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    vinv = [row[:] for row in v]

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
        vinv[k] = [x - q * y for x, y in zip(vinv[k], vinv[j])]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    t = 0
    while t < r and t < c:
        # Rows t.. are zero left of column t, so the trailing block holds
        # every nonzero entry of those whole rows.  Its least |entry| is
        # one C-level pass over them, and its row-major first occurrence
        # is the first row holding it, at that row's first column holding it.
        best = min(filter(None, map(abs, chain.from_iterable(a[t:]))), default=0)
        if not best:
            break
        for pi in range(t, r):
            if best in a[pi] or -best in a[pi]:
                break
        pj = list(map(abs, a[pi])).index(best)
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
        # diagonal would not be a divisibility chain.  The rows below t are
        # zero up to column t by now, so whole rows are tested: one pass
        # over the block, and a search for the first failing row only when
        # it fails, which is rare.
        p = a[t][t]
        if p != 1 and any(map(mod, filter(None, chain.from_iterable(a[t + 1:])), repeat(p))):
            fix = next(i for i in range(t + 1, r) if any(map(mod, filter(None, a[i]), repeat(p))))
            row_addmul(t, fix, 1)
            continue
        t += 1

    return SnfResult(IntMatrix(a, c), IntMatrix(v, c), IntMatrix(vinv, c))


class Hnf(NamedTuple):
    """Row Hermite normal form, as a one-field tuple."""

    h: IntMatrix


def hnf(m: IntMatrix, modulus: int) -> Hnf:
    """Row Hermite normal form modulo D = `modulus` > 0: pivots positive,
    entries above each pivot reduced into [0, pivot).

    The lattice is the row span of m plus D*Z^c, and the result is its
    c x c basis, whose diagonal entries all divide D.  Every row operation
    is reduced modulo D, and D*e_j is the last row folded at column j,
    by the same gcd step as every other row (Domich, Kannan & Trotter
    1987; Cohen, Alg. 2.4.8), so no entry exceeds D and pivot j divides D.
    The HNF of a lattice holding D*Z^c is unique, so the order of the
    folds does not change the result.  A fold by a multiple of the pivot
    row, and the reduction of the rows above it, touch only the pivot's
    nonzero columns, in place: the working rows are fresh lists from the
    first reduction modulo D, so the rows of m are never written.  When the
    rows of m already span D*Z^c this is the exact HNF of m without its
    zero rows.  A caller that needs the transform t with t @ m = h reads
    it from the HNF of [m | I]: its left block is h, its right one t.
    """
    c, mod = m.cols, modulus
    if mod <= 0:
        raise ValueError(f"hnf modulus must be positive, got {mod}")
    rows = [[x % mod for x in row] for row in m.data]
    rows = [row for row in rows if any(row)]
    out = []
    for j in range(c):
        # Every row left in `rows` is zero before column j.  Fold the ones
        # that are not zero at j, and last D*e_j, into a single pivot row
        # by gcd steps; what stays of D*e_j is zero at j.
        unit = [0] * c
        unit[j] = mod
        pivot = None
        rest = []
        for row in chain(rows, (unit,)):
            x = row[j]
            if not x:
                rest.append(row)
                continue
            if pivot is None:
                pivot = row
                support = list(compress(range(c), pivot))
                continue
            y = pivot[j]
            if x % y == 0:
                q = x // y
                for t in support:
                    row[t] = (row[t] - q * pivot[t]) % mod
            else:
                g, s, t = xgcd(y, x)
                u, w = y // g, x // g
                pivot, row = ([(s * p + t * z) % mod for p, z in zip(pivot, row)],
                              [(u * z - w * p) % mod for p, z in zip(pivot, row)])
                support = list(compress(range(c), pivot))
            if any(row):
                rest.append(row)
        piv = pivot[j]
        for prev in out:
            q = prev[j] // piv
            if q:
                for t in support:
                    prev[t] = (prev[t] - q * pivot[t]) % mod
        out.append(pivot)
        rows = rest
    return Hnf(IntMatrix(out, c))


def _with_identity(rows) -> list:
    """[m | I] for the rows of m, whose HNF carries the transform in its
    right block."""
    r = len(rows)
    return [tuple(row) + tuple(1 if j == i else 0 for j in range(r))
            for i, row in enumerate(rows)]


def invert_unimodular(m, modulus: int) -> tuple:
    """Rows of the inverse modulo D = `modulus` of the square matrix with
    rows m, with entries in [0, D): m only has to be invertible modulo D,
    and the HNF of [m | I] runs mod D.  No caller in the package: it is the
    tests' reference for `snf`'s vinv, and a layer the benchmark traces."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotUnimodularError("not square")
    top = hnf(IntMatrix(_with_identity(m), 2 * n), modulus).h.data[:n]
    if tuple(row[:n] for row in top) != diagonal([1] * n):
        raise NotUnimodularError(f"matrix is not invertible modulo {int_to_str(modulus)}")
    return tuple(row[n:] for row in top)


def in_lattice(h, v: Sequence[int]) -> bool:
    """Membership of a row vector in the lattice of the rows h, a square
    full-rank HNF as every subgroup basis is: row j in turn clears v at
    column j."""
    residual = list(v)
    for j, row in enumerate(h):
        q, rem = divmod(residual[j], row[j])
        if rem:
            return False
        if q:
            for k, x in compress(enumerate(row), row):
                residual[k] -= q * x
    return True


def solve_congruence(a, t: Sequence[int], moduli: Sequence[int], modulus: int):
    """An integer row vector x with (x @ a)_j = t_j modulo moduli[j] for
    every column j of the rows a, or None when there is none.  Every
    modulus divides D = `modulus`.

    Scaled by D/moduli[j], column j of [-t ; a] is one congruence modulo D
    on (lambda, x).  The HNF modulo D of those columns, taken as rows,
    states the same congruences in k + 1 rows; the solutions of its
    transpose modulo D form a lattice, a kernel with no rows l, and x is
    the x part of its first HNF row when that row's lambda pivot is 1.
    """
    n, k = len(t), len(a)
    if len(moduli) != n or any(len(row) != n for row in a):
        raise DimensionError("solve_congruence: column counts differ")
    cols = [[-t[j] * (modulus // q)] + [row[j] * (modulus // q) for row in a]
            for j, q in enumerate(moduli)]
    h = hnf(IntMatrix(cols, k + 1), modulus).h
    first = kernel_mod_lattice(tuple(zip(*h.data)), (), modulus)[0]
    return list(first[1:]) if first[0] == 1 else None


def kernel_mod_lattice(a, l, modulus: int) -> tuple:
    """HNF basis rows of the kernel of x -> x @ a, from Z^k for the k rows
    a, into Z^n / (L(l) + D*Z^n): the codomain lattice is the row lattice
    L(l) of l plus D*Z^n, for D = `modulus` > 0.

    The kernel holds D*Z^k, so the result is k x k.  One HNF modulo D of
    [a | I ; l | 0] gives it as its bottom k rows, since `hnf` folds D*e_j
    into every column.  The stacked matrix checks that every row of a and
    l has the width n of the first.
    """
    n, k = len(next(chain(a, l), ())), len(a)
    rows = _with_identity(a)
    rows.extend(tuple(row) + (0,) * k for row in l)
    h = hnf(IntMatrix(rows, n + k), modulus).h
    ker = tuple(row[n:] for row in h.data if not any(row[:n]) and any(row[n:]))
    if len(ker) != k:
        raise RuntimeError("kernel basis does not have full rank")
    return ker
