"""Brute-force oracles and generators used to certify the library.

Everything here deliberately avoids the code paths it is used to check:
group orders come from coset BFS over HNF-reduced representatives, subgroup
and span questions from additive closure over coordinate tuples.
"""

from itertools import product
from math import gcd, lcm

from modcyclic.abelian import subgroup_span
from modcyclic.instances import gen_prod, gen_randquot, gen_trunc, gen_zmod
from modcyclic.intlinalg import DimensionError, Hnf, IntMatrix, lincomb, snf, xgcd


def matmul(a, b):
    """The matrix product a @ b, one row of a at a time."""
    if a.cols != b.rows:
        raise DimensionError(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return IntMatrix(a.rows, b.cols, [lincomb(row, b.data, b.cols) for row in a.data])


def exact_hnf(m):
    """Exact row HNF of the row lattice of m, with the shape of m: pivots
    positive, entries above each pivot in [0, pivot), zero rows at the
    bottom.  The reference the modular `hnf` is checked against."""
    r, c = m.rows, m.cols
    rows = [list(row) for row in m.data if any(row)]
    out = []
    for j in range(c):
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
            if any(row):
                rest.append(row)
        rows = rest
        if pivot is None:
            continue
        if pivot[j] < 0:
            pivot = [-p for p in pivot]
        for i, prev in enumerate(out):
            q = prev[j] // pivot[j]
            if q:
                out[i] = [s - q * t for s, t in zip(prev, pivot)]
        out.append(pivot)
    out.extend([0] * c for _ in range(r - len(out)))
    return Hnf(IntMatrix(r, c, out))


def det(m):
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def check_snf(m):
    """Assert every SnfResult invariant exactly; returns the result.

    A unimodular u with u @ m @ v = d exists exactly when m @ v and d have
    the same row lattice, that is the same exact row HNF.
    """
    res = snf(m)
    assert abs(det(res.v)) == 1
    assert exact_hnf(matmul(m, res.v)).h == exact_hnf(res.d).h
    diag = res.d.diagonal_entries()
    for i, x in enumerate(diag):
        assert x >= 0
        if i and diag[i - 1]:
            assert x % diag[i - 1] == 0 or x == 0
        if i and diag[i - 1] == 0:
            assert x == 0
    for i in range(res.d.rows):
        for j in range(res.d.cols):
            if i != j:
                assert res.d.data[i][j] == 0
    return res


def check_hnf(m):
    """Assert the row-HNF contract exactly; returns (h, t).

    The transform t is read from the HNF of [m | I], whose left block must
    be the HNF of m.
    """
    h = exact_hnf(m).h
    r, c = m.rows, m.cols
    full = exact_hnf(IntMatrix(r, c + r, [list(row) + [1 if j == i else 0 for j in range(r)]
                                    for i, row in enumerate(m.data)])).h
    assert full.take_columns(range(c)) == h
    t = full.take_columns(range(c, c + r))
    assert matmul(t, m) == h
    assert abs(det(t)) == 1
    last = -1
    seen_zero = False
    for row in h.data:
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            seen_zero = True
            continue
        assert not seen_zero, "nonzero row below a zero row"
        assert piv > last
        last = piv
        assert row[piv] > 0
    for i, row in enumerate(h.data):
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            continue
        for k in range(i):
            assert 0 <= h.data[k][piv] < row[piv]
    return h, t


def hnf_reduce(rows, v):
    """Unique representative of v modulo a full-rank upper-triangular HNF
    basis (pivots on the diagonal).

    Row i only touches coordinates >= i, so reducing i in increasing order
    leaves every earlier coordinate inside its fundamental range.
    """
    v = list(v)
    for i in range(len(v)):
        q = v[i] // rows[i][i]
        if q:
            for j in range(i, len(v)):
                v[j] -= q * rows[i][j]
    return tuple(v)


def group_order_by_enumeration(relation_rows, k):
    """|Z^k / L| by BFS over canonical coset representatives."""
    h = exact_hnf(IntMatrix.from_rows([list(r) for r in relation_rows], cols=k)).h
    rows = [list(r) for r in h.data if any(r)]
    assert len(rows) == k, "presentation is not finite"
    start = hnf_reduce(rows, [0] * k)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(k):
                w = list(v)
                w[i] += 1
                w = hnf_reduce(rows, w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def additive_closure(coords_list, factors):
    """All sums of the given canonical coordinate tuples, as a set."""
    zero = tuple(0 for _ in factors)
    gens = [tuple(c) for c in coords_list]
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % d for a, b, d in zip(v, g, factors))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def span_coords(ring, module, y):
    """R*y as a set of coordinate tuples, via additive closure of the
    generator actions."""
    images = [im.coords for im in module.images(y)]
    return additive_closure(images, module.group.invariant_factors)


def brute_cyclic(ring, module):
    """(is_cyclic, first generator coords in lex order)."""
    size = module.order
    for coords in product(*(range(d) for d in module.group.invariant_factors)):
        y = module.group.element(coords)
        if len(span_coords(ring, module, y)) == size:
            return True, coords
    return False, None


def additive_order(el):
    """Order of a group element: the lcm over its coordinates of
    d_i / gcd(c_i, d_i)."""
    n = 1
    for c, d in zip(el.coords, el.group.invariant_factors):
        n = lcm(n, d // gcd(c, d))
    return n


def subgroup_coords(sub):
    """Element coordinates of a subgroup by brute enumeration."""
    return {x.coords for x in sub.ambient.elements() if sub.contains(x)}


def submodule_span(module, gens):
    """Generators of the smallest submodule containing `gens`: the given
    elements followed by their distinct nonzero generator actions."""
    gens = list(gens)
    closure = list(gens)
    seen = {el.coords for el in gens}
    images = [module.images(el) for el in gens]
    for i in range(module.ring.group.rank):
        for ims in images:
            prod = ims[i]
            if not prod.is_zero() and prod.coords not in seen:
                seen.add(prod.coords)
                closure.append(prod)
    return tuple(closure)


def is_action_closed(module, gens):
    """Does the subgroup spanned by `gens` absorb every generator action?"""
    span = subgroup_span(module.group, gens)
    return all(span.contains(im) for el in gens for im in module.images(el))


def zero_ideal(ring):
    """The zero ideal of R, so A = R."""
    return subgroup_span(ring.group, [])


def unit_ideal(ring):
    return subgroup_span(ring.group, ring.gens())


def is_mult_closed(ring, ideal):
    """Is the subgroup `ideal` of the ring closed under multiplication by R?"""
    return all(ideal.contains(ring.mul(g, s))
               for g in ring.gens() for s in ideal.basis_elements())


def random_matrix(rng, rows, cols, lo=-100, hi=100):
    return IntMatrix(rows, cols,
                     [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_finite_presentation(rng, max_order=1000, max_gens=3):
    """A scrambled presentation of a group of known order.

    Starts from diag(d_1..d_k), appends redundant lattice rows, then applies
    random row operations (lattice preserved) and column operations (basis
    change); both leave the group order equal to prod(d_i).
    """
    k = rng.randint(1, max_gens)
    factors = []
    order = 1
    for _ in range(k):
        d = rng.randint(1, max(1, min(12, max_order // order)))
        factors.append(d)
        order *= d
    rows = [[factors[i] if j == i else 0 for j in range(k)] for i in range(k)]
    for _ in range(rng.randint(0, 2)):
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        rows.append([sum(c * rows[i][j] for i, c in enumerate(coeffs))
                     for j in range(k)])
    for _ in range(rng.randint(0, 6)):
        i, t = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != t:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[t])]
    for _ in range(rng.randint(0, 6)):
        i, t = rng.randrange(k), rng.randrange(k)
        if i != t:
            q = rng.randint(-3, 3)
            for row in rows:
                row[i] += q * row[t]
    return k, rows, order


def permute_module_gens(doc, perm):
    """Re-encode an instance with module generators permuted: new generator
    j is old generator perm[j]."""
    m = doc["module"]["num_gens"]
    assert sorted(perm) == list(range(m))

    def pvec(v):
        return [v[perm[t]] for t in range(m)]

    out = {
        "ring": {key: doc["ring"][key] for key in doc["ring"]},
        "module": {
            "num_gens": m,
            "relations": [pvec(row) for row in doc["module"]["relations"]],
            "action": [[pvec(doc["module"]["action"][i][perm[j]]) for j in range(m)]
                       for i in range(doc["ring"]["num_gens"])],
        },
    }
    return out


def build(spec):
    """The instance document of a family spec, as the golden files store
    them: {"family": ..., and the generator's parameters}."""
    fam = spec["family"]
    if fam == "zmod":
        return gen_zmod(spec["n"], spec["d"])
    if fam == "trunc":
        return gen_trunc(spec["p"], spec["e"], spec["mdeg"])
    if fam == "prod":
        return gen_prod(build(spec["left"]), build(spec["right"]))
    return gen_randquot(spec["n"], spec["seed"], max_deg=spec["max_deg"],
                        summands=spec["summands"])
