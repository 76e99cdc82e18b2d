"""Brute-force oracles and generators used to certify the library.

Everything here deliberately avoids the code paths it is used to check:
group orders come from coset BFS over HNF-reduced representatives, subgroup
and span questions from additive closure over coordinate tuples, the
instance parser's whole-row passes from a parse one table vector at a time,
and the Smith form's pivots from a scan one entry at a time.
"""

import json
from itertools import compress, count, product
from math import gcd, lcm

from modcyclic import instances
from modcyclic.abelian import NotFiniteError, _check_group, canonicalize, subgroup_span
from modcyclic.instances import gen_prod, gen_randquot, gen_trunc, gen_zmod
from modcyclic.intlinalg import DimensionError, Hnf, IntMatrix, diagonal, lincomb, snf, xgcd
from modcyclic.intstr import int_to_str
from modcyclic.modules import FiniteModule
from modcyclic.rings import Diagnostic, FiniteRing, NoIdentityError, find_identity


def bilinear(table, u, w, n):
    """sum_{i,j} u_i * w_j * table[i][j], as a list of n entries, for a
    table of length-n rows."""
    return lincomb(list(filter(None, u)),
                   [lincomb(w, row, n) for row in compress(table, u)], n)


def ring_mul(ring, a, b):
    """The product a*b of two ring elements, from the whole table at once."""
    _check_group(ring.group, a.group)
    _check_group(ring.group, b.group)
    return ring.group.element(bilinear(ring.mul_table, a.coords, b.coords, ring.group.rank))


def reference_products(coeffs, table, factors):
    """x*h_j for every column generator h_j of a generator table, x with
    coordinates `coeffs`: `lincomb` over the table's whole flat rows, then
    each product reduced modulo `factors`.  The reference for
    `rings.products`."""
    n = len(factors)
    flat = lincomb(coeffs, [[x for vec in row for x in vec] for row in table], n * n)
    return [tuple(x % d for x, d in zip(flat[j * n:(j + 1) * n], factors)) for j in range(n)]


def reference_images(coeffs, table, factors):
    """g_i*m for every row generator g_i of an action table, m with
    coordinates `coeffs`: one `lincomb` per row, reduced modulo `factors`.
    The reference for `FiniteModule.images`."""
    return [tuple(x % d for x, d in zip(lincomb(coeffs, row, len(factors)), factors))
            for row in table]


def vec_mat(v, m):
    """Row vector times IntMatrix, with one entry of v per row of m."""
    if len(v) != m.rows:
        raise DimensionError(f"vector of length {len(v)} times {m.rows}x{m.cols}")
    return lincomb(v, m.data, m.cols)


def diagonal_entries(m):
    """The entries m[i][i] of an IntMatrix, for i below both its sizes."""
    return [m.data[i][i] for i in range(min(m.rows, m.cols))]


def echelon_contains(h, v):
    """Membership of a row vector in the row lattice of h, any basis in row
    echelon form, zero rows allowed: each row in turn clears v at its
    pivot, found by search."""
    residual = list(v)
    for row in h.data:
        j = next(compress(count(), row), None)
        if j is None:
            continue
        q, rem = divmod(residual[j], row[j])
        if rem:
            return False
        if q:
            for k, x in compress(enumerate(row), row):
                residual[k] -= q * x
    return not any(residual)


def reference_snf(m):
    """`intlinalg.snf` with its pivot search and divisibility test one entry
    at a time: the smallest |entry| of the trailing block, the row-major
    first on ties, and the first row of the block with an entry the pivot
    does not divide.  Returns (d, v) as IntMatrix."""
    r, c = m.rows, m.cols
    a = [list(row) for row in m.data]
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

    return IntMatrix(a, c), IntMatrix(v, c)


def matmul(a, b):
    """The matrix product a @ b, one row of a at a time."""
    if a.cols != b.rows:
        raise DimensionError(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return IntMatrix([lincomb(row, b.data, b.cols) for row in a.data], b.cols)


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
    return Hnf(IntMatrix(out, c))


def det(m):
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
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
    the same row lattice, that is the same exact row HNF.  vinv is v's
    exact inverse.
    """
    res = snf(m)
    assert abs(det(res.v)) == 1
    assert matmul(res.vinv, res.v) == IntMatrix(diagonal([1] * m.cols), m.cols)
    assert exact_hnf(matmul(m, res.v)).h == exact_hnf(res.d).h
    diag = diagonal_entries(res.d)
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
    full = exact_hnf(IntMatrix([list(row) + [1 if j == i else 0 for j in range(r)]
                                for i, row in enumerate(m.data)], c + r)).h
    assert IntMatrix([row[:c] for row in full.data], c) == h
    t = IntMatrix([row[c:] for row in full.data], r)
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
    h = exact_hnf(IntMatrix([list(r) for r in relation_rows], k)).h
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


def scale(n, el):
    """n*el, an integer multiple of a group element."""
    return el.group.element(tuple(n * a for a in el.coords))


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
    return subgroup_span(ring.group, ring.group.gens())


def is_mult_closed(ring, ideal):
    """Is the subgroup `ideal` of the ring closed under multiplication by R?"""
    return all(ideal.contains(ring_mul(ring, g, s))
               for g in ring.group.gens() for s in ideal.basis_elements())


def random_matrix(rng, rows, cols, lo=-100, hi=100):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols)


def matrix(rows):
    """The IntMatrix of nonempty rows, its column count read from the
    first row."""
    return IntMatrix(rows, len(rows[0]))


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


# -- the per-vector parse: reference for the whole-row passes ---------------
#
# The instance parser decodes, converts, checks and contracts whole table
# rows at a time.  What follows computes the same results one table vector
# (or one table entry) at a time, the way the parser did before; the tests
# require both to agree exactly, in their tables and in their diagnostics
# and their order.

def reference_dumps(doc):
    """`instances.dumps` through the standard library's indenting encoder."""
    def s(x):
        return int_to_str(int(x))

    ring, module = doc["ring"], doc["module"]
    out = {
        "format": instances.FORMAT_NAME,
        "version": instances.FORMAT_VERSION,
        "ring": {
            "num_gens": ring["num_gens"],
            "relations": [[s(x) for x in row] for row in ring["relations"]],
            "mul": [[[s(x) for x in vec] for vec in row] for row in ring["mul"]],
        },
        "module": {
            "num_gens": module["num_gens"],
            "relations": [[s(x) for x in row] for row in module["relations"]],
            "action": [[[s(x) for x in vec] for vec in row] for row in module["action"]],
        },
    }
    if "one" in ring and ring["one"] is not None:
        out["ring"]["one"] = [s(x) for x in ring["one"]]
    return json.dumps(out, indent=2) + "\n"


def _reference_vector(value, length, path):
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise instances.InstanceFormatError(f"{path}: expected a vector of length {length}")
    return [instances._as_int(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _reference_table(value, rows, cols, veclen, path):
    if not isinstance(value, list) or len(value) != rows:
        raise instances.InstanceFormatError(f"{path}: expected {rows} rows")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise instances.InstanceFormatError(f"{path}[{i}]: expected {cols} entries")
        out.append([tuple(_reference_vector(v, veclen, f"{path}[{i}][{j}]"))
                    for j, v in enumerate(row)])
    return out


def reference_decode(obj):
    """`instances.decode_document`, one vector and one entry at a time:
    relations and `one` as lists, table vectors as tuples."""
    error = instances.InstanceFormatError
    if not isinstance(obj, dict):
        raise error("top level must be an object")
    for key in ("ring", "module"):
        if key not in obj:
            raise error(f"missing section: {key}")
        if not isinstance(obj[key], dict):
            raise error(f"{key} must be an object")
    rsec, msec = obj["ring"], obj["module"]
    k = instances._as_int(rsec.get("num_gens"), "ring.num_gens")
    if k < 0:
        raise error("ring.num_gens must be nonnegative")
    if not isinstance(rsec.get("relations"), list):
        raise error("ring.relations must be a list of rows")
    rrel = [_reference_vector(row, k, f"ring.relations[{i}]")
            for i, row in enumerate(rsec["relations"])]
    rmul = _reference_table(rsec.get("mul"), k, k, k, "ring.mul")
    one = None
    if rsec.get("one") is not None:
        one = _reference_vector(rsec["one"], k, "ring.one")
    m = instances._as_int(msec.get("num_gens"), "module.num_gens")
    if m < 0:
        raise error("module.num_gens must be nonnegative")
    if not isinstance(msec.get("relations"), list):
        raise error("module.relations must be a list of rows")
    mrel = [_reference_vector(row, m, f"module.relations[{i}]")
            for i, row in enumerate(msec["relations"])]
    action = _reference_table(msec.get("action"), k, m, m, "module.action")
    doc = {"ring": {"num_gens": k, "relations": rrel, "mul": rmul},
           "module": {"num_gens": m, "relations": mrel, "action": action}}
    if one is not None:
        doc["ring"]["one"] = one
    return doc


def _killed(vec, factors):
    return all(x % d == 0 for x, d in zip(vec, factors))


def _reference_descent(doc, mul_img, act_img, rg, mg):
    diags = []
    k, m = doc["ring"]["num_gens"], doc["module"]["num_gens"]
    dr, dm = rg.invariant_factors, mg.invariant_factors
    for ridx, rho in enumerate(doc["ring"]["relations"]):
        for j in range(k):
            left = lincomb(rho, [mul_img[i][j] for i in range(k)], rg.rank)
            right = lincomb(rho, mul_img[j], rg.rank)
            if not _killed(left, dr) or not _killed(right, dr):
                diags.append(Diagnostic("well-definedness", f"ring relation {ridx} x g{j}",
                                        "multiplication does not kill a stated ring relation"))
    for ridx, rho in enumerate(doc["ring"]["relations"]):
        for j in range(m):
            if not _killed(lincomb(rho, [act_img[i][j] for i in range(k)], mg.rank), dm):
                diags.append(Diagnostic("well-definedness", f"ring relation {ridx} x m{j}",
                                        "module action does not kill a stated ring relation"))
    for sidx, sigma in enumerate(doc["module"]["relations"]):
        for i in range(k):
            if not _killed(lincomb(sigma, act_img[i], mg.rank), dm):
                diags.append(Diagnostic("well-definedness", f"g{i} x module relation {sidx}",
                                        "module action does not kill a stated module relation"))
    return diags


def _reference_well_defined(table, row_orders, col_orders, col, what):
    return [Diagnostic("well-definedness", f"g{i}*{col}{j}",
                       f"{what} does not vanish under the generator orders ({di}, {dj})")
            for i, di in enumerate(row_orders) for j, dj in enumerate(col_orders)
            if not _killed([gcd(di, dj) * x for x in table[i][j]], col_orders)]


def _reference_assoc(ring, act_table, factors, label):
    """(g_i g_k) x_j against g_i (g_k x_j), one generator triple at a time,
    with no packing."""
    r, n = ring.group.rank, len(factors)
    failed = []
    for i in range(r):
        for k in range(r):
            for j in range(n):
                lhs = lincomb(ring.mul_table[i][k], [row[j] for row in act_table], n)
                rhs = lincomb(act_table[k][j], act_table[i], n)
                if not _killed([a - b for a, b in zip(lhs, rhs)], factors):
                    failed.append((i, k))
                    break
    return [Diagnostic("associativity", f"{label}(g{i}, g{k}, *)",
                       "(g_i*g_k)*x differs from g_i*(g_k*x) on a generator")
            for i, k in failed]


def _reference_ring_validate(ring):
    g = ring.group
    d, r, table = g.invariant_factors, g.rank, ring.mul_table
    diags = _reference_well_defined(table, d, d, "g", "product")
    for i in range(r):
        for j in range(i + 1, r):
            if table[i][j] != table[j][i]:
                diags.append(Diagnostic("commutativity", f"g{i}*g{j}",
                                        f"Element{table[i][j]} != Element{table[j][i]}"))
    diags.extend(_reference_assoc(ring, table, d, "mul"))
    for i, gen in enumerate(g.gens()):
        if ring_mul(ring, ring.one, gen) != gen:
            diags.append(Diagnostic(
                "identity", f"1*g{i}",
                f"identity candidate {ring.one!r} does not fix generator {i}"))
    return diags


def _reference_module_validate(module):
    ring, dm, table = module.ring, module.group.invariant_factors, module.action_table
    diags = _reference_well_defined(table, ring.group.invariant_factors, dm, "m",
                                    "action product")
    diags.extend(_reference_assoc(ring, table, dm, "act"))
    for j, gen in enumerate(module.group.gens()):
        if module.act(ring.one, gen) != gen:
            diags.append(Diagnostic("identity", f"1*m{j}",
                                    f"ring identity does not fix module generator {j}"))
    return diags


def reference_parse(obj):
    """What `instances.parse_instance(obj)` makes of a raw document,
    computed one table vector at a time: ("ok", ring table, action table,
    identity), ("invalid", diagnostics as strings), or the error type and
    message."""
    try:
        doc = reference_decode(obj)
        try:
            rg = canonicalize(doc["ring"]["relations"], doc["ring"]["num_gens"])
        except NotFiniteError as exc:
            raise NotFiniteError(f"ring: {exc}") from None
        try:
            mg = canonicalize(doc["module"]["relations"], doc["module"]["num_gens"])
        except NotFiniteError as exc:
            raise NotFiniteError(f"module: {exc}") from None
        r_to_can, m_to_can = IntMatrix(rg.to_can, rg.rank), IntMatrix(mg.to_can, mg.rank)
        mul_img = [[vec_mat(vec, r_to_can) for vec in row] for row in doc["ring"]["mul"]]
        act_img = [[vec_mat(vec, m_to_can) for vec in row] for row in doc["module"]["action"]]
        diags = _reference_descent(doc, mul_img, act_img, rg, mg)
        r_reps, m_reps = rg.from_can, mg.from_can
        mul_can = [[rg.reduce(bilinear(mul_img, ra, rb, rg.rank)) for rb in r_reps]
                   for ra in r_reps]
        act_can = [[mg.reduce(bilinear(act_img, ra, mb, mg.rank)) for mb in m_reps]
                   for ra in r_reps]
        if doc["ring"].get("one") is not None:
            one = rg.from_user(doc["ring"]["one"])
        elif diags:  # the identity is solved for only on well-defined tables
            return ("invalid", [str(d) for d in diags])
        else:
            try:
                one = find_identity(rg, mul_can)
            except NoIdentityError:
                diags.append(Diagnostic("identity", "ring", "no multiplicative identity exists"))
                one = rg.zero()
        ring = FiniteRing(rg, mul_can, one)
        module = FiniteModule(ring, mg, act_can)
        diags.extend(_reference_ring_validate(ring))
        diags.extend(_reference_module_validate(module))
    except Exception as exc:  # every error the parser raises is an outcome
        return f"{type(exc).__name__}: {exc}"
    if diags:
        return ("invalid", [str(d) for d in diags])
    return ("ok", ring.mul_table, module.action_table, one.coords)


def parse_outcome(obj):
    """`instances.parse_instance(obj)` in the form of `reference_parse`."""
    try:
        parsed = instances.parse_instance(obj)
    except instances.ValidationFailure as exc:
        return ("invalid", [str(d) for d in exc.diagnostics])
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return ("ok", parsed.ring.mul_table, parsed.module.action_table, parsed.ring.one.coords)
