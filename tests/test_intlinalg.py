import random
from itertools import product
from math import gcd, lcm

import pytest

from modcyclic.intlinalg import (
    DimensionError,
    IntMatrix,
    NotUnimodularError,
    diagonal,
    hnf,
    in_lattice,
    invert_unimodular,
    kernel_mod_lattice,
    lincomb,
    snf,
    solve_congruence,
    xgcd,
)

from helpers import (
    bilinear,
    check_hnf,
    check_snf,
    det,
    diagonal_entries,
    echelon_contains,
    exact_hnf,
    matmul,
    matrix,
    random_matrix,
    reference_snf,
    vec_mat,
)


def identity(n):
    return IntMatrix(diagonal([1] * n), n)


def test_xgcd():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_product_kernels_vs_sums():
    # Sparse draws: zero coefficients, zero entries, a leading coefficient
    # of 1 (whose row is copied) and all-zero coefficient vectors.
    rng = random.Random(5)

    def draw(length):
        return [rng.choice([0, 0, 1, -2, 3]) for _ in range(length)]

    for _ in range(200):
        k, m, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        rows, coeffs = [draw(n) for _ in range(k)], draw(k)
        assert lincomb(coeffs, rows, n) == [sum(c * row[t] for c, row in zip(coeffs, rows))
                                            for t in range(n)]
        table = [[draw(n) for _ in range(m)] for _ in range(k)]
        u, w = draw(k), draw(m)
        assert bilinear(table, u, w, n) == [
            sum(u[i] * w[j] * table[i][j][t] for i in range(k) for j in range(m))
            for t in range(n)]
    assert lincomb([0, 0], [[1, 2], [3, 4]], 2) == [0, 0]


def test_snf_examples():
    res = check_snf(matrix([[2, 4], [6, 8]]))
    assert diagonal_entries(res.d) == [2, 4]

    res = check_snf(identity(2))
    assert res.d == identity(2)

    res = snf(IntMatrix([], 0))
    assert res.d.rows == 0 and res.d.cols == 0


def test_hnf_examples():
    for m in (matrix([[2, 0], [0, 3], [1, 1]]),
              matrix([[4, 2], [0, 6], [2, 4]])):
        h, t = check_hnf(m)
        # same row span: each generator of one lattice lies in the other
        for row in m.data:
            assert echelon_contains(h, row)
        for row in h.data:
            assert echelon_contains(exact_hnf(m).h, row)
        # `in_lattice` reads the square full-rank part, pivots on the diagonal
        square = h.data[:2]
        for v in product(range(-7, 8), repeat=2):
            assert in_lattice(square, v) == echelon_contains(h, v)

    h, _ = check_hnf(identity(3))
    assert h == identity(3)

    h, _ = check_hnf(IntMatrix([[0, 0, 0], [0, 0, 0]], 3))
    assert h == IntMatrix([[0, 0, 0], [0, 0, 0]], 3)


def test_hnf_modulus_matches_exact():
    # Random lattices that contain diag(d) for a divisibility chain d: modulo
    # D = d_r the HNF is the exact one without its zero rows, and no entry
    # exceeds D.
    rng = random.Random(248)
    for _ in range(300):
        c = rng.randint(1, 6)
        d = [rng.randint(1, 4)]
        for _ in range(c - 1):
            d.append(d[-1] * rng.randint(1, 3))
        rows = [[rng.randint(-40, 40) for _ in range(c)] for _ in range(rng.randint(0, 5))]
        rows.extend([d[i] if j == i else 0 for j in range(c)] for i in range(c))
        rng.shuffle(rows)
        m = IntMatrix(rows, c)
        big = d[-1]
        h = hnf(m, modulus=big).h
        exact = exact_hnf(m).h
        assert h.data == tuple(row for row in exact.data if any(row))
        for i, row in enumerate(h.data):
            assert big % row[i] == 0
            assert all(0 <= x < big for j, x in enumerate(row) if j != i)


def test_hnf_modulus_adds_the_multiples():
    # Without diag(d) in its rows, hnf(m, D) is the HNF of m plus D*Z^c,
    # for small D, for D = 1 and for D wider than 64 bits, with entries of
    # at most 5 or at most 81 bits.
    rng = random.Random(87)

    def cases():
        for _ in range(200):
            r, c = rng.randint(0, 5), rng.randint(1, 5)
            big = rng.randint(1, 60)
            yield big, random_matrix(rng, r, c, -30, 30)
        for big in (1, 2**70, 10**25 + 7):
            for bound in (30, 2**80):
                for _ in range(25):
                    r, c = rng.randint(0, 5), rng.randint(1, 5)
                    yield big, random_matrix(rng, r, c, -bound, bound)

    for big, m in cases():
        c = m.cols
        with_multiples = IntMatrix(m.data + diagonal([big] * c), c)
        exact = exact_hnf(with_multiples).h
        assert hnf(m, modulus=big).h == IntMatrix(exact.data[:c], c)
        assert not any(any(row) for row in exact.data[c:])
    with pytest.raises(ValueError):
        hnf(identity(2), modulus=0)


def test_hnf_of_sparse_matrices_matches_the_reference():
    # `hnf` folds and reduces over the pivot's nonzero columns only, in
    # place.  On seeded matrices with at least 80% zero entries, rows that
    # are zero modulo D and rows D*e_j, under prime and composite D, it
    # gives the HNF of m plus D*Z^c, and leaves its argument as it was.
    rng = random.Random(80)
    zeros = cells = 0
    for big in (2, 3, 7, 101, 2 ** 61 - 1, 4, 12, 360, 2 ** 70, 6 ** 30):
        for _ in range(30):
            r, c = rng.randint(1, 12), rng.randint(5, 12)
            rows = [[0] * c for _ in range(r)]
            for cell in rng.sample(range(r * c), rng.randint(0, r * c // 5)):
                rows[cell // c][cell % c] = rng.randint(-3 * big, 3 * big)
            for _ in range(rng.randint(0, 2)):  # zero modulo D, with at most one entry
                row = [0] * c
                row[rng.randrange(c)] = big * rng.randint(-2, 2)
                rows.append(row)
            for j in rng.sample(range(c), rng.randint(0, 2)):
                rows.append([big if i == j else 0 for i in range(c)])
            rng.shuffle(rows)
            m = IntMatrix(rows, c)
            before = [list(row) for row in m.data]
            zeros += sum(row.count(0) for row in m.data)
            cells += m.rows * c
            assert sum(row.count(0) for row in m.data) >= 0.8 * m.rows * c
            exact = exact_hnf(IntMatrix(m.data + diagonal([big] * c), c)).h
            assert hnf(m, modulus=big).h == IntMatrix(exact.data[:c], c)
            assert [list(row) for row in m.data] == before
    assert zeros >= 0.85 * cells


def test_snf_hnf_randomized():
    rng = random.Random(2024)
    for _ in range(250):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        m = random_matrix(rng, r, c, -30, 30)
        check_snf(m)
        check_hnf(m)


def pivot_cases(rng):
    """Matrices whose Smith pivots are decided by ties: entries from a few
    small absolute values of both signs, some rows and columns zeroed, up
    to 2c + 1 rows for c columns, and diagonal matrices."""
    for _ in range(1500):
        r, c = rng.randint(0, 7), rng.randint(0, 7)
        if rng.random() < 0.3:
            r = rng.randint(c, 2 * c + 1)
        rows = [[rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(c)] for _ in range(r)]
        for i in rng.sample(range(r), rng.randint(0, r // 2)):
            rows[i] = [0] * c
        for j in rng.sample(range(c), rng.randint(0, c // 2)):
            for row in rows:
                row[j] = 0
        yield IntMatrix(rows, c)
    for _ in range(200):
        n = rng.randint(1, 8)
        entries = [rng.choice((-6, -4, -3, -2, 0, 2, 3, 4, 6, 9)) for _ in range(n)]
        yield IntMatrix(diagonal(entries), n)
        yield IntMatrix(diagonal([entries[0]] * n), n)


def test_snf_pivots_match_the_reference():
    # The same pivots give the same row and column operations, so d and v
    # are those of the entry-by-entry scan, not just some Smith form.
    for m in pivot_cases(random.Random(1818)):
        res = snf(m)
        assert (res.d, res.v) == reference_snf(m), m


def test_snf_square_nonsingular_det_product():
    rng = random.Random(99)
    count = 0
    while count < 60:
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, -9, 9)
        dm = det(m)
        if dm == 0:
            continue
        count += 1
        res = check_snf(m)
        prod = 1
        for x in diagonal_entries(res.d):
            prod *= x
        assert prod == abs(dm)


def test_solve_congruence_examples():
    a = [[4]]
    x = solve_congruence(a, [8], [12], 12)
    assert x is not None and (4 * x[0] - 8) % 12 == 0

    assert solve_congruence(a, [0], [12], 12) == [0]

    assert solve_congruence([[2]], [1], [4], 4) is None


def test_solve_congruence_dimension_error():
    with pytest.raises(DimensionError):
        solve_congruence([[1, 2]], [1, 2], [3], 3)
    with pytest.raises(DimensionError):
        solve_congruence([[1, 2], [3]], [1, 2], [3, 3], 3)


def test_solve_congruence_vs_enumeration():
    rng = random.Random(5)
    for _ in range(120):
        k = rng.randint(1, 3)
        n = rng.randint(1, 3)
        diag = [rng.randint(1, 8) for _ in range(n)]
        a = random_matrix(rng, k, n, -6, 6)
        t = [rng.randint(-6, 6) for _ in range(n)]
        # x_i only matters modulo the order of row i in the codomain
        bounds = []
        for i in range(k):
            o = 1
            for j in range(n):
                d = diag[j]
                x = a.data[i][j] % d
                o = lcm(o, d // gcd(d, x) if x else 1)
            bounds.append(o)
        found = None
        for xs in product(*(range(b) for b in bounds)):
            img = vec_mat(list(xs), a)
            if all((img[j] - t[j]) % diag[j] == 0 for j in range(n)):
                found = xs
                break
        # any multiple of the moduli serves as the common modulus
        for big in (lcm(*diag), 6 * lcm(*diag)):
            got = solve_congruence(a.data, t, diag, big)
            assert (got is not None) == (found is not None)
            if got is not None:
                img = vec_mat(got, a)
                assert all((img[j] - t[j]) % diag[j] == 0 for j in range(n))


def test_kernel_examples():
    assert kernel_mod_lattice([[4]], [[12]], 12) == ((3,),)
    assert kernel_mod_lattice([[0, 0]] * 3, diagonal([5, 5]), 5) == diagonal([1, 1, 1])
    assert kernel_mod_lattice([[1]], [[7]], 7) == ((7,),)

    # rows of a and l that differ in width
    with pytest.raises(DimensionError):
        kernel_mod_lattice([[4]], [[12, 0]], 12)


def test_kernel_vs_enumeration():
    rng, draw_big = random.Random(31), random.Random(37)
    for _ in range(80):
        k = rng.randint(1, 3)
        n = rng.randint(1, 2)
        diag = [rng.randint(1, 6) for _ in range(n)]
        a = random_matrix(rng, k, n, -5, 5)
        basis = kernel_mod_lattice(a.data, diagonal(diag), lcm(*diag))
        # no rows l: the codomain lattice is D*Z^n alone
        big = draw_big.randint(1, 12)
        alone = kernel_mod_lattice(a.data, (), big)
        box = [max(max(diag), big) * 2] * k
        for xs in product(*(range(b) for b in box)):
            img = vec_mat(list(xs), a)
            in_ker = all(img[j] % diag[j] == 0 for j in range(n))
            assert in_ker == in_lattice(basis, list(xs))
            assert all(img[j] % big == 0 for j in range(n)) == in_lattice(alone, list(xs))


def test_invert_unimodular():
    rng = random.Random(17)
    big = 10 ** 30
    for _ in range(50):
        n = rng.randint(1, 5)
        m = [list(row) for row in diagonal([1] * n)]
        for _ in range(rng.randint(1, 12)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        # modulo a bound far past every entry, the symmetric lift is the
        # exact inverse
        inv_big = invert_unimodular(m, big)
        inv = IntMatrix([[x - big if 2 * x > big else x for x in row] for row in inv_big], n)
        assert matmul(inv, IntMatrix(m, n)) == identity(n)

        inv_mod = invert_unimodular(m, 10)
        assert inv_mod == tuple(tuple(x % 10 for x in row) for row in inv.data)

    with pytest.raises(NotUnimodularError):
        invert_unimodular([[2]], 4)
    with pytest.raises(NotUnimodularError):
        invert_unimodular([[1, 0]], 5)
    assert invert_unimodular([[2]], 5) == ((3,),)


def test_snf_inverse_is_the_inverse_modulo_any_modulus():
    # `invert_unimodular` is the reference: v^-1 is unique modulo e, so the
    # inverse `snf` builds beside v reduces to the one the HNF of [v | I]
    # gives.
    rng = random.Random(2414)
    for _ in range(150):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        res = check_snf(random_matrix(rng, r, c, -30, 30))
        for e in (1, 2, 12, rng.randint(2, 10 ** 6)):
            assert invert_unimodular(res.v.data, e) == tuple(
                tuple(x % e for x in row) for row in res.vinv.data)


def test_matrix_entries_from_lists_or_tuples():
    rows = [[1, -2, 3], [0, 4, 5]]
    from_lists = IntMatrix(rows, 3)
    from_tuples = IntMatrix(tuple(map(tuple, rows)), 3)
    assert from_lists == from_tuples
    assert from_lists.data == ((1, -2, 3), (0, 4, 5))
    assert (from_lists.rows, from_lists.cols) == (2, 3)
    with pytest.raises(DimensionError):
        IntMatrix(rows, 2)


def test_big_integer_exactness():
    # intermediate entries exceed any machine width; everything stays exact
    rng = random.Random(404)
    big = 10 ** 25
    for _ in range(10):
        m = random_matrix(rng, 4, 4, -big, big)
        check_snf(m)
        check_hnf(m)
    n = 10 ** 40
    x = solve_congruence([[7]], [3 * 7 % n], [n], n)
    assert x is not None and (7 * x[0] - 21) % n == 0


def test_det_small_cases():
    assert det(IntMatrix([], 0)) == 1
    assert det(matrix([[5]])) == 5
    assert det(matrix([[2, 4], [6, 8]])) == -8
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(rng, 3, 3, -6, 6)
        a = m.data
        expect = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                  - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                  + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        assert det(m) == expect
