import random
from itertools import product
from math import gcd, lcm

import pytest

from modcyclic.intlinalg import (
    DimensionError,
    InfiniteCodomainError,
    IntMatrix,
    NotUnimodularError,
    bilinear,
    hnf,
    in_lattice,
    invert_unimodular,
    kernel_mod_lattice,
    lincomb,
    snf,
    solve_congruence,
    vec_mat,
    xgcd,
)

from helpers import check_hnf, check_snf, det, matmul, random_matrix


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
    with pytest.raises(DimensionError):
        vec_mat([1, 2], IntMatrix.identity(3))


def test_snf_examples():
    res = check_snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert res.d.diagonal_entries() == [2, 4]

    res = check_snf(IntMatrix.identity(2))
    assert res.d == IntMatrix.identity(2)

    res = snf(IntMatrix(0, 0, []))
    assert res.d.rows == 0 and res.d.cols == 0


def test_hnf_examples():
    m = IntMatrix.from_rows([[2, 0], [0, 3], [1, 1]])
    h, t = check_hnf(m)
    # same row span: each generator of one lattice lies in the other
    for row in m.data:
        assert in_lattice(h, row)
    for row in h.data:
        assert in_lattice(m, row)

    h, _ = check_hnf(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)

    h, _ = check_hnf(IntMatrix(2, 3, [[0, 0, 0], [0, 0, 0]]))
    assert h == IntMatrix(2, 3, [[0, 0, 0], [0, 0, 0]])


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
        m = IntMatrix.from_rows(rows, cols=c)
        big = d[-1]
        h = hnf(m, modulus=big).h
        exact = hnf(m).h
        assert h.to_lists() == [row for row in exact.to_lists() if any(row)]
        for i, row in enumerate(h.data):
            assert big % row[i] == 0
            assert all(0 <= x < big for j, x in enumerate(row) if j != i)


def test_hnf_modulus_adds_the_multiples():
    # Without diag(d) in its rows, hnf(m, D) is the HNF of m plus D*Z^c.
    rng = random.Random(87)
    for _ in range(200):
        r, c = rng.randint(0, 5), rng.randint(1, 5)
        big = rng.randint(1, 60)
        m = random_matrix(rng, r, c, -30, 30)
        with_multiples = IntMatrix(r + c, c, list(m.data) + IntMatrix.diagonal([big] * c).to_lists())
        exact = hnf(with_multiples).h
        assert hnf(m, modulus=big).h == exact.take_rows(range(c))
        assert not any(any(row) for row in exact.data[c:])
    with pytest.raises(ValueError):
        hnf(IntMatrix.identity(2), modulus=0)


def test_snf_hnf_randomized():
    rng = random.Random(2024)
    for _ in range(250):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        m = random_matrix(rng, r, c, -30, 30)
        check_snf(m)
        check_hnf(m)


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
        for x in res.d.diagonal_entries():
            prod *= x
        assert prod == abs(dm)


def test_solve_congruence_examples():
    a = IntMatrix.from_rows([[4]])
    l = IntMatrix.from_rows([[12]])
    x = solve_congruence(a, l, [8])
    assert x is not None and (4 * x[0] - 8) % 12 == 0

    assert solve_congruence(a, l, [0]) == [0]

    assert solve_congruence(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]]), [1]) is None


def test_solve_congruence_dimension_error():
    with pytest.raises(DimensionError):
        solve_congruence(IntMatrix.from_rows([[1, 2]]), IntMatrix.from_rows([[3]]), [1, 2])


def test_solve_congruence_vs_enumeration():
    rng = random.Random(5)
    for _ in range(120):
        k = rng.randint(1, 3)
        n = rng.randint(1, 3)
        diag = [rng.randint(1, 8) for _ in range(n)]
        a = random_matrix(rng, k, n, -6, 6)
        l = IntMatrix.diagonal(diag)
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
        got = solve_congruence(a, l, t)
        assert (got is not None) == (found is not None)
        if got is not None:
            img = vec_mat(got, a)
            assert all((img[j] - t[j]) % diag[j] == 0 for j in range(n))


def test_kernel_examples():
    k = kernel_mod_lattice(IntMatrix.from_rows([[4]]), IntMatrix.from_rows([[12]]))
    assert k.to_lists() == [[3]]

    k = kernel_mod_lattice(IntMatrix(3, 2, [[0, 0]] * 3), IntMatrix.diagonal([5, 5]))
    assert k == IntMatrix.identity(3)

    k = kernel_mod_lattice(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[7]]))
    assert k.to_lists() == [[7]]

    # the domain lattice joins the kernel: 3Z + 2Z = Z, 3Z + 6Z = 3Z
    a, l = IntMatrix.from_rows([[4]]), IntMatrix.from_rows([[12]])
    assert kernel_mod_lattice(a, l, IntMatrix.from_rows([[2]])).to_lists() == [[1]]
    assert kernel_mod_lattice(a, l, IntMatrix.from_rows([[6]]), 12).to_lists() == [[3]]


def test_kernel_requires_finite_codomain():
    with pytest.raises(InfiniteCodomainError):
        kernel_mod_lattice(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[2, 0]]))


def test_kernel_vs_enumeration():
    rng = random.Random(31)
    for _ in range(80):
        k = rng.randint(1, 3)
        n = rng.randint(1, 2)
        diag = [rng.randint(1, 6) for _ in range(n)]
        a = random_matrix(rng, k, n, -5, 5)
        l = IntMatrix.diagonal(diag)
        basis = kernel_mod_lattice(a, l)
        box = [max(diag) * 2] * k
        for xs in product(*(range(b) for b in box)):
            img = vec_mat(list(xs), a)
            in_ker = all(img[j] % diag[j] == 0 for j in range(n))
            assert in_ker == in_lattice(basis, list(xs))


def test_invert_unimodular():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = IntMatrix.identity(n).to_lists()
        for _ in range(rng.randint(1, 12)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        mat = IntMatrix.from_rows(m, cols=n)
        inv = invert_unimodular(mat)
        assert matmul(inv, mat) == IntMatrix.identity(n)

        inv_mod = invert_unimodular(mat, 10)
        assert inv_mod.to_lists() == [[x % 10 for x in row] for row in inv.data]

    with pytest.raises(NotUnimodularError):
        invert_unimodular(IntMatrix.from_rows([[2]]))
    with pytest.raises(NotUnimodularError):
        invert_unimodular(IntMatrix.from_rows([[2]]), 4)
    assert invert_unimodular(IntMatrix.from_rows([[2]]), 5).to_lists() == [[3]]


def test_big_integer_exactness():
    # intermediate entries exceed any machine width; everything stays exact
    rng = random.Random(404)
    big = 10 ** 25
    for _ in range(10):
        m = random_matrix(rng, 4, 4, -big, big)
        check_snf(m)
        check_hnf(m)
    n = 10 ** 40
    x = solve_congruence(IntMatrix.from_rows([[7]]), IntMatrix.from_rows([[n]]),
                         [3 * 7 % n])
    assert x is not None and (7 * x[0] - 21) % n == 0


def test_det_small_cases():
    assert det(IntMatrix(0, 0, [])) == 1
    assert det(IntMatrix.from_rows([[5]])) == 5
    assert det(IntMatrix.from_rows([[2, 4], [6, 8]])) == -8
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(rng, 3, 3, -6, 6)
        a = m.data
        expect = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                  - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                  + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        assert det(m) == expect
