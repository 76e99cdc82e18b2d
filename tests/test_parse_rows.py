"""The instance parser's whole-row passes against the per-vector reference
in `helpers.reference_parse`, on seeded random instances.

Every instance is drawn by hypothesis: a small family instance, as it is
or under a random unimodular change of user coordinates (relation matrices
that are not diagonal, with negative entries), or a random presentation
with random tables; rank-0 groups and more user generators than invariant
factors (k != r) occur in all three.  Family and random draws both hold
presentations already in Smith form, diag(d) with d_1 | d_2 | ..., on
purpose: the families as they are (every trunc group, every zmod ring) and
a share of the random presentations, some with a leading 1, as diag(1, 4).
Those groups skip the Smith pass, and those with no unit factor also skip
the parser's changes of coordinates, which are identities for them; the
rest take the general passes.  Some draws then get one
table entry moved, or one entry or vector of the JSON document spelled
wrong.  The parser must give exactly what the reference gives: the same
canonical tables and identity, the same diagnostics in the same order, or
the same error.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import bilinear, parse_outcome, reference_parse
from modcyclic.instances import dumps, gen_prod, gen_randquot, gen_trunc, gen_zmod
from modcyclic.intlinalg import lincomb


def unimodular(rnd, n):
    """A random n x n integer matrix of determinant +-1 and its inverse,
    from a few row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(rnd.randint(0, 4) if n > 1 else 0):
        a, b = rnd.sample(range(n), 2)
        q = rnd.choice((-2, -1, 1, 2))
        u[a] = [x + q * y for x, y in zip(u[a], u[b])]  # row a += q row b
        for row in inv:  # inv <- inv @ (its inverse): column b -= q column a
            row[b] -= q * row[a]
    if n and rnd.random() < 0.3:
        a = rnd.randrange(n)
        u[a] = [-x for x in u[a]]
        for row in inv:
            row[a] = -row[a]
    return u, inv


def recoordinatize(doc, rnd):
    """The same instance in new user generators: row i of a unimodular U
    (V for the module) gives new generator i in the old ones."""
    k, m = doc["ring"]["num_gens"], doc["module"]["num_gens"]
    u, u_inv = unimodular(rnd, k)
    v, v_inv = unimodular(rnd, m)

    def new(vec, inv):
        return lincomb(vec, inv, len(inv))

    ring = {
        "num_gens": k,
        "relations": [new(rho, u_inv) for rho in doc["ring"]["relations"]],
        "mul": [[new(bilinear(doc["ring"]["mul"], u[i], u[j], k), u_inv) for j in range(k)]
                for i in range(k)],
    }
    if doc["ring"].get("one") is not None:
        ring["one"] = new(doc["ring"]["one"], u_inv)
    module = {
        "num_gens": m,
        "relations": [new(sigma, v_inv) for sigma in doc["module"]["relations"]],
        "action": [[new(bilinear(doc["module"]["action"], u[i], v[j], m), v_inv)
                    for j in range(m)] for i in range(k)],
    }
    return {"ring": ring, "module": module}


def family(rnd):
    pick = rnd.randrange(5)
    if pick == 0:
        n = rnd.choice((1, 2, 4, 6, 12))
        return gen_zmod(n, [rnd.choice([d for d in range(1, n + 1) if n % d == 0])
                            for _ in range(rnd.randint(1, 3))])
    if pick == 1:
        e = rnd.randint(1, 4)
        return gen_trunc(rnd.choice((2, 3)), e,
                         [rnd.randint(1, e) for _ in range(rnd.randint(1, 2))])
    if pick == 2:
        return gen_randquot(rnd.choice((4, 6, 9)), rnd.randrange(100), max_deg=3,
                            summands=rnd.randint(1, 2))
    if pick == 3:
        return gen_prod(gen_zmod(rnd.choice((1, 2, 3)), [1]), gen_trunc(2, rnd.randint(1, 3)))
    return gen_prod(gen_zmod(2, [2]), gen_zmod(3, [rnd.choice((1, 3))]))


def presentation(rnd, k):
    """Relations of a finite group on k generators: at times a divisibility
    chain diag(d), leading 1s and equal factors allowed, as it is;
    otherwise diag(d) with some d = 1, then random row operations and
    column operations."""
    if rnd.random() < 0.3:
        d = [rnd.choice((1, 2, 3))]
        for _ in range(k - 1):
            d.append(d[-1] * rnd.choice((1, 2, 3, 4)))
        return [[d[i] if i == j else 0 for j in range(k)] for i in range(k)]
    rows = [[rnd.randint(1, 6) if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(rnd.randint(0, 4) if k > 1 else 0):
        a, b = rnd.sample(range(k), 2)
        q = rnd.choice((-2, -1, 1, 2))
        if rnd.random() < 0.5:
            rows[a] = [x + q * y for x, y in zip(rows[a], rows[b])]
        else:
            for row in rows:
                row[a] += q * row[b]
    return rows


def random_doc(rnd):
    k, m = rnd.randint(0, 3), rnd.randint(0, 3)

    def vec(n):
        return [rnd.randint(-3, 3) for _ in range(n)]

    ring = {"num_gens": k, "relations": presentation(rnd, k),
            "mul": [[vec(k) for _ in range(k)] for _ in range(k)]}
    if rnd.random() < 0.5:
        ring["one"] = vec(k)
    return {"ring": ring, "module": {"num_gens": m, "relations": presentation(rnd, m),
                                     "action": [[vec(m) for _ in range(m)]
                                                for _ in range(k)]}}


# Entries spelled other than in the common one-digit way.  The last four
# are the edge of the decoder's table of small spellings: 255, its largest
# key, which it reads, and 256 and both with a leading zero, which it
# leaves to the fallback.
BAD_SPELLINGS = (" 7", "+3", "-0", "007", "1_0", "x", "", "٣", True, 7.5, None, ["1"],
                 "255", "256", "0255", "0256")


@st.composite
def documents(draw):
    rnd = draw(st.randoms(use_true_random=True))
    if draw(st.booleans()):
        doc = family(rnd)
        if rnd.random() < 0.6:
            doc = recoordinatize(doc, rnd)
    else:
        doc = random_doc(rnd)
    if rnd.random() < 0.3:
        doc["ring"].pop("one", None)
    vectors = [vec for sec, key in (("ring", "mul"), ("module", "action"))
               for row in doc[sec][key] for vec in row if vec]
    if vectors and rnd.random() < 0.4:  # one table entry moved
        vec = rnd.choice(vectors)
        vec[rnd.randrange(len(vec))] += rnd.choice((-1, 1)) * rnd.randint(1, 3)
    raw = json.loads(dumps(doc))
    vectors = [vec for sec, key in (("ring", "mul"), ("module", "action"))
               for row in raw[sec][key] for vec in row if vec]
    if vectors and rnd.random() < 0.2:  # one entry or vector spelled wrong
        vec = rnd.choice(vectors)
        if rnd.random() < 0.8:
            vec[rnd.randrange(len(vec))] = rnd.choice(BAD_SPELLINGS)
        else:
            vec.pop()
    return raw


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=documents())
def test_whole_row_parse_matches_the_per_vector_reference(raw):
    expected = reference_parse(json.loads(json.dumps(raw)))
    assert parse_outcome(json.loads(json.dumps(raw))) == expected
    assert parse_outcome(json.dumps(raw)) == expected
