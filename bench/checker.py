"""Independent verdict checker for `modcyclic check --format json` reports.

It reads the instance document and the report, and nothing of modcyclic:
the expected verdict comes from how each family is built, and a reported
generator is confirmed by a rank count modulo primes.

- zmod: Z/n acting on Z/d_1 + ... + Z/d_s is cyclic iff the d_i are
  pairwise coprime.
- trunc: R = F_p[x]/(x^e) is local with residue field F_p, and
  M = sum R/(x^t_i) has M/xM of dimension s, so M is cyclic iff s = 1.
- prod: R1 x R2 acting on M1 x M2 is cyclic iff both factors are.
- randquot: R = (Z/n)[x]/(f) and M = sum R/J_i.  Localized at a prime q
  of n, M is cyclic iff no maximal ideal (q, pi), pi an irreducible factor
  of f mod q, contains two of the J_i.  That holds iff the polynomials
  h_i = gcd(f, generators of J_i) in F_q[x] are pairwise coprime.

A generator y spans M iff the images g_i*y of the ring generators, taken
from the action table, together with the module relations, span Z^m.  A
sublattice containing the relations has index dividing a power of the
exponent of M, so it is Z^m iff its rank mod q is m for every prime q of
the ring's characteristic, which the exponent of M divides.

Documents are read with `read_document`, which turns the file's decimal
strings into integers and keeps the layout of modcyclic's instance format.
"""

from __future__ import annotations

import json
from math import gcd, lcm


class CheckFailure(AssertionError):
    """A report disagrees with the known answer or its generator fails."""


def prime_factors(n: int) -> list:
    n = abs(n)
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomials over F_q, coefficient lists from the constant term up -------

def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mod(a: list, b: list, q: int) -> list:
    a = _trim([c % q for c in a])
    b = _trim([c % q for c in b])
    inv = pow(b[-1], -1, q)
    while len(a) >= len(b):
        c = a[-1] * inv % q
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % q
        _trim(a)
    return a


def poly_gcd(a: list, b: list, q: int) -> list:
    a = _trim([c % q for c in a])
    b = _trim([c % q for c in b])
    while b:
        a, b = b, poly_mod(a, b, q)
    return a


# -- expected verdict by construction ----------------------------------------

def dims(spec: dict) -> tuple:
    """(ring generators, module generators) of a family instance."""
    fam = spec["family"]
    if fam == "zmod":
        return 1, len(spec["d"])
    if fam == "trunc":
        return spec["e"], sum(spec["mdeg"])
    if fam == "prod":
        ka, ma = dims(spec["left"])
        kb, mb = dims(spec["right"])
        return ka + kb, ma + mb
    if fam == "randquot":
        return spec["deg"], spec["deg"] * spec["summands"]
    raise ValueError(f"unknown family {fam!r}")


def _randquot_cyclic(doc: dict) -> bool:
    n = doc["ring"]["relations"][0][0]
    deg = doc["ring"]["num_gens"]
    m = doc["module"]["num_gens"]
    if deg >= 2:
        # x * x^(deg-1) = x^deg = -(f_0 + ... + f_(deg-1) x^(deg-1))
        f = [-c for c in doc["ring"]["mul"][1][deg - 1]] + [1]
    else:
        f = [0, 1]  # R = Z/n whatever f is
    blocks = [[] for _ in range(m // deg)]
    for row in doc["module"]["relations"]:
        nz = [j for j, c in enumerate(row) if c]
        if nz:
            b = nz[0] // deg
            if nz[-1] // deg != b:
                raise ValueError("randquot relation spans two summands")
            blocks[b].append(row[b * deg:(b + 1) * deg])
    for q in prime_factors(n):
        hs = []
        for rels in blocks:
            h = _trim([c % q for c in f])
            for g in rels:
                h = poly_gcd(h, g, q)
            hs.append(h)
        for i in range(len(hs)):
            for j in range(i + 1, len(hs)):
                if len(poly_gcd(hs[i], hs[j], q)) > 1:
                    return False
    return True


def _split_prod(doc: dict, ka: int, ma: int) -> tuple:
    ring, mod = doc["ring"], doc["module"]
    k, m = ring["num_gens"], mod["num_gens"]

    def part(lo_k, hi_k, lo_m, hi_m):
        return {
            "ring": {
                "num_gens": hi_k - lo_k,
                "relations": [row[lo_k:hi_k] for row in ring["relations"]
                              if any(row[lo_k:hi_k])],
                "mul": [[v[lo_k:hi_k] for v in ring["mul"][i][lo_k:hi_k]]
                        for i in range(lo_k, hi_k)],
            },
            "module": {
                "num_gens": hi_m - lo_m,
                "relations": [row[lo_m:hi_m] for row in mod["relations"]
                              if any(row[lo_m:hi_m])],
                "action": [[v[lo_m:hi_m] for v in mod["action"][i][lo_m:hi_m]]
                           for i in range(lo_k, hi_k)],
            },
        }

    return part(0, ka, 0, ma), part(ka, k, ma, m)


def expected_cyclic(spec: dict, doc: dict) -> bool:
    fam = spec["family"]
    if fam == "zmod":
        ds = spec["d"]
        return all(gcd(ds[i], ds[j]) == 1
                   for i in range(len(ds)) for j in range(i + 1, len(ds)))
    if fam == "trunc":
        return len(spec["mdeg"]) == 1
    if fam == "prod":
        ka, ma = dims(spec["left"])
        left, right = _split_prod(doc, ka, ma)
        return (expected_cyclic(spec["left"], left)
                and expected_cyclic(spec["right"], right))
    if fam == "randquot":
        return _randquot_cyclic(doc)
    raise ValueError(f"unknown family {fam!r}")


# -- generator check ----------------------------------------------------------

def rank_mod(rows, q: int) -> int:
    """Rank over F_q of integer rows, by elimination on dict rows."""
    pivots = {}  # leading column -> row reduced to leading coefficient 1
    for row in rows:
        r = {j: c % q for j, c in enumerate(row) if c % q}
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(r[lead], -1, q)
                pivots[lead] = {j: c * inv % q for j, c in r.items()}
                break
            c = r[lead]
            for j, pc in prow.items():
                v = (r.get(j, 0) - c * pc) % q
                if v:
                    r[j] = v
                else:
                    r.pop(j, None)
    return len(pivots)


def ring_characteristic(doc: dict) -> int:
    """lcm of the diagonal relation orders; every family here presents the
    ring's group by a diagonal relation matrix."""
    orders = []
    for row in doc["ring"]["relations"]:
        nz = [c for c in row if c]
        if len(nz) != 1:
            raise ValueError("ring relations are not diagonal")
        orders.append(abs(nz[0]))
    return lcm(*orders)


def generator_spans(doc: dict, y: list) -> bool:
    mod = doc["module"]
    m = mod["num_gens"]
    if len(y) != m:
        return False
    images = []
    for table_row in mod["action"]:
        acc = [0] * m
        for j, yj in enumerate(y):
            if yj:
                for t, c in enumerate(table_row[j]):
                    if c:
                        acc[t] += yj * c
        images.append(acc)
    rows = images + list(mod["relations"])
    return all(rank_mod(rows, q) == m
               for q in prime_factors(ring_characteristic(doc)))


# -- a whole report -----------------------------------------------------------

def read_document(path) -> dict:
    """An instance file with every decimal string turned into an int."""
    def ints(x):
        return [ints(v) for v in x] if isinstance(x, list) else int(x)

    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {sec: {key: ints(val) for key, val in raw[sec].items()}
            for sec in ("ring", "module")}


def check_report(spec: dict, doc: dict, exit_code: int, text: str) -> str:
    """Confirm one report; returns its verdict, raises CheckFailure."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"report is not JSON: {exc}") from None
    verdict = report.get("verdict")
    want = "cyclic" if expected_cyclic(spec, doc) else "not_cyclic"
    if verdict != want:
        raise CheckFailure(f"verdict {verdict!r}, expected {want!r}")
    if exit_code != (0 if want == "cyclic" else 1):
        raise CheckFailure(f"exit code {exit_code} for verdict {verdict!r}")
    if want == "cyclic":
        gen = report.get("generator")
        if not isinstance(gen, list) or not generator_spans(doc, [int(c) for c in gen]):
            raise CheckFailure(f"generator {gen!r} does not span the module")
    else:
        w = report.get("witness") or {}
        if not int(w.get("order_A_mod_a", 0)) < int(w.get("order_ext_mod_a", 0)):
            raise CheckFailure(f"witness {w!r} is not a size obstruction")
    return verdict
