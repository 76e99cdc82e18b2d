"""Seeded workload draws for the check benchmark.

A draw is a list of family specs.  The program sees only the instance files
made from them; the specs stay with the benchmark for the independent
checker (see checker.py).

- corpus: 986 small instances of all four families, drawn the way the
  acceptance corpus is, within |R| <= 256 and |M| <= 4096.
- swell: one randquot draw from each cost tier of SWELL_TIERS.  Every tier
  member has degree 5 to 8 and a composite n, and its exact normal forms
  swell past 1,000 bits although no input entry is wider than 5 bits.
- wide: one trunc instance of each shape in WIDE_TIERS: a small p, e up
  to 44, one or two summands.  Ranks run into the tens and entries stay below
  p; there is no coefficient swell.

Members of a tier cost about the same to check, so a seed changes the
instances but not the make-up of the workload.
"""

from __future__ import annotations

import random
from math import prod

# (n, seed, max_deg, summands) for gen_randquot, in tiers of draws whose
# checks took about the same time: the figure before each tier, the median
# of three checks in one process, interleaved over all candidates, at the
# commit that added the benchmark on a 2-core machine.  Most spend their
# time in intlinalg.snf inside abelian.canonicalize at parse time; draws
# marked hnf spend it in intlinalg.hnf inside the driver's kernels.  With
# 14 tiers the median of a run falls between tiers 7 and 8 and the 75th
# percentile inside tier 11, and the tiers there are close in cost, so
# neither figure hangs on where one tier's checks end.
SWELL_TIERS = [
    # 0.044 s
    [(15, 7, 6, 3), (24, 23, 7, 3), (14, 21, 6, 3), (20, 24, 7, 3)],
    # 0.058 s
    [(24, 22, 6, 3), (30, 9, 8, 2), (30, 28, 7, 2), (10, 20, 6, 3), (18, 21, 6, 2)],
    # 0.068 s, hnf for (20, 8, 6, 3) and (20, 27, 7, 2)
    [(15, 0, 8, 2), (10, 11, 6, 3), (20, 8, 6, 3), (20, 27, 7, 2)],
    # 0.10 s
    [(20, 0, 6, 3), (18, 2, 8, 2), (14, 25, 8, 3), (18, 6, 6, 3), (30, 26, 7, 3)],
    # 0.13 s
    [(24, 11, 7, 2), (24, 17, 6, 2), (10, 5, 6, 3), (12, 23, 6, 3)],
    # 0.21 s, hnf
    [(14, 10, 6, 3), (30, 23, 7, 2), (24, 18, 7, 2), (14, 29, 8, 2), (24, 10, 7, 3)],
    # 0.25 s, hnf
    [(24, 28, 7, 2), (12, 6, 8, 2), (10, 21, 6, 3)],
    # 0.26 s, hnf for (14, 11, 8, 2)
    [(14, 11, 8, 2), (20, 4, 7, 2), (24, 11, 8, 2)],
    # 0.28 s, hnf for (6, 1, 8, 3), (14, 16, 7, 3) and (20, 16, 8, 2)
    [(10, 5, 7, 2), (6, 1, 8, 3), (14, 16, 7, 3), (20, 16, 8, 2)],
    # 0.47 s, hnf for (20, 10, 8, 2), (24, 3, 8, 2) and (12, 9, 8, 3)
    [(20, 10, 8, 2), (24, 3, 8, 2), (12, 9, 8, 3), (24, 28, 8, 3)],
    # 0.55 s, hnf for (20, 25, 8, 3) and (24, 24, 8, 3)
    [(14, 11, 7, 3), (15, 4, 8, 3), (20, 25, 8, 3), (24, 24, 8, 3)],
    # 0.62 s, hnf for (20, 22, 6, 3) and (24, 9, 6, 2)
    [(24, 29, 6, 3), (20, 22, 6, 3), (24, 9, 6, 2), (15, 16, 6, 3)],
    # 0.85 s, hnf for (18, 22, 7, 3), (10, 22, 8, 2) and (6, 0, 7, 3)
    [(18, 22, 7, 3), (30, 21, 7, 3), (10, 22, 8, 2), (10, 11, 7, 3), (6, 0, 7, 3)],
    # 1.5 s, hnf for (12, 18, 7, 2)
    [(14, 23, 8, 3), (18, 28, 6, 3), (12, 18, 7, 2)],
]

# (e, mdeg) shapes for gen_trunc in tiers of one shape each; the seed picks
# p from WIDE_PRIMES, which changes the entries but hardly the time.
WIDE_TIERS = [
    (16, [16]),       # 0.07 s, 0.14 MB
    (20, [20, 10]),   # 0.21 s
    (24, [24]),       # 0.27 s
    (28, [28]),       # 0.30 s
    (32, [32]),       # 0.45 s
    (24, [24, 24]),   # 0.47 s
    (32, [32, 8]),    # 0.45 s
    (28, [28, 14]),   # 0.51 s
    (36, [36]),       # 0.70 s, 1.5 MB
    (44, [44]),       # 1.1 s, 2.7 MB
    (40, [40, 20]),   # 1.1 s, 3.3 MB
]
WIDE_PRIMES = [2, 3, 5, 7]


# Corpus make-up: instances per family, and the summand counts drawn for
# every (p, e) pair of the trunc family.
ZMOD, PROD, RANDQUOT = 280, 260, 270
TRUNC_SUMMANDS = (1, 2, 3, 2, 1, 2, 3, 2)


def corpus(seed) -> list:
    rng = random.Random(f"corpus:{seed}")
    specs = []

    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    ns = [2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 64, 96, 128, 192, 256]
    for _ in range(ZMOD):
        n = rng.choice(ns)
        ds, size = [], 1
        for _ in range(rng.randint(1, 4)):
            d = rng.choice(divisors(n))
            if size * d > 4096:
                break
            ds.append(d)
            size *= d
        specs.append({"family": "zmod", "n": n, "d": ds or [1]})

    # Trunc and product draws are stratified: every (p, e) pair and every
    # factor type occurs equally often in every draw, and only the degrees
    # and orders are random.  The slow checks of the corpus are trunc rings
    # of order 2^6 to 2^8 and products with trunc(2, 3) or trunc(2, 4)
    # factors, so stratifying fixes how many of them a draw holds.
    pes = ([(2, e) for e in range(1, 9)] + [(3, e) for e in range(1, 6)]
           + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (11, 2), (13, 1), (13, 2)])
    for p, e in pes:
        for count in TRUNC_SUMMANDS:
            degs, size = [], 1
            for _ in range(count):
                t = rng.randint(1, e)
                if size * p ** t > 4096:
                    break
                degs.append(t)
                size *= p ** t
            specs.append({"family": "trunc", "p": p, "e": e, "mdeg": degs or [1]})

    factor_types = [None] * 7 + [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]

    def small_factor(kind):
        if kind is None:
            n = rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 16])
            ds = [rng.choice(divisors(n)) for _ in range(rng.randint(1, 2))]
            return {"family": "zmod", "n": n, "d": ds}, n, prod(ds)
        p, e = kind
        degs = [rng.randint(1, e) for _ in range(rng.randint(1, 2))]
        return {"family": "trunc", "p": p, "e": e, "mdeg": degs}, p ** e, p ** sum(degs)

    for i in range(PROD):
        k = len(factor_types)
        kinds = factor_types[i % k], factor_types[(3 * i + 5) % k]
        while True:
            left, r1, m1 = small_factor(kinds[0])
            right, r2, m2 = small_factor(kinds[1])
            if r1 * r2 <= 256 and m1 * m2 <= 4096:
                break
        specs.append({"family": "prod", "left": left, "right": right})

    # |M| <= |R|^summands <= n^(max_deg * summands), so the cap holds
    while len(specs) < ZMOD + len(pes) * len(TRUNC_SUMMANDS) + PROD + RANDQUOT:
        n = rng.choice([2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16])
        max_deg = 1
        while n ** (max_deg + 1) <= 256 and max_deg < 4:
            max_deg += 1
        draw, summands = rng.randrange(10 ** 6), rng.randint(1, 3)
        if n ** (max_deg * summands) <= 4096:
            specs.append({"family": "randquot", "n": n, "seed": draw,
                          "max_deg": max_deg, "summands": summands})
    return specs


def swell(seed) -> list:
    rng = random.Random(f"swell:{seed}")
    return [{"family": "randquot", "n": n, "seed": s, "max_deg": d, "summands": k}
            for n, s, d, k in (rng.choice(tier) for tier in SWELL_TIERS)]


def wide(seed) -> list:
    rng = random.Random(f"wide:{seed}")
    return [{"family": "trunc", "p": rng.choice(WIDE_PRIMES), "e": e, "mdeg": list(mdeg)}
            for e, mdeg in WIDE_TIERS]


WORKLOADS = {"corpus": corpus, "swell": swell, "wide": wide}


def build(spec: dict, instances) -> dict:
    """The instance document of a spec, made by modcyclic's generators.
    A randquot spec gains its drawn degree, which the checker needs."""
    fam = spec["family"]
    if fam == "zmod":
        return instances.gen_zmod(spec["n"], spec["d"])
    if fam == "trunc":
        return instances.gen_trunc(spec["p"], spec["e"], spec["mdeg"])
    if fam == "prod":
        return instances.gen_prod(build(spec["left"], instances),
                                  build(spec["right"], instances))
    if fam == "randquot":
        doc = instances.gen_randquot(spec["n"], spec["seed"], max_deg=spec["max_deg"],
                                     summands=spec["summands"])
        spec["deg"] = doc["ring"]["num_gens"]
        return doc
    raise ValueError(f"unknown family {fam!r}")
