"""Instance files: a ring and a module presented by generators, relations,
and generator-product tables.

One instance per JSON document.  Every integer is written as a decimal
string so that no consumer ever faces a width limit; negative values are
allowed anywhere a coordinate is.  All tables are in *user* generator
coordinates; canonical coordinates never appear in a file.

Document layout::

    {
      "format": "modcyclic-instance",
      "version": 1,
      "ring": {
        "num_gens": k,
        "relations": [[...k entries...], ...],
        "mul": k x k array of length-k coordinate vectors,
        "one": optional length-k coordinate vector
      },
      "module": {
        "num_gens": m,
        "relations": [[...m entries...], ...],
        "action": k x m array of length-m coordinate vectors
      }
    }
"""

from __future__ import annotations

import json
import random
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain
from operator import mod

from .abelian import CanonicalGroup, NotFiniteError, canonicalize
from .intlinalg import lincomb
from .intstr import int_from_str, int_to_str
from .modules import FiniteModule, module_validate
from .rings import (
    Diagnostic,
    FiniteRing,
    NoIdentityError,
    find_identity,
    ring_validate,
)

FORMAT_NAME = "modcyclic-instance"
FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """The document does not match the instance schema."""


class ValidationFailure(ValueError):
    """The instance parsed but violates ring/module axioms."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class ParsedInstance:
    module: FiniteModule
    warnings: list = field(default_factory=list)

    @property
    def ring(self) -> FiniteRing:
        return self.module.ring


# -- decoding ----------------------------------------------------------------

def _as_int(value, path: str) -> int:
    if isinstance(value, bool):
        raise InstanceFormatError(f"{path}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int_from_str(value.strip())
        except ValueError:
            raise InstanceFormatError(f"{path}: not a decimal integer: {value!r}") from None
    raise InstanceFormatError(f"{path}: expected an integer, got {type(value).__name__}")


# The canonical spelling of every small entry, and its value.  Small, so
# that it costs no memory to speak of; wide tables spell their entries in
# one digit.
_SMALL = {str(i): i for i in range(256)}


def _decoded(entries: list):
    """The values of a flat list of entries in one C-level pass, as a new
    list, or None when some entry needs the per-entry path.  Entries that
    are already ints (a document decoded before) are taken as they are.
    Strings are read by one map over `_SMALL`: a hit proves the entry
    canonical (ASCII digits, no sign, no leading zero), so its value is
    int() of it.  Any miss, an unhashable entry, a mix of ints and strings,
    or a spelling the table does not hold, is None."""
    if entries and type(entries[0]) is int:
        return list(entries) if set(map(type, entries)) == {int} else None
    try:
        return list(map(_SMALL.__getitem__, entries))
    except (KeyError, TypeError):
        return None


def _as_vector(value, length: int, path: str) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise InstanceFormatError(f"{path}: expected a vector of length {int_to_str(length)}")
    # Every spelling the C-level pass misses takes the per-entry path, the
    # only one that builds each entry's path for its error message.
    out = _decoded(value)
    if out is None:
        out = [_as_int(x, f"{path}[{i}]") for i, x in enumerate(value)]
    return out


class _Spellings(dict):
    """One table's vector spellings, each the tuple of a list's entries,
    and their values as a tuple, from one `_decoded` pass per spelling.
    Only a spelling of strings is stored, so that it is read once and its
    slots share one tuple: a bool or a float would find a stored spelling
    of ints equal to it.  A spelling the pass misses gives None."""

    def __missing__(self, key):
        vals = _decoded(key)
        if vals is not None:
            vals = tuple(vals)
            if type(key[0]) is str:
                self[key] = vals
        return vals


def _as_table(value, rows: int, cols: int, path: str) -> list:
    """A `rows` x `cols` table of vectors of length `cols`, as lists of
    tuples, each spelling read once through one `_Spellings`."""
    if not isinstance(value, list) or len(value) != rows:
        raise InstanceFormatError(f"{path}: expected {int_to_str(rows)} rows")
    spellings = _Spellings()
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise InstanceFormatError(f"{path}[{i}]: expected {int_to_str(cols)} entries")
        # Only a row of `cols` lists of `cols` entries is looked up, since
        # the tuple() of a string or an object can be a stored spelling.
        # Any other row, an unhashable entry, and each vector the lookup
        # gives None for, take `_as_vector`, for the error messages.
        vecs = [None] * cols
        if set(map(type, row)) == {list} and set(map(len, row)) == {cols}:
            with suppress(TypeError):
                vecs = list(map(spellings.__getitem__, map(tuple, row)))
        if None in vecs:
            vecs = [tuple(_as_vector(v, cols, f"{path}[{i}][{j}]")) if vec is None else vec
                    for j, (vec, v) in enumerate(zip(vecs, row))]
        out.append(vecs)
    return out


def decode_document(obj) -> dict:
    """Check the raw JSON object against the schema and convert every
    integer; returns a plain dict with Python ints.  Relations and `one`
    are lists.  Table vectors are tuples: one per distinct spelling in a
    table, shared by every slot spelled alike (see `_as_table`)."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("top level must be an object")
    # Both keys are optional: the family generators' documents omit them.
    if obj.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise InstanceFormatError(f'format: expected "{FORMAT_NAME}"')
    if "version" in obj and _as_int(obj["version"], "version") != FORMAT_VERSION:
        raise InstanceFormatError(f"version: expected {FORMAT_VERSION}")
    for key in ("ring", "module"):
        if not isinstance(obj.get(key), dict):
            raise InstanceFormatError(f"{key} must be an object" if key in obj
                                      else f"missing section: {key}")

    # Both tables have one row per ring generator, of vectors as long as
    # their section's generator count.
    doc = {}
    for key, table in (("ring", "mul"), ("module", "action")):
        sec = obj[key]
        n = _as_int(sec.get("num_gens"), f"{key}.num_gens")
        if n < 0:
            raise InstanceFormatError(f"{key}.num_gens must be nonnegative")
        rels = sec.get("relations")
        if not isinstance(rels, list):
            raise InstanceFormatError(f"{key}.relations must be a list of rows")
        doc[key] = {"num_gens": n, "relations": [
            _as_vector(row, n, f"{key}.relations[{i}]") for i, row in enumerate(rels)]}
        doc[key][table] = _as_table(sec.get(table), doc["ring"]["num_gens"], n,
                                    f"{key}.{table}")
        if key == "ring" and sec.get("one") is not None:
            doc[key]["one"] = _as_vector(sec["one"], n, "ring.one")
    return doc


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict, refusing a key stated twice, of
    which `json` would silently keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        twice = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise InstanceFormatError(f"duplicate key: {json.dumps(twice)}")
    return obj


def loads(text: str) -> dict:
    try:
        obj = json.loads(text, parse_int=int_from_str, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from None
    return decode_document(obj)


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _json_list(items, level: int) -> str:
    """Already written JSON values as a list, the way json.dumps(indent=2)
    writes one at nesting depth `level`."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def _json_vector(vec, level: int) -> str:
    """An integer vector as a list of decimal strings: one C-level map
    and one join, with quotes and indent in the separator."""
    if not vec:
        return "[]"
    try:
        entries = list(map(str, map(int, vec)))
    except ValueError:  # past str()'s digit limit
        entries = [int_to_str(int(x)) for x in vec]
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + '"' + ('",' + pad + '"').join(entries) + '"\n' + "  " * level + "]"


def dumps(doc: dict) -> str:
    """Canonical serialization: fixed key order, integers as decimal
    strings, two-space indent, trailing newline.  Deterministic, so equal
    documents are byte-identical.  The text is exactly what
    json.dumps(indent=2) writes for the same document, built by joins
    rather than by the standard library's pure-Python indenting encoder."""
    def vectors(rows, level):
        return _json_list([_json_vector(v, level + 1) for v in rows], level)

    def obj(items, level):
        pad = "\n" + "  " * (level + 1)
        return ("{" + pad + ("," + pad).join(f'"{key}": {value}' for key, value in items)
                + "\n" + "  " * level + "}")

    ring = doc["ring"]
    module = doc["module"]
    ring_items = [("num_gens", json.dumps(ring["num_gens"])),
                  ("relations", vectors(ring["relations"], 2)),
                  ("mul", _json_list([vectors(row, 3) for row in ring["mul"]], 2))]
    if "one" in ring and ring["one"] is not None:
        ring_items.append(("one", _json_vector(ring["one"], 2)))
    module_items = [("num_gens", json.dumps(module["num_gens"])),
                    ("relations", vectors(module["relations"], 2)),
                    ("action", _json_list([vectors(row, 3) for row in module["action"]], 2))]
    return obj([("format", json.dumps(FORMAT_NAME)), ("version", json.dumps(FORMAT_VERSION)),
                ("ring", obj(ring_items, 1)), ("module", obj(module_items, 1))], 0) + "\n"


# -- parsing into canonical objects ------------------------------------------
#
# `parse_instance` moves each table into canonical coordinates in two
# stages.  `_in_canonical` turns the decoded nested table (rows x cols
# vectors, each a tuple shared by every slot spelled alike) into a table of
# the same shape whose slot [i][j] is the vector T[i][j] in reduced
# canonical coordinates of the column group: one conversion per distinct
# decoded vector, one tuple per distinct converted vector.  The descent
# check and the generator table both read that converted table, with one
# `lincomb` per table row, relation or generator over its flat rows (row i
# is T[i][0], ..., T[i][cols-1] concatenated) or its flat columns (row j is
# T[0][j], ..., T[rows-1][j]), built by `_flat_rows` only for a pass that
# reads them: the descent check once a relation survives, and a generator
# table whose change of coordinates is not the identity.

def _flat_rows(table) -> list:
    """Each row of a nested table of vectors as one list, its vectors
    concatenated; `_flat_rows(zip(*table))` gives the flat columns."""
    return [list(chain.from_iterable(row)) for row in table]


def _is_identity(rows, n: int) -> bool:
    """Whether `rows` are the rows of the n x n identity matrix: n rows of
    width n, row i a 1 at column i and n - 1 zeros."""
    return len(rows) == n and all(len(row) == n and row[i] == 1 and row.count(0) == n - 1
                                  for i, row in enumerate(rows))


def _in_canonical(table, group: CanonicalGroup) -> list:
    """The decoded user table `table` with each vector in reduced canonical
    coordinates of `group`.  Each distinct decoded vector is converted
    once, by one `lincomb` over `group.to_can` and one reduction, and each
    distinct result is one tuple, shared by every slot holding it."""
    to_can, factors, r = group.to_can, group.invariant_factors, group.rank
    canon = {}  # each reduced vector, as its own key and value

    @cache
    def converted(vec):
        reduced = tuple(map(mod, lincomb(vec, to_can, r), factors))
        return canon.setdefault(reduced, reduced)

    return [list(map(converted, row)) for row in table]


def _canonical_table(table, row_group: CanonicalGroup, col_group: CanonicalGroup) -> list:
    """The generator table [[T(a, b) for b] for a] of `table`, a user table
    already in reduced canonical coordinates of `col_group` (see
    `_in_canonical`), T(a, b) the product of the canonical generators a of
    `row_group` and b of `col_group`, given in user coordinates by the
    groups' `from_can`.  When both are identities, the canonical generators
    are the user ones and the table is `table` itself.  Otherwise T is one
    `lincomb` per row generator over the table's flat rows, then one per
    column generator over the partial products' flat columns, and each
    distinct reduced vector is one tuple, shared by every slot holding it."""
    row_reps, col_reps = row_group.from_can, col_group.from_can
    cols, c = len(col_group.to_can), col_group.rank
    if _is_identity(row_reps, len(table)) and _is_identity(col_reps, cols):
        return table
    flat = _flat_rows(table)
    partial = [lincomb(ra, flat, cols * c) for ra in row_reps]
    partial_t = _flat_rows([p[j * c:(j + 1) * c] for p in partial] for j in range(cols))
    by_col = [lincomb(cb, partial_t, len(row_reps) * c) for cb in col_reps]
    canon = {}  # each reduced vector, as its own key and value

    def shared(vec):
        reduced = tuple(map(mod, vec, col_group.invariant_factors))
        return canon.setdefault(reduced, reduced)

    return [[shared(col[a * c:(a + 1) * c]) for col in by_col] for a in range(len(row_reps))]


def _descent_diagnostics(doc: dict, mul, act, rg: CanonicalGroup, mg: CanonicalGroup) -> list:
    """User-level well-definedness: every stated relation of `doc` must be
    killed by the bilinear tables, otherwise the table does not descend to
    the presented groups.  `mul` and `act` are the user tables in reduced
    canonical coordinates (see `_in_canonical`); a relation combination of
    them is the image of the same combination of the user vectors, since
    the change of coordinates is linear, and the reduction changes no
    residue modulo the target's orders.

    One `lincomb` per relation and side covers every generator, and only a
    relation that is not killed is split per generator, for its
    diagnostics.  A relation is first reduced modulo the exponent of the
    target group, which changes no combination modulo the target's orders,
    so one that vanishes there is killed outright, and a side builds its
    flat rows or columns only once a relation survives."""
    k, m = doc["ring"]["num_gens"], doc["module"]["num_gens"]

    def unkilled(rels, group, views, blocks, where, what):
        """Diagnostics for the relations whose combination of some view's
        flat rows is not killed at block j; `views()` builds the views."""
        e, factors, size = group.exponent, group.invariant_factors, group.rank
        diags, built = [], None
        for idx, rel in enumerate(rels):
            coeffs = [c % e for c in rel]
            if not any(coeffs):
                continue
            built = built or views()
            vecs = [lincomb(coeffs, rows, blocks * size) for rows in built]
            if any(any(map(mod, vec, factors * blocks)) for vec in vecs):
                diags.extend(Diagnostic("well-definedness", where(idx, j), what)
                             for j in range(blocks)
                             if any(any(map(mod, vec[j * size:(j + 1) * size], factors))
                                    for vec in vecs))
        return diags

    # rho x g_j from the flat rows and g_j x rho from the flat columns,
    # rho x m_j, and g_i x sigma, each for every generator at once
    diags = unkilled(doc["ring"]["relations"], rg,
                     lambda: [_flat_rows(mul), _flat_rows(zip(*mul))], k,
                     lambda idx, j: f"ring relation {idx} x g{j}",
                     "multiplication does not kill a stated ring relation")
    diags += unkilled(doc["ring"]["relations"], mg, lambda: [_flat_rows(act)], m,
                      lambda idx, j: f"ring relation {idx} x m{j}",
                      "module action does not kill a stated ring relation")
    diags += unkilled(doc["module"]["relations"], mg,
                      lambda: [_flat_rows(zip(*act))], k,
                      lambda idx, i: f"g{i} x module relation {idx}",
                      "module action does not kill a stated module relation")
    return diags


def parse_instance(source) -> ParsedInstance:
    """Build the canonical ring and module from a document (dict or JSON
    text).

    Canonicalizes both groups, converts each table to reduced canonical
    coordinates (see `_in_canonical`), checks from the converted tables
    that they descend to the presented groups, builds the generator tables
    from them, solves for the identity when the file omits it, and runs the
    ring and module validators.  Every parse runs every check, so a
    returned instance is a commutative ring and a module over it, with the
    well-defined tables `run` requires.  Raises InstanceFormatError, NotFiniteError, or
    ValidationFailure.
    """
    if isinstance(source, str):
        doc = loads(source)
    else:
        doc = decode_document(source)

    groups = []
    for key in ("ring", "module"):
        try:
            groups.append(canonicalize(doc[key]["relations"], doc[key]["num_gens"]))
        except NotFiniteError as exc:
            raise NotFiniteError(f"{key}: {exc}") from None
    rg, mg = groups

    warnings = []
    k = doc["ring"]["num_gens"]
    mul_doc = doc["ring"]["mul"]
    asymmetric = next(((i, j) for i in range(k) for j in range(i + 1, k)
                       if mul_doc[i][j] != mul_doc[j][i]), None)
    if asymmetric is not None:
        i, j = asymmetric
        warnings.append(
            f"ring.mul[{i}][{j}] and ring.mul[{j}][{i}] differ as written; "
            "entries are normalized modulo the relations and commutativity "
            "is checked canonically")

    # Each user table is popped from the document, so that the document
    # holds no table through validation, and converted to reduced
    # canonical coordinates once; the descent check and the generator
    # table read the converted table.
    mul = _in_canonical(doc["ring"].pop("mul"), rg)
    act = _in_canonical(doc["module"].pop("action"), mg)
    diags = _descent_diagnostics(doc, mul, act, rg, mg)
    mul_can, act_can = _canonical_table(mul, rg, rg), _canonical_table(act, rg, mg)
    del mul, act

    if doc["ring"].get("one") is not None:
        one_el = rg.from_user(doc["ring"]["one"])
    elif diags:
        # The identity is solved for only on well-defined tables.
        raise ValidationFailure(diags)
    else:
        try:
            one_el = find_identity(rg, mul_can)
        except NoIdentityError:
            diags.append(Diagnostic("identity", "ring",
                                    "no multiplicative identity exists"))
            one_el = rg.zero()

    ring = FiniteRing(rg, mul_can, one_el)
    module = FiniteModule(ring, mg, act_can)

    diags.extend(ring_validate(ring))
    diags.extend(module_validate(module))
    if diags:
        raise ValidationFailure(diags)
    return ParsedInstance(module, warnings)


# -- instance families -------------------------------------------------------

def _unit(i: int, n: int) -> list:
    return [1 if j == i else 0 for j in range(n)]


def gen_zmod(n: int, ds) -> dict:
    """R = Z/n acting on a direct sum of Z/d_i with every d_i | n."""
    ds = [int(d) for d in ds]
    if n < 1:
        raise ValueError(f"zmod: n must be positive, got {int_to_str(n)}")
    for d in ds:
        if d < 1 or n % d:
            raise ValueError(f"zmod: summand order {int_to_str(d)} does not divide "
                             f"n = {int_to_str(n)}")
    return {
        "ring": {
            "num_gens": 1,
            "relations": [[n]],
            "mul": [[[1]]],
            "one": [1],
        },
        "module": {
            "num_gens": len(ds),
            "relations": [[ds[i] if j == i else 0 for j in range(len(ds))]
                          for i in range(len(ds))],
            "action": [[_unit(j, len(ds)) for j in range(len(ds))]],
        },
    }


def gen_trunc(p: int, e: int, mdegs=None) -> dict:
    """R = (Z/p)[x]/(x^e) with generators 1, x, ..., x^(e-1).

    The module is a direct sum of truncations R/(x^t), one per entry of
    `mdegs` (default a single copy of R, i.e. t = e).
    """
    if p < 2 or e < 1:
        raise ValueError(f"trunc: need p >= 2 and e >= 1, got p={int_to_str(p)}, "
                         f"e={int_to_str(e)}")
    mdegs = [int(t) for t in (mdegs if mdegs is not None else [e])]
    for t in mdegs:
        if t < 1 or t > e:
            raise ValueError(f"trunc: summand degree {int_to_str(t)} not in 1..{int_to_str(e)}")
    mul = [[(_unit(i + j, e) if i + j < e else [0] * e) for j in range(e)]
           for i in range(e)]
    total = sum(mdegs)
    offsets = list(accumulate(mdegs, initial=0))
    action = [[_unit(off + i + j, total) if i + j < t else [0] * total
               for t, off in zip(mdegs, offsets) for j in range(t)]
              for i in range(e)]
    return {
        "ring": {
            "num_gens": e,
            "relations": [[p if j == i else 0 for j in range(e)] for i in range(e)],
            "mul": mul,
            "one": _unit(0, e),
        },
        "module": {
            "num_gens": total,
            "relations": [[p if j == i else 0 for j in range(total)] for i in range(total)],
            "action": action,
        },
    }


def gen_prod(doc_a: dict, doc_b: dict) -> dict:
    """Componentwise product: R = R1 x R2 acting on M1 x M2."""
    a = decode_document(doc_a)
    b = decode_document(doc_b)

    def section(sa, sb, table):
        """The product of two sections, ring or module: A's vectors padded
        on the right with zeros to the total generator count, B's on the
        left; A's relations then B's, and the block-diagonal table, A's rows
        then B's.  Every vector is a fresh list, whether the decoded
        vector it is built from is a list or a tuple."""
        na, nb = sa["num_gens"], sb["num_gens"]
        za, zb = [0] * na, [0] * nb

        def rows(vecs_a, vecs_b):
            return [[*v, *zb] for v in vecs_a] + [[*za, *v] for v in vecs_b]

        return {"num_gens": na + nb, "relations": rows(sa["relations"], sb["relations"]),
                table: [rows(row, [zb] * nb) for row in sa[table]]
                + [rows([za] * na, row) for row in sb[table]]}

    def one_of(doc):
        if doc["ring"].get("one") is not None:
            return doc["ring"]["one"]
        parsed = parse_instance(doc)
        return parsed.ring.group.to_user(parsed.ring.one)

    ring = section(a["ring"], b["ring"], "mul")
    ring["one"] = [*one_of(a), *one_of(b)]
    return {"ring": ring, "module": section(a["module"], b["module"], "action")}


def _shift_reduce(vec, f_low, n):
    """Multiply a polynomial (coefficient vector, degree < deg f) by x and
    reduce modulo the monic f and modulo n."""
    return [c % n for c in lincomb((1, -vec[-1]), ([0, *vec[:-1]], f_low), len(vec))]


def gen_randquot(n: int, seed, max_deg: int = 4, summands=None) -> dict:
    """R = (Z/n)[x]/(f) for a seeded random monic f of degree <= max_deg;
    M is a direct sum of quotients of R by seeded random ideals.

    Deterministic in (n, seed, max_deg, summands).
    """
    if n < 2:
        raise ValueError(f"randquot: n must be at least 2, got {int_to_str(n)}")
    if max_deg < 1:
        raise ValueError(f"randquot: max_deg must be at least 1, got {int_to_str(max_deg)}")
    if summands is not None and summands < 0:
        raise ValueError(f"randquot: summands must be nonnegative, got {int_to_str(summands)}")
    count = "None" if summands is None else int_to_str(summands)
    rng = random.Random(
        f"randquot:{int_to_str(n)}:{int_to_str(max_deg)}:{count}:{int_to_str(seed)}")
    deg = rng.randint(1, max_deg)
    f_low = [rng.randrange(n) for _ in range(deg)]

    xpow = [_unit(t, deg) for t in range(deg)]
    for t in range(deg, 2 * deg - 1):
        xpow.append(_shift_reduce(xpow[-1], f_low, n))

    mul = [[list(xpow[i + j]) for j in range(deg)] for i in range(deg)]
    ring = {
        "num_gens": deg,
        "relations": [[n if j == i else 0 for j in range(deg)] for i in range(deg)],
        "mul": mul,
        "one": _unit(0, deg),
    }

    s = summands if summands is not None else rng.randint(1, 3)
    total = s * deg
    mrel = []
    action = [[None] * total for _ in range(deg)]
    for block in range(s):
        off = block * deg
        for i in range(deg):
            mrel.append([n if j == off + i else 0 for j in range(total)])
        for _ in range(rng.randint(0, 2)):
            g = [rng.randrange(n) for _ in range(deg)]
            cur = g
            for _ in range(deg):
                row = [0] * total
                row[off:off + deg] = cur
                mrel.append(row)
                cur = _shift_reduce(cur, f_low, n)
        for i in range(deg):
            for j in range(deg):
                vec = [0] * total
                vec[off:off + deg] = xpow[i + j]
                action[i][off + j] = vec
    return {
        "ring": ring,
        "module": {"num_gens": total, "relations": mrel, "action": action},
    }
