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
import re
from dataclasses import dataclass, field
from operator import mod

from .abelian import CanonicalGroup, NotFiniteError, canonicalize
from .intlinalg import IntMatrix, bilinear, lincomb, vec_mat
from .modules import FiniteModule, module_validate
from .rings import Diagnostic, FiniteRing, NoIdentityError, find_identity, ring_validate

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
    ring: FiniteRing
    module: FiniteModule
    warnings: list = field(default_factory=list)


# -- decimal integers --------------------------------------------------------
# int(s) and str(n) refuse more than sys.get_int_max_str_digits() digits;
# decimal, imported only past that limit, has none.
_SIGNED_DIGITS = re.compile(r"[+-]?[0-9]+")


def int_from_str(text: str) -> int:
    """The value of an ASCII sign-and-digit string of any length; raises
    ValueError on any other string, even one int() accepts."""
    if not (text.isdigit() and text.isascii()) and not _SIGNED_DIGITS.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    try:
        return int(text, 10)
    except ValueError:
        import decimal
        return int(decimal.Decimal(text))


def int_to_str(n: int) -> str:
    """str(n), also for ints of any number of digits."""
    try:
        return str(n)
    except ValueError:
        import decimal
        return str(decimal.Decimal(n))


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


def _as_vector(value, length: int, path: str) -> list:
    if not isinstance(value, list) or len(value) != length:
        raise InstanceFormatError(f"{path}: expected a vector of length {length}")
    # The common spelling, ASCII digits only, decodes in one C-level pass.
    # join() refuses a non-str entry, and int() an empty one or one past its
    # digit limit; those and every other spelling take the per-entry path,
    # the only one that builds each entry's path for its error message.
    try:
        digits = "".join(value)
        if digits.isdigit() and digits.isascii():
            return list(map(int, value))
    except (TypeError, ValueError):
        pass
    return [_as_int(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _as_table(value, rows: int, cols: int, veclen: int, path: str) -> list:
    if not isinstance(value, list) or len(value) != rows:
        raise InstanceFormatError(f"{path}: expected {rows} rows")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise InstanceFormatError(f"{path}[{i}]: expected {cols} entries")
        out.append([_as_vector(v, veclen, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return out


def decode_document(obj) -> dict:
    """Check the raw JSON object against the schema and convert every
    integer; returns a plain dict with Python ints."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("top level must be an object")
    for key in ("ring", "module"):
        if key not in obj or not isinstance(obj[key], dict):
            raise InstanceFormatError(f"missing section: {key}")

    rsec = obj["ring"]
    k = _as_int(rsec.get("num_gens"), "ring.num_gens")
    if k < 0:
        raise InstanceFormatError("ring.num_gens must be nonnegative")
    rrel = rsec.get("relations")
    if not isinstance(rrel, list):
        raise InstanceFormatError("ring.relations must be a list of rows")
    rrel = [_as_vector(row, k, f"ring.relations[{i}]") for i, row in enumerate(rrel)]
    rmul = _as_table(rsec.get("mul"), k, k, k, "ring.mul")
    one = None
    if rsec.get("one") is not None:
        one = _as_vector(rsec["one"], k, "ring.one")

    msec = obj["module"]
    m = _as_int(msec.get("num_gens"), "module.num_gens")
    if m < 0:
        raise InstanceFormatError("module.num_gens must be nonnegative")
    mrel = msec.get("relations")
    if not isinstance(mrel, list):
        raise InstanceFormatError("module.relations must be a list of rows")
    mrel = [_as_vector(row, m, f"module.relations[{i}]") for i, row in enumerate(mrel)]
    action = _as_table(msec.get("action"), k, m, m, "module.action")

    doc = {
        "ring": {"num_gens": k, "relations": rrel, "mul": rmul},
        "module": {"num_gens": m, "relations": mrel, "action": action},
    }
    if one is not None:
        doc["ring"]["one"] = one
    return doc


def loads(text: str) -> dict:
    try:
        obj = json.loads(text, parse_int=int_from_str)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from None
    return decode_document(obj)


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dumps(doc: dict) -> str:
    """Canonical serialization: fixed key order, integers as decimal
    strings, two-space indent, trailing newline.  Deterministic, so equal
    documents are byte-identical."""
    def s(x):
        return int_to_str(int(x))

    ring = doc["ring"]
    module = doc["module"]
    out = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
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


# -- parsing into canonical objects ------------------------------------------

def _descent_diagnostics(doc: dict, mul_img, act_img, rg: CanonicalGroup,
                         mg: CanonicalGroup) -> list:
    """User-level well-definedness: every stated relation must be killed by
    the bilinear tables, otherwise the table does not descend to the
    presented groups.  `mul_img` and `act_img` are the tables' vectors in
    canonical coordinates, unreduced; a relation combination of them is the
    image of the same combination of the user vectors, since the change of
    coordinates is linear."""
    diags = []
    k = doc["ring"]["num_gens"]
    m = doc["module"]["num_gens"]
    dr, dm = rg.invariant_factors, mg.invariant_factors

    def killed(vec, factors):
        return not any(map(mod, vec, factors))

    mul_cols = [[row[j] for row in mul_img] for j in range(k)]
    act_cols = [[row[j] for row in act_img] for j in range(m)]
    for ridx, rho in enumerate(doc["ring"]["relations"]):
        for j in range(k):
            left = lincomb(rho, mul_cols[j], rg.rank)
            right = lincomb(rho, mul_img[j], rg.rank)
            if not killed(left, dr) or not killed(right, dr):
                diags.append(Diagnostic(
                    "well-definedness", f"ring relation {ridx} x g{j}",
                    "multiplication does not kill a stated ring relation"))
    # ring relations must also die under the module action
    for ridx, rho in enumerate(doc["ring"]["relations"]):
        for j in range(m):
            if not killed(lincomb(rho, act_cols[j], mg.rank), dm):
                diags.append(Diagnostic(
                    "well-definedness", f"ring relation {ridx} x m{j}",
                    "module action does not kill a stated ring relation"))
    # module relations must die under every ring generator
    for sidx, sigma in enumerate(doc["module"]["relations"]):
        for i in range(k):
            if not killed(lincomb(sigma, act_img[i], mg.rank), dm):
                diags.append(Diagnostic(
                    "well-definedness", f"g{i} x module relation {sidx}",
                    "module action does not kill a stated module relation"))
    return diags


def parse_instance(source, validate: bool = True) -> ParsedInstance:
    """Build the canonical ring and module from a document (dict or JSON
    text).

    Canonicalizes both groups, converts the tables to canonical
    coordinates, solves for the identity when the file omits it, and runs
    the validators unless `validate` is False.  Raises InstanceFormatError,
    NotFiniteError, or ValidationFailure.
    """
    if isinstance(source, str):
        doc = loads(source)
    else:
        doc = decode_document(source)

    warnings = []
    try:
        rg = canonicalize(IntMatrix.from_rows(doc["ring"]["relations"],
                                              cols=doc["ring"]["num_gens"]))
    except NotFiniteError as exc:
        raise NotFiniteError(f"ring: {exc}") from None
    try:
        mg = canonicalize(IntMatrix.from_rows(doc["module"]["relations"],
                                              cols=doc["module"]["num_gens"]))
    except NotFiniteError as exc:
        raise NotFiniteError(f"module: {exc}") from None

    k = doc["ring"]["num_gens"]
    mul_doc = doc["ring"]["mul"]
    for i in range(k):
        for j in range(i + 1, k):
            if mul_doc[i][j] != mul_doc[j][i]:
                warnings.append(
                    f"ring.mul[{i}][{j}] and ring.mul[{j}][{i}] differ as written; "
                    "entries are normalized modulo the relations and commutativity "
                    "is checked canonically")
                break
        else:
            continue
        break

    # Every table vector in canonical coordinates, unreduced, once.  The
    # user vectors are not read again: each is replaced by its image in
    # place, so the tables are held once, not twice.
    mul_img, act_img = doc["ring"].pop("mul"), doc["module"].pop("action")
    for table, group in ((mul_img, rg), (act_img, mg)):
        for row in table:
            row[:] = [vec_mat(vec, group.to_can) for vec in row]

    diags = []
    if validate:
        diags.extend(_descent_diagnostics(doc, mul_img, act_img, rg, mg))

    # canonical generator representatives in user coordinates
    r_reps, m_reps = rg.from_can.data, mg.from_can.data

    mul_can = [[rg.reduce(bilinear(mul_img, ra, rb, rg.rank)) for rb in r_reps]
               for ra in r_reps]
    act_can = [[mg.reduce(bilinear(act_img, ra, mb, mg.rank)) for mb in m_reps]
               for ra in r_reps]

    one_el = None
    if doc["ring"].get("one") is not None:
        one_el = rg.from_user(doc["ring"]["one"])
    else:
        try:
            one_el = find_identity(rg, mul_can)
        except NoIdentityError:
            diags.append(Diagnostic("identity", "ring",
                                    "no multiplicative identity exists"))
            one_el = rg.zero()

    ring = FiniteRing(rg, mul_can, one_el)
    module = FiniteModule(ring, mg, act_can)

    if validate:
        diags.extend(ring_validate(ring))
        diags.extend(module_validate(ring, module))
    if diags:
        raise ValidationFailure(diags)
    return ParsedInstance(ring, module, warnings)


# -- instance families -------------------------------------------------------

def _unit(i: int, n: int) -> list:
    return [1 if j == i else 0 for j in range(n)]


def gen_zmod(n: int, ds) -> dict:
    """R = Z/n acting on a direct sum of Z/d_i with every d_i | n."""
    ds = [int(d) for d in ds]
    if n < 1:
        raise ValueError(f"zmod: n must be positive, got {n}")
    for d in ds:
        if d < 1 or n % d:
            raise ValueError(f"zmod: summand order {d} does not divide n = {n}")
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
        raise ValueError(f"trunc: need p >= 2 and e >= 1, got p={p}, e={e}")
    mdegs = [int(t) for t in (mdegs if mdegs is not None else [e])]
    for t in mdegs:
        if t < 1 or t > e:
            raise ValueError(f"trunc: summand degree {t} not in 1..{e}")
    mul = [[(_unit(i + j, e) if i + j < e else [0] * e) for j in range(e)]
           for i in range(e)]
    total = sum(mdegs)
    offsets = []
    off = 0
    for t in mdegs:
        offsets.append(off)
        off += t
    action = []
    for i in range(e):
        row = []
        for t, off in zip(mdegs, offsets):
            for j in range(t):
                if i + j < t:
                    row.append(_unit(off + i + j, total))
                else:
                    row.append([0] * total)
        action.append(row)
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
    ka, kb = a["ring"]["num_gens"], b["ring"]["num_gens"]
    ma, mb = a["module"]["num_gens"], b["module"]["num_gens"]
    k, m = ka + kb, ma + mb

    def pad_left(vec, width, offset):
        out = [0] * width
        out[offset:offset + len(vec)] = vec
        return out

    relations = [pad_left(row, k, 0) for row in a["ring"]["relations"]]
    relations += [pad_left(row, k, ka) for row in b["ring"]["relations"]]
    mul = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i in range(ka):
        for j in range(ka):
            mul[i][j] = pad_left(a["ring"]["mul"][i][j], k, 0)
    for i in range(kb):
        for j in range(kb):
            mul[ka + i][ka + j] = pad_left(b["ring"]["mul"][i][j], k, ka)

    def one_of(doc):
        if doc["ring"].get("one") is not None:
            return doc["ring"]["one"]
        parsed = parse_instance(doc, validate=False)
        return parsed.ring.group.to_user(parsed.ring.one)

    one = pad_left(one_of(a), k, 0)
    one_b = pad_left(one_of(b), k, ka)
    one = [x + y for x, y in zip(one, one_b)]

    mrel = [pad_left(row, m, 0) for row in a["module"]["relations"]]
    mrel += [pad_left(row, m, ma) for row in b["module"]["relations"]]
    action = [[[0] * m for _ in range(m)] for _ in range(k)]
    for i in range(ka):
        for j in range(ma):
            action[i][j] = pad_left(a["module"]["action"][i][j], m, 0)
    for i in range(kb):
        for j in range(mb):
            action[ka + i][ma + j] = pad_left(b["module"]["action"][i][j], m, ma)

    return {
        "ring": {"num_gens": k, "relations": relations, "mul": mul, "one": one},
        "module": {"num_gens": m, "relations": mrel, "action": action},
    }


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
        raise ValueError(f"randquot: n must be at least 2, got {n}")
    if max_deg < 1:
        raise ValueError(f"randquot: max_deg must be at least 1, got {max_deg}")
    rng = random.Random(f"randquot:{n}:{max_deg}:{summands}:{seed}")
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
