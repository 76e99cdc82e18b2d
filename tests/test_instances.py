import copy
import json
import random

import pytest

from helpers import reference_decode, reference_dumps, reference_parse, ring_mul
from modcyclic import abelian, instances, intlinalg, modules, rings
from modcyclic.abelian import NotFiniteError
from modcyclic.instances import (
    InstanceFormatError,
    ValidationFailure,
    dumps,
    gen_prod,
    gen_randquot,
    gen_trunc,
    gen_zmod,
    loads,
    parse_instance,
)
from modcyclic.intstr import int_to_str


def family_docs():
    return [
        ("zmod", gen_zmod(12, [2, 6])),
        ("zmod-trivial", gen_zmod(5, [1])),
        ("trunc", gen_trunc(2, 3)),
        ("trunc-sum", gen_trunc(3, 2, [2, 1])),
        ("prod", gen_prod(gen_zmod(4, [2, 4]), gen_trunc(2, 2))),
        ("randquot", gen_randquot(4, 123)),
        ("randquot-deep", gen_randquot(2, 55, max_deg=4, summands=3)),
    ]


def test_generated_instances_validate():
    for label, doc in family_docs():
        parsed = parse_instance(doc)  # raises on any diagnostic
        assert parsed.ring.order >= 1, label
        assert parsed.warnings == []


def test_roundtrip_preserves_canonical_data():
    for label, doc in family_docs():
        text = dumps(doc)
        doc2 = loads(text)
        # decoded, the table vectors are tuples, the generator's are lists
        assert doc2 == instances.decode_document(doc), label
        before = copy.deepcopy((doc, doc2))
        p1 = parse_instance(doc)
        p2 = parse_instance(doc2)
        # parsing reads its argument and changes nothing in it
        assert (doc, doc2) == before, label
        assert p1.ring.group.invariant_factors == p2.ring.group.invariant_factors
        assert p1.ring.mul_table == p2.ring.mul_table
        assert p1.ring.one == p2.ring.one
        assert p1.module.group.invariant_factors == p2.module.group.invariant_factors
        assert p1.module.action_table == p2.module.action_table


def test_seed_determinism():
    a = dumps(gen_randquot(6, 4242, max_deg=3))
    b = dumps(gen_randquot(6, 4242, max_deg=3))
    assert a == b
    c = dumps(gen_randquot(6, 4243, max_deg=3))
    assert a != c


def test_randquot_int_seed_past_the_digit_limit():
    # an int seed is written into the seed string as its decimal text,
    # which str() refuses past 4,300 digits
    seed = 10 ** 5000
    assert (gen_randquot(4, seed, max_deg=1, summands=1)
            == gen_randquot(4, int_to_str(seed), max_deg=1, summands=1))


def test_decimal_string_encoding():
    text = dumps(gen_zmod(10, [2, 5]))
    assert '"10"' in text
    big = 10 ** 40
    doc = loads(text)
    doc["ring"]["relations"][0][0] = big
    doc["module"]["relations"] = [[2, 0], [0, big]]
    redoc = loads(dumps(doc))
    assert redoc["module"]["relations"][1][1] == big
    parsed = parse_instance(redoc)
    assert parsed.ring.order == big
    assert parsed.module.order == 2 * big


def test_integers_past_the_digit_limit():
    # int() and str() refuse more than 4,300 digits; the format has no
    # width limit, so a 5,001-digit entry must survive dumps -> loads.
    big = 10 ** 5000 + 3
    doc = gen_zmod(big, [1])
    doc["module"]["relations"] = [[-big]]
    text = dumps(doc)
    assert '"1' + "0" * 4999 + '3"' in text
    redoc = loads(text)
    assert redoc["ring"]["relations"] == [[big]]
    assert redoc["module"]["relations"] == [[-big]]
    assert dumps(redoc) == text
    # plain JSON numbers are accepted on input, at any width too
    bare = text.replace('"' + "1" + "0" * 4999 + '3"', "1" + "0" * 4999 + "3")
    assert bare != text and loads(bare) == redoc

    raw = json.loads(dumps(gen_zmod(4, [4])))
    # one grammar at every length: int() alone would take these short ones
    for bad in ("12a", "1" * 5000 + "x", "\u0663" * 5000, "", "1_0", "\u0663", "-1_0"):
        raw["ring"]["relations"] = [[bad]]
        with pytest.raises(InstanceFormatError, match="not a decimal integer"):
            loads(json.dumps(raw))


def test_decoding_errors_name_the_entry():
    # An odd spelling at index 2 of a ring.mul vector, after two plain
    # entries: each decodes to its value, or is rejected with a message
    # that names the entry's full path.
    raw = json.loads(dumps(gen_trunc(2, 3)))

    def decode(entry):
        raw["ring"]["mul"][0][0][2] = entry
        return loads(json.dumps(raw))["ring"]["mul"][0][0]

    for entry, value in ((" 7 ", 7), ("+7", 7), ("-7", -7), ("007", 7), (7, 7),
                         ("1" + "0" * 5000, 10 ** 5000)):
        assert decode(entry) == (1, 0, value)
    path = "ring.mul[0][0][2]"
    for entry in ("1_0", "\u0663", "\u00b2", "", "7.0", "1" * 4999 + "x",
                  "\u0663" * 5001):
        with pytest.raises(InstanceFormatError) as exc:
            decode(entry)
        assert str(exc.value) == f"{path}: not a decimal integer: {entry!r}"
    for entry, kind in ((True, "a boolean"), (7.5, "float"), (None, "NoneType"),
                        (["7"], "list")):
        with pytest.raises(InstanceFormatError) as exc:
            decode(entry)
        assert str(exc.value) == f"{path}: expected an integer, got {kind}"
    # an empty entry in a row whose other entries are all digits: the row's
    # one-pass decode must fall back and name the entry
    raw["ring"]["mul"][0][1][0] = "12"
    with pytest.raises(InstanceFormatError) as exc:
        decode("")
    assert str(exc.value) == f"{path}: not a decimal integer: ''"


def test_negative_coordinates_accepted():
    doc = gen_zmod(12, [12])
    doc["ring"]["mul"] = [[[-11]]]  # -11 = 1 mod 12
    parsed = parse_instance(doc)
    assert ring_mul(parsed.ring, parsed.ring.one, parsed.ring.one) == parsed.ring.one


def test_invalid_family_params():
    with pytest.raises(ValueError):
        gen_zmod(6, [4])
    with pytest.raises(ValueError):
        gen_trunc(1, 3)
    with pytest.raises(ValueError):
        gen_trunc(2, 3, [4])
    with pytest.raises(ValueError):
        gen_randquot(1, 0)


def test_not_finite_errors():
    doc = gen_zmod(4, [4])
    doc["ring"]["relations"] = []
    with pytest.raises(NotFiniteError):
        parse_instance(doc)

    doc = gen_zmod(4, [4])
    doc["module"]["relations"] = [[0]]
    with pytest.raises(NotFiniteError):
        parse_instance(doc)


def test_schema_errors():
    with pytest.raises(InstanceFormatError):
        loads("not json at all {")
    with pytest.raises(InstanceFormatError):
        parse_instance({"ring": {}})
    doc = gen_zmod(4, [4])
    doc["ring"]["mul"] = [[[1, 2]]]  # wrong vector length
    with pytest.raises(InstanceFormatError):
        parse_instance(doc)
    doc = gen_zmod(4, [4])
    doc["module"]["action"] = [[["x"]]]
    with pytest.raises(InstanceFormatError):
        parse_instance(doc)


def test_identity_solved_when_omitted():
    # Z/2 x Z/2 with idempotent generators, no "one" in the file
    doc = gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2]))
    del doc["ring"]["one"]
    parsed = parse_instance(doc)
    assert parsed.ring.one == parsed.ring.group.element((1, 1))
    # gen_prod parses a factor without "one" to solve for its identity,
    # and leaves both factors as they were
    for a, b in [(gen_zmod(6, [2, 3]), gen_trunc(2, 3)),
                 (gen_trunc(3, 2, [2, 1]), gen_randquot(4, 123)),
                 (gen_randquot(6, 7, max_deg=3), gen_zmod(4, [4]))]:
        bare = copy.deepcopy((a, b))
        for factor in bare:
            del factor["ring"]["one"]
        before = copy.deepcopy((a, b, bare))
        assert gen_prod(*bare) == gen_prod(a, b)
        assert (a, b, bare) == before


def test_gen_prod_takes_decoded_documents():
    # Decoded table vectors are tuples.  The product of two decoded
    # documents equals the product of the dicts they were written from, and
    # every vector of it is a fresh list.
    for a, b in [(gen_trunc(2, 3), gen_zmod(6, [2, 3])),
                 (gen_randquot(4, 123), gen_trunc(3, 2, [2, 1])),
                 (gen_prod(gen_zmod(4, [2, 4]), gen_trunc(2, 2)), gen_zmod(3, [3]))]:
        prod = gen_prod(loads(dumps(a)), loads(dumps(b)))
        assert prod == gen_prod(a, b)
        vecs = [prod["ring"]["one"], *prod["ring"]["relations"], *prod["module"]["relations"],
                *(vec for sec, key in (("ring", "mul"), ("module", "action"))
                  for row in prod[sec][key] for vec in row)]
        assert all(type(vec) is list for vec in vecs)
        assert len({id(vec) for vec in vecs}) == len(vecs)


def test_supplied_identity_must_be_correct():
    doc = gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2]))
    doc["ring"]["one"] = [1, 0]  # e1 is not the identity
    with pytest.raises(ValidationFailure) as exc:
        parse_instance(doc)
    assert any(d.axiom == "identity" for d in exc.value.diagnostics)


def test_literal_asymmetry_warns_but_canonical_equality_passes():
    doc = gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2]))
    # rewrite e2*e1 with a different representative of the same class
    doc["ring"]["mul"][1][0] = [2, 0]  # = [0, 0] modulo the relations
    parsed = parse_instance(doc)
    assert parsed.warnings and "differ as written" in parsed.warnings[0]


def test_validation_accepts_a_true_identity_and_rejects_a_bad_action():
    doc = gen_zmod(4, [2, 2])
    doc["ring"]["mul"] = [[[3]]]  # g*g = 3g: no identity is declared wrong...
    doc["ring"]["one"] = [3]      # ...but 3 is the identity for x*y = 3xy
    parsed = parse_instance(doc)
    assert parsed.ring.one == parsed.ring.group.element((3,))

    bad = gen_zmod(4, [2, 2])
    bad["module"]["action"] = [[[0, 1], [0, 1]]]
    with pytest.raises(ValidationFailure):
        parse_instance(bad)


def dumps_edge_cases():
    """Documents at the edges of the layout: no generators, no relations,
    no `one`, negative entries, an entry past the digit limit."""
    big = 10 ** 5000 + 7
    none = {"ring": {"num_gens": 0, "relations": [], "mul": []},
            "module": {"num_gens": 0, "relations": [], "action": []}}
    trivial_module = gen_zmod(3, [1])
    trivial_module["module"] = {"num_gens": 0, "relations": [], "action": [[]]}
    no_relations = gen_trunc(2, 2)
    no_relations["ring"]["relations"] = []
    no_relations["module"]["relations"] = []
    no_one = gen_randquot(6, 11, max_deg=3)
    del no_one["ring"]["one"]
    negative = gen_trunc(3, 3, [3, 1])
    negative["ring"]["mul"][1][2] = [-1, 0, -4]
    negative["module"]["relations"][0][0] = -3
    wide = gen_zmod(big, [1])
    wide["ring"]["mul"] = [[[big]]]
    wide["module"]["action"] = [[[-big]]]
    return [none, trivial_module, no_relations, no_one, negative, wide]


def test_dumps_writes_the_bytes_of_json_dumps():
    docs = [doc for _, doc in family_docs()] + dumps_edge_cases()
    docs.append(gen_prod(gen_trunc(2, 4, [4, 2]), gen_randquot(9, 3, max_deg=3)))
    for doc in docs:
        assert dumps(doc) == reference_dumps(doc)


def count_lincomb(monkeypatch):
    """Count `intlinalg.lincomb` calls, under every name it is bound to."""
    calls = []
    real = intlinalg.lincomb

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for module in (intlinalg, abelian, rings, modules, instances):
        if hasattr(module, "lincomb"):
            monkeypatch.setattr(module, "lincomb", counting)
    return calls


def test_parse_reads_small_entries_without_int(monkeypatch):
    # A bound on the work, not the time: every entry of a trunc file is a
    # small canonical spelling, read from the decoder's table, so no entry
    # is converted by int().  The module global shadows the builtin; it
    # still answers isinstance() as int does.
    text = dumps(gen_trunc(3, 12, [12, 6]))
    calls = []

    class IntCheck(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, int)

    class counting(metaclass=IntCheck):
        def __new__(cls, *args):
            calls.append(args)
            return int(*args)

    monkeypatch.setattr(instances, "int", counting, raising=False)
    parse_instance(text)
    assert calls == []
    # a miss: the vector is read entry by entry, through `int_from_str`
    assert instances._decoded(["1", "007"]) is None
    assert instances._as_vector(["1", "007"], 2, "v") == [1, 7]


def test_a_row_the_spelling_table_misses_is_read_entry_by_entry(monkeypatch):
    # "256" is past the decoder's table of small spellings: the rows that
    # hold it, and only those, send their entries through `_as_int`, and
    # the document decodes to the same values as the dict it was written
    # from.  The scalar fields, `version` and the generator counts, are
    # always read through `_as_int`.
    doc = gen_zmod(256, [256, 2])
    text = dumps(doc)
    paths = []
    real = instances._as_int

    def counted(value, path):
        paths.append(path)
        return real(value, path)

    monkeypatch.setattr(instances, "_as_int", counted)
    parse_instance(text)
    assert [p for p in paths if p != "version" and not p.endswith("num_gens")] == [
        "ring.relations[0][0]", "module.relations[0][0]", "module.relations[0][1]"]
    assert loads(text) == instances.decode_document(doc)


TABLES = (("ring", "mul"), ("module", "action"))


def test_decode_reads_each_table_spelling_once(monkeypatch):
    # A bound on the work, not the time: the decoder reads each distinct
    # spelling of a table vector once per table, however many slots hold
    # it, and every slot holding it gets the same tuple.
    text = dumps(gen_trunc(3, 12, [12, 6]))
    raw = json.loads(text)
    calls, per_table = [], []
    real_decoded, real_table = instances._decoded, instances._as_table

    def decoded(entries):
        calls.append(entries)
        return real_decoded(entries)

    def as_table(*args):
        start = len(calls)
        out = real_table(*args)
        per_table.append(len(calls) - start)
        return out

    monkeypatch.setattr(instances, "_decoded", decoded)
    monkeypatch.setattr(instances, "_as_table", as_table)
    doc = loads(text)
    spellings = [{tuple(vec) for row in raw[sec][key] for vec in row} for sec, key in TABLES]
    assert per_table == [len(s) for s in spellings]
    assert sum(per_table) * 10 < sum(len(row) for sec, key in TABLES for row in raw[sec][key])
    for (sec, key), distinct in zip(TABLES, spellings):
        vecs = [vec for row in doc[sec][key] for vec in row]
        assert len({id(vec) for vec in vecs}) == len(distinct)


def test_decoded_table_vectors_are_shared_tuples():
    # After `loads`, every table vector is a tuple, and the vectors spelled
    # alike in one table are one tuple object.
    for label, doc in family_docs():
        text = dumps(doc)
        raw, decoded = json.loads(text), loads(text)
        for sec, key in TABLES:
            spelled = [tuple(vec) for row in raw[sec][key] for vec in row]
            vecs = [vec for row in decoded[sec][key] for vec in row]
            assert all(type(vec) is tuple for vec in vecs), label
            first = {}
            assert all(first.setdefault(s, vec) is vec for s, vec in zip(spelled, vecs)), label


def decode_outcome(decode, raw):
    try:
        return decode(raw)
    except InstanceFormatError as exc:
        return f"InstanceFormatError: {exc}"


@pytest.mark.parametrize("slots", [
    # a stored spelling, then the same entries with a boolean in front
    {(0, 0): ["1", "0"], (1, 0): [True, "0"]},
    # int literals, which are never stored, then a boolean equal to them
    {(0, 0): [1, 0], (0, 1): [True, 0]},
    {(0, 0): [1, 0], (0, 1): [1.0, 0]},
    # a vector spelled as a string, or an object, whose tuple() is a stored key
    {(0, 0): ["1", "0"], (1, 1): "10"},
    {(0, 0): ["1", "0"], (1, 1): {"1": "0", "0": "0"}},
    # other spellings of a stored vector's values
    {(0, 0): ["1", "0"], (0, 1): ["01", "0"]},
    {(0, 0): ["1", "0"], (1, 0): [" 1", "0"]},
    {(0, 0): ["0", "0"], (1, 1): ["-0", "0"]},
])
def test_decoding_a_spelling_after_its_twin_matches_the_reference(slots):
    # Each vector that is not a list of strings the decoder's table reads
    # gives exactly what the per-entry reference gives, value or error,
    # after a vector the decoder stored, in the same table or row.
    raw = json.loads(dumps(gen_trunc(2, 2)))
    for (i, j), vec in slots.items():
        raw["ring"]["mul"][i][j] = vec
    text = json.dumps(raw)
    expected = decode_outcome(reference_decode, json.loads(text))
    assert decode_outcome(loads, text) == expected
    assert decode_outcome(instances.decode_document, json.loads(text)) == expected


def shifted(doc, p, seed):
    """`doc` with every table entry moved by a seeded multiple of p, some
    to negative values and some past 255."""
    rng = random.Random(seed)
    doc = copy.deepcopy(doc)
    for sec, key in (("ring", "mul"), ("module", "action")):
        doc[sec][key] = [[[x + p * rng.choice((-2, -1, 0, 0, 90)) for x in vec] for vec in row]
                         for row in doc[sec][key]]
    return doc


@pytest.mark.parametrize("case", [16, 32, "randquot", "shifted"])
def test_parse_work_is_per_row(case, monkeypatch):
    # A bound on the work, not the time: the conversion to canonical
    # coordinates makes at most one kernel call per distinct decoded vector
    # of a table, and every later pass one per table row, relation or
    # generator.  Cases: trunc(2, e) for e = 16 and 32, a randquot module
    # that takes the Smith pass, and a trunc file whose vectors differ as
    # written but agree once reduced.  On trunc(2, e) one call per table
    # vector would make 6e^2 + 1 outside the checks and about 14e^2 in all.
    # On both trunc files every relation vanishes modulo p, so no flat row
    # or column is built, and the generator tables are the converted tables.
    if case == "randquot":
        doc = gen_randquot(4, 123)
    elif case == "shifted":
        doc = shifted(gen_trunc(3, 4, [4, 2]), 3, 31)
    else:
        doc = gen_trunc(2, case)
    calls = count_lincomb(monkeypatch)
    in_checks, converted, flat, generator = [], [], [], []
    for name in ("_descent_diagnostics", "ring_validate", "module_validate"):
        def counted(*args, _check=getattr(instances, name)):
            start = len(calls)
            out = _check(*args)
            in_checks.append(len(calls) - start)
            return out
        monkeypatch.setattr(instances, name, counted)

    def converting(table, group, _convert=instances._in_canonical):
        start = len(calls)
        out = _convert(table, group)
        converted.append((len(calls) - start, len({vec for row in table for vec in row}), out))
        return out

    def flattening(table, _flat=instances._flat_rows):
        flat.append(None)
        return _flat(table)

    def tabulating(*args, _table=instances._canonical_table):
        generator.append(_table(*args))
        return generator[-1]

    monkeypatch.setattr(instances, "_in_canonical", converting)
    monkeypatch.setattr(instances, "_flat_rows", flattening)
    monkeypatch.setattr(instances, "_canonical_table", tabulating)
    parse_instance(doc)
    assert len(in_checks) == 3 and len(converted) == 2
    assert all(made <= distinct for made, distinct, _ in converted), converted
    if case == "randquot":
        assert flat  # a module relation survives, and the Smith pass reads flat rows
        return
    assert flat == []
    assert len(generator) == 2
    assert all(out is table for out, (_, _, table) in zip(generator, converted))
    if case != "shifted":
        assert len(calls) - sum(in_checks) <= 8 * case, (len(calls), in_checks)
        assert len(calls) <= 5 * case * case, len(calls)


def test_generator_tables_share_one_tuple_per_distinct_vector(monkeypatch):
    # Every slot of a generator table that holds a given reduced vector
    # holds the same tuple, on the identity branch (trunc), on the Smith
    # pass (the randquot module has relations past its diagonal), on a
    # product of the two, and on an identity-coordinate file spelled with
    # negative entries and entries past 255, which are read entry by entry
    # and hold vectors that differ as written but agree once reduced.  The
    # tables equal the vector-by-vector reference parse.
    trunc, randquot = gen_trunc(3, 4, [4, 2]), gen_randquot(4, 123)
    mg = parse_instance(randquot).module.group
    assert not instances._is_identity(mg.from_can, len(mg.to_can))
    paths = []
    real = instances._as_int

    def counted(value, path):
        paths.append(path)
        return real(value, path)

    monkeypatch.setattr(instances, "_as_int", counted)
    for doc in (trunc, randquot, gen_prod(trunc, randquot), shifted(trunc, 3, 31)):
        text = dumps(doc)
        parsed = parse_instance(text)
        tables = (parsed.ring.mul_table, parsed.module.action_table)
        for table in tables:
            vecs = [vec for row in table for vec in row]
            assert len({id(vec) for vec in vecs}) == len(set(vecs))
        assert reference_parse(json.loads(text))[1:3] == tables
    assert any(p.startswith(("ring.mul[", "module.action[")) for p in paths)
    vecs = [vec for row in shifted(trunc, 3, 31)["ring"]["mul"] for vec in row]
    assert len(set(map(tuple, vecs))) > len({tuple(x % 3 for x in vec) for vec in vecs})


def test_every_parsed_table_vector_is_reduced():
    # `rings.products` and `FiniteModule.images` return a generator's
    # products as the table's own tuples, unreduced by them: every vector
    # of every parsed table must already lie in [0, d_j) coordinate by
    # coordinate, for the invariant factors d of its column group.  Over
    # the family files, the identity branch and the Smith pass, big
    # moduli, files written with negative entries and entries past 255,
    # and the same files as text.
    docs = [doc for _, doc in family_docs()] + [
        gen_randquot(4, 6), gen_prod(gen_zmod(2 ** 70, [2 ** 35]), gen_randquot(4, 123)),
        gen_randquot(10 ** 25, 6, max_deg=3, summands=2),
        shifted(gen_trunc(3, 4, [4, 2]), 3, 31), shifted(gen_trunc(2, 5, [5, 1]), 2, 7)]
    smith = 0
    for doc in docs:
        for parsed in (parse_instance(doc), parse_instance(dumps(doc))):
            ring, module = parsed.ring, parsed.module
            for table, group in ((ring.mul_table, ring.group), (module.action_table, module.group)):
                factors = group.invariant_factors
                for vec in (vec for row in table for vec in row):
                    assert type(vec) is tuple and len(vec) == len(factors)
                    assert all(0 <= x < d for x, d in zip(vec, factors)), vec
            smith += not instances._is_identity(module.group.from_can, len(module.group.to_can))
    assert smith >= 6
