import copy
import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from descregions import tracedoc
from descregions.check import (
    INCONCLUSIVE,
    MODE_POSITIVES_INSIDE,
    CertifyConfig,
    SimplexWitness,
    verify_certificate,
)
from descregions.certify import certify_connectivity
from descregions.parsing import parse_signomial
from descregions.signomial import Signomial

import fixtures
import replay_oracle
from fixtures import (
    BOX_F,
    CUBE3,
    CUBE4,
    NEG_QUADRATIC,
    PERFECT_SQUARE,
    SIMPLEX_CONNECTED,
    SIMPLEX_VERTICES,
    TEN_TERM,
    TEN_TERM_UPPER,
    vec,
)

F = Fraction

ONE_POSITIVE = Signomial.from_terms(
    2, [(1, (1, 1)), (-1, (0, 0)), (-1, (2, 0)), (-1, (0, 2)), (-1, (2, 2))]
)
ALL_NEGATIVE = Signomial.from_terms(1, [(-1, (0,)), (-2, (3,))])
ALL_POSITIVE = Signomial.from_terms(1, [(1, (0,)), (2, (3,))])
SIMPLEX_CONFIG = CertifyConfig(
    simplex_witness=SimplexWitness(
        SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE, interior_negative=vec(0, 4)
    )
)


def round_trip(f, config):
    cert = certify_connectivity(f, config)
    doc = json.loads(tracedoc.document_to_json(tracedoc.make_document(f, config, cert)))
    assert tracedoc.certificate_from_json(doc["tree"]) == cert
    assert tracedoc.signomial_from_json(doc["input"]) == f
    assert tracedoc.verify_document(doc) == []
    return cert, doc


def test_every_certificate_kind_round_trips():
    cases = [
        (ALL_POSITIVE, CertifyConfig()),  # empty
        (ALL_NEGATIVE, CertifyConfig()),  # criterion: no positive terms
        (PERFECT_SQUARE, CertifyConfig()),  # criterion: one negative coeff
        (ONE_POSITIVE, CertifyConfig()),  # criterion: one positive coeff
        (TEN_TERM_UPPER, CertifyConfig()),  # criterion: strict separating
        (SIMPLEX_CONNECTED, SIMPLEX_CONFIG),  # criterion: simplex witness
        (BOX_F, CertifyConfig(enable_box_criterion=True)),  # criterion: box
        (CUBE3, CertifyConfig()),  # parallel split
        (CUBE4, CertifyConfig()),  # negative-face reduction above a split
        (NEG_QUADRATIC, CertifyConfig()),  # inconclusive
        (TEN_TERM, CertifyConfig()),  # inconclusive after a full scan
    ]
    seen = set()
    for f, config in cases:
        cert, doc = round_trip(f, config)
        seen.add(doc["tree"].get("criterion", doc["tree"]["kind"]))
    assert {
        "empty",
        "no-positive-terms",
        "one-negative-coeff",
        "one-positive-coeff",
        "strict-separating",
        "simplex-positives-inside",
        "box",
        "parallel-split",
        "negative-face-reduction",
        "inconclusive",
    } <= seen


def test_document_outcome_mismatch_detected():
    cert = certify_connectivity(CUBE3)
    doc = tracedoc.make_document(CUBE3, CertifyConfig(), cert)
    doc["outcome"] = INCONCLUSIVE
    assert tracedoc.verify_document(doc) != []


def test_document_rejects_unknown_schema():
    cert = certify_connectivity(CUBE3)
    doc = tracedoc.make_document(CUBE3, CertifyConfig(), cert)
    doc["schema"] = 99
    assert tracedoc.verify_document(doc) != []


def test_malformed_documents_are_reported_not_raised():
    cert = certify_connectivity(CUBE4)
    good = tracedoc.make_document(CUBE4, CertifyConfig(), cert)
    split = json.loads(json.dumps(good))
    split["tree"]["children"][0]["child_nonempty"].pop()
    bad_documents = [
        [1, 2],
        "trace",
        None,
        {"schema": 1, "input": {"dimension": 1, "terms": 5}, "tree": {}},
        {"schema": 1, "input": [], "tree": {}},
        {"schema": 1, "input": {"dimension": None, "terms": []}, "tree": {}},
        {"schema": 1, "input": {"dimension": 1, "terms": [{"coefficient": "1/0", "exponent": ["1"]}]}, "tree": {}},
        {"schema": 1, "input": good["input"], "tree": []},
        {"schema": 1, "input": {"dimension": 1, "terms": []},
         "tree": {"kind": "negative-face-reduction", "outcome": "CertifiedEmpty", "normal": ["1"], "face": [],
                  "children": [{"kind": "empty", "outcome": "CertifiedEmpty"}]}},
        {"schema": 1, "input": good["input"], "tree": {"kind": "criterion", "outcome": "x",
                                                      "criterion": "strict-separating",
                                                      "nonempty": True, "witness": [1]}},
    ]
    # the dimension must be a JSON int: respelled, the CUBE3 trace used to replay
    cube3 = json.loads(tracedoc.document_to_json(tracedoc.make_document(CUBE3, CertifyConfig(), certify_connectivity(CUBE3))))
    assert tracedoc.verify_document(cube3) == []
    for spelling in ("3", " 3", "+3", 3.0, 3.7, True, None, [3]):
        bad = copy.deepcopy(cube3)
        bad["input"]["dimension"] = spelling
        bad_documents.append(bad)
    for doc in bad_documents:
        errors = tracedoc.verify_document(doc)
        assert len(errors) == 1 and errors[0].startswith("malformed document: "), doc
    assert tracedoc.verify_document(split) == ["root.face: malformed parallel-split node"]


def test_nonempty_must_be_a_json_boolean():
    """A criterion node's ``nonempty`` is a JSON boolean or the document is
    malformed: a truthy 1, "yes" or [0] is not read as true.  A boolean of
    the wrong value stays a replay error of the node."""
    doc = json.loads(tracedoc.document_to_json(tracedoc.make_document(
        TEN_TERM_UPPER, CertifyConfig(), certify_connectivity(TEN_TERM_UPPER))))
    assert doc["tree"]["nonempty"] is True and tracedoc.verify_document(doc) == []
    for value in (1, "yes", [0], 0, "", None, "true", 1.0):
        bad = copy.deepcopy(doc)
        bad["tree"]["nonempty"] = value
        errors = tracedoc.verify_document(bad)
        assert len(errors) == 1 and errors[0].startswith("malformed document: nonempty is not a JSON boolean"), value
    doc["tree"]["nonempty"] = False
    assert "root: nonempty flag inconsistent with kind strict-separating" in tracedoc.verify_document(doc)


@pytest.mark.parametrize("f, config, key, reason", [
    (TEN_TERM_UPPER, CertifyConfig(), "strict_point", "separating hyperplane does not verify"),
    (SIMPLEX_CONNECTED, SIMPLEX_CONFIG, "interior_negative", "simplex witness does not verify"),
])
def test_optional_witness_points_are_read_by_type(f, config, key, reason):
    """A criterion witness's optional point (``strict_point``,
    ``interior_negative``) is none when absent or null.  Anything else is a
    list of rationals, or the document is malformed: a falsy 0, "" or false
    is not read as absent.  A list of the wrong length, [] included, is
    malformed too, by its path and its length.  A point of the right length
    that is no term's exponent is read, and replay refuses the witness."""
    doc = json.loads(tracedoc.document_to_json(tracedoc.make_document(f, config, certify_connectivity(f, config))))
    point = doc["tree"]["witness"][key]
    assert len(point) == f.dimension and tracedoc.verify_document(doc) == []
    for absent in (True, False):
        ok = copy.deepcopy(doc)
        if absent:
            del ok["tree"]["witness"][key]
        else:
            ok["tree"]["witness"][key] = None
        assert tracedoc.verify_document(ok) == [], absent
    for value in (0, "", False, True, {}, "0", [0] * f.dimension, [None] * f.dimension):
        bad = copy.deepcopy(doc)
        bad["tree"]["witness"][key] = value
        errors = tracedoc.verify_document(bad)
        assert len(errors) == 1 and errors[0].startswith("malformed document: "), (value, errors)
    for value in ([], point[:1], point + ["0"]):
        bad = copy.deepcopy(doc)
        bad["tree"]["witness"][key] = value
        expected = f"malformed document: tree.witness.{key}: {len(value)} entries, not {f.dimension}"
        assert tracedoc.verify_document(bad) == [expected], value
    bad = copy.deepcopy(doc)
    bad["tree"]["witness"][key] = ["99"] * f.dimension
    assert tracedoc.verify_document(bad) == [f"root: {reason}"]


def test_deeply_nested_trace_is_reported_not_raised():
    tree = {"kind": "empty", "outcome": "CertifiedEmpty"}
    for _ in range(5000):
        tree = {"kind": "negative-face-reduction", "outcome": "CertifiedEmpty",
                "normal": ["1"], "face": [], "children": [tree]}
    doc = {"schema": 1, "input": {"dimension": 1, "terms": []}, "outcome": "CertifiedEmpty", "tree": tree}
    assert tracedoc.verify_document(doc) == ["malformed document: trace nested too deeply"]


def test_flagged_random_sweep_replays_and_round_trips():
    rng = random.Random(99991)
    config = CertifyConfig(
        enable_box_criterion=True, enable_simplex_search=True, enable_enclosing_search=True
    )
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        pairs = []
        for _ in range(rng.randint(1, 7)):
            num = rng.choice([x for x in range(-20, 21) if x])
            pairs.append((F(num, rng.randint(1, 3)), tuple(F(rng.randint(0, 4)) for _ in range(n))))
        f = Signomial.from_terms(n, pairs)
        if not f.terms:
            continue
        cert = certify_connectivity(f, config)
        assert verify_certificate(f, cert) == []
        doc = json.loads(tracedoc.document_to_json(tracedoc.make_document(f, config, cert)))
        assert tracedoc.verify_document(doc) == []


# --- pinned trace bytes ---------------------------------------------------------

FLAGGED = CertifyConfig(enable_simplex_search=True, enable_box_criterion=True, enable_enclosing_search=True)
# lowdim-flagged-style 3-variable instances (the benchmark's seed-1 corpus):
# one certified by the box criterion, one inconclusive after every search
LOWDIM_TEXTS = {
    "LOWDIM_BOX": "-7*x1^8*x2^12*x3^2 + 9*x2^6*x3 + 5*x2^12 + 7*x1^4*x2^12 - 3*x1^8*x3"
    " - 9*x1^2*x3^4 + 3*x1^6*x2^6*x3^3 + 5*x1^4*x2^9*x3^3",
    "LOWDIM_INCONCLUSIVE": "-7*x1^8*x2^3 - 8*x1^2*x2^4 + 4*x1^4*x2^2 + 2*x1^4*x2^4 - 7*x1^6"
    " + 8*x1^8*x2^4 + 9*x1^6*x2",
}
# SHA-256 of the certify trace JSON (``make_document`` with the input text as
# its source, then ``document_to_json``); a change to any witness, outcome or
# serialized byte moves a digest
TRACE_SHA256 = {
    "BOX": "cd4e233a7ca9d8fed1fce471f7eeccb93e23bbeaf8b328f80d4caf7eb38de4fc",  # Inconclusive
    "CUBE3": "2d98f7a9a0f3cfd468ea0ac15fe73101cdb748aa959da2022e68c7c69c0e0d9c",  # CertifiedExactlyOne
    "CUBE4": "2692b2bab26cee80f6d04a85438a55dafcdc0dda3474e3fcd995555c274ff1a4",  # CertifiedExactlyOne
    "ENCLOSED": "554702e11dacfd12d7b3316ab4ce62517387ffe840d9592807a38600c28d56b1",  # Inconclusive
    "LADDER": "23aa97309284d1b256ddf06a50c61a49efec1ce0cf55b4e85a957b1b13ad0247",  # Inconclusive
    "NEG_QUADRATIC_SPLIT": "1bb6a66043fa899393833cf25b07f23cbbde494343f864a60217c920139995dd",  # Inconclusive
    "NEG_QUADRATIC": "c35767a103d3a04dca3eb2852fb3dba63d9b81cc18b2cef48ea6b6f91a4a6402",  # Inconclusive
    "PERFECT_SQUARE": "3dd844005d1f55466a71e74cc863a7e883cbf906dd45796be69e9e13606bd4b3",  # CertifiedAtMostOne
    "SADDLE": "82d63183f3ae69af38a606b7df1112553e8a23d125f289ac9792a347de175d0f",  # CertifiedAtMostOne
    "SIMPLEX_CONNECTED": "cea229eb2af5b943458f6063d08513ccef8d8d1413429b01fad56be8d0f0c30a",  # Inconclusive
    "SIMPLEX_SPLIT": "90cc302173ea370e9547755ba7bdc7f17629af61fdf42853c96db5ddf92cfa73",  # Inconclusive
    "STRIP_PAIR": "6765eaae27cb0e6f386eeced899039a69ae22597a81a7c5148636ac2b62737f7",  # Inconclusive
    "TEN_TERM_LOWER": "0f55a9edcae9a918079b79d877bb61590b71809ef290471c1f7031d04e7882bc",  # Inconclusive
    "TEN_TERM": "9736cb0c25e16d72d85b2b9e4b9a30265937757a6d44533b788f30cb6be0120e",  # Inconclusive
    "TEN_TERM_UPPER": "59bcf8d9594c1425733124cd97ca1b2b7e49af7ecbcc38b34c33b594c25afcd0",  # CertifiedExactlyOne
    "WIDE16": "682a5d0658d29606ab5af2a249c31fc11977f7aded3679db4b7808814f652629",  # Inconclusive
}
FLAGGED_TRACE_SHA256 = {
    "SIMPLEX_CONNECTED": "53d0bfb6fc50d68d94da4d40e9397034470d329be62a2162230532394744b1b6",  # CertifiedExactlyOne
    "LOWDIM_BOX": "a9744a5ba8ae9cd7f9de63bb9fe1a2505798c734b29b9a281bf8a92604440a52",  # CertifiedExactlyOne
    "LOWDIM_INCONCLUSIVE": "88df253d148d4f1d0861f22c68c5be20fdf12734e6890862f576747bb469ad9d",  # Inconclusive
}


def _trace_digest(text, config):
    f = parse_signomial(text)
    cert = certify_connectivity(f, config)
    doc = tracedoc.make_document(f, config, cert, source=text)
    assert verify_certificate(f, cert) == []
    return hashlib.sha256(tracedoc.document_to_json(doc).encode()).hexdigest()


def test_traces_match_pinned_digests():
    texts = {name[:-5]: getattr(fixtures, name) for name in dir(fixtures) if name.endswith("_TEXT")}
    assert texts.keys() == TRACE_SHA256.keys()  # every fixture is pinned
    texts.update(LOWDIM_TEXTS)
    got = {name: _trace_digest(texts[name], CertifyConfig()) for name in TRACE_SHA256}
    assert got == TRACE_SHA256
    got = {name: _trace_digest(texts[name], FLAGGED) for name in FLAGGED_TRACE_SHA256}
    assert got == FLAGGED_TRACE_SHA256


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.text(),
    st.text("aé\u2603\U0001f600\"\\\n\x00"),  # non-ASCII, astral and escaped
)
DOCUMENTS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30,
)


@given(DOCUMENTS)
@settings(deadline=None, max_examples=300)
def test_document_writer_matches_json_dumps(doc):
    """Non-ASCII and escaped strings, big ints, empty containers and nesting
    come out as ``json.dumps(doc, indent=2)`` writes them."""
    assert tracedoc.document_to_json(doc) == json.dumps(doc, indent=2)


def test_document_writer_refuses_other_types():
    for doc in ({"a": 0.5}, [Fraction(1, 2)], {1: "a"}, ("a",)):
        with pytest.raises(TypeError):
            tracedoc.document_to_json(doc)


def _capped_documents():
    """A valid document with MAX_TERMS terms and 6-digit exponent parts, and
    one over each cap: a term too many, a numerator and a denominator of
    MAX_EXPONENT_DIGITS + 1 digits, and a dimension above MAX_VARIABLE_INDEX
    and below 1."""
    from descregions.parsing import MAX_EXPONENT_DIGITS, MAX_TERMS, MAX_VARIABLE_INDEX

    big = "9" * MAX_EXPONENT_DIGITS
    terms = [{"coefficient": "1", "exponent": [str(i)]} for i in range(1 - MAX_TERMS, 0)]
    terms.append({"coefficient": "-1", "exponent": [f"{big}/{int(big) - 1}"]})
    f = tracedoc.signomial_from_json({"dimension": 1, "terms": terms})
    doc = tracedoc.make_document(f, CertifyConfig(), certify_connectivity(f))
    too_many = json.loads(json.dumps(doc))
    too_many["input"]["terms"].insert(0, {"coefficient": "1", "exponent": [str(-MAX_TERMS)]})
    numerator = json.loads(json.dumps(doc))
    numerator["input"]["terms"][-1]["exponent"] = ["1" + "0" * MAX_EXPONENT_DIGITS]
    denominator = json.loads(json.dumps(doc))
    denominator["input"]["terms"][-1]["exponent"] = ["1/1" + "0" * MAX_EXPONENT_DIGITS]
    # a dimension out of range is reported before any term is read: the
    # terms of the first have that many entries, and the second's are malformed
    wide = json.loads(json.dumps(doc))
    wide["input"] = {"dimension": MAX_VARIABLE_INDEX + 1, "terms": [
        {"coefficient": c, "exponent": [e] * (MAX_VARIABLE_INDEX + 1)} for c, e in (("1", "0"), ("-1", "1"))
    ]}
    flat = json.loads(json.dumps(doc))
    flat["input"]["dimension"] = 0
    flat["input"]["terms"][0]["coefficient"] = "+1"
    return doc, [
        (too_many, f"more than {MAX_TERMS} terms"),
        (numerator, f"exponent number has more than {MAX_EXPONENT_DIGITS} digits"),
        (denominator, f"exponent number has more than {MAX_EXPONENT_DIGITS} digits"),
        (wide, f"dimension {MAX_VARIABLE_INDEX + 1} is not in 1..{MAX_VARIABLE_INDEX}"),
        (flat, f"dimension 0 is not in 1..{MAX_VARIABLE_INDEX}"),
    ]


def test_trace_input_is_capped_like_the_text_format():
    doc, over = _capped_documents()
    assert tracedoc.verify_document(doc) == []
    for bad, message in over:
        assert tracedoc.verify_document(bad) == [f"malformed document: {message}"]


def test_exponent_caps_hold_for_each_spelling_in_term_order():
    """The caps are checked once per distinct exponent spelling, in term
    order: a spelling first read as a coefficient is still capped as an
    exponent, and an over-cap term is reported before a malformed later one."""
    from descregions.parsing import MAX_EXPONENT_DIGITS

    over = "1" + "0" * MAX_EXPONENT_DIGITS
    message = f"exponent number has more than {MAX_EXPONENT_DIGITS} digits"
    cases = [
        [{"coefficient": over, "exponent": ["0", "1"]}, {"coefficient": "-1", "exponent": ["1", over]}],
        [{"coefficient": "1", "exponent": ["0", "0"]}, {"coefficient": "-1", "exponent": [over, "0"]},
         {"coefficient": "+2", "exponent": ["1", "1"]}],
    ]
    for terms in cases:
        with pytest.raises(ValueError, match=message):
            tracedoc.signomial_from_json({"dimension": 2, "terms": terms})
    within = [{"coefficient": str(c), "exponent": [str(i % 3), "7/2"]} for c, i in zip((1, -2, 3), range(3))]
    assert len(tracedoc.signomial_from_json({"dimension": 2, "terms": within}).terms) == 3


# --- canonical rational spellings ----------------------------------------------

SPELLINGS = st.one_of(
    st.text("0123456789-/+._e \u0663", max_size=10),  # U+0663: ARABIC-INDIC DIGIT THREE
    st.fractions().map(str),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(-2, 20)),  # /0, /1, unreduced, negative
)


def _canonical_value(text):
    """The Fraction whose ``str`` is text, as an int when it is integral, or
    None when there is none."""
    if not set(text) <= set("0123456789-/"):  # what str(Fraction) writes; also keeps "1e99999" unread
        return None
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    if str(x) != text:
        return None
    return int(x) if x.denominator == 1 else x


@given(SPELLINGS)
@settings(deadline=None, max_examples=1000)
def test_reader_accepts_exactly_the_canonical_spellings(text):
    expected = _canonical_value(text)
    try:
        got = tracedoc._Rationals()[text]
    except ValueError:
        got = None
    assert got == expected and type(got) is type(expected)


# every way to write 2 (or 0) that Fraction or json accepts but str(Fraction)
# never writes, and a number of more digits than int() reads
RESPELLINGS = [
    2, 0.5, None, True, " 2", "2 ", "+2", "2_0", "\u0662", "\uff12",
    "4/2", "2/1", "0/3", "-0", "2.0", "2e0", "02", "9" * 5000,
]


def test_respelled_rationals_are_malformed():
    """Each respelling, put in an exponent entry, a coefficient or a witness
    offset of a valid trace, makes it malformed, with one message, never a
    traceback."""
    f = TEN_TERM_UPPER  # certified by a strict separating witness at the root
    doc = json.loads(tracedoc.document_to_json(tracedoc.make_document(f, CertifyConfig(), certify_connectivity(f))))
    assert tracedoc.verify_document(doc) == []
    sites = [("input", "terms", 1, "exponent", 1), ("input", "terms", 1, "coefficient"), ("tree", "witness", "offset")]
    for *head, last in sites:
        for spelling in RESPELLINGS:
            bad = copy.deepcopy(doc)
            reduce(getitem, head, bad)[last] = spelling
            errors = tracedoc.verify_document(bad)
            assert len(errors) == 1 and errors[0].startswith("malformed document: "), (head, last, spelling, errors)


# --- the reader against the previous one ---------------------------------------

_INTEGERS = st.integers(-3, 3).map(str)
_RATIOS = st.builds(Fraction, st.integers(-7, 7), st.integers(2, 6)).map(str)
_CANONICAL_SPELLINGS = st.one_of(_INTEGERS, _RATIOS)
# over and at the caps, respelled, not a string, and unhashable
_ODD_SPELLINGS = st.sampled_from([
    "1000000", "-1000000", "1/1000000", "1234567/2", "999999", "-999999/999998",
    "+1", "2/1", "4/2", "-0", " 1", "1.0", 2, None, True, ["1"],
])


@st.composite
def reader_blocks(draw):
    """An input block: terms with canonical spellings, sorted and distinct
    by value or in the drawn order, and possibly one fault at a drawn term:
    an odd spelling in the exponent or the coefficient, a zero coefficient,
    an exponent of the wrong length or not a list, or a repeated term."""
    n = draw(st.integers(1, 3))
    exponents = st.lists(_CANONICAL_SPELLINGS, min_size=n, max_size=n)
    coefficient = st.builds(Fraction, st.sampled_from((1, -1)), st.sampled_from((1, 1, 2, 3)))
    coefficient = st.builds(lambda k, c: str(k * c), st.integers(1, 7), coefficient)
    terms = draw(st.lists(st.fixed_dictionaries({"coefficient": coefficient, "exponent": exponents}), max_size=6))
    if draw(st.booleans()):
        by_value = {tuple(map(Fraction, t["exponent"])): t for t in terms}
        terms = [by_value[key] for key in sorted(by_value)]
    if terms and draw(st.booleans()):
        t = terms[draw(st.integers(0, len(terms) - 1))]
        fault = draw(st.sampled_from(["exponent", "coefficient", "zero", "length", "not a list", "repeat"]))
        if fault == "exponent":
            t["exponent"][draw(st.integers(0, n - 1))] = draw(_ODD_SPELLINGS)
        elif fault == "coefficient":
            t["coefficient"] = draw(_ODD_SPELLINGS)
        elif fault == "zero":
            t["coefficient"] = "0"
        elif fault == "length":
            t["exponent"] = t["exponent"] + ["0"] if draw(st.booleans()) or n == 1 else t["exponent"][1:]
        elif fault == "not a list":
            t["exponent"] = draw(st.sampled_from(["1", {}, 3, None]))
        else:
            terms.insert(terms.index(t), dict(t))
    return {"dimension": n, "terms": terms}


def _read(reader, data):
    try:
        return reader(data), None
    except (ValueError, TypeError) as exc:
        return None, (type(exc), str(exc))


@given(reader_blocks())
@settings(deadline=None, max_examples=1000)
def test_reader_matches_the_previous_reader(data):
    """The same signomial, on the same frame, or the same first error."""
    got, error = _read(tracedoc.signomial_from_json, data)
    expected, expected_error = _read(replay_oracle.canonical_signomial_from_json, data)
    assert error == expected_error
    event(f"error: {error[1].split(':')[0]}" if error else f"read, scale {expected.scale}")
    if expected is not None:
        assert got == expected and (got.scale, got.frame) == (expected.scale, expected.frame)
        assert (got.negative_indices, got.positive_indices) == (expected.negative_indices, expected.positive_indices)


def _bench_corpus():
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NOT_RATIONAL = {"kind", "outcome", "criterion", "mode", "reason", "source"}


def _rational_strings(node, key=None):
    """Every string of a document part that is not under a NOT_RATIONAL key."""
    if isinstance(node, dict):
        for k, value in node.items():
            yield from _rational_strings(value, k)
    elif isinstance(node, list):
        for value in node:
            yield from _rational_strings(value, key)
    elif isinstance(node, str) and key not in NOT_RATIONAL:
        yield node


def test_the_benchmark_traces_spell_every_rational_canonically():
    """The writer and the reader agree: every rational in the traces of the
    192 seed 1-3 instances of the three certify workloads reads back, and
    each trace replays."""
    corpus = _bench_corpus()
    sizes = {"lowdim-flagged": 28, "cube-recursion": 26, "wide-hull": 10}  # bench/pipeline.py's CORPUS_SIZE
    traces, seen = {}, set()
    for workload, size in sizes.items():
        config = FLAGGED if workload == "lowdim-flagged" else CertifyConfig()
        for seed in (1, 2, 3):
            for text in corpus.corpus(workload, seed, size):
                if (text, config) not in traces:
                    f = parse_signomial(text)
                    doc = tracedoc.make_document(f, config, certify_connectivity(f, config), source=text)
                    traces[text, config] = json.loads(tracedoc.document_to_json(doc))
                seen.add((workload, seed, text))
    assert len(seen) == 192
    reader = tracedoc._Rationals()
    for doc in traces.values():
        assert tracedoc.verify_document(doc) == []
        for part in (doc["input"]["terms"], doc["config"], doc["tree"]):
            for text in _rational_strings(part):
                assert str(reader[text]) == text
    assert len(reader) > 100
