"""The trusted checker: its import boundary, the names the benchmark reads,
and replay against the previous replay on traces and tampered traces."""

import ast
import copy
import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache, reduce
from operator import getitem
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, event, given, settings, strategies as st

import descregions
from descregions import check, tracedoc
from descregions.certify import certify_connectivity
from descregions.check import (
    _NONEMPTY_KINDS,
    BOX,
    MODE_NEGATIVES_INSIDE,
    MODE_POSITIVES_INSIDE,
    ONE_NEGATIVE_COEFF,
    ONE_POSITIVE_COEFF,
    SIMPLEX_NEGATIVES_INSIDE,
    SIMPLEX_POSITIVES_INSIDE,
    BoxWitness,
    CertifyConfig,
    CriterionCertificate,
    EnclosingWitness,
    SimplexWitness,
    frame_values,
    verify_criterion,
    verify_simplex_witness,
)
from descregions.parsing import parse_signomial
from descregions.signomial import MAX_EXPONENT_DIGITS, Signomial, negatives, positives

import fixtures
import replay_oracle
from fixtures import vec
from strategies import rational_signed_supports, signed_supports

PACKAGE = Path(descregions.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_imports(module: str) -> set:
    """The package modules that ``descregions.<module>`` imports."""
    out = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("descregions"):
            out.add(node.module.split(".")[1] if "." in node.module else node.module)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("descregions."))
    return out


def test_replay_imports_no_search():
    assert _package_imports("check") <= {"linalg", "signomial"}
    assert _package_imports("tracedoc") <= {"check", "linalg", "signomial"}


def test_every_witness_check_is_defined_in_the_checker():
    """``tracedoc.verify_document`` decodes a document and hands it to
    ``check.verify_certificate``; every other ``verify_*`` is in ``check``."""
    outside = {
        (path.stem, node.name)
        for path in PACKAGE.glob("*.py")
        if path.stem != "check"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")
    }
    assert outside == {("tracedoc", "verify_document")}


def _bench_names():
    """``(module, name)`` for every descregions name the benchmark reads: its
    span targets and the names its scripts import or take off an imported
    module."""
    layers = ast.parse((BENCH / "layers.py").read_text())
    spans = next(
        node.value for node in layers.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and "SPANS" in [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    )
    names = [tuple(ast.literal_eval(key).split(".")) for key in spans.keys]
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "descregions":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("descregions."):
                names += [(node.module.split(".")[1], a.name) for a in node.names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                names.append((modules[node.value.id], node.attr))
    return names


def test_every_name_the_benchmark_reads_resolves():
    names = _bench_names()
    assert ("certify", "verify_certificate") in names and ("criteria", "CertifyConfig") in names
    missing = [
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"descregions.{module}"), name)
    ]
    assert missing == []


def test_frame_values_compare_as_the_rationals_do():
    f = Signomial.from_terms(2, [(1, (Fraction(1, 2), 0)), (-1, (0, Fraction(2, 3))), (1, (1, 1))])
    v, offsets = (Fraction(3, 4), Fraction(-1, 6)), (Fraction(1, 3), Fraction(5, 12))
    values, levels = frame_values(f, v, *offsets)
    exact = [sum(a * b for a, b in zip(v, mu)) for mu in f.support]
    assert all(type(x) is int for x in values + list(levels))
    for (x, p), (y, q) in itertools.product(zip(values + list(levels), exact + list(offsets)), repeat=2):
        assert (x < y) == (p < q) and (x == y) == (p == q)


def test_box_endpoints_may_lie_on_the_enclosing_hyperplanes():
    """Negatives at x = 0, 1, 6, 7 and positives at x = 3, 4 one row up: the
    slab 1 <= x <= 6 encloses the pair, and the endpoints x = 6 and x = 1
    lie on its two hyperplanes, as the criterion allows."""
    f = Signomial.from_terms(2, [(-1, (x, 0)) for x in (0, 1, 6, 7)] + [(1, (x, 1)) for x in (3, 4)])
    pair = EnclosingWitness((1, 0), Fraction(6), Fraction(1), True)
    box = BoxWitness(pair, (Fraction(6), Fraction(0)), (Fraction(1), Fraction(0)), (0, -1), Fraction(-1))
    cert = CriterionCertificate(BOX, True, box)
    assert verify_criterion(f, cert) is None and replay_oracle.verify_criterion(f, cert) is None


# vertices that cannot span a simplex of the 2-variable SIMPLEX_CONNECTED, and the reason
MALFORMED_SIMPLICES = (
    ((), "simplex witness has 0 vertices, not n + 1 = 3"),
    ((vec(1), vec(2)), "simplex witness has 2 vertices, not n + 1 = 3"),
    (fixtures.SIMPLEX_VERTICES + (vec(2, 2),), "simplex witness has 4 vertices, not n + 1 = 3"),
    ((vec(1), vec(2), vec(3)), "simplex vertices do not match the signomial dimension"),
    ((vec(1, 1), vec(4, 2), vec(1)), "simplex vertices do not match the signomial dimension"),
    ((vec(1, 1), vec(4, 2), vec(1, 3, 0)), "simplex vertices do not match the signomial dimension"),
    ((vec(1, 1), vec(4, 2), vec(Fraction(1, 2), 1)), "simplex vertex entry 1/2 is off the signomial's exponent lattice (L = 3)"),
    ((vec(1, 1), vec(4, 2), vec(1, 1234567)), f"simplex vertex entry has more than {MAX_EXPONENT_DIGITS} digits"),
)


def test_malformed_simplex_witnesses_are_named():
    """A vertex count other than n + 1, a vertex not of dimension n, or a
    vertex entry beyond the exponent digit caps or off f's exponent lattice
    (L = 3 here) is a named reason from ``verify_criterion``, and the
    witness does not verify, so a search or replay handed one carries on."""
    f = fixtures.SIMPLEX_CONNECTED
    kinds = ((SIMPLEX_NEGATIVES_INSIDE, MODE_NEGATIVES_INSIDE), (SIMPLEX_POSITIVES_INSIDE, MODE_POSITIVES_INSIDE))
    for vertices, reason in MALFORMED_SIMPLICES:
        for kind, mode in kinds:
            witness = SimplexWitness(vertices, mode)
            assert verify_criterion(f, CriterionCertificate(kind, kind in _NONEMPTY_KINDS, witness)) == reason
            assert not verify_simplex_witness(f, witness)
            assert certify_connectivity(f, CertifyConfig(simplex_witness=witness)).outcome is not None


def test_malformed_simplex_witnesses_in_a_trace_are_named():
    """The same reasons through ``verify_document``, on the trace of a
    printed simplex witness with its vertices replaced."""
    config = CertifyConfig(simplex_witness=SimplexWitness(fixtures.SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE))
    doc = _document(fixtures.SIMPLEX_CONNECTED, config)
    assert doc["tree"]["criterion"] == SIMPLEX_POSITIVES_INSIDE and tracedoc.verify_document(doc) == []
    for vertices, reason in MALFORMED_SIMPLICES:
        mutated = copy.deepcopy(doc)
        mutated["tree"]["witness"]["vertices"] = [[str(a) for a in p] for p in vertices]
        assert tracedoc.verify_document(mutated) == [f"root: {reason}"]


def test_a_simplex_witness_has_its_shape_checked_once(monkeypatch):
    """``verify_criterion`` checks a simplex witness's shape once, and
    ``verify_simplex_witness`` called on its own still refuses a misshapen
    witness."""
    calls = []
    real = check._simplex_shape_error
    monkeypatch.setattr(check, "_simplex_shape_error", lambda f, w: calls.append(1) or real(f, w))
    f = fixtures.SIMPLEX_CONNECTED
    witness = SimplexWitness(fixtures.SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE)
    assert verify_criterion(f, CriterionCertificate(SIMPLEX_POSITIVES_INSIDE, True, witness)) is None
    assert len(calls) == 1
    for vertices, _ in MALFORMED_SIMPLICES:
        assert not verify_simplex_witness(f, SimplexWitness(vertices, MODE_POSITIVES_INSIDE))


# --- replay against the previous replay -------------------------------------------

FLAGGED = CertifyConfig(enable_simplex_search=True, enable_box_criterion=True, enable_enclosing_search=True)
CONFIGS = (CertifyConfig(), FLAGGED)
# string fields that hold one rational; the entries of a vector are the others
RATIONAL_KEYS = {"coefficient", "offset", "upper", "lower", "separator_offset"}


def _document(f, config) -> dict:
    cert = certify_connectivity(f, config)
    return json.loads(tracedoc.document_to_json(tracedoc.make_document(f, config, cert)))


@cache
def fixture_documents():
    """The trace documents of every fixture but WIDE16, under the default and
    the flagged config."""
    texts = [getattr(fixtures, name) for name in sorted(dir(fixtures)) if name.endswith("_TEXT")]
    return [_document(parse_signomial(t), c) for t in texts if t != fixtures.WIDE16_TEXT for c in CONFIGS]


def _kinds(node) -> set:
    return {node["kind"]}.union(*(_kinds(child) for child in node.get("children", ())))


def _cube_signomial(rng, n: int, lift: bool) -> Signomial:
    """Signed vertices of the n-cube, and with ``lift`` a new last variable
    that only a few positive terms hold, so that the negatives lie on a
    proper face."""
    corners = list(itertools.product((0, 1), repeat=n))
    points = rng.sample(corners, rng.randint(n + 1, len(corners)))
    terms = [(rng.choice((1, -1)), p) for p in points]
    if lift:
        terms = [(c, p + (0,)) for c, p in terms]
        terms += [(1, p + (rng.randint(1, 3),)) for p in rng.sample(corners, rng.randint(1, 2))]
    return Signomial.from_terms(n + lift, terms)


@cache
def recursion_documents():
    """Trace documents of seeded random cube supports, 24 that hold a
    parallel split and 24 that hold a negative-face reduction, under both
    configs."""
    rng = random.Random(20231)
    found = {"parallel-split": [], "negative-face-reduction": []}
    while any(len(docs) < 24 for docs in found.values()):
        lift = rng.random() < 0.5
        doc = _document(_cube_signomial(rng, 3 if lift else 4, lift), rng.choice(CONFIGS))
        for kind, docs in found.items():
            if kind in _kinds(doc["tree"]) and len(docs) < 24:
                docs.append(doc)
    return [doc for docs in found.values() for doc in docs]


@st.composite
def documents(draw):
    """A fixture's trace, a seeded cube support's trace with recursion in it,
    or the trace of a random signed support."""
    source = draw(st.sampled_from(("fixture", "recursion", "recursion", "random")))
    if source == "fixture":
        return draw(st.sampled_from(fixture_documents()))
    if source == "recursion":
        return draw(st.sampled_from(recursion_documents()))
    f = draw(st.one_of(signed_supports(3), rational_signed_supports(3)))
    return _document(f, draw(st.sampled_from(CONFIGS)))


def _sites(node, path):
    """(path, kind) of every single-field mutation below ``path``: a
    rational, a vector, a face's points, the input's terms, a key and a pair
    of children."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), "key"
            yield from _sites(value, path + (key,))
        if len(node.get("children", ())) == 2:
            yield path + ("children",), "children"
    elif isinstance(node, list):
        if node and all(isinstance(x, str) for x in node):
            yield path, "vector"
        elif path[-1] == "face":
            yield path, "points"
        elif path[-1] == "terms" and node:
            yield path, "terms"
        for i, value in enumerate(node):
            yield from _sites(value, path + (i,))
    elif isinstance(node, str) and (isinstance(path[-1], int) or path[-1] in RATIONAL_KEYS):
        yield path, "rational"


def _field(path) -> str:
    return next(p for p in reversed(path) if isinstance(p, str))


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _mutate(doc: dict, data) -> tuple:
    """One field of ``doc`` changed, and the path of that field: a rational
    replaced, negated or zeroed, a vector shortened or replaced by another of
    the document's vectors, a point of a face added, a term of the input
    dropped, a key dropped or the children swapped.  The field
    is drawn evenly among the field names of a kind, in the tree three times
    in four, so that rare fields such as an edge functional come up."""
    part = data.draw(st.sampled_from(("tree", "tree", "tree", "input")))
    sites = list(_sites(doc[part], (part,)))
    kind = data.draw(st.sampled_from(sorted({k for _, k in sites})))
    field = data.draw(st.sampled_from(sorted({_field(p) for p, k in sites if k == kind})))
    path = data.draw(st.sampled_from([p for p, k in sites if k == kind and _field(p) == field]))
    event(f"mutation: {kind} at {field}")
    everywhere = [(p, k) for part in ("input", "tree") for p, k in _sites(doc[part], (part,))]
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = reduce(getitem, head, doc)
    value = parent[last]
    if kind == "key":
        del parent[last]
    elif kind == "children":
        value.reverse()
    elif kind == "vector":
        others = [reduce(getitem, p, doc) for p, k in everywhere if k == "vector"]
        others = [v for v in others if len(v) == len(value) and v != value]
        if others and data.draw(st.booleans()):
            parent[last] = list(data.draw(st.sampled_from(others)))
        else:
            value.pop()
    elif kind == "terms":
        del value[data.draw(st.integers(0, len(value) - 1))]
    elif kind == "points":
        others = [reduce(getitem, p, doc) for p, k in everywhere if k == "vector"]
        value.append(list(data.draw(st.sampled_from([v for v in others if len(v) == len(value[0] if value else v)]))))
    else:
        old = Fraction(value)
        new = data.draw(st.one_of(st.just(-old), st.just(Fraction(0)), RATIONALS.filter(lambda x: x != old)))
        parent[last] = str(new)
    return doc, path


def _messages(errors):
    """A replay's messages, with the text of a quoted exception cut off."""
    return [_message(e) for e in errors]


def _message(e: str) -> str:
    if e.startswith("malformed document: "):
        return e.split(":")[0]
    head, colon, _ = e.partition("criterion witness is malformed:")
    return head + colon


def _previous_replay():
    """``tracedoc.verify_document`` with the previous reader and checker."""
    return mock.patch.multiple(
        tracedoc,
        _signomial=lambda data, _: replay_oracle.signomial_from_json(data),
        _certificate=lambda node, _: replay_oracle.certificate_from_json(node),
        verify_certificate=replay_oracle.verify_certificate,
    )


def _checks_recorded_exponents(verify):
    """The previous criterion check followed by the one it lacked, on its own
    ``Fraction`` views: the exponent a one-coefficient criterion records
    must be f's one exponent of that sign."""

    def checked(f, cert):
        problem = verify(f, cert)
        if problem is None and cert.kind in (ONE_NEGATIVE_COEFF, ONE_POSITIVE_COEFF):
            sign = cert.kind.split("-")[1]
            (mu,) = negatives(f) if sign == "negative" else positives(f)
            if cert.witness is None or tuple(cert.witness) != mu:
                return f"recorded exponent is not the one {sign} exponent"
        return problem
    return checked


def _replays_alike(doc, recorded_exponents=False):
    """Replay of ``doc`` and the previous replay give the same messages; with
    ``recorded_exponents`` the previous replay checks the exponent a
    one-coefficient criterion records too, which it never read."""
    errors = tracedoc.verify_document(doc)
    verify = replay_oracle.verify_criterion
    with _previous_replay(), mock.patch.object(
        replay_oracle, "verify_criterion", _checks_recorded_exponents(verify) if recorded_exponents else verify
    ):
        expected = tracedoc.verify_document(doc)
    event(f"rejected: {bool(expected)}")
    assert _messages(errors) == _messages(expected)
    return errors


def test_the_differential_replays_with_the_previous_reader():
    """The previous reader takes any spelling ``Fraction`` takes; the reader
    reads only the canonical ones.  A respelled coefficient tells them apart,
    so the differential below does compare the two readers."""
    doc = copy.deepcopy(fixture_documents()[0])
    term = doc["input"]["terms"][0]
    term["coefficient"] = f" {term['coefficient']} "
    assert _messages(tracedoc.verify_document(doc)) == ["malformed document"]
    with _previous_replay():
        assert tracedoc.verify_document(doc) == []


@given(documents())
@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow])
def test_every_trace_replays_as_before(doc):
    assert _replays_alike(doc) == []


def _replay_path(doc: dict, tree_path) -> str:
    """The path replay names the node at ``tree_path`` (("tree",
    "children", i, ...)) by."""
    at, node = "root", doc["tree"]
    for i in tree_path[2::2]:
        at += ".face" if node["kind"] == "negative-face-reduction" else (".upper", ".lower")[i]
        node = node["children"][i]
    return at


@given(documents(), st.data())
@settings(deadline=None, max_examples=1000, suppress_health_check=[HealthCheck.too_slow])
def test_tampered_traces_replay_as_before(doc, data):
    """On single-field mutations of certify's traces, replay never raises and
    reports what the previous replay reports: nothing exactly when it does,
    in the same messages.  The exponent a one-coefficient criterion records
    is the exception: the previous replay never read it, and replay rejects
    it by name when it is changed or dropped, also where a mutation moves
    the exponent of the one term of its sign."""
    tampered, path = _mutate(doc, data)
    if path[0] != "tree" or "exponent" not in path:
        _replays_alike(tampered, recorded_exponents=True)
        return
    with _previous_replay():
        assert tracedoc.verify_document(tampered) == []
    node_path = path[: path.index("exponent")]
    sign = reduce(getitem, node_path, doc)["criterion"].split("-")[1]
    rejected = [f"{_replay_path(doc, node_path)}: recorded exponent is not the one {sign} exponent"]
    assert tracedoc.verify_document(tampered) == ([] if tampered == doc else rejected)


# --- the exponent a one-coefficient criterion records -----------------------------


def test_a_one_coefficient_criterion_replays_only_its_own_exponent():
    """Replay looks the recorded exponent up as a term of f: a point off the
    support, of the wrong length, empty, a term of the other sign or no
    point at all is rejected by name."""
    for text, sign, others in (
        ("x^2*y + x*y^2 - x*y + 1", "negative", (["7", "7"], ["1"], [], ["2", "1"], None)),
        ("x*y - 1 - x^2 - y^2 - x^2*y^2", "positive", (["0", "0"], ["1", "1", "0"], None)),
    ):
        doc = _document(parse_signomial(text), CertifyConfig())
        assert doc["tree"]["criterion"] == f"one-{sign}-coeff" and tracedoc.verify_document(doc) == []
        for exponent in others:
            tampered = copy.deepcopy(doc)
            if exponent is None:
                del tampered["tree"]["exponent"]
            else:
                tampered["tree"]["exponent"] = exponent
            with _previous_replay():
                assert tracedoc.verify_document(tampered) == []
            assert tracedoc.verify_document(tampered) == [f"root: recorded exponent is not the one {sign} exponent"]


# --- the length of a recorded functional ------------------------------------------

REPLAY_STDIN = (
    "import json, sys\n"
    "from descregions import tracedoc\n"
    "print(json.dumps(tracedoc.verify_document(json.load(sys.stdin))))\n"
)


def test_a_functional_of_the_wrong_length_is_rejected_by_name_under_python_O():
    """``frame_values`` checks a functional's length itself, so a separating
    normal with an extra entry is rejected, with its length named, also
    under ``python -O``, which drops ``dot``'s assert."""
    doc = _document(parse_signomial("x^2 + y^2 - x - y + 1/2*x*y - 1 + x*y"), CertifyConfig())
    doc["tree"]["witness"]["normal"].append("5")
    env = dict(os.environ, PYTHONPATH=str(Path(descregions.__file__).resolve().parents[1]))
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", REPLAY_STDIN], input=json.dumps(doc),
            capture_output=True, text=True, env=env, check=True,
        )
        assert json.loads(proc.stdout) == ["root: criterion witness is malformed: functional has 3 entries, not 2"]


# --- recorded points off the signomial's exponent lattice ------------------------

# (container, field) of a recorded point -> the reason replay gives when the
# point is no term of the signomial at its node
OFF_LATTICE_REASONS = {
    ("witness", "strict_point"): "separating hyperplane does not verify",
    ("witness", "beta1"): "box endpoints are not negative exponents",
    ("witness", "beta2"): "box endpoints are not negative exponents",
    ("edge", "beta1"): "edge endpoint beta1 is not a negative exponent on the upper face",
    ("edge", "beta2"): "edge endpoint beta2 is not a negative exponent on the lower face",
    ("child_nonempty", "point"): "nonempty witness is not a negative exponent of the child",
    ("face", None): "recorded face is not the face exposed by the recorded normal",
}


def _point_sites(node, path=("tree",)):
    """(path, site) of every recorded point in a trace tree, with site a key
    of OFF_LATTICE_REASONS."""
    for i, child in enumerate(node.get("children", ())):
        yield from _point_sites(child, path + ("children", i))
    for i in range(len(node.get("face", ()))):
        yield path + ("face", i), ("face", None)
    for i in range(len(node.get("child_nonempty", ()))):
        yield path + ("child_nonempty", i, "point"), ("child_nonempty", "point")
    for container in ("witness", "edge"):
        for key in ("strict_point", "beta1", "beta2"):
            if (node.get(container) or {}).get(key) is not None:
                yield path + (container, key), (container, key)


@cache
def halved_recursion_documents():
    """The recursion documents' signomials with every exponent halved, so
    that most sit on a frame of scale 2."""
    out = []
    for doc in recursion_documents():
        f = tracedoc.signomial_from_json(doc["input"])
        g = Signomial.from_terms(f.dimension, [(t.coefficient, [a / 2 for a in t.exponent]) for t in f.terms])
        out.append(_document(g, CertifyConfig()))
    return out


def test_recorded_points_off_the_lattice_are_named():
    """Each recorded point of a valid trace, with one entry moved off the
    signomial's exponent lattice, is refused by name, never accepted and
    never raised.  The entry is a zero moved to 1/p with p > L prime to L,
    where there is one: scaled by L and floored, 1/p would be 0 again, the
    row of the recorded term."""
    seen = set()
    for doc in fixture_documents() + recursion_documents() + halved_recursion_documents():
        scale = math.lcm(*(Fraction(a).denominator for t in doc["input"]["terms"] for a in t["exponent"]))
        p = next(p for p in (3, 5, 7, 11, 13) if p > scale and scale % p)
        for path, site in _point_sites(doc["tree"]):
            mutated = copy.deepcopy(doc)
            point = reduce(getitem, path, mutated)
            k = point.index("0") if "0" in point else 0
            point[k] = str(Fraction(point[k]) + Fraction(1, p))
            errors = tracedoc.verify_document(mutated)
            assert any(OFF_LATTICE_REASONS[site] in e for e in errors), (path, errors)
            assert not any(e.startswith("malformed") for e in errors), (path, errors)
            seen.add((site, scale > 1))
    assert {site for site, _ in seen} == set(OFF_LATTICE_REASONS)
    assert {site for site, rational in seen if rational} >= {
        ("edge", "beta1"), ("edge", "beta2"), ("child_nonempty", "point"), ("face", None)
    }


# --- every named rejection, each from one mutation ----------------------------------


def _trace(text: str, config=CertifyConfig()) -> dict:
    return _document(parse_signomial(text), config)


def _retree(text: str, tree: dict) -> dict:
    """The trace of text with its tree replaced, the document's outcome the
    tree's."""
    doc = _trace(text)
    doc["tree"] = tree
    doc["outcome"] = tree["outcome"]
    return doc


def _reoutcome(doc: dict, outcome: str) -> dict:
    """doc with the root's outcome changed, and the document's with it."""
    doc["tree"]["outcome"] = doc["outcome"] = outcome
    return doc


def _criterion(kind: str, nonempty: bool, outcome: str, **fields) -> dict:
    return {"kind": "criterion", "outcome": outcome, "criterion": kind, "nonempty": nonempty, **fields}


def _one_coefficient_at_many(sign: str) -> dict:
    """TEN_TERM_UPPER's trace with a one-coefficient criterion of a sign it
    has several terms of, recording the first of them."""
    doc = _trace(fixtures.TEN_TERM_UPPER_TEXT)
    f = tracedoc.signomial_from_json(doc["input"])
    i = (f.negative_indices if sign == "negative" else f.positive_indices)[0]
    nonempty = sign == "positive"
    exponent = [str(a) for a in f.exponent(i)]
    outcome = "CertifiedExactlyOne" if nonempty else "CertifiedAtMostOne"
    return _retree(fixtures.TEN_TERM_UPPER_TEXT, _criterion(f"one-{sign}-coeff", nonempty, outcome, exponent=exponent))


def _not_proper() -> dict:
    """x^2 - x*y + y^2 lies on the line x + y = 2: the normal (1, 1) exposes
    the whole support, which the negative-face node records as its face."""
    text = "x^2 - x*y + y^2"
    child = _trace(text)["tree"]
    face = [["0", "2"], ["1", "1"], ["2", "0"]]
    tree = {"kind": "negative-face-reduction", "outcome": child["outcome"], "normal": ["1", "1"], "face": face, "children": [child]}
    return _retree(text, tree)


def _swapped_box_ends() -> dict:
    doc = _trace(fixtures.BOX_TEXT, FLAGGED)
    w = doc["tree"]["witness"]
    w["beta1"], w["beta2"] = w["beta2"], w["beta1"]
    return doc


def _upper_child_inconclusive() -> dict:
    doc = _trace(fixtures.CUBE3_TEXT)
    doc["tree"]["children"][0] = {"kind": "inconclusive", "outcome": "Inconclusive", "reason": "not searched"}
    return doc


def _tilted_split() -> dict:
    doc = _trace(fixtures.CUBE3_TEXT)
    assert doc["tree"]["normal"] != ["1", "1", "1"]
    doc["tree"]["normal"] = ["1", "1", "1"]
    return doc


def _renamed_kind() -> dict:
    doc = _trace(fixtures.PERFECT_SQUARE_TEXT)
    doc["tree"]["kind"] = "bogus"
    return doc


def _flipped_flag() -> dict:
    """A strict separating criterion recorded as not certifying nonemptiness,
    its outcome made to match the flag."""
    doc = _reoutcome(_trace(fixtures.TEN_TERM_UPPER_TEXT), "CertifiedAtMostOne")
    doc["tree"]["nonempty"] = False
    return doc


_SIMPLEX_ON_A_LINE = {"vertices": [["0", "0"], ["1", "1"], ["2", "2"]], "mode": "negatives-inside"}

# the error replay names -> the document that makes it (a valid trace with
# one part changed), each the one error of its document
NAMED_REJECTIONS = {
    "root: nonempty flag inconsistent with kind strict-separating": _flipped_flag,
    "root: negative support is not empty": lambda: _retree(
        fixtures.PERFECT_SQUARE_TEXT, _criterion("no-negative-terms", False, "CertifiedEmpty")
    ),
    "root: positive support is not empty": lambda: _retree(
        fixtures.PERFECT_SQUARE_TEXT, _criterion("no-positive-terms", True, "CertifiedExactlyOne")
    ),
    "root: negative coefficient count is not one": lambda: _one_coefficient_at_many("negative"),
    "root: positive coefficient count is not one": lambda: _one_coefficient_at_many("positive"),
    "root: Newton polytope dimension below two": lambda: _retree(
        fixtures.NEG_QUADRATIC_TEXT, _criterion("one-positive-coeff", True, "CertifiedExactlyOne", exponent=["1"])
    ),
    "root: degenerate simplex witness": lambda: _retree(
        fixtures.TEN_TERM_UPPER_TEXT,
        _criterion("simplex-negatives-inside", False, "CertifiedAtMostOne", witness=_SIMPLEX_ON_A_LINE),
    ),
    "root: unknown criterion kind 'bogus'": lambda: _retree(
        fixtures.PERFECT_SQUARE_TEXT, _criterion("bogus", False, "CertifiedAtMostOne")
    ),
    "root: box endpoints on wrong sides": _swapped_box_ends,
    "root: empty node but f has negative terms": lambda: _retree(
        fixtures.PERFECT_SQUARE_TEXT, {"kind": "empty", "outcome": "CertifiedEmpty"}
    ),
    "root: empty node must be CertifiedEmpty": lambda: _reoutcome(_trace("1 + x"), "CertifiedAtMostOne"),
    "root: inconclusive node with a certified outcome": lambda: _reoutcome(
        _trace(fixtures.ENCLOSED_TEXT), "CertifiedAtMostOne"
    ),
    "root: criterion outcome mismatch": lambda: _reoutcome(_trace(fixtures.TEN_TERM_UPPER_TEXT), "CertifiedAtMostOne"),
    "root: face is not proper": _not_proper,
    "root: outcome does not match the child outcome": lambda: _reoutcome(
        _trace(fixtures.CUBE4_TEXT), "CertifiedAtMostOne"
    ),
    "root: support does not lie on two parallel faces of the recorded normal": _tilted_split,
    "root: parallel split must certify exactly one component": lambda: _reoutcome(
        _trace(fixtures.CUBE3_TEXT), "CertifiedAtMostOne"
    ),
    "root: upper child is not certified with a nonempty-compatible outcome": _upper_child_inconclusive,
}


def test_every_named_rejection_is_reached():
    """Each named rejection of replay, from one deterministic change to a
    valid trace, is the one error of ``verify_certificate`` on the decoded
    certificate and of ``verify_document`` on the document."""
    for message, make in NAMED_REJECTIONS.items():
        doc = make()
        f = tracedoc.signomial_from_json(doc["input"])
        cert = tracedoc.certificate_from_json(doc["tree"])
        assert check.verify_certificate(f, cert) == [message]
        assert tracedoc.verify_document(doc) == [message]


def test_rejections_no_trace_carries_are_named():
    """A criterion node without its payload and a node of an unknown kind
    are named by ``verify_certificate``; the reader refuses an unknown kind
    in a document as malformed."""
    f = fixtures.PERFECT_SQUARE
    bare = check.Certificate(check.KIND_CRITERION, check.CERTIFIED_AT_MOST_ONE)
    assert check.verify_certificate(f, bare) == ["root: criterion node without criterion payload"]
    bogus = check.Certificate("bogus", check.INCONCLUSIVE)
    assert check.verify_certificate(f, bogus) == ["root: unknown certificate kind 'bogus'"]
    assert tracedoc.verify_document(_renamed_kind()) == ["malformed document: unknown certificate kind 'bogus'"]
