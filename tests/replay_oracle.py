"""Replay as it stood before the checks moved into ``check`` and read faces
on the lattice frame, and the trace reader as it stood before it read only
canonical spellings, kept as an independent oracle for the tests (like
``lp_oracle`` and ``parse_oracle``).

``verify_certificate`` reads faces and exposing functionals with Fraction
dot products (``_parallel_faces`` and inline scans) and restricts children
by exponent; ``verify_criterion`` and ``verify_enclosing_pair`` check the
box criterion the same way, and ``verify_separating_hyperplane`` scales its
own witness to the frame.  ``signomial_from_json`` and
``certificate_from_json`` read every rational with ``Fraction(str)``, which
takes any spelling ``Fraction`` takes.  The functions are unchanged; they
share with the package only the constants, the witness types, the caps and
the simplex check, its shape check (vertex count, dimension, digit caps and
exponent lattice) included; children are restricted by exponent with
``signomial.restrict`` as it stood (``_restrict``).

``canonical_signomial_from_json`` is the canonical-spelling reader as it
stood before it built the lattice frame from ints: ``_Rationals`` reads
every spelling into a ``Fraction(int, int)``, the caps are checked on the
Fractions of each term's new exponent spellings, and ``Signomial.of_terms``
frames the exponents again.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from descregions.check import (
    _NONEMPTY_KINDS,
    BOX,
    CERTIFIED_EMPTY,
    CERTIFIED_EXACTLY_ONE,
    CERTIFIED_OUTCOMES,
    INCONCLUSIVE,
    KIND_CRITERION,
    KIND_EMPTY,
    KIND_INCONCLUSIVE,
    KIND_NEGATIVE_FACE,
    KIND_PARALLEL_SPLIT,
    NO_NEGATIVE_TERMS,
    NO_POSITIVE_TERMS,
    ONE_NEGATIVE_COEFF,
    ONE_POSITIVE_COEFF,
    SIMPLEX_NEGATIVES_INSIDE,
    SIMPLEX_POSITIVES_INSIDE,
    STRICT_SEPARATING,
    BoxWitness,
    Certificate,
    CriterionCertificate,
    DegenerateSimplexError,
    EdgeWitness,
    EnclosingWitness,
    NonemptyWitness,
    SeparatingWitness,
    SimplexWitness,
    _simplex_shape_error,
    criterion_outcome,
    verify_simplex_witness,
)
from descregions.linalg import Vector, is_zero, lattice, vector
from descregions.linalg import dot as _dot
from descregions.parsing import EXPONENT_BOUND, MAX_EXPONENT_DIGITS, MAX_TERMS
from descregions.signomial import Signomial, Term, negatives, newton_dim, positives


def dot(u: Sequence, v: Sequence):
    """``linalg.dot`` with its length check spelled out, so that a functional
    of the wrong length raises the same bare AssertionError under
    ``python -O``, which strips the ``assert``."""
    if len(u) != len(v):
        raise AssertionError
    return _dot(u, v)


def _restrict(f: Signomial, exponents) -> Signomial:
    """``signomial.restrict`` as it stood: the terms whose exponent lies in
    the set, by exponent."""
    keep = {vector(e) for e in exponents}
    return Signomial.of_terms(f.dimension, tuple(t for t in f.terms if t.exponent in keep))


def _parallel_faces(f: Signomial, v: Vector) -> Tuple[Tuple[Vector, ...], Tuple[Vector, ...]]:
    """The exponents on the faces in directions v and -v, in exact
    rationals: replay's own reading of a recorded normal."""
    values = [(dot(v, mu), mu) for mu in f.support]
    top = max(val for val, _ in values)
    bot = min(val for val, _ in values)
    face_v = tuple(mu for val, mu in values if val == top)
    face_mv = tuple(mu for val, mu in values if val == bot)
    return face_v, face_mv


def verify_separating_hyperplane(
    f: Signomial,
    v: Sequence,
    a,
    strict: bool,
    strict_point: Optional[Vector] = None,
) -> bool:
    """Exact check of the separating-hyperplane definition, on f's lattice
    frame: (v, a) times the lcm of its denominators is an int (w, t), and
    v . mu >= a exactly when w . (L mu) >= L t, as both scalings are positive."""
    _, ((*w, t),) = lattice([vector((*v, a))])
    if is_zero(w):
        return False
    frame, level = f.frame, f.scale * t
    above = [dot(w, frame[i]) - level for i in f.negative_indices]
    if any(x < 0 for x in above):
        return False
    if any(dot(w, frame[i]) > level for i in f.positive_indices):
        return False
    if strict:
        if strict_point is not None:
            return any(f.terms[i].exponent == strict_point and x > 0 for i, x in zip(f.negative_indices, above))
        return any(x > 0 for x in above)
    return True


def verify_enclosing_pair(f: Signomial, v: Sequence, a, b, strict: bool) -> bool:
    """Exact check of the enclosing-pair definition (positives inside the slab
    [b, a] along v, negatives outside its interior)."""
    vv = vector(v)
    aa, bb = Fraction(a), Fraction(b)
    if is_zero(vv) or aa < bb:
        return False
    for alpha in positives(f):
        val = dot(vv, alpha)
        if val > aa or val < bb:
            return False
    above = below = False
    for beta in negatives(f):
        val = dot(vv, beta)
        if bb < val < aa:
            return False
        if val > aa:
            above = True
        if val < bb:
            below = True
    if strict:
        return above and below
    return True


def verify_criterion(f: Signomial, cert: CriterionCertificate) -> Optional[str]:
    """Re-check a criterion certificate exactly; returns an error string or None."""
    neg = negatives(f)
    pos = positives(f)
    if cert.nonempty != (cert.kind in _NONEMPTY_KINDS):
        return f"nonempty flag inconsistent with kind {cert.kind}"
    if cert.kind == NO_NEGATIVE_TERMS:
        return None if not neg else "negative support is not empty"
    if cert.kind == NO_POSITIVE_TERMS:
        if pos:
            return "positive support is not empty"
        return None if neg else "no terms at all"
    if cert.kind == ONE_NEGATIVE_COEFF:
        return None if len(neg) == 1 else "negative coefficient count is not one"
    if cert.kind == ONE_POSITIVE_COEFF:
        if len(pos) != 1:
            return "positive coefficient count is not one"
        return None if newton_dim(f) >= 2 else "Newton polytope dimension below two"
    if cert.kind == STRICT_SEPARATING:
        w = cert.witness
        ok = verify_separating_hyperplane(f, w.normal, w.offset, True, w.strict_point)
        return None if ok else "separating hyperplane does not verify"
    if cert.kind in (SIMPLEX_NEGATIVES_INSIDE, SIMPLEX_POSITIVES_INSIDE):
        shape = _simplex_shape_error(f, cert.witness)
        if shape:
            return shape
        try:
            ok = verify_simplex_witness(f, cert.witness)
        except DegenerateSimplexError:
            return "degenerate simplex witness"
        return None if ok else "simplex witness does not verify"
    if cert.kind == BOX:
        w = cert.witness
        e = w.enclosing
        if not verify_enclosing_pair(f, e.normal, e.upper, e.lower, strict=True):
            return "enclosing pair does not verify"
        if w.beta1 not in neg or w.beta2 not in neg:
            return "box endpoints are not negative exponents"
        if dot(e.normal, w.beta1) < e.upper or dot(e.normal, w.beta2) > e.lower:
            return "box endpoints on wrong sides"
        c = Fraction(w.separator_offset)
        if dot(w.separator_normal, w.beta1) <= c or dot(w.separator_normal, w.beta2) <= c:
            return "segment separator not strict on endpoints"
        if any(dot(w.separator_normal, alpha) > c for alpha in pos):
            return "segment separator fails on a positive exponent"
        return None
    return f"unknown criterion kind {cert.kind!r}"


def verify_certificate(f: Signomial, cert: Certificate, path: str = "root") -> List[str]:
    """Re-check every witness in the trace exactly; no searches are re-run.

    Returns a list of human-readable problems, empty when the certificate is
    valid for f.
    """
    errors: List[str] = []

    def fail(msg: str):
        errors.append(f"{path}: {msg}")

    vectors = []
    if cert.normal is not None:
        vectors.append(cert.normal)
    vectors.extend(cert.face or ())
    if cert.edge is not None:
        vectors.extend((cert.edge.beta1, cert.edge.beta2, cert.edge.functional))
    if any(len(v) != f.dimension for v in vectors):
        fail("certificate vectors do not match the signomial dimension")
        return errors

    if cert.kind == KIND_EMPTY:
        if negatives(f):
            fail("empty node but f has negative terms")
        if cert.outcome != CERTIFIED_EMPTY:
            fail("empty node must be CertifiedEmpty")
        return errors

    if cert.kind == KIND_INCONCLUSIVE:
        if cert.outcome != INCONCLUSIVE:
            fail("inconclusive node with a certified outcome")
        return errors

    if cert.kind == KIND_CRITERION:
        if cert.criterion is None:
            fail("criterion node without criterion payload")
            return errors
        try:
            problem = verify_criterion(f, cert.criterion)
        except Exception as exc:  # malformed witness payloads must not crash replay
            problem = f"criterion witness is malformed: {exc}"
        if problem:
            fail(problem)
        if cert.outcome != criterion_outcome(cert.criterion):
            fail("criterion outcome mismatch")
        return errors

    if cert.kind == KIND_NEGATIVE_FACE:
        if cert.normal is None or is_zero(cert.normal) or cert.face is None or len(cert.children) != 1:
            fail("malformed negative-face node")
            return errors
        values = [dot(cert.normal, mu) for mu in f.support]
        top = max(values)
        computed = {mu for mu, val in zip(f.support, values) if val == top}
        if computed != set(cert.face):
            fail("recorded face is not the face exposed by the recorded normal")
        if not set(negatives(f)) <= computed:
            fail("face does not contain all negative exponents")
        if computed == set(f.support):
            fail("face is not proper")
        child_f = _restrict(f, cert.face)
        if cert.outcome != cert.children[0].outcome:
            fail("outcome does not match the child outcome")
        errors.extend(verify_certificate(child_f, cert.children[0], path + ".face"))
        return errors

    if cert.kind == KIND_PARALLEL_SPLIT:
        if (
            cert.normal is None
            or is_zero(cert.normal)
            or cert.edge is None
            or cert.child_nonempty is None
            or len(cert.child_nonempty) != 2
            or len(cert.children) != 2
        ):
            fail("malformed parallel-split node")
            return errors
        values = {dot(cert.normal, mu) for mu in f.support}
        if len(values) != 2:
            fail("support does not lie on two parallel faces of the recorded normal")
            return errors
        face_v, face_mv = _parallel_faces(f, cert.normal)
        neg = set(negatives(f))
        e = cert.edge
        if e.beta1 not in neg or e.beta1 not in face_v:
            fail("edge endpoint beta1 is not a negative exponent on the upper face")
        if e.beta2 not in neg or e.beta2 not in face_mv:
            fail("edge endpoint beta2 is not a negative exponent on the lower face")
        u = e.functional
        if dot(u, e.beta1) != dot(u, e.beta2):
            fail("edge functional is not constant on the edge")
        for q in f.support:
            if q in (e.beta1, e.beta2):
                continue
            if dot(u, e.beta1) <= dot(u, q):
                fail("edge functional does not expose the edge strictly")
                break
        if cert.outcome != CERTIFIED_EXACTLY_ONE:
            fail("parallel split must certify exactly one component")
        for idx, (face, label) in enumerate(((face_v, "upper"), (face_mv, "lower"))):
            child_f = _restrict(f, face)
            child = cert.children[idx]
            if child.outcome not in CERTIFIED_OUTCOMES or child.outcome == CERTIFIED_EMPTY:
                fail(f"{label} child is not certified with a nonempty-compatible outcome")
            w = cert.child_nonempty[idx]
            if w.point not in set(negatives(child_f)) or len(w.functional) != f.dimension:
                fail(f"{label} nonempty witness is not a negative exponent of the child")
            else:
                for q in child_f.support:
                    if q == w.point:
                        continue
                    if dot(w.functional, w.point) <= dot(w.functional, q):
                        fail(f"{label} nonempty witness functional is not strictly exposing")
                        break
            errors.extend(verify_certificate(child_f, child, f"{path}.{label}"))
        return errors

    fail(f"unknown certificate kind {cert.kind!r}")
    return errors


def _unvec(v) -> Tuple[Fraction, ...]:
    return tuple(Fraction(a) for a in v)


def signomial_from_json(data: dict) -> Signomial:
    """The input signomial, under the text format's caps: at most MAX_TERMS
    terms, and at most MAX_EXPONENT_DIGITS digits in each exponent entry's
    numerator and denominator (ValueError beyond them)."""
    if len(data["terms"]) > MAX_TERMS:
        raise ValueError(f"more than {MAX_TERMS} terms")
    terms = []
    for t in data["terms"]:
        exponent = _unvec(t["exponent"])
        if any(abs(e.numerator) >= EXPONENT_BOUND or e.denominator >= EXPONENT_BOUND for e in exponent):
            raise ValueError(f"exponent number has more than {MAX_EXPONENT_DIGITS} digits")
        terms.append(Term(Fraction(t["coefficient"]), exponent))
    return Signomial.of_terms(int(data["dimension"]), tuple(terms))


def _simplex_from_json(data: dict) -> SimplexWitness:
    halfspaces = None
    if "halfspaces" in data:
        halfspaces = tuple(
            (_unvec(h["normal"]), Fraction(h["offset"])) for h in data["halfspaces"]
        )
    interior = data.get("interior_negative")
    return SimplexWitness(
        vertices=tuple(_unvec(v) for v in data["vertices"]),
        mode=data["mode"],
        interior_negative=_unvec(interior) if interior else None,
        halfspaces=halfspaces,
    )


def _criterion_from_json(data: dict) -> CriterionCertificate:
    kind = data["criterion"]
    nonempty = bool(data["nonempty"])
    witness = None
    if kind in (ONE_NEGATIVE_COEFF, ONE_POSITIVE_COEFF) and "exponent" in data:
        witness = _unvec(data["exponent"])
    elif kind == STRICT_SEPARATING:
        w = data["witness"]
        witness = SeparatingWitness(
            _unvec(w["normal"]),
            Fraction(w["offset"]),
            True,
            _unvec(w["strict_point"]) if w.get("strict_point") else None,
        )
    elif kind in (SIMPLEX_NEGATIVES_INSIDE, SIMPLEX_POSITIVES_INSIDE):
        witness = _simplex_from_json(data["witness"])
    elif kind == BOX:
        w = data["witness"]
        witness = BoxWitness(
            EnclosingWitness(_unvec(w["normal"]), Fraction(w["upper"]), Fraction(w["lower"]), True),
            _unvec(w["beta1"]),
            _unvec(w["beta2"]),
            _unvec(w["separator_normal"]),
            Fraction(w["separator_offset"]),
        )
    return CriterionCertificate(kind, nonempty, witness)


def certificate_from_json(node: dict) -> Certificate:
    kind = node["kind"]
    outcome = node["outcome"]
    if kind == KIND_CRITERION:
        return Certificate(kind, outcome, criterion=_criterion_from_json(node))
    if kind == KIND_NEGATIVE_FACE:
        return Certificate(
            kind,
            outcome,
            normal=_unvec(node["normal"]),
            face=tuple(_unvec(p) for p in node["face"]),
            children=tuple(certificate_from_json(c) for c in node["children"]),
        )
    if kind == KIND_PARALLEL_SPLIT:
        e = node["edge"]
        return Certificate(
            kind,
            outcome,
            normal=_unvec(node["normal"]),
            edge=EdgeWitness(_unvec(e["beta1"]), _unvec(e["beta2"]), _unvec(e["functional"])),
            child_nonempty=tuple(
                NonemptyWitness(_unvec(w["point"]), _unvec(w["functional"]))
                for w in node["child_nonempty"]
            ),
            children=tuple(certificate_from_json(c) for c in node["children"]),
        )
    if kind == KIND_EMPTY:
        return Certificate(kind, outcome)
    if kind == KIND_INCONCLUSIVE:
        return Certificate(kind, outcome, reason=node.get("reason"))
    raise ValueError(f"unknown certificate kind {kind!r}")


_CANONICAL = re.compile(r"(0|-?[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?")


class _Rationals(dict):
    """One document's rationals by spelling: a spelling not yet in the dict
    is read, checked to be canonical and kept, so each is read once."""

    def __missing__(self, text) -> Fraction:
        match = _CANONICAL.fullmatch(text) if type(text) is str else None
        value = match and Fraction(int(match[1]), int(match[2] or 1))
        if not match or value.denominator != int(match[2] or 1):
            raise ValueError(f"not a canonical rational: {text!r:.40}")
        self[text] = value
        return value


def _canonical_unvec(v, q: _Rationals) -> Tuple[Fraction, ...]:
    if type(v) is not list:
        raise ValueError(f"expected a list of rationals, found {type(v).__name__}")
    return tuple(map(q.__getitem__, v))


def canonical_signomial_from_json(data: dict) -> Signomial:
    return _signomial(data, _Rationals())


def _signomial(data: dict, q: _Rationals) -> Signomial:
    dimension = data["dimension"]
    if type(dimension) is not int:
        raise ValueError(f"dimension is not a JSON integer: {dimension!r}")
    if len(data["terms"]) > MAX_TERMS:
        raise ValueError(f"more than {MAX_TERMS} terms")
    terms = []
    capped = set()  # the exponent spellings within the caps, each checked once
    for t in data["terms"]:
        exponent = _canonical_unvec(t["exponent"], q)
        fresh = set(t["exponent"]) - capped
        if any(abs(q[s].numerator) >= EXPONENT_BOUND or q[s].denominator >= EXPONENT_BOUND for s in fresh):
            raise ValueError(f"exponent number has more than {MAX_EXPONENT_DIGITS} digits")
        capped |= fresh
        terms.append(Term(q[t["coefficient"]], exponent))
    return Signomial.of_terms(dimension, tuple(terms))
