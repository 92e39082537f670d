"""Versioned JSON documents for certificate traces.

Every rational is an exact string, never a float, so a trace round-trips to
a structurally equal certificate and every witness can be re-verified.  It
is spelled as ``str(Fraction)`` writes it, and only so: ``-?(0|[1-9][0-9]*)``
(never ``-0``), or ``-?[1-9][0-9]*/[1-9][0-9]*`` in lowest terms with a
denominator of at least 2.  Any other spelling (a JSON number, ``"+2"``,
``" 2"``, ``"2.0"``, ``"2/1"``, ``"4/2"``, ...) makes the document malformed.

Each distinct spelling is read once per document, an integer to an int
and a ratio to a Fraction.  The input is read under the text format's caps
(a dimension in 1..MAX_VARIABLE_INDEX, checked before any term is read; each
distinct exponent entry checked once, by ``exceeds_cap``); its rows go
through ``lattice`` to the constructor, as in ``Signomial.of_terms``, so an
integral trace makes no Fraction for an exponent entry, and its int rows
come back as they are.  The input is written from the frame.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import List, Optional, Tuple, Union

from .check import (
    BOX,
    KIND_CRITERION,
    KIND_EMPTY,
    KIND_INCONCLUSIVE,
    KIND_NEGATIVE_FACE,
    KIND_PARALLEL_SPLIT,
    ONE_NEGATIVE_COEFF,
    ONE_POSITIVE_COEFF,
    SIMPLEX_NEGATIVES_INSIDE,
    SIMPLEX_POSITIVES_INSIDE,
    STRICT_SEPARATING,
    BoxWitness,
    Certificate,
    CertifyConfig,
    CriterionCertificate,
    EdgeWitness,
    EnclosingWitness,
    NonemptyWitness,
    SeparatingWitness,
    SimplexWitness,
    verify_certificate,
)
from .linalg import lattice
from .signomial import MAX_EXPONENT_DIGITS, MAX_TERMS, MAX_VARIABLE_INDEX, Signomial, exceeds_cap

SCHEMA_VERSION = 1


def _fmt(x) -> str:
    return str(x) if isinstance(x, (int, Fraction)) else str(Fraction(x))


def _vec(v) -> List[str]:
    return [_fmt(a) for a in v]


_CANONICAL = re.compile(r"(0|-?[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?")


class _Rationals(dict):
    """One document's rationals by spelling: a spelling not yet in the dict
    is read, checked to be canonical and kept, so each is read once.  An
    integer spelling becomes an int; a ratio must be in lowest terms."""

    def __missing__(self, text) -> Union[int, Fraction]:
        match = _CANONICAL.fullmatch(text) if type(text) is str else None
        if match and match[2] is None:
            value = int(match[1])
        else:
            value = match and Fraction(int(match[1]), int(match[2]))
            if not match or value.denominator != int(match[2]):
                raise ValueError(f"not a canonical rational: {text!r:.40}")
        self[text] = value
        return value


def _unvec(v, q: _Rationals) -> Tuple[Union[int, Fraction], ...]:
    if type(v) is not list:
        raise ValueError(f"expected a list of rationals, found {type(v).__name__}")
    return tuple(map(q.__getitem__, v))


def _over(a: int, scale: int) -> str:
    """``str(Fraction(a, scale))`` for a frame entry, with no Fraction made."""
    g = gcd(a, scale)
    return str(a // g) if g == scale else f"{a // g}/{scale // g}"


def signomial_to_json(f: Signomial) -> dict:
    L = f.scale
    if L == 1:  # an integral frame: its rows are the exponents
        exponents = [list(map(str, row)) for row in f.frame]
    else:
        exponents = [[_over(a, L) for a in row] for row in f.frame]
    return {
        "dimension": f.dimension,
        "terms": [{"coefficient": _fmt(c), "exponent": e} for c, e in zip(f.coefficients, exponents)],
    }


def signomial_from_json(data: dict) -> Signomial:
    """The input signomial, under the text format's caps: a dimension in
    1..MAX_VARIABLE_INDEX, at most MAX_TERMS terms, and at most
    MAX_EXPONENT_DIGITS digits in each exponent entry's numerator and
    denominator (ValueError beyond them)."""
    return _signomial(data, _Rationals())


def _signomial(data: dict, q: _Rationals) -> Signomial:
    """The input signomial, framed from ints as the module docstring says."""
    dimension = data["dimension"]
    if type(dimension) is not int:
        raise ValueError(f"dimension is not a JSON integer: {dimension!r}")
    if not 1 <= dimension <= MAX_VARIABLE_INDEX:
        raise ValueError(f"dimension {dimension} is not in 1..{MAX_VARIABLE_INDEX}")
    if len(data["terms"]) > MAX_TERMS:
        raise ValueError(f"more than {MAX_TERMS} terms")
    coefficients, rows, capped = [], [], set()  # capped: the distinct exponent entries within the caps
    for t in data["terms"]:
        row = _unvec(t["exponent"], q)
        fresh = set(row) - capped
        if any(map(exceeds_cap, fresh)):
            raise ValueError(f"exponent number has more than {MAX_EXPONENT_DIGITS} digits")
        capped |= fresh
        coefficients.append(q[t["coefficient"]])
        rows.append(row)
    return Signomial(dimension, tuple(coefficients), *lattice(rows))


def config_to_json(config: CertifyConfig) -> dict:
    out = {
        "max_depth": config.max_depth,
        "facet_budget": config.facet_budget,
        "enable_simplex_search": config.enable_simplex_search,
        "enable_enclosing_search": config.enable_enclosing_search,
        "enable_box_criterion": config.enable_box_criterion,
        "enclosing_max_negatives": config.enclosing_max_negatives,
    }
    if config.simplex_witness is not None:
        out["simplex_witness"] = _simplex_to_json(config.simplex_witness)
    return out


def _simplex_to_json(w: SimplexWitness) -> dict:
    out = {"vertices": [_vec(v) for v in w.vertices], "mode": w.mode}
    if w.interior_negative is not None:
        out["interior_negative"] = _vec(w.interior_negative)
    if w.halfspaces is not None:
        out["halfspaces"] = [{"normal": _vec(v), "offset": _fmt(a)} for v, a in w.halfspaces]
    return out


def _simplex_from_json(data: dict, q: _Rationals) -> SimplexWitness:
    interior = data.get("interior_negative")  # absent or null is none, anything else a vector
    return SimplexWitness(
        vertices=tuple(_unvec(v, q) for v in data["vertices"]),
        mode=data["mode"],
        interior_negative=None if interior is None else _unvec(interior, q),
        halfspaces=tuple((_unvec(h["normal"], q), q[h["offset"]]) for h in data["halfspaces"])
        if "halfspaces" in data
        else None,
    )


def _criterion_to_json(cert: CriterionCertificate) -> dict:
    out = {"criterion": cert.kind, "nonempty": cert.nonempty}
    w = cert.witness
    if cert.kind in (ONE_NEGATIVE_COEFF, ONE_POSITIVE_COEFF) and w is not None:
        out["exponent"] = _vec(w)
    elif cert.kind == STRICT_SEPARATING:
        out["witness"] = {
            "normal": _vec(w.normal),
            "offset": _fmt(w.offset),
            "strict_point": None if w.strict_point is None else _vec(w.strict_point),
        }
    elif cert.kind in (SIMPLEX_NEGATIVES_INSIDE, SIMPLEX_POSITIVES_INSIDE):
        out["witness"] = _simplex_to_json(w)
    elif cert.kind == BOX:
        out["witness"] = {
            "normal": _vec(w.enclosing.normal),
            "upper": _fmt(w.enclosing.upper),
            "lower": _fmt(w.enclosing.lower),
            "beta1": _vec(w.beta1),
            "beta2": _vec(w.beta2),
            "separator_normal": _vec(w.separator_normal),
            "separator_offset": _fmt(w.separator_offset),
        }
    return out


def _criterion_from_json(data: dict, q: _Rationals) -> CriterionCertificate:
    kind = data["criterion"]
    nonempty = data["nonempty"]
    if type(nonempty) is not bool:
        raise ValueError(f"nonempty is not a JSON boolean: {nonempty!r:.40}")
    witness = None
    if kind in (ONE_NEGATIVE_COEFF, ONE_POSITIVE_COEFF) and "exponent" in data:
        witness = _unvec(data["exponent"], q)
    elif kind == STRICT_SEPARATING:
        w = data["witness"]
        point = w.get("strict_point")  # absent or null is none, anything else a vector
        witness = SeparatingWitness(
            _unvec(w["normal"], q), q[w["offset"]], True, None if point is None else _unvec(point, q)
        )
    elif kind in (SIMPLEX_NEGATIVES_INSIDE, SIMPLEX_POSITIVES_INSIDE):
        witness = _simplex_from_json(data["witness"], q)
    elif kind == BOX:
        w = data["witness"]
        witness = BoxWitness(
            EnclosingWitness(_unvec(w["normal"], q), q[w["upper"]], q[w["lower"]], True),
            _unvec(w["beta1"], q),
            _unvec(w["beta2"], q),
            _unvec(w["separator_normal"], q),
            q[w["separator_offset"]],
        )
    return CriterionCertificate(kind, nonempty, witness)


def certificate_to_json(cert: Certificate) -> dict:
    node: dict = {"kind": cert.kind, "outcome": cert.outcome}
    if cert.kind == KIND_CRITERION:
        node.update(_criterion_to_json(cert.criterion))
    elif cert.kind == KIND_NEGATIVE_FACE:
        node["normal"] = _vec(cert.normal)
        node["face"] = [_vec(p) for p in cert.face]
        node["children"] = [certificate_to_json(c) for c in cert.children]
    elif cert.kind == KIND_PARALLEL_SPLIT:
        node["normal"] = _vec(cert.normal)
        node["edge"] = {
            "beta1": _vec(cert.edge.beta1),
            "beta2": _vec(cert.edge.beta2),
            "functional": _vec(cert.edge.functional),
        }
        node["child_nonempty"] = [
            {"point": _vec(w.point), "functional": _vec(w.functional)}
            for w in cert.child_nonempty
        ]
        node["children"] = [certificate_to_json(c) for c in cert.children]
    elif cert.kind == KIND_INCONCLUSIVE:
        node["reason"] = cert.reason
    return node


def certificate_from_json(node: dict) -> Certificate:
    return _certificate(node, _Rationals())


def _certificate(node: dict, q: _Rationals) -> Certificate:
    kind, outcome = node["kind"], node["outcome"]
    if kind == KIND_CRITERION:
        return Certificate(kind, outcome, criterion=_criterion_from_json(node, q))
    if kind == KIND_NEGATIVE_FACE:
        return Certificate(
            kind,
            outcome,
            normal=_unvec(node["normal"], q),
            face=tuple(_unvec(p, q) for p in node["face"]),
            children=tuple(_certificate(c, q) for c in node["children"]),
        )
    if kind == KIND_PARALLEL_SPLIT:
        e = node["edge"]
        return Certificate(
            kind,
            outcome,
            normal=_unvec(node["normal"], q),
            edge=EdgeWitness(_unvec(e["beta1"], q), _unvec(e["beta2"], q), _unvec(e["functional"], q)),
            child_nonempty=tuple(
                NonemptyWitness(_unvec(w["point"], q), _unvec(w["functional"], q))
                for w in node["child_nonempty"]
            ),
            children=tuple(_certificate(c, q) for c in node["children"]),
        )
    if kind == KIND_EMPTY:
        return Certificate(kind, outcome)
    if kind == KIND_INCONCLUSIVE:
        return Certificate(kind, outcome, reason=node.get("reason"))
    raise ValueError(f"unknown certificate kind {kind!r}")


def make_document(
    f: Signomial,
    config: CertifyConfig,
    cert: Certificate,
    source: Optional[str] = None,
) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "input": signomial_to_json(f),
        "config": config_to_json(config),
        "outcome": cert.outcome,
        "tree": certificate_to_json(cert),
    }
    if source is not None:
        doc["input"]["source"] = source
    return doc


def document_to_json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2)``, from a writer for the
    types a document holds (dicts with str keys, lists, str, int, bool and
    None); ``json`` falls back to its pure-Python encoder when indenting."""
    out: List[str] = []
    _write_json(doc, "\n", out)
    return "".join(out)


def _write_json(x, indent: str, out: List[str]) -> None:
    if type(x) is str:
        out.append(encode_basestring_ascii(x))
    elif x is None or type(x) is bool:
        out.append("null" if x is None else "true" if x else "false")
    elif type(x) is int:
        out.append(int.__repr__(x))
    elif type(x) is dict:
        if not x:
            out.append("{}")
            return
        inner, sep = indent + "  ", "{"
        for key, value in x.items():
            if type(key) is not str:
                raise TypeError(f"document keys must be str, not {type(key).__name__}")
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, out)
            sep = ","
        out.append(indent + "}")
    elif type(x) is list:
        if not x:
            out.append("[]")
            return
        inner, sep = indent + "  ", "["
        for value in x:
            out.append(sep + inner)
            _write_json(value, inner, out)
            sep = ","
        out.append(indent + "]")
    else:
        raise TypeError(f"{type(x).__name__} is not a document type")


def verify_document(doc: dict) -> List[str]:
    """Re-verify every witness in a trace document; empty list means valid.
    A document of the wrong shape, with wrongly typed fields or with a
    rational not spelled canonically is reported as malformed, never
    raised."""
    if not isinstance(doc, dict):
        return [f"malformed document: expected an object, found {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA_VERSION:
        return [f"unsupported schema {doc.get('schema')!r}"]
    try:
        q = _Rationals()
        f = _signomial(doc["input"], q)
        cert = _certificate(doc["tree"], q)
        errors = verify_certificate(f, cert)
    except RecursionError:
        return ["malformed document: trace nested too deeply"]
    except (KeyError, ValueError, TypeError, AttributeError, ArithmeticError) as exc:
        return [f"malformed document: {exc}"]
    if doc.get("outcome") != cert.outcome:
        errors.append("document outcome does not match the tree outcome")
    return errors
