"""Versioned JSON documents for certificate traces.

All rationals are serialized as exact "p/q" strings (never floats) so a trace
round-trips to a structurally equal certificate and every witness can be
re-verified after the fact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional, Tuple

from .certify import (
    Certificate,
    EdgeWitness,
    KIND_CRITERION,
    KIND_EMPTY,
    KIND_INCONCLUSIVE,
    KIND_NEGATIVE_FACE,
    KIND_PARALLEL_SPLIT,
    NonemptyWitness,
    verify_certificate,
)
from .criteria import (
    BOX,
    BoxWitness,
    CertifyConfig,
    CriterionCertificate,
    EnclosingWitness,
    ONE_NEGATIVE_COEFF,
    ONE_POSITIVE_COEFF,
    STRICT_SEPARATING,
    SIMPLEX_NEGATIVES_INSIDE,
    SIMPLEX_POSITIVES_INSIDE,
    SeparatingWitness,
    SimplexWitness,
)
from .signomial import Signomial, Term

SCHEMA_VERSION = 1


def _frac(s) -> Fraction:
    return Fraction(s)


def _fmt(x: Fraction) -> str:
    return str(Fraction(x))


def _vec(v) -> List[str]:
    return [_fmt(a) for a in v]


def _unvec(v) -> Tuple[Fraction, ...]:
    return tuple(_frac(a) for a in v)


def signomial_to_json(f: Signomial) -> dict:
    return {
        "dimension": f.dimension,
        "terms": [
            {"coefficient": _fmt(t.coefficient), "exponent": _vec(t.exponent)}
            for t in f.terms
        ],
    }


def signomial_from_json(data: dict) -> Signomial:
    terms = tuple(
        Term(_frac(t["coefficient"]), _unvec(t["exponent"])) for t in data["terms"]
    )
    return Signomial(int(data["dimension"]), terms)


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


def config_from_json(data: dict) -> CertifyConfig:
    witness = data.get("simplex_witness")
    return CertifyConfig(
        max_depth=int(data.get("max_depth", 64)),
        facet_budget=data.get("facet_budget"),
        enable_simplex_search=bool(data.get("enable_simplex_search", False)),
        enable_enclosing_search=bool(data.get("enable_enclosing_search", False)),
        enable_box_criterion=bool(data.get("enable_box_criterion", False)),
        simplex_witness=_simplex_from_json(witness) if witness else None,
        enclosing_max_negatives=int(data.get("enclosing_max_negatives", 12)),
    )


def _simplex_to_json(w: SimplexWitness) -> dict:
    out = {
        "vertices": [_vec(v) for v in w.vertices],
        "mode": w.mode,
    }
    if w.interior_negative is not None:
        out["interior_negative"] = _vec(w.interior_negative)
    if w.halfspaces is not None:
        out["halfspaces"] = [
            {"normal": _vec(v), "offset": _fmt(a)} for v, a in w.halfspaces
        ]
    return out


def _simplex_from_json(data: dict) -> SimplexWitness:
    halfspaces = None
    if "halfspaces" in data:
        halfspaces = tuple(
            (_unvec(h["normal"]), _frac(h["offset"])) for h in data["halfspaces"]
        )
    interior = data.get("interior_negative")
    return SimplexWitness(
        vertices=tuple(_unvec(v) for v in data["vertices"]),
        mode=data["mode"],
        interior_negative=_unvec(interior) if interior else None,
        halfspaces=halfspaces,
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
            "strict_point": _vec(w.strict_point) if w.strict_point else None,
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
            _frac(w["offset"]),
            True,
            _unvec(w["strict_point"]) if w.get("strict_point") else None,
        )
    elif kind in (SIMPLEX_NEGATIVES_INSIDE, SIMPLEX_POSITIVES_INSIDE):
        witness = _simplex_from_json(data["witness"])
    elif kind == BOX:
        w = data["witness"]
        witness = BoxWitness(
            EnclosingWitness(_unvec(w["normal"]), _frac(w["upper"]), _frac(w["lower"]), True),
            _unvec(w["beta1"]),
            _unvec(w["beta2"]),
            _unvec(w["separator_normal"]),
            _frac(w["separator_offset"]),
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
    return json.dumps(doc, indent=2)


def verify_document(doc: dict) -> List[str]:
    """Re-verify every witness in a trace document; empty list means valid.
    A document of the wrong shape or with wrongly typed fields is reported
    as malformed, never raised."""
    if not isinstance(doc, dict):
        return [f"malformed document: expected an object, found {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA_VERSION:
        return [f"unsupported schema {doc.get('schema')!r}"]
    try:
        f = signomial_from_json(doc["input"])
        cert = certificate_from_json(doc["tree"])
        errors = verify_certificate(f, cert)
    except RecursionError:
        return ["malformed document: trace nested too deeply"]
    except (KeyError, ValueError, TypeError, AttributeError, ArithmeticError) as exc:
        return [f"malformed document: {exc}"]
    if doc.get("outcome") != cert.outcome:
        errors.append("document outcome does not match the tree outcome")
    return errors
