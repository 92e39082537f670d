"""Exact certification that a sparse signomial's negative region in the
positive orthant has at most one connected component, with a grid-sampling
oracle for desk-scale validation."""

from .certify import (
    BoundReport,
    certify_and_check_closure,
    certify_connectivity,
    intersection_nonempty,
    side_restrictions,
    upper_bound,
)
from .check import (
    CERTIFIED_AT_MOST_ONE,
    CERTIFIED_EMPTY,
    CERTIFIED_EXACTLY_ONE,
    INCONCLUSIVE,
    Certificate,
    CertifyConfig,
    CriterionCertificate,
    SimplexWitness,
    verify_certificate,
)
from .criteria import check_connectivity, closure_property
from .oracle import ComponentReport, GridSpec, count_negative_components, default_grid
from .parsing import format_signomial, parse_signomial
from .signomial import Signomial, Term, restrict, signed_support

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CERTIFIED_AT_MOST_ONE",
    "CERTIFIED_EMPTY",
    "CERTIFIED_EXACTLY_ONE",
    "Certificate",
    "CertifyConfig",
    "ComponentReport",
    "CriterionCertificate",
    "GridSpec",
    "INCONCLUSIVE",
    "Signomial",
    "SimplexWitness",
    "Term",
    "certify_and_check_closure",
    "certify_connectivity",
    "check_connectivity",
    "closure_property",
    "count_negative_components",
    "default_grid",
    "format_signomial",
    "intersection_nonempty",
    "parse_signomial",
    "restrict",
    "side_restrictions",
    "signed_support",
    "upper_bound",
    "verify_certificate",
]
