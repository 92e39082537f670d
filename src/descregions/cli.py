"""Command-line interface.

Commands: ``certify`` (recursive certification, JSON/text trace, exit 0 when
certified, 2 when inconclusive), ``oracle`` (grid component count), ``analyze``
(support/polytope statistics) and ``plot`` (SVG of a 2-variable negative
region).  Input errors exit 1 with a message on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import List, Optional, Tuple

from . import tracedoc
from .certify import certify_connectivity
from .check import (
    CERTIFIED_OUTCOMES,
    KIND_CRITERION,
    KIND_EMPTY,
    KIND_NEGATIVE_FACE,
    KIND_PARALLEL_SPLIT,
    Certificate,
    CertifyConfig,
)
from .criteria import closure_property, find_strict_separating_hyperplane
from .oracle import GridBudgetExceededError, count_negative_components, default_grid
from .parsing import ParseError, parse_signomial
from .polytope import build_polytope, lazy_hull, parallel_face_pairs, smallest_face_containing
from .signomial import DEFAULT_TOLERANCE_FACTOR, Signomial, newton_dim
from .svgplot import PlotUnsupportedError, render_region_svg

# a number of the polynomial text: sign, digits, then a decimal part or a denominator
_NUMBER_RE = re.compile(r"[-+]?[0-9]+(?:\.[0-9]+|/[0-9]+)?")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _read_signomial(path: str) -> Tuple[Signomial, str]:
    """The signomial in the file and the text it was parsed from."""
    text = Path(path).read_text(encoding="utf-8")
    f = parse_signomial(text)
    if not f.frame:
        raise ParseError("polynomial has empty support", 1, 1)
    return f, text


def _parse_box(spec: Optional[str], dimension: int):
    """The log-space box of ``--box``: one lo,hi for every axis, or one per axis."""
    if spec is None:
        return None
    try:
        box = [tuple(map(float, part.split(","))) for part in spec.split(";")]
    except ValueError:
        box = []
    if len(box) == 1:
        box *= dimension
    if len(box) != dimension or any(len(b) != 2 for b in box):
        raise ValueError(f"--box {spec!r:.40} must be lo,hi or one lo,hi per axis ({dimension} here) joined by ';': numbers like -2 or 1.5")
    return box


def _format_text(node: Certificate, indent: int = 0) -> List[str]:
    pad = "  " * indent
    if node.kind == KIND_CRITERION:
        lines = [f"{pad}criterion {node.criterion.kind} -> {node.outcome}"]
    elif node.kind == KIND_NEGATIVE_FACE:
        normal = ",".join(map(str, node.normal))
        lines = [f"{pad}negative-face-reduction normal=({normal}) -> {node.outcome}"]
    elif node.kind == KIND_PARALLEL_SPLIT:
        normal, b1, b2 = (",".join(map(str, v)) for v in (node.normal, node.edge.beta1, node.edge.beta2))
        lines = [f"{pad}parallel-split normal=({normal}) edge=({b1})-({b2}) -> {node.outcome}"]
    elif node.kind == KIND_EMPTY:
        lines = [f"{pad}empty negative support -> {node.outcome}"]
    else:
        lines = [f"{pad}inconclusive: {node.reason}"]
    for child in node.children:
        lines.extend(_format_text(child, indent + 1))
    return lines


def _cmd_certify(args) -> int:
    if args.verify_trace:
        try:
            doc = json.loads(Path(args.file).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        errors = tracedoc.verify_document(doc)
        print(json.dumps({"verified": not errors, "errors": errors}, indent=2))
        return EXIT_OK if not errors else EXIT_INCONCLUSIVE

    f, text = _read_signomial(args.file)
    config = CertifyConfig(
        max_depth=args.max_depth,
        facet_budget=args.facet_budget,
        enable_simplex_search=args.enable_simplex_search,
        enable_box_criterion=args.enable_box,
    )
    cert = certify_connectivity(f, config)
    doc = tracedoc.make_document(f, config, cert, source=text.strip())
    if args.format == "json":
        print(tracedoc.document_to_json(doc))
    else:
        print("\n".join([f"outcome: {cert.outcome}"] + _format_text(cert)))
    return EXIT_OK if cert.outcome in CERTIFIED_OUTCOMES else EXIT_INCONCLUSIVE


def _cmd_oracle(args) -> int:
    f, _ = _read_signomial(args.file)
    box = _parse_box(args.box, f.dimension)
    grid = default_grid(f.dimension, box=box, resolution=args.grid, tolerance_factor=args.tol)
    report = count_negative_components(f, grid)
    print(
        json.dumps(
            {
                "component_count": report.component_count,
                "negative_cell_count": report.negative_cell_count,
                "witnesses_log": [list(w) for w in report.witnesses],
                "grid": {
                    "box": [list(b) for b in report.grid.box],
                    "resolution": report.grid.resolution,
                    "tolerance_factor": report.grid.tolerance_factor,
                },
            },
            indent=2,
        )
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    f, _ = _read_signomial(args.file)
    facet_budget = CertifyConfig(facet_budget=args.facet_budget).facet_budget  # certify's rule for a budget
    neg = f.negative_indices
    newton = lazy_hull(lambda: build_polytope(f.frame, facet_budget))
    P = newton()
    report = {
        "dimension": f.dimension,
        "term_count": len(f.frame),
        "positive_count": len(f.positive_indices),
        "negative_count": len(neg),
        "newton_dim": newton_dim(f),
        "facet_budget_exceeded": P is None,
    }
    if P is not None:
        report["vertex_count"] = len(P.vertices)
        report["facet_count"] = len(P.facets)
        if neg:
            face_idx, normal = smallest_face_containing(P, neg)
            report["smallest_negative_face"] = {  # the hull's points are frame rows; report exponents
                "support": [[str(c) for c in f.exponent(i)] for i in face_idx],
                "proper": any(normal),
            }
        else:
            report["smallest_negative_face"] = None
        report["parallel_face_pairs"] = [[str(c) for c in v] for v, _, _ in parallel_face_pairs(P)]
    separating = cache(lambda: find_strict_separating_hyperplane(f))
    sep = separating()
    report["strict_separating"] = None if sep is None else {
        "normal": [str(c) for c in sep.normal],
        "offset": str(sep.offset),
        "strict_point": [str(c) for c in sep.strict_point],
    }
    report["closure_property"] = closure_property(f, facet_budget, newton, separating)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_plot(args) -> int:
    f, _ = _read_signomial(args.file)
    box = _parse_box(args.box, 2)
    grid = default_grid(2, box=box, resolution=200 if args.grid is None else args.grid)
    hyperplane = None
    if args.hyperplane:
        parts = args.hyperplane.split(",")
        # numbers as the polynomial text writes them, read exactly; the
        # overlay is drawn in floats, so each must convert to one
        try:
            if len(parts) != 3 or not all(_NUMBER_RE.fullmatch(p.strip()) for p in parts):
                raise ValueError
            v1, v2, a = (Fraction(p) for p in parts)
            float(v1), float(v2), float(a)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(
                f"hyperplane {args.hyperplane!r:.40} must be v1,v2,a: numbers like -3, 1.5 or 2/3 within the float range"
            ) from None
        hyperplane = ((v1, v2), a)
    svg = render_region_svg(f, grid, hyperplane)
    out = args.out or str(Path(args.file).with_suffix(".svg"))
    Path(out).write_text(svg, encoding="utf-8")
    print(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descregions",
        description="Certify connectivity of the negative region of a sparse signomial.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = CertifyConfig()

    p = sub.add_parser("certify", help="run the recursive certification")
    p.add_argument("file", help="polynomial file (or trace JSON with --verify-trace)")
    p.add_argument("--max-depth", type=int, default=defaults.max_depth)
    p.add_argument("--facet-budget", type=int, default=defaults.facet_budget)
    p.add_argument("--enable-simplex-search", action="store_true")
    p.add_argument("--enable-box", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--verify-trace", action="store_true", help="re-verify an emitted trace document")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("oracle", help="grid-sampling component count")
    p.add_argument("file")
    p.add_argument("--box", help="log-space box: 'lo,hi' or per-axis 'lo,hi;lo,hi'")
    p.add_argument("--grid", type=int, default=None, help="samples per axis")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE_FACTOR, help="relative sign tolerance")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("analyze", help="support and Newton polytope statistics")
    p.add_argument("file")
    p.add_argument("--facet-budget", type=int, default=defaults.facet_budget)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plot", help="SVG of the negative region (two variables)")
    p.add_argument("file")
    p.add_argument("--box", help="log-space box: 'lo,hi' or per-axis 'lo,hi;lo,hi'")
    p.add_argument("--grid", type=int, default=None, help="samples per axis")
    p.add_argument("--out", help="output SVG path")
    p.add_argument("--hyperplane", help="overlay 'v1,v2,a' on a support panel")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError, PlotUnsupportedError, GridBudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
