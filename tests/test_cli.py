import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from descregions import cli
from descregions.check import CertifyConfig
from descregions.cli import main
from descregions.parsing import MAX_EXPONENT_DIGITS, MAX_TERMS
from descregions.signomial import DEFAULT_TOLERANCE_FACTOR

import fixtures


@pytest.fixture
def poly(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text + "\n", encoding="utf-8")
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_exit_codes(poly, capsys):
    cube4 = poly("cube4.poly", fixtures.CUBE4_TEXT)
    code, out, _ = run(capsys, "certify", cube4)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["outcome"] == "CertifiedExactlyOne"
    assert doc["tree"]["kind"] == "negative-face-reduction"
    assert doc["tree"]["children"][0]["kind"] == "parallel-split"

    negq = poly("negq.poly", fixtures.NEG_QUADRATIC_TEXT)
    code, out, _ = run(capsys, "certify", negq)
    assert code == 2
    assert json.loads(out)["outcome"] == "Inconclusive"

    empty = poly("empty.poly", "")
    code, _, err = run(capsys, "certify", empty)
    assert code == 1 and "error" in err


def test_parser_defaults_are_the_config_defaults(monkeypatch):
    """``--max-depth`` and both ``--facet-budget`` options default to
    ``CertifyConfig``'s fields, so a trace written with no options records
    the library's defaults, also once those change."""
    defaults = CertifyConfig()
    certify, analyze = (cli.build_parser().parse_args([command, "in.poly"]) for command in ("certify", "analyze"))
    assert (certify.max_depth, certify.facet_budget, analyze.facet_budget) == (
        defaults.max_depth, defaults.facet_budget, defaults.facet_budget
    )
    monkeypatch.setattr(cli, "CertifyConfig", lambda **kw: CertifyConfig(**{"max_depth": 7, "facet_budget": 99, **kw}))
    certify, analyze = (cli.build_parser().parse_args([command, "in.poly"]) for command in ("certify", "analyze"))
    assert (certify.max_depth, certify.facet_budget, analyze.facet_budget) == (7, 99, 99)


def test_oracle_tolerance_defaults_to_the_library_default(monkeypatch):
    """``oracle --tol`` defaults to the grid's own default tolerance factor,
    also once that changes."""
    assert cli.build_parser().parse_args(["oracle", "in.poly"]).tol == DEFAULT_TOLERANCE_FACTOR
    monkeypatch.setattr(cli, "DEFAULT_TOLERANCE_FACTOR", 1e-9)
    assert cli.build_parser().parse_args(["oracle", "in.poly"]).tol == 1e-9


def test_certify_text_format_prints_empty_and_inconclusive_leaves(poly, capsys):
    code, out, _ = run(capsys, "certify", poly("pos.poly", "1 + x^2*y"), "--format", "text")
    assert (code, out) == (0, "outcome: CertifiedEmpty\nempty negative support -> CertifiedEmpty\n")
    tenterm = poly("tenterm.poly", fixtures.TEN_TERM_TEXT)
    code, out, _ = run(capsys, "certify", tenterm, "--facet-budget", "1", "--format", "text")
    assert (code, out) == (2, "outcome: Inconclusive\ninconclusive: facet count exceeded budget of 1\n")


def test_certify_text_format(poly, capsys):
    cube4 = poly("cube4.poly", fixtures.CUBE4_TEXT)
    code, out, _ = run(capsys, "certify", cube4, "--format", "text")
    assert code == 0
    assert "negative-face-reduction" in out
    assert "parallel-split" in out
    assert "strict-separating" in out


def test_verify_trace_round_trip(poly, capsys, tmp_path):
    cube4 = poly("cube4.poly", fixtures.CUBE4_TEXT)
    code, out, _ = run(capsys, "certify", cube4)
    assert code == 0
    trace = tmp_path / "trace.json"
    trace.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--verify-trace", str(trace))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_trace_rejects_tampered(poly, capsys, tmp_path):
    cube4 = poly("cube4.poly", fixtures.CUBE4_TEXT)
    _, out, _ = run(capsys, "certify", cube4)
    doc = json.loads(out)
    doc["tree"]["normal"] = ["0", "0", "0", "1"]  # flip the reduction normal
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--verify-trace", str(trace))
    assert code == 2
    result = json.loads(out)
    assert result["verified"] is False and result["errors"]


def test_certify_zero_denominator_is_input_error(poly, capsys):
    for name, text in (("exp.poly", "x^(1/0) - 1"), ("coeff.poly", "3/0*x - 1")):
        code, out, err = run(capsys, "certify", poly(name, text))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "zero denominator" in err


def test_budgets_below_one_are_input_errors(poly, capsys):
    """``certify`` and ``analyze`` read a facet budget under one rule, the
    config's: below 1 it is an input error, as a depth cap below 1 is."""
    cube4 = poly("cube4.poly", fixtures.CUBE4_TEXT)
    for argv, field in (
        (("certify", cube4, "--facet-budget", "-3"), "facet_budget"),
        (("certify", cube4, "--facet-budget", "0"), "facet_budget"),
        (("analyze", cube4, "--facet-budget", "-3"), "facet_budget"),
        (("analyze", cube4, "--facet-budget", "0"), "facet_budget"),
        (("certify", cube4, "--max-depth", "0"), "max_depth"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {field} must be >= 1\n"), argv
    code, out, _ = run(capsys, "analyze", cube4, "--facet-budget", "1")
    assert code == 0 and json.loads(out)["facet_budget_exceeded"] is True


def test_certify_caps_the_variable_index(poly, capsys):
    code, out, err = run(capsys, "certify", poly("wide.poly", "x200000 - 1 + y"))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "largest index" in err


def test_certify_reports_a_number_too_long_at_its_position(poly, capsys):
    code, out, err = run(capsys, "certify", poly("long.poly", "x^" + "9" * 5000 + " - 1"))
    assert code == 1 and out == ""
    assert err.startswith("error: line 1, column 3: number too long")


def test_certify_caps_terms_and_exponent_digits(poly, capsys):
    many = " + ".join(f"x^{i}" for i in range(MAX_TERMS + 1))
    code, out, err = run(capsys, "certify", poly("many.poly", many))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"more than {MAX_TERMS} terms" in err
    code, out, err = run(capsys, "certify", poly("deep.poly", "x^(1/" + "7" * (MAX_EXPONENT_DIGITS + 1) + ") - 1"))
    assert code == 1 and out == ""
    assert err.startswith("error: line 1, column 6: exponent number has more than")


def test_certify_traces_at_the_merged_exponent_cap_replay(poly, capsys, tmp_path):
    """A term's merged exponent is capped like a written one, so every trace
    that certify emits passes the trace caps of --verify-trace."""
    big = "9" * MAX_EXPONENT_DIGITS
    code, out, err = run(capsys, "certify", poly("over.poly", f"1 - x^{big}*x^{big}"))
    assert code == 1 and out == ""
    assert err.startswith(f"error: line 1, column 5: merged exponent of x1 has more than {MAX_EXPONENT_DIGITS} digits")
    code, out, _ = run(capsys, "certify", poly("at.poly", f"1 - x^{big}*x^-1*x - y^(1/{big})*y^(1/{big})"))
    assert code == 0
    trace = tmp_path / "trace.json"
    trace.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--verify-trace", str(trace))
    assert code == 0 and json.loads(out)["verified"] is True


def test_certify_reads_its_input_once(poly, capsys, monkeypatch):
    # a file that changes after the first read: the trace records the text
    # that was certified
    path = poly("changing.poly", fixtures.CUBE4_TEXT)
    read_text = Path.read_text
    reads = []

    def changing(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs) if len(reads) == 1 else "x - 1"

    monkeypatch.setattr(Path, "read_text", changing)
    code, out, _ = run(capsys, "certify", path)
    assert code == 0 and len(reads) == 1
    assert json.loads(out)["input"]["source"] == fixtures.CUBE4_TEXT.strip()


def test_verify_trace_rejects_malformed_documents(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    for doc in ([1, 2], {"schema": 1, "input": {"dimension": 1, "terms": 5}, "tree": {}}):
        trace.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "certify", "--verify-trace", str(trace))
        assert code == 2
        result = json.loads(out)
        assert result["verified"] is False
        assert result["errors"][0].startswith("malformed document: ")


def test_verify_trace_rejects_deeply_nested_trace(capsys, tmp_path):
    node = '{"kind": "negative-face-reduction", "outcome": "CertifiedEmpty", "normal": ["1"], "face": [], "children": ['
    tree = node * 5000 + '{"kind": "empty", "outcome": "CertifiedEmpty"}' + "]}" * 5000
    trace = tmp_path / "trace.json"
    trace.write_text(
        '{"schema": 1, "input": {"dimension": 1, "terms": []}, "outcome": "CertifiedEmpty", "tree": ' + tree + "}",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "certify", "--verify-trace", str(trace))
    assert code == 1
    assert err.startswith("error: ")


def test_oracle_command(poly, capsys):
    tenterm = poly("tenterm.poly", fixtures.TEN_TERM_TEXT)
    code, out, _ = run(capsys, "oracle", tenterm, "--grid", "200")
    assert code == 0
    report = json.loads(out)
    assert report["component_count"] == 3
    assert report["grid"]["resolution"] == 200
    assert len(report["witnesses_log"]) == 3


def test_oracle_box_flag(poly, capsys):
    f = poly("f.poly", "-1*x")
    # a leading dash needs the --flag=value spelling
    code, out, _ = run(capsys, "oracle", f, "--grid", "50", "--box=-2,2")
    assert code == 0
    report = json.loads(out)
    assert report["grid"]["box"] == [[-2.0, 2.0]]
    assert report["component_count"] == 1


def test_oracle_rejects_a_negative_or_nan_tolerance(poly, capsys):
    # x^2 - x + 1 is positive everywhere: a negative tolerance used to call
    # every cell negative, and NaN used to report 0 silently
    f = poly("pos.poly", "x^2 - x + 1")
    for tol in ("-1", "nan"):
        code, out, err = run(capsys, "oracle", f, "--tol", tol)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "tolerance_factor must be >= 0" in err
    code, out, _ = run(capsys, "oracle", f, "--tol", "0", "--grid", "50")
    assert code == 0 and json.loads(out)["component_count"] == 0


def test_oracle_and_plot_reject_non_finite_grids(poly, capsys, tmp_path):
    # x1 - 1 is negative on half of any box around 0: an infinite box used to
    # report 0 components with numpy warnings and print -Infinity, and an
    # infinite tolerance emptied the mask
    f = poly("half.poly", "x1 - 1")
    for argv, message in (
        (("--box=-inf,inf", "--grid", "5"), "box ends must be finite"),
        (("--box=0,nan",), "box ends must be finite"),
        (("--box=-1e308,1e308",), "box width hi - lo overflows"),
        (("--tol", "inf"), "tolerance_factor must be >= 0 and finite"),
        # parts that are not lo,hi numbers used to print Python's unpacking
        # and float conversion messages
        (("--box=0,1;2",), "--box '0,1;2' must be lo,hi or one lo,hi per axis (1 here) joined by ';'"),
        (("--box", "0"), "--box '0' must be lo,hi or one lo,hi per axis (1 here)"),
        (("--box=0,1,2",), "--box '0,1,2' must be lo,hi or one lo,hi per axis (1 here)"),
        (("--box=a,b",), "--box 'a,b' must be lo,hi or one lo,hi per axis (1 here)"),
        (("--box=0,1;0,1",), "--box '0,1;0,1' must be lo,hi or one lo,hi per axis (1 here)"),
    ):
        code, out, err = run(capsys, "oracle", f, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and message in err, argv
    for box, message in (("--box=-inf,inf", "box ends must be finite"), ("--box=0,1;2", "must be lo,hi or one lo,hi per axis (2 here)")):
        code, out, err = run(capsys, "plot", poly("y.poly", "x - y"), box, "--out", str(tmp_path / "p.svg"))
        assert code == 1 and out == "" and err.startswith("error: ") and message in err, box
        assert err.count("\n") == 1, box
    assert not (tmp_path / "p.svg").exists()
    code, out, _ = run(capsys, "oracle", f, "--box=-1,1", "--grid", "5")
    assert code == 0 and json.loads(out)["negative_cell_count"] == 2


def test_analyze_command(poly, capsys):
    tenterm = poly("tenterm.poly", fixtures.TEN_TERM_TEXT)
    code, out, _ = run(capsys, "analyze", tenterm)
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 2
    assert report["positive_count"] == 6
    assert report["negative_count"] == 4
    assert report["newton_dim"] == 2
    assert report["vertex_count"] == 5
    assert report["smallest_negative_face"]["proper"] is False
    assert report["strict_separating"] is None
    assert report["closure_property"] is False

    strip = poly("strip.poly", fixtures.STRIP_PAIR_TEXT)
    _, out, _ = run(capsys, "analyze", strip)
    report = json.loads(out)
    assert ["0", "1"] in report["parallel_face_pairs"]

    cube = poly("cube.poly", fixtures.CUBE3_TEXT)
    _, out, _ = run(capsys, "analyze", cube)
    report = json.loads(out)
    assert report["newton_dim"] == 3
    assert report["facet_count"] == 6
    assert report["vertex_count"] == 8


# CUBE4 with coordinate i's exponents divided by 2, 3, 5 and 7: a hull on
# the lattice frame (L = 210) must still report exponents, not 210 * mu
CUBE4_IMAGE_TEXT = (
    "-1 + x4^(3/7) - x3^(1/5) - x2^(1/3) + x2^(1/3)*x3^(1/5) + x1^(1/2) + x1^(1/2)*x4^(1/7)"
    " - x1^(1/2)*x3^(1/5) + x1^(1/2)*x2^(1/3) - x1^(1/2)*x2^(1/3)*x3^(1/5)"
)


def test_analyze_reports_exponent_coordinates_on_a_rational_support(poly, capsys):
    code, out, _ = run(capsys, "analyze", poly("image.poly", CUBE4_IMAGE_TEXT))
    assert code == 0
    report = json.loads(out)
    assert (report["vertex_count"], report["facet_count"]) == (10, 9)
    assert report["smallest_negative_face"] == {
        "support": [
            [x1, x2, x3, "0"] for x1 in ("0", "1/2") for x2 in ("0", "1/3") for x3 in ("0", "1/5")
        ],
        "proper": True,
    }
    assert report["parallel_face_pairs"] == [["0", "0", "1", "0"], ["0", "1", "0", "0"], ["1", "0", "0", "0"]]


def test_analyze_facet_budget_partial_report(poly, capsys):
    cube = poly("cube.poly", fixtures.CUBE3_TEXT)
    code, out, _ = run(capsys, "analyze", cube, "--facet-budget", "3")
    assert code == 0
    report = json.loads(out)
    assert report["facet_budget_exceeded"] is True
    assert "facet_count" not in report


def test_plot_command(poly, capsys, tmp_path):
    tenterm = poly("tenterm.poly", fixtures.TEN_TERM_TEXT)
    out_path = tmp_path / "region.svg"
    code, _, _ = run(capsys, "plot", tenterm, "--grid", "80", "--out", str(out_path))
    assert code == 0
    tree = ET.parse(out_path)
    rects = tree.getroot().findall(".//{http://www.w3.org/2000/svg}rect")
    assert len(rects) > 3  # shaded cells plus the frame

    # deterministic output
    out2 = tmp_path / "region2.svg"
    run(capsys, "plot", tenterm, "--grid", "80", "--out", str(out2))
    assert out_path.read_bytes() == out2.read_bytes()


def test_plot_positive_constant_has_empty_shading(poly, capsys, tmp_path):
    const = poly("const.poly", "1 + x*y")
    out_path = tmp_path / "empty.svg"
    code, _, _ = run(capsys, "plot", const, "--grid", "50", "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text(encoding="utf-8")
    assert 'class="neg"' not in svg


def test_plot_hyperplane_overlay(poly, capsys, tmp_path):
    upper = poly("upper.poly", fixtures.TEN_TERM_UPPER_TEXT)
    out_path = tmp_path / "overlay.svg"
    code, _, _ = run(capsys, "plot", upper, "--grid", "60", "--out", str(out_path), "--hyperplane", "1,0,2")
    assert code == 0
    svg = out_path.read_text(encoding="utf-8")
    assert 'class="hplane"' in svg and 'class="pospt"' in svg


def test_plot_rejects_a_bad_hyperplane(poly, capsys, tmp_path):
    # a zero denominator used to raise ZeroDivisionError from Fraction, a
    # part beyond the float range OverflowError while drawing the overlay;
    # an exponent, which the polynomial text has no spelling for, is refused
    # before Fraction builds its power of ten (1e9999999 took seconds)
    upper = poly("upper.poly", fixtures.TEN_TERM_UPPER_TEXT)
    out_path = tmp_path / "overlay.svg"
    for spec in ("1/0,1,1", "1,1,1e999999", "1e9999999,1,1", "1e-999999,1,1"):
        code, out, err = run(capsys, "plot", upper, "--grid", "20", "--out", str(out_path), "--hyperplane", spec)
        assert code == 1 and out == "", spec
        assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err, spec
    assert not out_path.exists()


def test_plot_rejects_a_grid_below_two(poly, capsys, tmp_path):
    tenterm = poly("tenterm.poly", fixtures.TEN_TERM_TEXT)
    out_path = tmp_path / "region.svg"
    for grid in ("0", "1"):
        code, out, err = run(capsys, "plot", tenterm, "--grid", grid, "--out", str(out_path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "resolution must be >= 2" in err
    assert not out_path.exists()


def test_plot_rejects_other_dimensions(poly, capsys, tmp_path):
    cube = poly("cube.poly", fixtures.CUBE3_TEXT)
    code, _, err = run(capsys, "plot", cube, "--out", str(tmp_path / "x.svg"))
    assert code == 1 and "two variables" in err


def test_console_entry_point(poly):
    negq = poly("negq.poly", fixtures.NEG_QUADRATIC_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "descregions.cli", "certify", negq],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_analyze_builds_the_hull_and_searches_once(poly, capsys, monkeypatch):
    from descregions import cli, criteria, polytope

    calls = {"hull": 0, "separating": 0}

    def counting(key, original):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapped

    hull = counting("hull", polytope.build_polytope)
    search = counting("separating", criteria.find_strict_separating_hyperplane)
    for module in (cli, criteria):
        monkeypatch.setattr(module, "build_polytope", hull)
        monkeypatch.setattr(module, "find_strict_separating_hyperplane", search)
    tenterm = poly("tenterm.poly", fixtures.TEN_TERM_TEXT)
    code, out, _ = run(capsys, "analyze", tenterm)
    assert code == 0 and json.loads(out)["closure_property"] is False
    assert calls == {"hull": 1, "separating": 1}
    # over the budget: one attempt, and the closure check reports no verdict
    calls.update(hull=0, separating=0)
    code, out, _ = run(capsys, "analyze", tenterm, "--facet-budget", "1")
    report = json.loads(out)
    assert code == 0 and report["facet_budget_exceeded"] is True and report["closure_property"] is None
    assert calls == {"hull": 1, "separating": 1}


def test_verify_trace_applies_the_input_caps(capsys, tmp_path):
    from test_tracedoc import _capped_documents

    doc, over = _capped_documents()
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--verify-trace", str(trace))
    assert code == 0 and json.loads(out)["verified"] is True
    for bad, message in over:
        trace.write_text(json.dumps(bad), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "descregions.cli", "certify", "--verify-trace", str(trace)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout) == {"verified": False, "errors": [f"malformed document: {message}"]}


COLD_START = """
import contextlib, io, json, sys
import descregions, descregions.cli


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = descregions.cli.main(list(argv))
    return code, out.getvalue()


def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})


poly, trace = sys.argv[1:]
code, doc = run("certify", poly)
with open(trace, "w", encoding="utf-8") as fh:
    fh.write(doc)
codes = [code] + [
    run(*argv)[0]
    for argv in (("certify", poly, "--format", "text"), ("certify", "--verify-trace", trace), ("analyze", poly))
]
exact = loaded()
code, report = run("oracle", poly, "--grid", "10")
print(json.dumps({"codes": codes, "exact": exact, "oracle": [code, json.loads(report)["component_count"]], "grid": loaded()}))
"""


def test_exact_commands_load_neither_numpy_nor_scipy(poly, tmp_path):
    # a fresh interpreter: this one has numpy loaded already
    from descregions.oracle import count_negative_components, default_grid

    cube4 = poly("cube4.poly", fixtures.CUBE4_TEXT)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, cube4, str(tmp_path / "trace.json")],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["exact"] == []
    count = count_negative_components(fixtures.CUBE4, default_grid(4, resolution=10)).component_count
    assert result["oracle"] == [0, count]
    assert result["grid"] == ["numpy", "scipy"]
