import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from descregions.cli import main

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
