"""The command line interface: exit codes, formats, pipelines."""

import json
import os
import subprocess
import sys

import pytest

import plmoves
from plmoves import emit_document, parse_document, to_complex
from plmoves.demos import demo_document
from support import run_cli


def demo_text(name, n=None):
    return emit_document(demo_document(name, n=n))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_demo_emits_canonical_documents():
    code, out, err = run_cli(["demo", "bipyramid"])
    assert code == 0 and not err
    assert out == demo_text("bipyramid")
    code, out, _ = run_cli(["demo", "join-fan", "3"])
    assert code == 0
    assert json.loads(out)["metadata"]["n"] == 3


def test_demo_error_paths():
    code, _, err = run_cli(["demo", "nosuch"])
    assert code == 1
    assert "unknown demo" in err
    code, _, err = run_cli(["demo", "join-fan"])
    assert code == 2
    assert "usage:" in err
    code, _, err = run_cli(["demo", "torus7", "5"])
    assert code == 2


def test_validate_plain_and_formats():
    doc = demo_text("bipyramid")
    code, out, _ = run_cli(["validate", "--input", "-"], stdin=doc)
    assert code == 0
    assert "manifold verdict yes" in out
    assert out.rstrip().endswith("valid")
    code, out, _ = run_cli(
        ["validate", "--input", "-", "--format", "structured"], stdin=doc
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True


def test_validate_filtered_and_stark():
    for name in ("filtered-s2-equator", "knot-model"):
        code, out, _ = run_cli(["validate", "--input", "-"], stdin=demo_text(name))
        assert code == 0, name
        assert "valid" in out


def test_validate_rejects_bad_nesting():
    # structurally fine JSON, impossible filtration: stratum not nested
    bad = json.dumps(
        {
            "dimension": 2,
            "facets": [[1, 2, 3]],
            "strata": [{"dim": 1, "facets": [[8, 9]]}],
        }
    )
    code, _, err = run_cli(["validate", "--input", "-"], stdin=bad)
    assert code == 1
    assert "error" in err


def test_schema_errors_exit_2():
    code, _, err = run_cli(["validate", "--input", "-"], stdin='{"dimension": 1}')
    assert code == 2
    assert "document error" in err
    code, _, err = run_cli(
        ["validate", "--input", "-"], stdin='{"dimension": 1, "facets": [[1, 1]]}'
    )
    assert code == 2


def test_nested_facets_are_a_schema_error():
    nested_top = json.dumps({"dimension": 2, "facets": [[1, 2, 3], [1, 2]]})
    nested_stratum = json.dumps(
        {
            "dimension": 2,
            "facets": [[1, 2, 3]],
            "strata": [{"dim": 1, "facets": [[1, 2], [1]]}],
        }
    )
    cases = [
        (nested_top, ["validate"]),
        (nested_top, ["invariants"]),
        (nested_top, ["moves", "list"]),
        (nested_stratum, ["validate"]),
        (nested_stratum, ["invariants"]),
        (nested_stratum, ["moves", "list", "--extended"]),
    ]
    for doc, command in cases:
        code, _, err = run_cli(command + ["--input", "-"], stdin=doc)
        assert code == 2, command
        assert err.startswith("document error:") and "is a face of" in err
        assert "Traceback" not in err


def test_deeply_nested_json_is_a_schema_error(tmp_path):
    deep = '{"dimension": 1, "facets": ' + "[" * 5000 + "]" * 5000 + "}"
    deep_file = write(tmp_path, "deep.json", deep)
    start = write(tmp_path, "start.json", demo_text("bipyramid"))
    src = os.path.dirname(os.path.dirname(plmoves.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for command in (
        ["validate", "--input", deep_file],
        ["moves", "apply", "--input", start, "--sequence", deep_file],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "plmoves.cli"] + command,
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2, command
        assert proc.stderr.startswith("document error:"), command
        assert "Traceback" not in proc.stderr, command


def test_missing_input_file_exits_1(tmp_path):
    code, _, err = run_cli(["validate", "--input", str(tmp_path / "absent.json")])
    assert code == 1
    assert "error" in err


def test_invariants_text_and_structured():
    doc = demo_text("rp2-6")
    code, out, _ = run_cli(["invariants", "--input", "-"], stdin=doc)
    assert code == 0
    assert "f = (6, 15, 10)" in out
    assert "chi = 1" in out
    assert "Z/2" in out
    code, out, _ = run_cli(
        ["invariants", "--input", "-", "--format", "structured"], stdin=doc
    )
    data = json.loads(out)
    assert data["X"]["f"] == [6, 15, 10]
    assert data["X"]["chi"] == 1
    assert data["X"]["homology"][1] == {"betti": 0, "torsion": [2]}


def test_invariants_filtered_reports_strata():
    code, out, _ = run_cli(
        ["invariants", "--input", "-", "--format", "structured"],
        stdin=demo_text("filtered-s2-equator"),
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"M_1", "X"}
    assert data["M_1"]["chi"] == 0


def test_moves_list_plain():
    doc = demo_text("bipyramid")
    code, out, _ = run_cli(["moves", "list", "--input", "-"], stdin=doc)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("bistellar ") for line in lines)
    code, out, _ = run_cli(
        ["moves", "list", "--input", "-", "--format", "structured"], stdin=doc
    )
    moves = json.loads(out)
    assert len(moves) == 11
    assert {"kind", "a", "b"} <= set(moves[0])


def test_moves_list_extended():
    doc = demo_text("filtered-s2-equator")
    code, out, _ = run_cli(
        ["moves", "list", "--input", "-", "--extended", "--format", "structured"],
        stdin=doc,
    )
    assert code == 0
    moves = json.loads(out)
    assert len(moves) == 11
    assert all(m["kind"] == "extended" for m in moves)
    # extended listing needs strata
    code, _, err = run_cli(
        ["moves", "list", "--input", "-", "--extended"], stdin=demo_text("bipyramid")
    )
    assert code == 2


def test_moves_list_avoid(tmp_path):
    disk = json.dumps(
        {"dimension": 2, "facets": [[i, i % 6 + 1, 7] for i in range(1, 7)]}
    )
    rim = json.dumps(
        {"dimension": 1, "facets": [[i, i % 6 + 1] for i in range(1, 7)]}
    )
    rim_file = write(tmp_path, "rim.json", rim)
    code, out, _ = run_cli(
        ["moves", "list", "--input", "-", "--avoid", rim_file], stdin=disk
    )
    assert code == 0 and out.strip()
    # without the avoid file the boundary condition fails
    code, _, err = run_cli(["moves", "list", "--input", "-"], stdin=disk)
    assert code == 1
    assert "boundary" in err


def test_search_apply_pipeline(tmp_path):
    start = write(tmp_path, "start.json", demo_text("bipyramid"))
    target = write(tmp_path, "target.json", demo_text("sphere-boundary", n=2))
    code, cert, err = run_cli(["search", "--input", start, "--target", target])
    assert code == 0, err
    seq = json.loads(cert)
    assert len(seq["moves"]) == 1
    cert_file = write(tmp_path, "cert.json", cert)
    code, out, _ = run_cli(["moves", "apply", "--input", start, "--sequence", cert_file])
    assert code == 0
    result = json.loads(out)
    assert result["facets"] == json.loads(demo_text("sphere-boundary", n=2))["facets"]


def test_search_budget_exhaustion(tmp_path):
    start = write(tmp_path, "start.json", demo_text("bipyramid"))
    target = write(tmp_path, "target.json", demo_text("sphere-boundary", n=2))
    code, out, _ = run_cli(
        ["search", "--input", start, "--target", target, "--depth", "0"]
    )
    assert code == 1
    assert out.strip() == "not found within budget"


def test_align_identity(tmp_path):
    f = write(tmp_path, "f.json", demo_text("filtered-s2-equator"))
    code, out, _ = run_cli(["align", "--input", f, "--target", f])
    assert code == 0
    assert json.loads(out)["moves"] == []


def test_apply_rejects_wrong_start(tmp_path):
    start = write(tmp_path, "start.json", demo_text("bipyramid"))
    other = write(tmp_path, "other.json", demo_text("torus7"))
    code, cert, _ = run_cli(
        ["search", "--input", start, "--target", start]
    )
    assert code == 0
    cert_file = write(tmp_path, "cert.json", cert)
    code, _, err = run_cli(["moves", "apply", "--input", other, "--sequence", cert_file])
    assert code == 1
    assert "error" in err


def test_reduce_text_output():
    code, out, _ = run_cli(["reduce", "--input", "-"], stdin=demo_text("bipyramid"))
    assert code == 0
    assert "reduced from f = (5, 9, 6) to f = (4, 6, 4) in 1 moves" in out
    assert "boundary-simplex f-vector reached" in out
    assert "bistellar [4] [1, 2, 3]" in out


def test_reduce_structured():
    code, out, _ = run_cli(
        ["reduce", "--input", "-", "--format", "structured"],
        stdin=demo_text("bipyramid"),
    )
    assert code == 0
    data = json.loads(out)
    assert data["reached_boundary_simplex_f_vector"] is True
    assert len(data["certificate"]["moves"]) == 1
    assert data["result"]["facets"] == [[1, 2, 3], [1, 2, 5], [1, 3, 5], [2, 3, 5]]


def test_extend_builds_the_thickened_ball():
    edge = json.dumps({"dimension": 1, "facets": [[1, 2]]})
    code, out, _ = run_cli(["extend", "--input", "-"], stdin=edge)
    assert code == 0
    doc = parse_document(out)
    assert doc.dimension == 2
    assert doc.metadata["apex_plus"] != doc.metadata["apex_minus"]
    k = to_complex(doc)
    # the recorded suspension facets are simplices of the emitted complex
    from plmoves import Simplex

    for f in doc.metadata["suspension_facets"]:
        assert Simplex(f) in k


def test_usage_errors_exit_2():
    code, _, err = run_cli(["moves"])
    assert code == 2
    code, _, err = run_cli(["search", "--input", "-"])
    assert code == 2
    code, _, _ = run_cli([])
    assert code == 2


def test_unreadable_sequence_file_exits_1(tmp_path):
    start = write(tmp_path, "start.json", demo_text("bipyramid"))
    code, _, err = run_cli(
        ["moves", "apply", "--input", start, "--sequence", str(tmp_path / "no.json")]
    )
    assert code == 1
