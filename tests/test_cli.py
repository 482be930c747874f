"""The command line interface: exit codes, formats, pipelines."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plmoves
from plmoves import (
    BistellarMove,
    Complex,
    DocumentError,
    ExtendedMove,
    FilteredComplex,
    MoveRecord,
    MoveSequence,
    SearchError,
    StarkMove,
    apply_bistellar,
    apply_extended_bistellar,
    boundary_of_simplex,
    cli,
    document_for_complex,
    document_for_filtered,
    emit_document,
    emit_sequence,
    enumerate_extended_moves,
    enumerate_moves,
    filtered_s2_equator,
    fresh_vertex,
    neighborhood_from_suspension,
    parse_document,
    parse_sequence,
    random_extended_walk,
    random_walk,
    replaced_ball,
    replay,
    to_complex,
)
from plmoves.demos import demo_document, knot_model, torus7
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


def test_malformed_entries_exit_2_and_name_their_field(tmp_path):
    start = write(tmp_path, "start.json", demo_text("bipyramid"))
    stretched = {
        "kind": "extended",
        "a": [1, 2],
        "b": [6],
        "stratum": 1,
        "suspension": {"start": 1, "apexes": [[4, 5, 6]]},
    }
    cases = [
        ([5], "moves[0]: expected an object"),
        ([stretched], "moves[0].suspension.apexes[0]: expected a [plus, minus] apex pair"),
    ]
    for moves, message in cases:
        cert = write(
            tmp_path, "cert.json", json.dumps({"start_fingerprint": "abc", "moves": moves})
        )
        code, out, err = run_cli(["moves", "apply", "--input", start, "--sequence", cert])
        assert (code, out, err) == (2, "", "document error: %s\n" % message)
    code, out, err = run_cli(
        ["validate", "--input", "-"], stdin='{"dimension": 1, "facets": [[1, 2], []]}'
    )
    assert (code, out, err) == (2, "", "document error: facets[1]: must not be empty\n")


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


def test_running_out_of_memory_is_a_declared_error(monkeypatch):
    def exhausted(k):
        raise MemoryError

    monkeypatch.setattr(cli, "homology", exhausted)
    code, out, err = run_cli(
        ["invariants", "--input", "-", "--format", "structured"], stdin=demo_text("rp2-6")
    )
    assert code == 1
    assert out == ""
    assert err == "error: out of memory in invariants\n"
    assert "Traceback" not in err


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


_DISK = json.dumps({"dimension": 2, "facets": [[i, i % 6 + 1, 7] for i in range(1, 7)]})
_NO_AVOID = "error: the complex has boundary; --avoid must name a subcomplex that contains it\n"


def test_moves_list_names_the_missing_avoid_option():
    code, out, err = run_cli(["moves", "list", "--input", "-"], stdin=_DISK)
    assert (code, out, err) == (1, "", _NO_AVOID)


def test_search_names_the_missing_avoid_option(tmp_path):
    start = write(tmp_path, "disk.json", _DISK)
    code, out, err = run_cli(["search", "--input", start, "--target", start])
    assert (code, out, err) == (1, "", _NO_AVOID)
    # a closed start does not excuse a target with boundary
    ball = json.dumps({"dimension": 2, "facets": [[1, 2, 3]]})
    rp2 = write(tmp_path, "rp2.json", demo_text("rp2-6"))
    target = write(tmp_path, "ball.json", ball)
    code, out, err = run_cli(["search", "--input", rp2, "--target", target])
    assert (code, out, err) == (1, "", _NO_AVOID)


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


@pytest.mark.parametrize("command", ["search", "align"])
@pytest.mark.parametrize("flag, value", [("--depth", "-1"), ("--nodes", "-5")])
def test_negative_search_budgets_are_usage_errors(tmp_path, command, flag, value):
    # a negative budget is a mistake in the command, not a search that ran
    # out: exit code 2, before any document is read
    f = write(tmp_path, "f.json", demo_text("filtered-s2-equator"))
    code, out, err = run_cli([command, "--input", f, "--target", f, flag, value])
    assert code == 2
    assert out == ""
    assert "a budget cannot be negative, got %s" % value in err


def test_a_negative_reduce_budget_is_a_usage_error(tmp_path):
    # on a disk: a budget that got past the parser would end in the refusal
    # of a complex with boundary, or in an empty reduction, not in exit 2
    disk = Complex([(i, i % 6 + 1, 7) for i in range(1, 7)])
    f = write(tmp_path, "disk.json", emit_document(document_for_complex(disk)))
    code, out, err = run_cli(["reduce", "--input", f, "--moves", "-3"])
    assert code == 2
    assert out == ""
    assert "a budget cannot be negative, got -3" in err
    bip = write(tmp_path, "bip.json", demo_text("bipyramid"))
    code, out, _ = run_cli(["reduce", "--input", bip, "--moves", "0"])
    assert code == 0 and "in 0 moves" in out


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


def test_a_stark_certificate_replays_on_a_filtered_document(tmp_path):
    # the stark move over the neighborhood of an iterated suspension is the
    # extended move, and both kinds replay on the one stratified state
    fc = filtered_s2_equator()
    em = enumerate_extended_moves(fc)[0]
    nbhd = neighborhood_from_suspension(replaced_ball(em.inner), em.suspension)
    start = write(tmp_path, "start.json", demo_text("filtered-s2-equator"))
    outs = []
    for record in (
        MoveRecord("extended", em),
        MoveRecord("stark", StarkMove(nbhd, em.inner)),
    ):
        seq = MoveSequence.for_state(fc, [record])
        cert = write(tmp_path, record.kind + ".json", emit_sequence(seq))
        code, out, err = run_cli(["moves", "apply", "--input", start, "--sequence", cert])
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


def test_apply_validates_the_stark_neighborhoods_of_its_input(tmp_path):
    # a document's neighborhoods are outside input: moves apply checks them
    # even though the state it replays on is the filtration alone
    doc = json.loads(demo_text("knot-model"))
    doc["stark_neighborhoods"][0]["levels"][0][0]["apex"] = 1
    start = write(tmp_path, "knot.json", json.dumps(doc))
    seq = MoveSequence.for_state(knot_model()[0], [])
    cert = write(tmp_path, "cert.json", emit_sequence(seq))
    code, out, err = run_cli(["moves", "apply", "--input", start, "--sequence", cert])
    assert code == 1
    assert out == ""
    assert err.strip() == "error: apex 1 lies in its own cell"


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


def test_reduce_says_when_it_stalls():
    # the neighbourly torus has no flip, and each subdivision climbs beyond
    # the plateau allowance, so not one move of the budget is spent
    code, out, _ = run_cli(["reduce", "--input", "-"], stdin=demo_text("torus7"))
    assert code == 0
    assert out.splitlines() == [
        "reduced from f = (7, 21, 14) to f = (7, 21, 14) in 0 moves",
        "stalled after 0 moves before the boundary-simplex f-vector: "
        "no move within the plateau allowance",
    ]


def test_reduce_says_when_its_budget_is_used_up():
    walked, _ = random_walk(boundary_of_simplex(4), 10, seed=1)
    doc = emit_document(document_for_complex(walked))
    code, out, _ = run_cli(["reduce", "--input", "-", "--moves", "1"], stdin=doc)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "move budget of 1 used up before the boundary-simplex f-vector"
    assert len(lines) == 3 and lines[2].startswith("bistellar ")
    # the structured report is as before: the reached flag and the moves
    code, out, _ = run_cli(
        ["reduce", "--input", "-", "--moves", "1", "--format", "structured"], stdin=doc
    )
    data = json.loads(out)
    assert code == 0 and data["reached_boundary_simplex_f_vector"] is False
    assert len(data["certificate"]["moves"]) == 1


def test_reduce_refuses_a_complex_with_boundary():
    disk = json.dumps(
        {"dimension": 2, "facets": [[i, i % 6 + 1, 7] for i in range(1, 7)]}
    )
    code, out, err = run_cli(["reduce", "--input", "-"], stdin=disk)
    assert code == 1 and not out
    assert err.strip() == "error: reduce needs a closed complex; this one has boundary"


def test_search_reports_ends_no_sequence_can_join(tmp_path):
    s2 = write(tmp_path, "s2.json", demo_text("sphere-boundary", n=2))
    s3 = write(tmp_path, "s3.json", demo_text("sphere-boundary", n=3))
    disk = write(
        tmp_path,
        "disk.json",
        json.dumps({"dimension": 2, "facets": [[i, i % 6 + 1, 7] for i in range(1, 7)]}),
    )
    code, out, _ = run_cli(["search", "--input", s2, "--target", disk])
    assert code == 1
    assert out.strip() == "no sequence exists: the ends differ in Euler characteristic"
    code, out, _ = run_cli(["search", "--input", s2, "--target", s3])
    assert code == 1
    assert out.strip() == "no sequence exists: the ends differ in dimension"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--target", "-"],
        ["align", "--target", "-"],
        ["moves", "apply", "--sequence", "-"],
        ["extend"],
    ],
)
def test_commands_that_always_emit_json_take_no_format(argv):
    # they write a document or a certificate, which no --format would change
    code, out, err = run_cli(argv + ["--format", "text"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --format text" in err


def test_unreadable_sequence_file_exits_1(tmp_path):
    start = write(tmp_path, "start.json", demo_text("bipyramid"))
    code, _, err = run_cli(
        ["moves", "apply", "--input", start, "--sequence", str(tmp_path / "no.json")]
    )
    assert code == 1


def test_one_parser_serves_a_sequence_of_calls(tmp_path):
    from plmoves import boundary_of_simplex, cli, document_for_complex, random_walk

    walked, _ = random_walk(boundary_of_simplex(4), 20, seed=4)
    sphere = write(tmp_path, "s3.json", emit_document(document_for_complex(walked)))
    filtered = write(tmp_path, "f.json", demo_text("filtered-s2-equator"))
    sequence = [
        ["validate", "--input", sphere],
        ["moves", "list", "--extended", "--input", filtered],
        ["moves", "list", "--input", filtered],
        ["reduce", "--moves", "5", "--input", sphere],
        ["reduce", "--input", sphere],
        ["reduce", "--moves", "many", "--input", sphere],
        ["validate", "--input", sphere],
    ]
    alone = []
    for argv in sequence:
        cli._parser.cache_clear()  # a fresh parser, as in a new process
        alone.append(run_cli(argv))
    parser = cli._parser()
    together = [run_cli(argv) for argv in sequence]
    assert cli._parser() is parser
    assert together == alone
    codes = [code for code, _, _ in together]
    assert codes == [0, 0, 0, 0, 0, 2, 0]
    assert together[1][1] != together[2][1]  # --extended did not stick
    assert together[3][1] != together[4][1]  # nor did --moves 5
    assert "in 5 moves" in together[3][1]


# ----------------------------------------------------- tampered certificates


def _certificates():
    """(start, recorded certificate) pairs: plain walks with subdivisions,
    flips and removals, and an extended walk."""
    s3 = boundary_of_simplex(4)
    torus = torus7()
    fc = filtered_s2_equator()
    return [
        (s3, random_walk(s3, 6, seed=3)[1]),
        (torus, random_walk(torus, 5, seed=1)[1]),
        (fc, random_extended_walk(fc, 3, seed=1)[1]),
    ]


CERTIFICATES = _certificates()


def _document_text(state):
    if isinstance(state, FilteredComplex):
        return emit_document(document_for_filtered(state))
    return emit_document(document_for_complex(state))


@pytest.fixture(scope="module")
def start_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("tampered")
    return [
        write(folder, "start-%d.json" % i, _document_text(start))
        for i, (start, _) in enumerate(CERTIFICATES)
    ]


def _leaves(value, path=()):
    """Paths to the integer leaves and the fingerprint of a certificate."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    elif isinstance(value, int) or path == ("start_fingerprint",):
        yield path


def _fresh(state):
    """The same state with no derived structure: every index is rebuilt."""
    if isinstance(state, FilteredComplex):
        return FilteredComplex(tuple(Complex(m.facets, _trusted=True) for m in state.strata))
    return Complex(state.facets, _trusted=True)


def _first_illegal_step(state, seq):
    """(index of the first move of ``seq`` that is not among the moves
    enumerated at its state, or None; the end state), with every state built
    afresh.  A subdivided facet may take any unused label, as in replay.

    The two subdivision branches mirror a gap that is still open (ROADMAP,
    tampered certificates): replay does not require the canonical label
    max + 1.  Once it does, they should compare the label with
    ``fresh_vertex`` instead, and a tampered label then fails at its step."""
    for i, record in enumerate(seq.moves):
        state = _fresh(state)
        move = record.move
        if isinstance(state, FilteredComplex):
            inner = move.inner
            if inner.b.dim == 0 and inner.b[0] not in state.complex.vertices:
                canonical = BistellarMove(inner.a, (fresh_vertex(state.complex),))
                move = ExtendedMove(move.stratum, canonical, move.suspension)
            if move not in enumerate_extended_moves(state):
                return i, None
            state = apply_extended_bistellar(state, record.move)
        else:
            a, b = move.a, move.b
            subdivision = a in state.facets and b.dim == 0 and b[0] not in state.vertices
            if not (subdivision or move in enumerate_moves(state)):
                return i, None
            state = apply_bistellar(state, move)
    return None, state


@settings(max_examples=150)
@given(
    which=st.integers(min_value=0, max_value=len(CERTIFICATES) - 1),
    leaf=st.integers(min_value=0, max_value=10**6),
    value=st.integers(min_value=0, max_value=14),
)
def test_a_tampered_certificate_replays_only_legal_moves_or_fails_cleanly(
    start_files, which, leaf, value
):
    # A tampered certificate replays exactly when each of its moves is among
    # the moves enumerated at a state built afresh, and fails at the first
    # that is not.  A certificate may name any unused label for a fresh
    # vertex, so a tampered label can replay to a relabeled end: this is the
    # open gap that _first_illegal_step mirrors, not a property to keep.  The
    # command line reports every outcome by its exit code, with no traceback.
    start, seq = CERTIFICATES[which]
    data = json.loads(emit_sequence(seq))
    paths = list(_leaves(data))
    path = paths[leaf % len(paths)]
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    old = holder[path[-1]]
    if isinstance(old, str):
        holder[path[-1]] = "%016x" % value
    else:
        holder[path[-1]] = value if value != old else old + 1
    text = json.dumps(data)
    code, out, err = run_cli(
        ["moves", "apply", "--input", start_files[which], "--sequence", "-"], stdin=text
    )
    assert "Traceback" not in err
    try:
        tampered = parse_sequence(text)
    except DocumentError:
        assert code == 2 and err.startswith("document error:"), (path, err)
        return
    if tampered.start_fingerprint != seq.start_fingerprint:
        with pytest.raises(SearchError, match="fingerprint mismatch"):
            replay(start, tampered)
        assert code == 1 and err.startswith("error: fingerprint mismatch"), (path, err)
        return
    step, end = _first_illegal_step(start, tampered)
    if step is not None:
        with pytest.raises(SearchError) as raised:
            replay(start, tampered)
        message = str(raised.value)
        assert message.startswith("illegal step %d (" % step), (path, message)
        assert code == 1 and err == "error: %s\n" % message, (path, err)
        return
    got = replay(start, tampered)
    assert got == end, path
    assert code == 0 and out == _document_text(got) and not err, path
