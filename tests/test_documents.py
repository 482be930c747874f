"""The JSON document and certificate formats: parsing, emission, round trips."""

import json

import pytest

from plmoves import (
    Complex,
    DocumentError,
    document_for_complex,
    document_for_filtered,
    document_for_stark,
    emit_document,
    emit_sequence,
    parse_document,
    parse_sequence,
    random_extended_walk,
    random_walk,
    replay,
    to_complex,
    to_filtered,
    to_stark,
)
from plmoves.demos import (
    DEMO_NAMES,
    bipyramid,
    demo_document,
    filtered_s2_equator,
    knot_model,
)
from plmoves.documents import neighborhood_document, neighborhood_from_document
from support import run_cli


def test_minimal_document():
    doc = parse_document('{"dimension": 1, "facets": [[2, 1]]}')
    assert doc.dimension == 1
    assert doc.facets == ((1, 2),)
    assert doc.strata is None and doc.stark_neighborhoods is None
    assert to_complex(doc) == Complex([(1, 2)])


def test_emit_is_canonical_and_round_trips():
    for name in DEMO_NAMES:
        doc = demo_document(name, n=2) if name in ("sphere-boundary", "join-fan") else demo_document(name)
        text = emit_document(doc)
        assert text.endswith("\n")
        assert json.loads(text)  # valid JSON
        again = emit_document(parse_document(text))
        assert again == text  # byte-identical after one canonical pass


def test_parse_rejects_malformed_documents():
    with pytest.raises(DocumentError, match="required field is missing"):
        parse_document('{"dimension": 2}')
    with pytest.raises(DocumentError, match="unknown field"):
        parse_document('{"dimension": 1, "facets": [[1, 2]], "surprise": 1}')
    with pytest.raises(DocumentError, match="duplicate vertex"):
        parse_document('{"dimension": 1, "facets": [[1, 1]]}')
    with pytest.raises(DocumentError, match="expected an integer"):
        parse_document('{"dimension": 1, "facets": [[1, "x"]]}')
    with pytest.raises(DocumentError, match="spanned|span"):
        parse_document('{"dimension": 2, "facets": [[1, 2]]}')
    with pytest.raises(DocumentError, match="line 1 column"):
        parse_document("{nope")
    with pytest.raises(DocumentError, match="at least"):
        parse_document('{"dimension": 1, "facets": [[-1, 2]]}')
    with pytest.raises(DocumentError, match="^JSON nested too deeply$"):
        parse_document('{"dimension": 1, "facets": ' + "[" * 5000 + "]" * 5000 + "}")


def test_strata_must_sit_below_the_top_dimension():
    with pytest.raises(DocumentError, match="top stratum is the facets field"):
        parse_document(
            '{"dimension": 1, "facets": [[1, 2]],'
            ' "strata": [{"dim": 1, "facets": [[1, 2]]}]}'
        )
    with pytest.raises(DocumentError, match="strictly ascending"):
        parse_document(
            '{"dimension": 2, "facets": [[1, 2, 3]],'
            ' "strata": [{"dim": 1, "facets": [[1, 2]]},'
            ' {"dim": 1, "facets": [[1, 2]]}]}'
        )


def test_sparse_strata_fill_deterministically():
    # only dim 1 given: dim 0 is empty, the top stratum is the facets field
    text = (
        '{"dimension": 2, "facets": [[1, 2, 4], [1, 3, 4], [2, 3, 4],'
        ' [1, 2, 5], [1, 3, 5], [2, 3, 5]],'
        ' "strata": [{"dim": 1, "facets": [[1, 2], [1, 3], [2, 3]]}]}'
    )
    fc = to_filtered(parse_document(text))
    assert fc == filtered_s2_equator()


def test_to_filtered_requires_strata():
    doc = parse_document('{"dimension": 1, "facets": [[1, 2]]}')
    with pytest.raises(DocumentError, match="strata"):
        to_filtered(doc)


def test_stark_neighborhoods_require_strata():
    with pytest.raises(DocumentError, match="requires the strata"):
        parse_document(
            '{"dimension": 1, "facets": [[1, 2]], "stark_neighborhoods": []}'
        )


def test_document_builders_round_trip_through_parse():
    b = document_for_complex(bipyramid(), metadata={"note": "test"})
    assert emit_document(parse_document(emit_document(b))) == emit_document(b)
    f = document_for_filtered(filtered_s2_equator())
    assert to_filtered(parse_document(emit_document(f))) == filtered_s2_equator()
    x, nbhds = knot_model()
    s = document_for_stark(x, nbhds)
    x2, nbhds2 = to_stark(parse_document(emit_document(s)))
    assert x2 == x
    assert nbhds2 == nbhds


def test_neighborhood_documents_resolve_supports():
    _, nbhds = knot_model()
    nb_doc = neighborhood_document(nbhds[0])
    assert nb_doc.base_facets == ((1, 2),)
    # level cells come out as honest facet lists, not vertex sets
    assert nb_doc.levels[0] == ((3, ((1, 2),)), (4, ((1, 2),)))
    assert len(nb_doc.levels[1]) == 2
    back = neighborhood_from_document(nb_doc)
    assert back == nbhds[0]


def test_sequence_round_trip_bistellar():
    from plmoves import boundary_of_simplex

    s2 = boundary_of_simplex(3)
    end, seq = random_walk(s2, 8, seed=11)
    text = emit_sequence(seq)
    parsed = parse_sequence(text)
    assert replay(s2, parsed) == end
    assert emit_sequence(parsed) == text


def test_sequence_round_trip_extended():
    fc = filtered_s2_equator()
    end, seq = random_extended_walk(fc, 5, seed=7)
    parsed = parse_sequence(emit_sequence(seq))
    assert replay(fc, parsed) == end


def test_sequence_parse_errors():
    with pytest.raises(DocumentError, match="nonempty string"):
        parse_sequence('{"start_fingerprint": "", "moves": []}')
    with pytest.raises(DocumentError, match="unknown move kind"):
        parse_sequence(
            '{"start_fingerprint": "abc", "moves": [{"kind": "teleport"}]}'
        )
    with pytest.raises(DocumentError, match="required field is missing"):
        parse_sequence('{"start_fingerprint": "abc", "moves": [{"kind": "bistellar"}]}')
    # overlapping move simplices surface as a document error with a path
    with pytest.raises(DocumentError, match="moves"):
        parse_sequence(
            '{"start_fingerprint": "abc", "moves":'
            ' [{"kind": "bistellar", "a": [1, 2], "b": [2, 3]}]}'
        )


def test_metadata_is_preserved_verbatim():
    doc = parse_document(
        '{"dimension": 1, "facets": [[1, 2]], "metadata": {"z": 1, "a": [true, null]}}'
    )
    assert doc.metadata == {"z": 1, "a": [True, None]}
    emitted = emit_document(doc)
    assert json.loads(emitted)["metadata"] == {"z": 1, "a": [True, None]}
    with pytest.raises(DocumentError, match="expected an object"):
        parse_document('{"dimension": 1, "facets": [[1, 2]], "metadata": 7}')
