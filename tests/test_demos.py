"""The built-in example complexes and their documents."""

import pytest

from plmoves import (
    Complex,
    DocumentError,
    check_combinatorial_manifold,
    emit_document,
    euler_characteristic,
    parse_document,
    to_complex,
    to_filtered,
    to_stark,
    validate_filtration,
    validate_stark_complex,
)
from plmoves.demos import (
    DEMO_NAMES,
    bipyramid,
    demo_document,
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    join_fan,
    knot_model,
    rp2_6,
    sphere_boundary,
    torus7,
)


def test_registry_is_complete_and_sorted():
    assert DEMO_NAMES == tuple(sorted(DEMO_NAMES))
    assert set(DEMO_NAMES) == {
        "bipyramid",
        "filtered-s2-equator",
        "filtered-s3-equatorial-s2",
        "join-fan",
        "knot-model",
        "rp2-6",
        "sphere-boundary",
        "torus7",
    }


def test_sphere_boundary_demo():
    assert sphere_boundary(2) == Complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert sphere_boundary(3).dim == 3
    assert euler_characteristic(sphere_boundary(4)) == 2


def test_plain_demos_are_closed_surfaces():
    for k in (bipyramid(), torus7(), rp2_6()):
        r = check_combinatorial_manifold(k)
        assert r.verdict.value == "yes"
        assert not r.boundary


def test_filtered_demos_validate():
    assert validate_filtration(filtered_s2_equator()).ok
    fc3 = filtered_s3_equatorial_s2()
    assert fc3.n == 3
    assert fc3.strata[2].dim == 2
    assert validate_filtration(fc3).ok


def test_knot_model_shape():
    x, nbhds = knot_model()
    assert x.n == 3
    assert len(nbhds) == 1
    assert nbhds[0].base == Complex([(1, 2)])
    assert validate_stark_complex(x).ok


def test_join_fan_scales_with_n():
    x1, nb1 = join_fan(1)
    x3, nb3 = join_fan(3)
    assert x1.n == 2 and x3.n == 2
    assert len(x3.complex.facets) == 3
    # one main-edge neighborhood, two per side edge, one per top triangle
    assert len(nb1) == 1 + 2 * 1 + 1
    assert len(nb3) == 1 + 2 * 3 + 3
    with pytest.raises(ValueError):
        join_fan(0)


def test_demo_documents_parse_and_convert():
    for name in DEMO_NAMES:
        needs_n = name in ("sphere-boundary", "join-fan")
        doc = demo_document(name, n=3) if needs_n else demo_document(name)
        text = emit_document(doc)
        parsed = parse_document(text)
        assert emit_document(parsed) == text
        assert parsed.metadata["demo"] == name
        if parsed.stark_neighborhoods:
            x, nbhds = to_stark(parsed)
            assert x.complex.dim == parsed.dimension
            assert nbhds
        elif parsed.strata:
            assert to_filtered(parsed).n == parsed.dimension
        else:
            assert to_complex(parsed).dim == parsed.dimension


def test_demo_document_argument_errors():
    with pytest.raises(DocumentError, match="unknown demo"):
        demo_document("nosuch")
    with pytest.raises(DocumentError, match="size"):
        demo_document("join-fan")
    with pytest.raises(DocumentError, match="size"):
        demo_document("sphere-boundary")
    with pytest.raises(DocumentError, match="size"):
        demo_document("torus7", n=3)
    with pytest.raises(DocumentError):
        demo_document("sphere-boundary", n=0)
