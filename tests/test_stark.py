"""Starkly stratified spaces, stark neighborhoods, the schema census."""

import pytest

from plmoves import (
    EMPTY,
    BistellarMove,
    Complex,
    FilteredComplex,
    StarkError,
    StarkMove,
    StarkNeighborhood,
    SuspensionData,
    apply_extended_bistellar,
    apply_stark_extended_bistellar,
    apply_stark_move,
    cone_extend,
    enumerate_extended_moves,
    inverse_neighborhood,
    neighborhood_from_suspension,
    schema_of,
    stark_obstruction,
    stark_schema_census,
    stellar_subdivide,
    validate_stark_complex,
    validate_stark_neighborhood,
)
from plmoves.demos import filtered_s2_equator, join_fan, knot_model
from plmoves.moves import replaced_ball


def test_stark_complex_is_a_filtration():
    x, _ = knot_model()
    assert isinstance(x, FilteredComplex)
    assert x.n == 3
    assert x.complex.dim == 3
    assert len(x.complex.facets) == 4


def test_knot_model_validates():
    x, nbhds = knot_model()
    report = validate_stark_complex(x)
    assert report.ok, report.findings
    for nbhd in nbhds:
        r = validate_stark_neighborhood(x, nbhd)
        assert r.ok, r.findings
        assert not r.notes  # all apexes are realized


def test_neighborhood_normalization_and_errors():
    base = Complex([(1, 2)])
    nbhd = StarkNeighborhood(base, (((4, Complex([(1, 2)])), (3, {1, 2})),))
    # supports normalize to frozensets, pairs sort by apex
    assert nbhd.levels == (((3, frozenset({1, 2})), (4, frozenset({1, 2}))),)
    assert nbhd.k == 1
    assert nbhd.apexes == (3, 4)
    with pytest.raises(StarkError, match="nonempty pure"):
        StarkNeighborhood(EMPTY, ())
    with pytest.raises(StarkError, match="its own cell"):
        StarkNeighborhood(base, (((3, {1, 2, 3}),),))
    with pytest.raises(StarkError, match="already in use"):
        StarkNeighborhood(base, (((1, {2}),),))
    with pytest.raises(StarkError, match="already in use"):
        StarkNeighborhood(base, (((3, {1, 2}), (3, {1, 2})),))


def test_cone_extend_rebuilds_the_knot_ball():
    x, nbhds = knot_model()
    nb = nbhds[0]
    assert cone_extend(nb.base, nb) == x.complex
    # the extension is functorial in the base triangulation
    finer = stellar_subdivide(nb.base, (1, 2), new_vertex=9)
    extended = cone_extend(finer, nb)
    assert finer.is_subcomplex_of(extended)
    assert extended.dim == x.complex.dim


def test_cone_extend_rejects_unresolvable_supports():
    base = Complex([(1, 2)])
    dangling = StarkNeighborhood(base, (((3, {1, 2, 7}),),))
    with pytest.raises(StarkError, match="not a union"):
        cone_extend(base, dangling)
    missing_base = StarkNeighborhood(base, (((3, {2, 7}),),))
    with pytest.raises(StarkError, match="contain the base"):
        cone_extend(base, missing_base)
    collision = StarkNeighborhood(Complex([(1, 2)]), (((3, {1, 2}),),))
    with pytest.raises(StarkError, match="collides"):
        cone_extend(stellar_subdivide(Complex([(1, 2)]), (1, 2), new_vertex=3), collision)


def test_stark_apply_matches_filtered_apply():
    fc = filtered_s2_equator()
    for em in enumerate_extended_moves(fc):
        nbhd = neighborhood_from_suspension(replaced_ball(em.inner), em.suspension)
        got = apply_stark_extended_bistellar(fc, nbhd, em.inner)
        want = apply_extended_bistellar(fc, em)
        assert got.strata == want.strata


def test_stark_obstruction_reports_before_apply():
    fc = filtered_s2_equator()
    nbhd = StarkNeighborhood(Complex([(1, 2)]), (((6, {1, 2}), (7, {1, 2})),))
    inner = BistellarMove((1, 2), (8,))
    assert stark_obstruction(fc, nbhd, inner) is not None
    with pytest.raises(StarkError, match="cannot apply"):
        apply_stark_extended_bistellar(fc, nbhd, inner)


def test_stark_move_inverse_roundtrip():
    fc = filtered_s2_equator()
    em = enumerate_extended_moves(fc)[0]
    nbhd = neighborhood_from_suspension(replaced_ball(em.inner), em.suspension)
    move = StarkMove(nbhd, em.inner)
    there = apply_stark_move(fc, move)
    back = apply_stark_move(there, move.inverse())
    assert back == fc
    assert "stark" in str(move)


def test_inverse_neighborhood_swaps_the_base():
    em_ball = Complex([(1, 2)])
    nbhd = StarkNeighborhood(em_ball, (((4, {1, 2}), (5, {1, 2})),))
    inv = inverse_neighborhood(nbhd, BistellarMove((1, 2), (6,)))
    assert inv.k == nbhd.k
    assert inv.apexes == nbhd.apexes


def test_schema_census_weights():
    _, nbhds = knot_model()
    schema = schema_of(nbhds[0])
    assert schema.k == 1
    assert schema.levels == ((2, 2), (4, 4))
    assert schema.apex_count == 4
    assert schema.weight == 5
    census = stark_schema_census(nbhds)
    assert census.size == 5
    # duplicates collapse: the census is of schemas, not neighborhoods
    assert stark_schema_census(list(nbhds) * 3).size == 5


def test_join_fan_family_validates_and_census_grows():
    sizes = []
    for n in range(1, 6):
        x, nbhds = join_fan(n)
        assert validate_stark_complex(x).ok
        abstract_notes = 0
        for nbhd in nbhds:
            r = validate_stark_neighborhood(x, nbhd)
            assert r.ok, r.findings
            abstract_notes += sum("abstract" in note for note in r.notes)
        assert abstract_notes  # fan neighborhoods quote unrealized apexes
        sizes.append(stark_schema_census(nbhds).size)
    assert sizes == sorted(set(sizes)), sizes
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_validate_neighborhood_findings():
    x, nbhds = knot_model()
    # wrong level count for this space
    shallow = StarkNeighborhood(Complex([(1, 2)]), (((7, {1, 2}), (8, {1, 2})),))
    r = validate_stark_neighborhood(x, shallow)
    assert not r.ok
    assert any("needs 2 levels" in f for f in r.findings)
    # base outside the stratum
    stray = StarkNeighborhood(
        Complex([(7, 8)]),
        (((9, {7, 8}), (10, {7, 8})), ((11, {7, 8, 9, 10}), (12, {7, 8, 9, 10}))),
    )
    r2 = validate_stark_neighborhood(x, stray)
    assert any("not a subcomplex of stratum" in f for f in r2.findings)


def _one_level(*cells):
    return (tuple(cells),)


def test_every_stark_obstruction_finding_and_note_is_pinned():
    fc = filtered_s2_equator()
    knot, _ = knot_model()
    fan, _ = join_fan(2)
    edge = Complex([(1, 2)])
    poles = _one_level((4, {1, 2}), (5, {1, 2}))
    # the pole 4 sits in the equator stratum through the edge 1-4
    pole_in_x1 = FilteredComplex(
        (EMPTY, Complex([(1, 2), (2, 3), (1, 3), (1, 4)]), fc.complex)
    )
    obstructions = [
        (fc, StarkNeighborhood(edge, poles), BistellarMove((1, 2, 4), (6,)),
         "the inner move is 2-dimensional, the base ball is 1-dimensional"),
        (fc, StarkNeighborhood(edge, ()), BistellarMove((1, 2), (6,)),
         "neighborhood of a 1-ball needs 1 levels, has 0"),
        (fc, StarkNeighborhood(edge, poles), BistellarMove((1, 3), (6,)),
         "the base is not the source ball A * dB of the move"),
        (fc, StarkNeighborhood(edge, poles), BistellarMove((1, 2), (3,)),
         "co-simplex (3,) already present"),
        (fc, StarkNeighborhood(edge, _one_level((6, {1, 2}), (7, {1, 2}))),
         BistellarMove((1, 2), (6,)),
         "co-simplex (6,) collides with a neighborhood apex"),
        (fc, StarkNeighborhood(Complex([(1, 4)]), _one_level((7, {1, 4}), (8, {1, 4}))),
         BistellarMove((1, 4), (6,)),
         "interior simplex (1, 4) is not in stratum 1"),
        (fan, StarkNeighborhood(Complex([(1, 3), (1, 4)]), _one_level((9, {1, 3, 4}))),
         BistellarMove((1,), (3, 4)),
         "interior simplex (1,) lies in X_0"),
        (fc, StarkNeighborhood(edge, _one_level((4, {1, 2}), (7, {1, 2}))),
         BistellarMove((1, 2), (6,)),
         "neighborhood cell (1, 2, 7) is not triangulated in the complex"
         " (subdivided or absent)"),
        (knot, StarkNeighborhood(Complex([(1, 2, 3)]), ((),)),
         BistellarMove((1, 2, 3), (7,)),
         "neighborhood cell (1, 2, 3) is not maximal in the complex"),
        (fc, StarkNeighborhood(edge, _one_level((4, {1, 2}))), BistellarMove((1, 2), (6,)),
         "the star of (1, 2) reaches outside the stark neighborhood"
         " (facet (1, 2, 5))"),
        (pole_in_x1, StarkNeighborhood(edge, poles), BistellarMove((1, 2), (6,)),
         "stratum memberships of (1, 2, 4) do not follow the cone levels"),
    ]
    for x, nbhd, inner, message in obstructions:
        assert stark_obstruction(x, nbhd, inner) == message
        with pytest.raises(StarkError) as raised:
            apply_stark_extended_bistellar(x, nbhd, inner)
        assert str(raised.value) == "cannot apply %s in a stark neighborhood: %s" % (
            inner,
            message,
        )
    legal = BistellarMove((1, 2), (6,))
    assert stark_obstruction(fc, StarkNeighborhood(edge, poles), legal) is None

    assumed = (
        "neighborhood existence (condition 4) is assumed; validate each"
        " supplied neighborhood separately",
    )
    complexes = [
        (FilteredComplex((EMPTY, edge, Complex([(1, 2, 3), (5, 6)]))),
         ("a component of X_2 \\ X_1 has dimension 1",)),
        (FilteredComplex((EMPTY, EMPTY, Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)]))),
         ("a component closure in stratum 2 fails the manifold check:"
          " ridge lies in 3 facets",)),
    ]
    for x, findings in complexes:
        report = validate_stark_complex(x)
        assert (report.ok, report.findings, report.notes) == (False, findings, assumed)

    abstract = (
        "1 apex labels are not vertices of the space (abstract neighborhood);"
        " moves need realized apexes",
    )
    circle = Complex([(1, 2), (2, 3), (1, 3)])
    neighborhoods = [
        (fc, StarkNeighborhood(edge, ()),
         ("neighborhood of a 1-ball needs 1 levels, has 0",), ()),
        (fc, StarkNeighborhood(circle, _one_level((4, {1, 2, 3}), (5, {1, 2, 3}))),
         ("the base is not a combinatorial 1-ball",
          "the cell for apex 4 is not a combinatorial ball",
          "the cell for apex 5 is not a combinatorial ball"), ()),
        (fc, StarkNeighborhood(edge, _one_level((4, {2, 7}))),
         ("cell for apex 4 does not contain the base",), ()),
        (fc, StarkNeighborhood(edge, _one_level((4, {1, 2, 7}))),
         ("cell for apex 4 is not a union of neighborhood cells"
          " (unmatched vertices [7])",), ()),
        (knot, StarkNeighborhood(
            edge, (((3, {1, 2}), (4, {1, 2}), (7, {1, 2})), ((5, {1, 2, 3, 4, 7}),))),
         ("the cell for apex 5 is not a combinatorial ball",), abstract),
        (fc, StarkNeighborhood(edge, _one_level((3, {1, 2}))),
         ("level-1 apex 3 lies in X_1",), ()),
        (fan, StarkNeighborhood(Complex([(1, 3), (1, 4)]), _one_level((9, {1, 3, 4}))),
         ("the interior of the base meets X_0",), abstract),
        (fc, StarkNeighborhood(Complex([(7, 8)]), _one_level((9, {7, 8}))),
         ("the base is not a subcomplex of stratum 1",), abstract),
    ]
    for x, nbhd, findings, notes in neighborhoods:
        report = validate_stark_neighborhood(x, nbhd)
        assert (report.ok, report.findings, report.notes) == (False, findings, notes)
