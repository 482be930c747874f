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
