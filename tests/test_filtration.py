"""Filtered complexes, extended bistellar moves and the schema census."""

import pytest

from plmoves import (
    EMPTY,
    BistellarMove,
    Complex,
    ExtendedMove,
    FilteredComplex,
    FiltrationError,
    MoveError,
    SuspensionData,
    Verdict,
    apply_bistellar,
    apply_extended_bistellar,
    ball_times_interval,
    boundary_of_simplex,
    check_combinatorial_manifold,
    count_move_schemas,
    enumerate_extended_moves,
    euler_characteristic,
    extended_applicable,
    stellar_subdivide,
    suspension_from_links,
    validate_filtration,
)
from plmoves.demos import bipyramid, filtered_s2_equator, filtered_s3_equatorial_s2
from support import pair_complex_through


def equator_circle():
    return Complex([(1, 2), (2, 3), (1, 3)])


def test_filtered_complex_shape_checks():
    fc = filtered_s2_equator()
    assert fc.n == 2
    assert fc.strata[0] == EMPTY
    assert fc.strata[1] == equator_circle()
    assert fc.complex == bipyramid()
    with pytest.raises(FiltrationError, match="not contained in"):
        FilteredComplex((Complex([(9,)]), equator_circle(), bipyramid()))
    with pytest.raises(FiltrationError):
        FilteredComplex(())
    # a stratum may not exceed its index dimension
    with pytest.raises(FiltrationError):
        FilteredComplex((bipyramid(), bipyramid(), bipyramid()))


def test_validate_filtration_on_demos():
    for fc in (filtered_s2_equator(), filtered_s3_equatorial_s2()):
        report = validate_filtration(fc)
        assert report.ok, report.findings
        assert report.notes


def test_validate_filtration_flags_bad_strata():
    from plmoves import cone

    y_graph = Complex([(1, 2), (2, 3), (2, 4)])
    fc = FilteredComplex((EMPTY, y_graph, cone(y_graph, 5)))
    report = validate_filtration(fc)
    assert not report.ok
    assert any("stratum 1 fails the manifold check" in f for f in report.findings)
    short = FilteredComplex((EMPTY, EMPTY, Complex([(1, 2)])))
    assert any(
        "stratum 2 is 1-dimensional" in f for f in validate_filtration(short).findings
    )
    mixed = FilteredComplex((EMPTY, Complex([(1, 2), (3,)]), cone(Complex([(1, 2), (3,)]), 6)))
    assert any("not pure" in f for f in validate_filtration(mixed).findings)


def test_suspension_data_pair_complex():
    susp = SuspensionData(1, ((4, 5),))
    assert pair_complex_through(susp, 1) == EMPTY
    assert pair_complex_through(susp, 2) == Complex([(4,), (5,)])
    deep = SuspensionData(1, ((4, 5), (8, 9)))
    p3 = pair_complex_through(deep, 3)
    assert sorted(p3.facets) == [(4, 8), (4, 9), (5, 8), (5, 9)]


def test_extended_move_validation():
    with pytest.raises(FiltrationError, match="wrong stratum"):
        ExtendedMove(2, BistellarMove((1, 2), (6,)), SuspensionData(1, ((4, 5),)))
    m = ExtendedMove(1, BistellarMove((1, 2), (6,)), SuspensionData(1, ((4, 5),)))
    assert m.inverse().inner == BistellarMove((6,), (1, 2))
    assert "extended[1]" in str(m)


def test_enumerate_extended_moves_on_equator():
    fc = filtered_s2_equator()
    moves = enumerate_extended_moves(fc)
    assert len(moves) == 11
    for m in moves:
        assert extended_applicable(fc, m) is None
    # the equatorial strata move through the forced apex pair {4, 5}
    inner_strata = {m.stratum for m in moves}
    assert inner_strata == {1, 2}
    for m in moves:
        if m.stratum == 1:
            assert m.suspension.apexes == ((4, 5),)
        else:
            assert m.suspension.apexes == ()


def test_a_stratum_that_is_not_pure_carries_no_inner_moves():
    # the equator with the pole 4 as a stray point: stratum 1 has no moves
    # of its own, and the top stratum keeps the pole fixed
    fc = filtered_s2_equator()
    stray = FilteredComplex((EMPTY, Complex([(1, 2), (2, 3), (1, 3), (4,)]), fc.complex))
    assert validate_filtration(stray).findings == ("stratum 1 is not pure",)
    assert [str(m) for m in enumerate_extended_moves(stray)] == [
        "extended[2] chi([1, 2, 4], [6]) via []",
        "extended[2] chi([1, 2, 5], [6]) via []",
        "extended[2] chi([1, 3, 4], [6]) via []",
        "extended[2] chi([1, 3, 5], [6]) via []",
        "extended[2] chi([2, 3, 4], [6]) via []",
        "extended[2] chi([2, 3, 5], [6]) via []",
        "extended[2] chi([5], [1, 2, 3]) via []",
    ]


def test_extended_move_restriction_is_the_inner_move():
    fc = filtered_s2_equator()
    for m in enumerate_extended_moves(fc):
        after = apply_extended_bistellar(fc, m)
        assert validate_filtration(after).ok
        k = m.stratum
        assert after.strata[k] == apply_bistellar(fc.strata[k], m.inner)
        for low in range(k):
            assert after.strata[low] == fc.strata[low]


def test_extended_apply_rejects_wrong_suspension():
    fc = filtered_s2_equator()
    # correct inner move, fabricated apex pair
    bad = ExtendedMove(1, BistellarMove((1, 2), (6,)), SuspensionData(1, ((4, 6),)))
    assert extended_applicable(fc, bad) is not None
    with pytest.raises(MoveError):
        apply_extended_bistellar(fc, bad)
    short = ExtendedMove(1, BistellarMove((1, 2), (6,)), SuspensionData(1, ()))
    assert "levels" in extended_applicable(fc, short)


def _extended(k, a, b, apexes):
    return ExtendedMove(k, BistellarMove(a, b), SuspensionData(k, apexes))


def test_extended_applicable_names_each_failed_condition():
    fc = filtered_s2_equator()
    # the upper hemisphere's triangle (1, 2, 4) subdivided by 6: the forced
    # apexes of the edge (1, 2) become (5, 6)
    lifted = FilteredComplex(
        (EMPTY, fc.strata[1], apply_bistellar(fc.complex, BistellarMove((1, 2, 4), (6,))))
    )
    disk = FilteredComplex((EMPTY, Complex([(1, 3)]), Complex([(1, 2, 3), (1, 3, 4)])))
    cases = [
        (fc, _extended(0, (1, 2), (6,), ((4, 5),)), "stratum index 0 outside 1..2"),
        (fc, _extended(3, (1, 2), (6,), ()), "stratum index 3 outside 1..2"),
        (fc, _extended(1, (1, 2), (6,), ()), "suspension must carry 1 levels, has 0"),
        (fc, _extended(1, (1, 4), (6,), ((4, 5),)), "(1, 4) is not a simplex of stratum 1"),
        (fc, _extended(2, (1, 2), (4, 5), ()), "(1, 2) is not in the open stratum 2"),
        (disk, _extended(1, (1,), (3,), ((2, 4),)), "(1,) lies in the boundary of stratum 1"),
        (
            fc,
            _extended(1, (1,), (9,), ((4, 5),)),
            "fresh-vertex move needs a 1-simplex, got (1,)",
        ),
        (fc, _extended(1, (1, 2), (4, 5), ((4, 5),)), "inner move dimensions do not sum to 1"),
        (fc, _extended(1, (1,), (2, 3), ((4, 5),)), "co-simplex (2, 3) already present"),
        (fc, _extended(1, (1, 2), (6,), ((1, 5),)), "apex 1 is not in the open stratum 2"),
        (fc, _extended(1, (1, 2), (6,), ((4, 6),)), "apex 6 is not in the open stratum 2"),
        (fc, _extended(1, (1, 2), (6,), ((4, 4),)), "apex 4 repeated"),
        (
            fc,
            _extended(1, (1,), (2, 9), ((4, 5),)),
            "link of (1,) in stratum 1 is not the suspended boundary",
        ),
        (
            lifted,
            _extended(1, (1, 2), (7,), ((4, 5),)),
            "link of (1, 2) in stratum 2 is not the suspended boundary",
        ),
        (lifted, _extended(1, (1, 2), (7,), ((5, 6),)), None),
        (disk, _extended(1, (1, 3), (9,), ((2, 4),)), None),
    ]
    for state, move, want in cases:
        assert extended_applicable(state, move) == want, move
    with pytest.raises(MoveError) as excinfo:
        apply_extended_bistellar(lifted, _extended(1, (1, 2), (7,), ((4, 5),)))
    assert str(excinfo.value) == (
        "cannot apply extended[1] chi([1, 2], [7]) via [(4, 5)]: "
        "link of (1, 2) in stratum 2 is not the suspended boundary"
    )
    assert suspension_from_links(lifted, (1, 2), None, 1) == SuspensionData(1, ((5, 6),))
    assert suspension_from_links(fc, (1, 4), None, 1) is None


def test_suspension_from_links_forces_the_apexes():
    fc = filtered_s2_equator()
    susp = suspension_from_links(fc, (1, 2), None, 1)
    assert susp == SuspensionData(1, ((4, 5),))
    fc3 = filtered_s3_equatorial_s2()
    susp3 = suspension_from_links(fc3, (1, 2, 3), None, 2)
    assert susp3 == SuspensionData(2, ((5, 6),))


def test_ball_times_interval_edge():
    edge = Complex([(1, 2)])
    bi = ball_times_interval(edge)
    r = check_combinatorial_manifold(bi.complex)
    assert r.verdict is Verdict.YES
    assert r.boundary
    assert euler_characteristic(bi.complex) == euler_characteristic(edge) == 1
    assert bi.suspension_part().is_subcomplex_of(bi.complex)
    assert bi.apex_plus in bi.complex.vertices
    assert bi.apex_minus in bi.complex.vertices


def test_ball_times_interval_label_control():
    edge = Complex([(1, 2)])
    bi = ball_times_interval(edge, apexes=(30, 31))
    assert (bi.apex_plus, bi.apex_minus) == (30, 31)
    with pytest.raises(MoveError, match="collide"):
        ball_times_interval(edge, apexes=(1, 9))
    with pytest.raises(MoveError, match="vertex_order"):
        ball_times_interval(edge, vertex_order=[1])
    with pytest.raises(MoveError, match="empty"):
        ball_times_interval(EMPTY)
    with pytest.raises(MoveError, match="pseudomanifold"):
        ball_times_interval(Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)]))


def test_ball_times_interval_apex_sides_are_separate():
    tri = Complex([(1, 2, 3)])
    bi = ball_times_interval(tri)
    for f in bi.complex.facets:
        assert not {bi.apex_plus, bi.apex_minus} <= set(f)


def test_count_move_schemas():
    census = count_move_schemas(3, present_dims=(1, 2, 3))
    assert census.pair_count == 5
    pairs = sorted((e.stratum_dim, e.pair) for e in census.entries)
    assert pairs == [
        (1, (0, 1)),
        (2, (0, 2)),
        (2, (1, 1)),
        (3, (0, 3)),
        (3, (1, 2)),
    ]
    depths = {e.stratum_dim: e.suspension_depth for e in census.entries}
    assert depths == {1: 2, 2: 1, 3: 0}
    assert count_move_schemas(3).pair_count == 5  # default: all dims present
    assert count_move_schemas(2).pair_count == 3
    with pytest.raises(ValueError):
        count_move_schemas(0)
    with pytest.raises(ValueError):
        count_move_schemas(3, present_dims=(0, 1))


def test_schema_census_carries_the_quoted_count_without_asserting_it():
    census = count_move_schemas(3)
    assert census.quoted_pair_count == 6
    assert census.quoted_pair_count != census.pair_count
