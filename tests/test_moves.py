"""Bistellar moves: applicability, application, enumeration."""

import pytest

from plmoves import (
    BistellarMove,
    Complex,
    MoveError,
    Simplex,
    apply_bistellar,
    applicability_obstruction,
    bistellar_applicable,
    boundary_of_simplex,
    enumerate_moves,
    inserted_ball,
    inverse_move,
    replaced_ball,
    stellar_subdivide,
)
from plmoves.demos import bipyramid
from support import hexagon_disk


def test_move_data_and_inverse():
    m = BistellarMove((2, 1), (4, 3))
    assert m.a == (1, 2) and m.b == (3, 4)
    assert m.k == 1
    assert m.n == 2
    assert m.inverse() == BistellarMove((3, 4), (1, 2))
    assert inverse_move(m) == m.inverse()
    assert str(m) == "chi([1, 2], [3, 4])"
    with pytest.raises(MoveError, match="disjoint"):
        BistellarMove((1, 2), (2, 3))
    # plain tuples are validated and normalized into sorted Simplex values
    m = BistellarMove((3, 1), (2,))
    assert m.a == (1, 3) and m.b == (2,)
    assert type(m.a) is Simplex and type(m.b) is Simplex
    with pytest.raises(ValueError, match="duplicate vertex"):
        BistellarMove((1, 1), (2,))
    with pytest.raises(ValueError, match="non-negative"):
        BistellarMove((1, 2), (-3,))


def test_fsum_delta():
    assert BistellarMove((1, 2), (3, 4)).fsum_delta() == 0
    assert BistellarMove((1, 2, 3), (4,)).fsum_delta() == 6
    # in dimension 3 the change is always +-4 or +-14
    assert BistellarMove((1, 2, 3, 4), (5,)).fsum_delta() == 14
    assert BistellarMove((1, 2, 3), (4, 5)).fsum_delta() == 4
    assert BistellarMove((4, 5), (1, 2, 3)).fsum_delta() == -4


def test_replaced_and_inserted_balls():
    m = BistellarMove((1, 2), (3, 4))
    assert replaced_ball(m) == Complex([(1, 2, 3), (1, 2, 4)])
    assert inserted_ball(m) == Complex([(1, 3, 4), (2, 3, 4)])
    # facet subdivision removes just the facet
    sub = BistellarMove((1, 2, 3), (9,))
    assert replaced_ball(sub) == Complex([(1, 2, 3)])
    assert inserted_ball(sub) == Complex([(1, 2, 9), (1, 3, 9), (2, 3, 9)])
    # the two balls share their boundary sphere
    assert replaced_ball(m).boundary_complex == inserted_ball(m).boundary_complex


def test_obstruction_messages():
    s2 = boundary_of_simplex(3)
    assert applicability_obstruction(s2, (1, 2, 3)) is None
    # every edge link is two vertices whose joining edge is already present
    assert "already present" in applicability_obstruction(s2, (1, 2))
    assert "already present" in applicability_obstruction(s2, (1,))
    with pytest.raises(MoveError, match="not a simplex"):
        applicability_obstruction(s2, (1, 9))
    disk = hexagon_disk()
    assert "lies in the boundary" in applicability_obstruction(disk, (1, 2))
    assert applicability_obstruction(disk, (1, 2, 7)) is None
    # vertex 7 is interior but its link is a 6-cycle, not a triangle boundary
    assert "not the boundary" in applicability_obstruction(disk, (7,))


def test_bistellar_applicable():
    s2 = boundary_of_simplex(3)
    m = bistellar_applicable(s2, (1, 2, 3))
    assert m == BistellarMove((1, 2, 3), (5,))
    assert bistellar_applicable(s2, (1, 2, 3), label_floor=11).b == (12,)
    assert bistellar_applicable(s2, (1, 2)) is None
    b = bipyramid()
    assert bistellar_applicable(b, (1, 2)) == BistellarMove((1, 2), (4, 5))
    assert bistellar_applicable(b, (4,)) == BistellarMove((4,), (1, 2, 3))


def test_apply_facet_subdivision_matches_stellar():
    s2 = boundary_of_simplex(3)
    moved = apply_bistellar(s2, BistellarMove((1, 2, 3), (5,)))
    assert moved == stellar_subdivide(s2, (1, 2, 3), new_vertex=5)


def test_apply_then_inverse_is_identity():
    b = bipyramid()
    for m in enumerate_moves(b):
        once = apply_bistellar(b, m)
        back = apply_bistellar(once, m.inverse())
        assert back.facets == b.facets


def test_apply_rejects_bad_moves():
    s2 = boundary_of_simplex(3)
    with pytest.raises(MoveError, match="not in complex"):
        apply_bistellar(s2, BistellarMove((1, 9), (2, 3)))
    with pytest.raises(MoveError, match="dimensions do not match"):
        apply_bistellar(s2, BistellarMove((1, 2), (5,)))
    with pytest.raises(MoveError, match="not a fresh vertex"):
        apply_bistellar(s2, BistellarMove((1, 2, 3), (4,)))
    with pytest.raises(MoveError, match="already present"):
        apply_bistellar(s2, BistellarMove((1, 2), (3, 4)))
    with pytest.raises(MoveError) as excinfo:
        apply_bistellar(s2, BistellarMove((1, 2), (3, 4)))
    assert str(excinfo.value) == (
        "cannot apply chi([1, 2], [3, 4]): candidate co-simplex [3, 4] already present"
    )
    b = bipyramid()
    # right simplex, wrong co-simplex
    with pytest.raises(MoveError, match="boundary of"):
        apply_bistellar(b, BistellarMove((1, 2), (3, 4)))
    with pytest.raises(MoveError) as excinfo:
        apply_bistellar(b, BistellarMove((1, 2), (3, 4)))
    assert str(excinfo.value) == (
        "cannot apply chi([1, 2], [3, 4]): link of (1, 2) is the boundary of (4, 5)"
    )
    # boundary simplices of a disk never move
    with pytest.raises(MoveError, match="lies in the boundary"):
        apply_bistellar(hexagon_disk(), BistellarMove((1, 2), (3, 7)))


def test_apply_vertex_removal():
    b = bipyramid()
    smaller = apply_bistellar(b, BistellarMove((4,), (1, 2, 3)))
    assert smaller == Complex([(1, 2, 3), (1, 2, 5), (1, 3, 5), (2, 3, 5)])
    assert 4 not in smaller.vertices


def test_enumerate_moves_counts():
    assert len(enumerate_moves(boundary_of_simplex(3))) == 4
    mv = enumerate_moves(bipyramid())
    assert len(mv) == 11
    kinds = sorted((m.a.dim, m.b.dim) for m in mv)
    assert kinds.count((2, 0)) == 6  # one subdivision per facet
    assert kinds.count((1, 1)) == 3  # equatorial edge flips
    assert kinds.count((0, 2)) == 2  # the two poles can be removed
    # lexicographic order of a
    assert [m.a for m in mv] == sorted(m.a for m in mv)


def test_enumerate_moves_fresh_labels_respect_floor():
    b = bipyramid()
    fresh = {m.b[0] for m in enumerate_moves(b, label_floor=40) if m.b.dim == 0}
    assert fresh == {41}


def test_enumerate_moves_avoid_filtering():
    disk = hexagon_disk()
    rim = disk.boundary_complex
    mv = enumerate_moves(disk, avoid=rim)
    assert mv  # the interior still moves
    rim_simplices = rim.simplices
    assert all(m.a not in rim_simplices for m in mv)
    for m in mv:
        after = apply_bistellar(disk, m)
        assert after.boundary_complex == rim


def test_enumerate_moves_validation():
    disk = hexagon_disk()
    with pytest.raises(MoveError, match="avoid must contain the boundary"):
        enumerate_moves(disk)
    with pytest.raises(MoveError, match="not a subcomplex"):
        enumerate_moves(boundary_of_simplex(3), avoid=Complex([(1, 9)]))
    with pytest.raises(MoveError, match="pure"):
        enumerate_moves(Complex([(1, 2, 3), (3, 4)]))
    assert enumerate_moves(Complex([])) == []


def test_moves_in_dimension_three_change_count_by_4_or_14():
    s3 = boundary_of_simplex(4)
    walk = s3
    seen = set()
    for m in enumerate_moves(walk):
        seen.add(m.fsum_delta())
        after = apply_bistellar(walk, m)
        assert len(after.simplices) - len(walk.simplices) == m.fsum_delta()
    assert seen <= {-14, -4, 4, 14}
