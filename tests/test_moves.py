"""Bistellar moves: applicability, application, enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmoves import (
    EMPTY,
    BistellarMove,
    Complex,
    FilteredComplex,
    MoveError,
    Simplex,
    _kernel,
    apply_bistellar,
    apply_extended_bistellar,
    applicability_obstruction,
    bistellar_applicable,
    boundary_of_simplex,
    closure,
    enumerate_moves,
    f_vector,
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    fresh_vertex,
    inserted_ball,
    random_extended_walk,
    random_walk,
    reduce,
    replaced_ball,
    stellar_subdivide,
)
from plmoves import moves as moves_module
from plmoves.demos import bipyramid, rp2_6, torus7
from plmoves.moves import MoveSet
from support import hexagon_disk


def test_move_data_and_inverse():
    m = BistellarMove((2, 1), (4, 3))
    assert m.a == (1, 2) and m.b == (3, 4)
    assert m.n == 2
    assert m.inverse() == BistellarMove((3, 4), (1, 2))
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


def test_the_move_rule_counts_the_facet_sizes_on_a_non_pure_complex():
    # the star of 0 holds four triangles over the four vertices 1..4, as
    # the star of a vertex with a move in a 3-complex would hold four
    # tetrahedra; its link is a 4-cycle, not the boundary of a 3-simplex
    k = closure([(0, 1, 2), (0, 3, 4), (0, 1, 3), (0, 2, 4), (5, 6, 7, 8)])
    assert applicability_obstruction(k, (0,)) == (
        "link of (0,) is not the boundary of a 3-simplex"
    )
    assert bistellar_applicable(k, (0,)) is None
    with pytest.raises(MoveError) as excinfo:
        apply_bistellar(k, BistellarMove((0,), (1, 2, 3, 4)))
    assert str(excinfo.value) == (
        "cannot apply chi([0], [1, 2, 3, 4]): "
        "link of (0,) is not the boundary of a 3-simplex"
    )


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


def _moveset_starts():
    disk = hexagon_disk()
    return {
        "s2": (boundary_of_simplex(3), EMPTY, -1),
        "s3": (boundary_of_simplex(4), EMPTY, -1),
        "s4": (boundary_of_simplex(5), EMPTY, -1),
        "torus7": (torus7(), EMPTY, -1),
        "rp2_6": (rp2_6(), EMPTY, -1),
        "disk": (disk, disk.boundary_complex, -1),
        "s3_floor": (boundary_of_simplex(4), EMPTY, 30),
    }


@pytest.mark.parametrize("name", sorted(_moveset_starts()))
@settings(max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_moveset_follows_a_walk_like_a_fresh_scan(name, seed):
    k, avoid, floor = _moveset_starts()[name]
    rng = random.Random(seed)
    ms = MoveSet(k, avoid, floor)
    state = k
    top_removals = 0
    for _ in range(30):
        moves = ms.moves()
        fresh_scan = enumerate_moves(ms.complex(), avoid, floor)
        assert moves == [(m.a, m.b) for m in fresh_scan]
        assert ms.f_vector == f_vector(state)
        # often remove the vertex with the largest label when it may go, so
        # that the largest label and the fresh label fall back
        top = (max(state.vertices),)
        removal = [m for m in moves if m[0] == top]
        a, b = removal[0] if removal and rng.random() < 0.5 else rng.choice(moves)
        top_removals += a == top
        ms.apply(a, b)
        state = apply_bistellar(state, BistellarMove(a, b))
        assert ms.complex() == state
        # the links of the faces that came and went are written in closed
        # form, and those linked to them only rechecked for presence
        assert _listing(ms) == _listing(MoveSet(ms.complex(), avoid, floor))
    assert ms.f_vector == f_vector(state)
    # an independent oracle: the link test at every face outside avoid
    expected = [
        bistellar_applicable(state, s, floor)
        for s in sorted(state.simplices)
        if s not in avoid
    ]
    assert [BistellarMove(a, b) for a, b in ms.moves()] == [m for m in expected if m]
    if name in ("s2", "s3", "s3_floor"):
        assert top_removals


def test_the_standalone_scan_lists_what_a_move_set_does():
    # scan_moves builds its own star from the facets and knows nothing of
    # MoveSet; a facet's move has no b since the scan picks no fresh label
    states = [torus7(), rp2_6(), hexagon_disk()]
    states += [random_walk(boundary_of_simplex(4), 25, seed=seed)[0] for seed in range(4)]
    states.append(random_walk(boundary_of_simplex(5), 25, seed=5)[0])
    # a path with 80 vertices and two boundary vertices
    states.append(Complex([(i, i + 1) for i in range(1, 80)]))
    facet_moves = set()
    for k in states:
        scan = _kernel.scan_moves(sorted(tuple(f) for f in k.facets))
        moves = enumerate_moves(k, k.boundary_complex or EMPTY)
        assert scan == [(m.a, None if m.a in k.facets else m.b) for m in moves]
        facet_moves.update(b is None for _, b in scan)
    assert facet_moves == {True, False}
    with pytest.raises(ValueError, match="^scan_moves needs a pure complex$"):
        _kernel.scan_moves(sorted([(1, 2), (1, 2, 3)]))
    assert _kernel.scan_moves([]) == []


def _assert_derived_index(k):
    # the move handed over its star index, dimension and vertices, and they
    # are the ones a fresh build gives, the index down to the order of the
    # facets within each star
    fresh = Complex(k.facets, _trusted=True)
    for name in ("_star_index", "dim", "vertices"):
        assert name in k.__dict__
        assert getattr(k, name) == getattr(fresh, name)


@pytest.mark.parametrize("name", ["disk", "rp2_6", "s2", "s3", "s4", "torus7"])
@settings(max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=1, max_value=25),
)
def test_checked_moves_derive_the_star_index_of_a_fresh_build(name, seed, steps):
    k, avoid, _ = _moveset_starts()[name]
    _, walk = random_walk(k, steps, seed=seed, avoid=avoid)
    state = Complex(k.facets, _trusted=True)
    for record in walk:
        state = apply_bistellar(state, record.move)
        _assert_derived_index(state)


@pytest.mark.parametrize("name", sorted(_moveset_starts()))
@settings(max_examples=5)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=1, max_value=40),
)
def test_walks_and_reductions_hand_their_star_index_over(name, seed, steps):
    # a walk and a reduction end in their move set's complex, which is
    # handed the move set's star index, sorted, its dimension and vertices
    k, avoid, floor = _moveset_starts()[name]
    walked, _ = random_walk(k, steps, seed=seed, avoid=avoid, label_floor=floor)
    _assert_derived_index(walked)
    if not avoid:
        reduced, _ = reduce(walked, seed=seed)
        _assert_derived_index(reduced)


@pytest.mark.parametrize("name", ["disk", "rp2_6", "s2", "s3", "s4", "torus7"])
@settings(max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=1, max_value=25),
)
def test_checked_moves_hand_the_boundary_over(name, seed, steps):
    # a move at a face outside the boundary keeps the boundary, so a checked
    # move hands its result the parent's instead of building it again
    k, avoid, _ = _moveset_starts()[name]
    _, walk = random_walk(k, steps, seed=seed, avoid=avoid)
    state = Complex(k.facets, _trusted=True)
    for record in walk:
        state = apply_bistellar(state, record.move)
        assert "boundary_complex" in state.__dict__
        assert state.boundary_complex == Complex(state.facets).boundary_complex
    assert state.boundary_complex == k.boundary_complex


def _filtered_disk():
    """A disk with a rim, filtered by an arc across it from rim to rim; its
    strata have boundary, unlike the filtered demos'."""
    disk = stellar_subdivide(hexagon_disk(), (1, 2, 7), new_vertex=8)
    disk = stellar_subdivide(disk, (4, 5, 7), new_vertex=9)
    arc = Complex([(1, 8), (7, 8), (7, 9), (4, 9)])
    return FilteredComplex((EMPTY, arc, disk))


@pytest.mark.parametrize(
    "start", [filtered_s2_equator, filtered_s3_equatorial_s2, _filtered_disk]
)
@settings(max_examples=5)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=1, max_value=6),
)
def test_checked_extended_moves_derive_every_stratum_index(start, seed, steps):
    fc = start()
    _, walk = random_extended_walk(fc, steps, seed=seed)
    # the same walk beside an edge far from it, which makes the top stratum
    # non-pure
    top = fc.strata[-1]
    edge = Simplex([max(top.vertices) + 100, max(top.vertices) + 101])
    beside = FilteredComplex(fc.strata[:-1] + (Complex(list(top.facets) + [edge]),))
    for record in walk:
        fc = apply_extended_bistellar(fc, record.move)
        beside = apply_extended_bistellar(beside, record.move)
        assert beside.strata[-1].facets == fc.strata[-1].facets | {edge}
        lowest = record.move.stratum  # the lower strata are kept
        for stratum in fc.strata[lowest:] + beside.strata[lowest:]:
            _assert_derived_index(stratum)
            # and each rebuilt stratum is handed its parent's boundary
            assert "boundary_complex" in stratum.__dict__
            assert stratum.boundary_complex == Complex(stratum.facets).boundary_complex


def test_non_pure_complexes_derive_their_star_index_too():
    # a 2-sphere with a dangling edge: its facets differ in dimension, and a
    # checked move derives its index as on a pure complex
    k = Complex(list(boundary_of_simplex(3).facets) + [(4, 5)])
    out = apply_bistellar(k, BistellarMove((1, 2, 3), (6,)))
    assert sorted(out.facets) == [
        (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 6), (2, 3, 4), (2, 3, 6), (4, 5),
    ]
    _assert_derived_index(out)
    # a flip whose new edge meets the dangling edge at 4, so that the star
    # of 4 mixes dimensions
    out = apply_bistellar(out, BistellarMove((1, 2), (4, 6)))
    assert sorted(out.facets) == [
        (1, 3, 4), (1, 3, 6), (1, 4, 6), (2, 3, 4), (2, 3, 6), (2, 4, 6), (4, 5),
    ]
    _assert_derived_index(out)
    out = apply_bistellar(out, BistellarMove((4, 6), (1, 2)))
    out = apply_bistellar(out, BistellarMove((6,), (1, 2, 3)))
    assert out == k
    _assert_derived_index(out)


def _listing(ms):
    """What a move set says of its complex: the moves, the faces by size, the
    f-vector and the stars, as sets since a derived star keeps its own
    order; and the tables it updates in place of testing again, the link
    of each face and the faces linked to each co-simplex."""
    sized = [ms.faces(size) for size in range(1, ms._size + 1)]
    stars = {s: set(fs) for s, fs in ms._star.items()}
    return ms.moves(), sized, ms.f_vector, stars, ms._linked, ms._waiting


@pytest.mark.parametrize("name", ["disk", "s3"])
def test_only_the_faces_that_kept_a_changed_star_run_the_move_rule(name, monkeypatch):
    # the faces that vanished or appeared, and those linked to them, are
    # decided without the rule; the kept faces in avoid have no move
    k, avoid, floor = _moveset_starts()[name]
    _, walk = random_walk(k, 40, seed=1, avoid=avoid, label_floor=floor)
    ms = MoveSet(k, avoid, floor)
    calls = []
    kept = []
    rule = moves_module._co_simplex
    update = moves_module._move_stars

    def counted_rule(fs, a, size):
        calls.append(a)
        return rule(fs, a, size)

    def recorded_update(*args):
        out = update(*args)
        kept.extend(s for s in out[0] if s not in avoid)
        return out

    monkeypatch.setattr(moves_module, "_co_simplex", counted_rule)
    monkeypatch.setattr(moves_module, "_move_stars", recorded_update)
    for record in walk:
        ms.apply(record.move.a, record.move.b)
    assert calls == kept
    assert len(kept) > len(walk)


@pytest.mark.parametrize("name", sorted(_moveset_starts()))
@settings(max_examples=5)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=1, max_value=6),
)
def test_a_copied_move_set_advanced_by_one_move_lists_what_a_fresh_one_does(
    name, seed, steps
):
    # flip_search gives each state a copy of its parent's move set advanced
    # by the move that made the state: forward by a listed move, backward
    # also by inserting an end label, or the fresh one, into a facet outside
    # avoid; the walk goes on from one of the copies, as the search does
    k, avoid, floor = _moveset_starts()[name]
    rng = random.Random(seed)
    ms = MoveSet(k, avoid, floor)
    state = k
    for _ in range(steps):
        before = _listing(ms)
        labels = sorted((k.vertices - state.vertices) | {fresh_vertex(state, floor)})
        facets = sorted(f for f in state.facets if f not in avoid)
        insertion = (rng.choice(facets), Simplex([rng.choice(labels)]))
        copies = []
        for a, b in ms.moves() + [insertion]:
            copy = ms.copy()
            copy.apply(a, b)
            result = apply_bistellar(state, BistellarMove(a, b))
            fresh = MoveSet(Complex(result.facets, _trusted=True), avoid, floor)
            assert _listing(copy) == _listing(fresh), (a, b)
            assert copy.complex() == result
            copies.append((copy, result))
        assert _listing(ms) == before
        ms, state = rng.choice(copies)
