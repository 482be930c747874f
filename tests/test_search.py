"""Flip-graph search, recorded walks, replay, reduction, alignment."""

import hashlib
import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmoves import (
    EMPTY,
    BistellarMove,
    Complex,
    FilteredComplex,
    MoveRecord,
    MoveSequence,
    SearchBudget,
    SearchError,
    StarkMove,
    apply_bistellar,
    boundary_of_simplex,
    canonical_facet_text,
    emit_sequence,
    enumerate_extended_moves,
    enumerate_moves,
    f_vector,
    find_isomorphism,
    flip_search,
    fresh_vertex,
    neighborhood_from_suspension,
    random_extended_walk,
    random_walk,
    reduce,
    replaced_ball,
    replay,
    state_fingerprint,
    stellar_subdivide,
    stratified_align,
)
from plmoves import search
from plmoves.demos import (
    bipyramid,
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    rp2_6,
    sphere_boundary,
    torus7,
)
from plmoves.filtration import _extended_move
from plmoves.moves import MoveSet, _inserted_facets
from plmoves.search import _align_fast, _FacetTexts, _fresh_without
from support import disk_with_interior_triangle, hexagon_disk, without


def test_state_fingerprint_is_label_sensitive_and_stable():
    s2 = boundary_of_simplex(3)
    assert state_fingerprint(s2) == state_fingerprint(boundary_of_simplex(3))
    assert state_fingerprint(s2) != state_fingerprint(bipyramid())
    fc = filtered_s2_equator()
    assert state_fingerprint(fc) == state_fingerprint(filtered_s2_equator())
    assert state_fingerprint(fc) != state_fingerprint(s2)


def test_move_record_rejects_unknown_kind():
    with pytest.raises(SearchError):
        MoveRecord("teleport", BistellarMove((1, 2, 3), (9,)))
    with pytest.raises(SearchError, match="^extended record needs a ExtendedMove$"):
        MoveRecord("extended", BistellarMove((1, 2), (3, 4)))


def test_replay_roundtrip_and_mismatch():
    s2 = boundary_of_simplex(3)
    end, seq = random_walk(s2, 12, seed=5)
    assert len(seq) == 12
    assert replay(s2, seq) == end
    # replay against the wrong start fails loudly
    with pytest.raises(SearchError):
        replay(bipyramid(), seq)


def test_replay_fails_at_the_first_illegal_step():
    s2 = boundary_of_simplex(3)
    seq = MoveSequence.for_state(
        s2, [MoveRecord("bistellar", BistellarMove((1, 2), (3, 4)))]
    )
    with pytest.raises(SearchError):
        replay(s2, seq)


def test_a_certificate_may_mix_extended_and_stark_moves():
    # the second extended move of each walk, recorded as the stark move over
    # the neighborhood of its suspension, reaches the same state
    for start in (filtered_s2_equator(), filtered_s3_equatorial_s2()):
        for seed in range(3):
            end, walk = random_extended_walk(start, 2, seed=seed)
            first, second = walk.moves
            em = second.move
            nbhd = neighborhood_from_suspension(replaced_ball(em.inner), em.suspension)
            stark = MoveRecord("stark", StarkMove(nbhd, em.inner))
            mixed = MoveSequence.for_state(start, [first, stark])
            assert replay(start, mixed) == end, seed


def test_random_walk_is_deterministic_per_seed():
    s2 = boundary_of_simplex(3)
    a1, _ = random_walk(s2, 15, seed=3)
    a2, _ = random_walk(s2, 15, seed=3)
    b, _ = random_walk(s2, 15, seed=4)
    assert a1 == a2
    assert a1 != b  # overwhelmingly likely with 15 steps of branching


def test_flip_search_identity_is_empty():
    s2 = boundary_of_simplex(3)
    seq = flip_search(s2, s2)
    assert seq is not None and len(seq) == 0
    assert replay(s2, seq) == s2


def test_flip_search_one_move_each_direction():
    s2 = boundary_of_simplex(3)
    bigger = stellar_subdivide(s2, (1, 2, 3), new_vertex=5)
    fwd = flip_search(s2, bigger)
    assert fwd is not None and len(fwd) == 1
    assert replay(s2, fwd) == bigger
    back = flip_search(bigger, s2)
    assert back is not None and len(back) == 1
    assert replay(bigger, back) == s2


def test_flip_search_respects_budget():
    s2 = boundary_of_simplex(3)
    far, _ = random_walk(s2, 6, seed=9)
    assert flip_search(s2, far, budget=SearchBudget(depth=1, nodes=50)) is None


def test_flip_search_refuses_a_target_label_at_or_below_the_floor(monkeypatch):
    # every insertion edge creates a label above label_floor, so a target
    # label at or below it that the start lacks is out of reach: flip_search
    # answers None before it searches
    s2 = boundary_of_simplex(3)
    bigger = stellar_subdivide(s2, (1, 2, 3), new_vertex=5)
    seq = flip_search(s2, bigger, label_floor=4)
    assert [str(r.move) for r in seq] == ["chi([1, 2, 3], [5])"]

    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(search, "_bidirectional", no_search)
    assert flip_search(s2, bigger, label_floor=10) is None


def _toy_search(start, goal, depth=8, nodes=2_000_000):
    # the integers with edges n -> n + 1 and n -> 2n, each labelled by its
    # operation and its tail; returns the path and every expansion with its
    # made_by
    log = []

    def expand_fw(n, made_by):
        log.append(("fw", n, made_by))
        return ("fw", n), [(("+", n), n + 1), (("*", n), 2 * n)]

    def expand_bw(n, made_by):
        log.append(("bw", n, made_by))
        preds = [(("+", n - 1), n - 1)] if n > 1 else []
        if n % 2 == 0:
            preds.append((("*", n // 2), n // 2))
        return ("bw", n), preds

    path = search._bidirectional(
        start, goal, expand_fw, expand_bw, lambda n: n, SearchBudget(depth, nodes)
    )
    return path, log


def test_bidirectional_paths_on_a_toy_graph():
    assert _toy_search(5, 5) == ([], [])
    path, log = _toy_search(1, 10)
    assert path == [("+", 1), ("*", 2), ("+", 4), ("*", 5)]
    assert log == [
        ("fw", 1, None),
        ("fw", 2, (("fw", 1), ("+", 1))),
        ("bw", 10, None),
        ("fw", 3, (("fw", 2), ("+", 2))),
        ("fw", 4, (("fw", 2), ("*", 2))),
    ]
    path, log = _toy_search(3, 24)
    assert path == [("*", 3), ("*", 6), ("*", 12)]
    assert log == [
        ("fw", 3, None),
        ("bw", 24, None),
        ("fw", 4, (("fw", 3), ("+", 3))),
        ("fw", 6, (("fw", 3), ("*", 3))),
    ]
    # the smaller frontier expands first, forward on ties; a backward edge
    # is labelled by the move from the predecessor
    path, log = _toy_search(1, 13)
    assert path == [("+", 1), ("+", 2), ("*", 3), ("*", 6), ("+", 12)]
    assert log == [
        ("fw", 1, None),
        ("fw", 2, (("fw", 1), ("+", 1))),
        ("bw", 13, None),
        ("bw", 12, (("bw", 13), ("+", 12))),
        ("fw", 3, (("fw", 2), ("+", 2))),
    ]


def test_bidirectional_stops_at_its_caps_and_at_an_empty_frontier():
    two = [("fw", 1, None), ("fw", 2, (("fw", 1), ("+", 1)))]
    assert _toy_search(1, 10, depth=2) == (None, two)
    assert _toy_search(1, 10, nodes=3) == (None, two)
    assert _toy_search(1, 10, nodes=4) == (None, two + [("bw", 10, None)])
    # 1 has no predecessor, so the backward frontier runs out
    assert _toy_search(5, 1) == (None, [("fw", 5, None), ("bw", 1, None)])


def test_flip_search_avoid_must_be_shared():
    disk = disk_with_interior_triangle()
    other = Complex([(1, 2, 3)])
    with pytest.raises(SearchError, match="not shared by both ends"):
        flip_search(disk, other, avoid=disk.boundary_complex)


def test_flip_search_constrained_certificate():
    disk = disk_with_interior_triangle()
    rim = disk.boundary_complex
    target = stellar_subdivide(disk, (1, 7, 8))
    seq = flip_search(disk, target, avoid=rim)
    assert seq is not None and len(seq) == 1
    assert replay(disk, seq) == target


def test_reduce_bipyramid_in_one_move():
    red, seq = reduce(bipyramid())
    assert len(seq) == 1
    assert f_vector(red) == (4, 6, 4)
    assert find_isomorphism(red, boundary_of_simplex(3)) is not None
    assert replay(bipyramid(), seq) == red


def test_reduce_is_a_no_op_on_minimal_spheres():
    s3 = boundary_of_simplex(4)
    red, seq = reduce(s3)
    assert red == s3
    assert len(seq) == 0


def test_reduce_refuses_a_complex_with_boundary():
    disk = hexagon_disk()
    with pytest.raises(SearchError, match="reduce needs a closed complex; this one has boundary"):
        reduce(disk)
    # a budget of no moves still returns before anything is checked
    assert reduce(disk, move_budget=0) == (disk, MoveSequence.for_state(disk, []))


def test_reduce_comes_back_from_a_walk():
    s2 = boundary_of_simplex(3)
    walked, _ = random_walk(s2, 12, seed=21)
    red, seq = reduce(walked)
    assert f_vector(red) == (4, 6, 4)
    assert replay(walked, seq) == red


def _walk_starts():
    disk = hexagon_disk()
    inner = disk_with_interior_triangle()
    return {
        "bipyramid": (bipyramid(), EMPTY),
        "torus7": (torus7(), EMPTY),
        "rp2_6": (rp2_6(), EMPTY),
        "s2": (boundary_of_simplex(3), EMPTY),
        "s3": (boundary_of_simplex(4), EMPTY),
        "s4": (boundary_of_simplex(5), EMPTY),
        "hexagon_disk": (disk, disk.boundary_complex),
        "disk_with_interior_triangle": (inner, inner.boundary_complex),
    }


@pytest.mark.parametrize("name", sorted(_walk_starts()))
def test_walk_and_reduce_certificates_replay_and_repeat(name):
    # walks and reduce follow one move set without verifying each step;
    # replaying their certificates is the check
    k, avoid = _walk_starts()[name]
    for seed in range(3):
        end, seq = random_walk(k, 25, seed=seed, avoid=avoid)
        assert replay(k, seq) == end
        end_again, seq_again = random_walk(k, 25, seed=seed, avoid=avoid)
        assert end_again == end
        assert emit_sequence(seq_again) == emit_sequence(seq)
        if avoid:
            continue  # reduce takes closed complexes only
        red, red_seq = reduce(end, seed=seed)
        assert replay(end, red_seq) == red
        red_again, red_seq_again = reduce(end, seed=seed)
        assert red_again == red
        assert emit_sequence(red_seq_again) == emit_sequence(red_seq)


def test_stratified_align_identity():
    fc = filtered_s2_equator()
    seq = stratified_align(fc, fc)
    assert seq is not None and len(seq) == 0


def test_stratified_align_one_extended_move():
    fc = filtered_s2_equator()
    end, walk = random_extended_walk(fc, 1, seed=2)
    seq = stratified_align(fc, end)
    assert seq is not None
    assert replay(fc, seq) == end


def test_stratified_align_rejects_invalid_ends():
    from plmoves import EMPTY, FilteredComplex, cone

    y_graph = Complex([(1, 2), (2, 3), (2, 4)])
    bad = FilteredComplex((EMPTY, y_graph, cone(y_graph, 5)))
    with pytest.raises(SearchError, match="filtration invalid"):
        stratified_align(bad, bad)


def test_stratified_align_returns_none_on_an_exhausted_budget():
    fc = filtered_s2_equator()
    end = random_extended_walk(fc, 3, seed=2)[0]
    assert stratified_align(fc, end, SearchBudget(depth=1)) is None
    assert replay(fc, stratified_align(fc, end)) == end


def test_align_fast_gives_up_on_a_stratum_it_cannot_align():
    # the ends of the arc 1-2, which its inner moves keep, are not in the
    # target arc 2-3
    fc1 = FilteredComplex((EMPTY, Complex([(1, 2)]), bipyramid()))
    fc2 = FilteredComplex((EMPTY, Complex([(2, 3)]), bipyramid()))
    assert _align_fast(fc1, fc2, SearchBudget()) is None
    # the one inner move from the square 1-2-3-4 to the equator 1-2-3
    # removes the vertex 4, which lies in five triangles, so its star is no
    # suspension of the path 1-4-3 and the move has no lift
    square = Complex([(1, 2), (2, 3), (3, 4), (1, 4)])
    octahedron = Complex([(a, b, p) for a, b in square.facets for p in (5, 6)])
    fc1 = FilteredComplex((EMPTY, square, stellar_subdivide(octahedron, (3, 4, 5), 7)))
    assert _extended_move(fc1, 1, BistellarMove((4,), (1, 3))) is None
    assert _align_fast(fc1, filtered_s2_equator(), SearchBudget()) is None


def test_find_isomorphism():
    b = bipyramid()
    relabel = {1: 10, 2: 20, 3: 30, 4: 40, 5: 50}
    other = Complex([tuple(relabel[v] for v in f) for f in b.facets])
    iso = find_isomorphism(b, other)
    assert iso is not None
    assert all(iso[k] == v for k, v in relabel.items())
    assert find_isomorphism(b, boundary_of_simplex(3)) is None
    # degree-compatible but non-isomorphic pair
    assert find_isomorphism(boundary_of_simplex(3), Complex([(1, 2, 3)])) is None


def test_stratified_align_rejects_ends_of_different_shape():
    fc = filtered_s2_equator()
    with pytest.raises(SearchError, match="^filtrations have different lengths$"):
        stratified_align(fc, filtered_s3_equatorial_s2())
    pointed = FilteredComplex((Complex([(1,)]), fc.strata[1], fc.complex))
    with pytest.raises(SearchError, match="^filtrations disagree on the 0-stratum$"):
        stratified_align(fc, pointed)


def test_replay_refuses_a_record_of_the_wrong_kind_of_state():
    fc = filtered_s2_equator()
    flip = MoveRecord("bistellar", BistellarMove((1, 2), (4, 5)))
    with pytest.raises(SearchError) as raised:
        replay(fc, MoveSequence.for_state(fc, [flip]))
    assert str(raised.value) == (
        "illegal step 0 (bistellar chi([1, 2], [4, 5])):"
        " bistellar record applied to a stratified state"
    )
    b = bipyramid()
    extended = MoveRecord("extended", enumerate_extended_moves(fc)[0])
    with pytest.raises(SearchError) as raised:
        replay(b, MoveSequence.for_state(b, [extended]))
    assert str(raised.value) == (
        "illegal step 0 (extended extended[1] chi([1, 2], [6]) via [(4, 5)]):"
        " extended record needs a filtered complex"
    )


def test_walks_stop_early_where_no_move_is_left():
    b = bipyramid()
    end, seq = random_walk(b, 5, avoid=b)  # every face avoided
    assert end == b and len(seq) == 0
    assert replay(b, seq) == b
    # the one segment: its subdivision has no suspension in the top stratum
    segment = FilteredComplex((EMPTY, Complex([(1, 2)]), Complex([(1, 2)])))
    assert enumerate_extended_moves(segment) == []
    end, seq = random_extended_walk(segment, 3)
    assert end == segment and len(seq) == 0
    assert seq.start_fingerprint == state_fingerprint(segment)


def test_flip_search_gives_up_on_ends_of_different_dimension_or_euler_characteristic():
    assert flip_search(boundary_of_simplex(3), boundary_of_simplex(4)) is None
    assert flip_search(torus7(), bipyramid()) is None


def test_find_isomorphism_past_the_degree_signatures():
    square = Complex([(1, 2), (2, 3), (3, 4), (1, 4)])
    # a triangle with a pendant edge: four edges, but the degrees differ
    assert find_isomorphism(square, Complex([(1, 2), (2, 3), (1, 3), (3, 4)])) is None
    # a path of four edges: five vertices for the square's four
    assert find_isomorphism(square, Complex([(1, 2), (2, 3), (3, 4), (4, 5)])) is None
    # all vertices of degree 2 on both sides, so only the search tells
    hexagon = Complex([(i, i % 6 + 1) for i in range(1, 7)])
    triangles = Complex([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert find_isomorphism(hexagon, triangles) is None
    assert find_isomorphism(triangles, hexagon) is None
    # a triangle and a square against a square and a triangle: the first
    # vertices go to the square first and have to come back
    src = Complex([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    dst = Complex([(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (5, 7)])
    iso = find_isomorphism(src, dst)
    assert iso == {1: 5, 2: 6, 3: 7, 4: 1, 5: 2, 6: 3, 7: 4}
    assert Complex([tuple(iso[v] for v in f) for f in src.facets]) == dst


def test_move_sequence_iterates_records():
    s2 = boundary_of_simplex(3)
    _, seq = random_walk(s2, 3, seed=1)
    kinds = [r.kind for r in seq]
    assert kinds == ["bistellar"] * 3


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


def _output_digest(seq, end):
    if isinstance(end, Complex):
        text = canonical_facet_text(end)
    else:
        text = "|".join(canonical_facet_text(m) for m in end.strata)
    return _digest(emit_sequence(seq), text)


# Certificates and end complexes of fixed seeds, recorded before simplices
# built inside the package stopped being re-validated (the torus7 and disk
# searches: before the search stopped verifying each edge; the two long S3
# searches: before each state's move set was derived from its parent's;
# the floored searches and the alignments: before search states became
# bare facet sets; the 300-step S3 walk and the larger reductions: before
# move sets kept their moves in order; the extended walks: before every
# star update walked the faces of a u b once; the criterion-6 alignments:
# before flip_search refused target labels at or below its floor); any
# change to move order, labels or tie-breaking shows up here.
OUTPUT_DIGESTS = {
    "walk_s3": "e80149ec1f8a9ad92f09a047a3fbb14ff86726dc9af6007beebbab4d488d8074",
    "walk_torus7": "90beb82bd64bb766878241894576c2733cf2772e228db262a649dda81b6618af",
    "walk_disk": "c064c3d5e14026c428f2c5744128314b0ca54ce442d03506c0b134838894fff5",
    "reduce_s3": "003ba41ee5fb898414c9de7b7bd749aaaad4aa0d36075c13f8e32f33a18ed255",
    "walk_s3_300": "b193fbb8ff5046718365d757800451719a591630b74a513f883c594c097e8b80",
    "reduce_s3_300": "965059112dc691d8a81692965d52f1355c68c3ae46bd155da6e3e22b2b23178a",
    "reduce_s3_100_9": "30501e40116f501163d184fd021d4d6e75a6a3a51919aaaf384fd886506ad8f5",
    "reduce_s4_60": "5dfa78aea82f5269153531a14972860c6a142a60c268a9f7cb20f99616dd8c3c",
    "search_s2": "93bb0abe3a7412af0b3ca8f8d54f88b29ba046c5d5c4046da63223fffffe1f04",
    "search_s3": "68853a14804a8baf2abca02ac5800142cecd796cf306094823e036b14bd58b78",
    "search_torus7": "f7224e62fadc3ecb1797b343f725c700871ca4dbbf6a9c3f2d6cc70644987cdc",
    "search_disk": "36ef461eddce313b9ded6c813777b10e87216499e27ac1ccc8f0e7a26f658dd5",
    "search_s3_864554641": "afc6527c5dc8c8ebe06ecc15f3af609a5ae89906513f67a43e2468f6afe4b151",
    "search_s3_713852238": "f9324d9529e47e14d967fa5b549a622e1eff0f2dd200b15cd512a40b8f8aeae7",
    "search_s3_floor30": "d50a461f9909da997179db9b32810bda3033689677ff3660f038aa7655f19205",
    "search_disk_floor20": "44aac1cf8a9fba11fd4bee9feafc1a0a04223ce97d01bb4dbd38f10d5baf0727",
    "align_s2_equator_3": "a7f0f4f3df3024ec69957f22ebc0ccebe750d8d97c5b042ec09cb24be085d7cf",
    "align_s2_equator_4": "ca43b34aca7c0dacc939be89d68a6e539eb3b9cd098ab3779a4d54d7445cfd90",
    "align_s3_equatorial_s2_1": "290b8a67c68ce473d92049c1a0642e1747e80f9776b0382ea98589e22be1741c",
    "align_s3_equatorial_s2_5": "0622dfed1876aa7bf9ffe37da005c764e0a852d5883821855a6a8c7418df5281",
    "align_s2_equator_criterion6": "3662f4362da59054b178530ebcf9fd4bb8d6bb9e1132ac3aa6fd6fcdf9c2eed1",
    "walk_filtered_s2_30": "631b256501e7a7b54d8afffb742720d53b0a9f8a515df8b4f75e2721462d2986",
    "walk_filtered_s3_30": "8d48f173841f51357e9a3742a9a035314fbeb95234dbee2afb04780865ebcb7e",
}


def test_walk_reduce_and_search_outputs_are_byte_identical():
    s3 = boundary_of_simplex(4)
    walked, walk_seq = random_walk(s3, 40, seed=11)
    assert len(walk_seq) == 40
    assert replay(s3, walk_seq) == walked
    red, red_seq = reduce(walked)
    assert replay(walked, red_seq) == red
    # larger reductions, one for each plateau path: S3 at seed 1 goes
    # downhill only; S3 at seed 9 climbs within its allowance, as S3 has no
    # zero-delta move; S4 at seed 0 takes a zero-delta sideways step
    long_walk, long_walk_seq = random_walk(s3, 300, seed=1)
    s4 = boundary_of_simplex(5)
    reductions = {}
    for name, start, length in (
        ("reduce_s3_300", long_walk, 218),
        ("reduce_s3_100_9", random_walk(s3, 100, seed=9)[0], 86),
        ("reduce_s4_60", random_walk(s4, 60, seed=0)[0], 50),
    ):
        end, seq = reduce(start)
        assert len(seq) == length
        assert f_vector(end) == f_vector(s3 if start.dim == 3 else s4)
        reductions[name] = _output_digest(seq, end)
    torus_end, torus_seq = random_walk(torus7(), 30, seed=12)
    disk = hexagon_disk()
    disk_end, disk_seq = random_walk(disk, 30, seed=13, avoid=disk.boundary_complex)
    s2 = boundary_of_simplex(3)
    s2_far, _ = random_walk(s2, 5, seed=14)
    s2_seq = flip_search(s2, s2_far)
    s3_far, _ = random_walk(s3, 4, seed=15)
    s3_seq = flip_search(s3, s3_far)
    torus_near, _ = random_walk(torus7(), 3, seed=16)
    torus_search = flip_search(torus7(), torus_near)
    # with the rim avoided, insertion predecessors come from facets outside it
    rim = disk.boundary_complex
    disk_near, _ = random_walk(disk, 4, seed=16, avoid=rim)
    disk_search = flip_search(disk, disk_near, avoid=rim)
    # two 6-move searches that expand a few hundred states each
    long_s3 = {}
    for seed in (864554641, 713852238):
        far, _ = random_walk(s3, 4, seed=seed)
        seq = flip_search(s3, far)
        long_s3["search_s3_%d" % seed] = _output_digest(seq, replay(s3, seq))
    # floors above every label: fresh labels and reverse insertions follow
    # the floor, not the largest label
    floored = {}
    for name, k, avoid, floor, steps, seed in (
        ("search_s3_floor30", s3, EMPTY, 30, 5, 40),
        ("search_disk_floor20", disk, rim, 20, 6, 35),
    ):
        far, _ = random_walk(k, steps, seed=seed, avoid=avoid, label_floor=floor)
        seq = flip_search(k, far, avoid=avoid, label_floor=floor)
        floored[name] = _output_digest(seq, replay(k, seq))
    # stratified_align runs a floored flip_search inside each stratum
    aligned = {}
    for name, fc, seed in (
        ("align_s2_equator", filtered_s2_equator(), 3),
        ("align_s2_equator", filtered_s2_equator(), 4),
        ("align_s3_equatorial_s2", filtered_s3_equatorial_s2(), 1),
        ("align_s3_equatorial_s2", filtered_s3_equatorial_s2(), 5),
    ):
        end, _ = random_extended_walk(fc, 3, seed=seed)
        seq = stratified_align(fc, end)
        aligned["%s_%d" % (name, seed)] = _output_digest(seq, replay(fc, seq))
    # the 20 walks of acceptance criterion 6; seeds 3, 7, 11, 15 and 19 need
    # the whole-state search after the stratum-by-stratum path fails
    fc = filtered_s2_equator()
    criterion6 = []
    for seed in range(20):
        end, _ = random_extended_walk(fc, seed % 4 + 1, seed=seed)
        criterion6.append(emit_sequence(stratified_align(fc, end)))
    aligned["align_s2_equator_criterion6"] = _digest(*criterion6)
    # extended walks pin the suspended moves beyond the alignments: the
    # certificate and the fingerprint of its replayed end
    extended = {}
    for name, fc in (
        ("walk_filtered_s2_30", filtered_s2_equator()),
        ("walk_filtered_s3_30", filtered_s3_equatorial_s2()),
    ):
        _, seq = random_extended_walk(fc, 30, seed=0)
        extended[name] = _digest(emit_sequence(seq), state_fingerprint(replay(fc, seq)))
    got = {
        "walk_s3": _output_digest(walk_seq, walked),
        "walk_torus7": _output_digest(torus_seq, torus_end),
        "walk_disk": _output_digest(disk_seq, disk_end),
        "reduce_s3": _output_digest(red_seq, red),
        "walk_s3_300": _output_digest(long_walk_seq, long_walk),
        **reductions,
        "search_s2": _output_digest(s2_seq, replay(s2, s2_seq)),
        "search_s3": _output_digest(s3_seq, replay(s3, s3_seq)),
        "search_torus7": _output_digest(torus_search, replay(torus7(), torus_search)),
        "search_disk": _output_digest(disk_search, replay(disk, disk_search)),
        **long_s3,
        **floored,
        **aligned,
        **extended,
    }
    assert got == OUTPUT_DIGESTS


def _checked_rebuild(k, a, b):
    # the rebuild apply_bistellar made before it read the star index
    added = [b] if len(a) == 1 else [without(a, x).joined(b) for x in a]
    return Complex([f for f in k.facets if not set(a) <= set(f)] + added)


def _rebuild_starts():
    disk = hexagon_disk()
    return {
        "s2": (boundary_of_simplex(3), EMPTY),
        "s3": (boundary_of_simplex(4), EMPTY),
        "torus7": (torus7(), EMPTY),
        "disk": (disk, disk.boundary_complex),
    }


@pytest.mark.parametrize("name", sorted(_rebuild_starts()))
@settings(max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=1, max_value=8),
    floor=st.integers(min_value=0, max_value=16),
)
def test_search_expansion_matches_checked_moves(name, seed, steps, floor):
    # flip_search builds each successor as a facet set, from the move set's
    # star, and tests reverse insertions by label arithmetic on the state's
    # vertices; both must agree with the checked constructions at every
    # state of a walk
    k, avoid = _rebuild_starts()[name]
    _, walk = random_walk(k, steps, seed=seed, avoid=avoid)
    state = k
    removals = 0
    for record in walk:
        for label_floor in (-1, floor):
            ms = MoveSet(state, avoid, label_floor)
            for m in enumerate_moves(state, avoid, label_floor):
                # the successor flip_search builds
                result = state.facets.difference(ms.star(m.a)).union(
                    _inserted_facets(m.a, m.b)
                )
                assert result == _checked_rebuild(state, m.a, m.b).facets
                if m.a.dim == 0:
                    removals += 1
                    vertices = set().union(*state.facets)
                    assert _fresh_without(vertices, m.a[0], label_floor) == (
                        fresh_vertex(Complex(result), label_floor)
                    )
        state = apply_bistellar(state, record.move)
    if name in ("s2", "s3") and len(walk) > 1:
        # the first move on a minimal sphere inserts a removable vertex
        assert removals


@pytest.mark.parametrize(
    "start",
    [bipyramid, torus7, rp2_6] + [partial(sphere_boundary, n) for n in (2, 3, 4)],
    ids=["bipyramid", "torus7", "rp2_6", "s2", "s3", "s4"],
)
@settings(max_examples=5)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_search_key_is_the_canonical_facet_text(start, seed):
    # flip_search orders its frontiers by this key, joined from each facet's
    # cached text; it must equal the text it stands for, so that the order,
    # and every certificate, stay as canonical_facet_text makes them
    k = start()
    key = _FacetTexts().key
    end, walk = random_walk(k, 12, seed=seed)
    state = k
    for record in walk:
        assert key(state.facets) == canonical_facet_text(state)
        state = apply_bistellar(state, record.move)
    assert key(end.facets) == canonical_facet_text(end)


def test_search_certificates_repeat_within_a_process():
    s3 = boundary_of_simplex(4)
    s3_end, _ = random_walk(s3, 4, seed=3)
    disk = hexagon_disk()
    rim = disk.boundary_complex
    disk_end, _ = random_walk(disk, 4, seed=20, avoid=rim)
    fc = filtered_s2_equator()
    fc_end, _ = random_extended_walk(fc, 2, seed=3)
    runs = [
        (
            emit_sequence(flip_search(s3, s3_end)),
            emit_sequence(flip_search(disk, disk_end, avoid=rim)),
            emit_sequence(stratified_align(fc, fc_end)),
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert all(json.loads(text)["moves"] for text in runs[0])
