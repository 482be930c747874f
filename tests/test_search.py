"""Flip-graph search, recorded walks, replay, reduction, alignment."""

import hashlib

import pytest

from plmoves import (
    BistellarMove,
    Complex,
    MoveRecord,
    MoveSequence,
    SearchBudget,
    SearchError,
    apply_bistellar,
    boundary_of_simplex,
    canonical_facet_text,
    emit_sequence,
    f_vector,
    find_isomorphism,
    flip_search,
    random_extended_walk,
    random_walk,
    reduce,
    replay,
    state_fingerprint,
    stellar_subdivide,
    stratified_align,
)
from plmoves.demos import bipyramid, filtered_s2_equator, torus7
from support import disk_with_interior_triangle, hexagon_disk


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


def test_reduce_comes_back_from_a_walk():
    s2 = boundary_of_simplex(3)
    walked, _ = random_walk(s2, 12, seed=21)
    red, seq = reduce(walked)
    assert f_vector(red) == (4, 6, 4)
    assert replay(walked, seq) == red


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


def test_move_sequence_iterates_records():
    s2 = boundary_of_simplex(3)
    _, seq = random_walk(s2, 3, seed=1)
    kinds = [r.kind for r in seq]
    assert kinds == ["bistellar"] * 3


def _output_digest(seq, end):
    h = hashlib.sha256()
    for part in (emit_sequence(seq), canonical_facet_text(end)):
        h.update(part.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


# Certificates and end complexes of fixed seeds, recorded before simplices
# built inside the package stopped being re-validated; any change to move
# order, labels or tie-breaking shows up here.
OUTPUT_DIGESTS = {
    "walk_s3": "e80149ec1f8a9ad92f09a047a3fbb14ff86726dc9af6007beebbab4d488d8074",
    "walk_torus7": "90beb82bd64bb766878241894576c2733cf2772e228db262a649dda81b6618af",
    "walk_disk": "c064c3d5e14026c428f2c5744128314b0ca54ce442d03506c0b134838894fff5",
    "reduce_s3": "003ba41ee5fb898414c9de7b7bd749aaaad4aa0d36075c13f8e32f33a18ed255",
    "search_s2": "93bb0abe3a7412af0b3ca8f8d54f88b29ba046c5d5c4046da63223fffffe1f04",
    "search_s3": "68853a14804a8baf2abca02ac5800142cecd796cf306094823e036b14bd58b78",
}


def test_walk_reduce_and_search_outputs_are_byte_identical():
    s3 = boundary_of_simplex(4)
    walked, walk_seq = random_walk(s3, 40, seed=11)
    assert len(walk_seq) == 40
    assert replay(s3, walk_seq) == walked
    red, red_seq = reduce(walked)
    assert replay(walked, red_seq) == red
    torus_end, torus_seq = random_walk(torus7(), 30, seed=12)
    disk = hexagon_disk()
    disk_end, disk_seq = random_walk(disk, 30, seed=13, avoid=disk.boundary_complex)
    s2 = boundary_of_simplex(3)
    s2_far, _ = random_walk(s2, 5, seed=14)
    s2_seq = flip_search(s2, s2_far)
    s3_far, _ = random_walk(s3, 4, seed=15)
    s3_seq = flip_search(s3, s3_far)
    got = {
        "walk_s3": _output_digest(walk_seq, walked),
        "walk_torus7": _output_digest(torus_seq, torus_end),
        "walk_disk": _output_digest(disk_seq, disk_end),
        "reduce_s3": _output_digest(red_seq, red),
        "search_s2": _output_digest(s2_seq, replay(s2, s2_seq)),
        "search_s3": _output_digest(s3_seq, replay(s3, s3_seq)),
    }
    assert got == OUTPUT_DIGESTS
