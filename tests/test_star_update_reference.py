"""The star update of a move against the per-facet update it replaced,
which listed every face of every removed and inserted facet and merged the
duplicates."""

from itertools import product

import pytest

from plmoves import (
    EMPTY,
    apply_bistellar,
    apply_extended_bistellar,
    boundary_of_simplex,
    join,
    random_extended_walk,
    random_walk,
    simplex_boundary,
    simplex_complex,
)
from plmoves.demos import filtered_s2_equator, filtered_s3_equatorial_s2, rp2_6, torus7
from plmoves.moves import MoveSet, _inserted_facets, _move_stars
from support import hexagon_disk, pair_complex_through, subsimplices


def _replace_in_stars(star, gone, inserted):
    """Update the star index ``star`` (face -> tuple of facets) in place for
    the facets ``gone`` replaced by ``inserted``: drop the gone facets from
    the stars of their faces, deleting a face whose star empties, and
    append the inserted facets.

    Returns a dict from each face of a gone or inserted facet to the
    inserted facets holding it, then the faces that vanished and those that
    appeared.  A star keeps its order, with the inserted facets after it.
    """
    changed = {}
    for facet in inserted:
        for s in subsimplices(facet):
            changed.setdefault(s, []).append(facet)
    for facet in gone:
        for s in subsimplices(facet):
            changed.setdefault(s, [])
    gone = set(gone)
    vanished = []
    appeared = []
    for s, fs in changed.items():
        old = star.get(s)
        if old is None:
            star[s] = tuple(fs)
            appeared.append(s)
            continue
        kept = [g for g in old if g not in gone]
        kept.extend(fs)
        if kept:
            star[s] = tuple(kept)
        else:
            del star[s]
            vanished.append(s)
    return changed, vanished, appeared


def _as_sets(star):
    return {s: set(fs) for s, fs in star.items()}


def _plain_walks():
    disk = hexagon_disk()
    for dim in (2, 3, 4, 5):
        yield boundary_of_simplex(dim + 1), EMPTY, -1, 40
    yield torus7(), EMPTY, -1, 40
    yield rp2_6(), EMPTY, -1, 40
    yield disk, disk.boundary_complex, -1, 30
    yield boundary_of_simplex(4), EMPTY, 30, 40


@pytest.mark.parametrize(
    "start, avoid, floor, steps",
    list(_plain_walks()),
    ids=["s2", "s3", "s4", "s5", "torus7", "rp2_6", "disk", "s3_floor30"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_a_move_updates_the_stars_as_the_per_facet_update_does(
    start, avoid, floor, steps, seed
):
    _, walk = random_walk(start, steps, seed=seed, avoid=avoid, label_floor=floor)
    assert len(walk) == steps
    want = dict(start._star_index)
    got = dict(start._star_index)
    ms = MoveSet(start, avoid, floor)
    state = start
    for record in walk:
        a, b = record.move.a, record.move.b
        reference = _replace_in_stars(want, want[a], _inserted_facets(a, b))
        kept, vanished, appeared = _move_stars(got, got[a], a, b)
        # the same faces, with the same stars in the same order: the kept
        # facets, then the inserted ones
        assert got == want
        assert sorted(kept) == sorted(set(reference[0]) - set(reference[1]) - set(reference[2]))
        assert sorted(vanished) == sorted(reference[1])
        assert sorted(appeared) == sorted(reference[2])
        # and the callers: the move set, and a checked move, whose stars
        # are sorted
        ms.apply(a, b)
        assert ms._star == want
        state = apply_bistellar(state, record.move)
        assert _as_sets(state._star_index) == _as_sets(want)


# seeds whose walks suspend every inner move of the lower stratum: a
# vertex removal, a subdivision and, on the 2-sphere, a flip (|a| = 1, 2, 3)
@pytest.mark.parametrize(
    "start, seeds, sizes",
    [(filtered_s2_equator, (0, 6), {1, 2}), (filtered_s3_equatorial_s2, (1, 15), {1, 2, 3})],
    ids=["s2_equator", "s3_equatorial_s2"],
)
def test_an_extended_move_updates_every_stratum_as_the_per_facet_update_does(
    start, seeds, sizes
):
    walks = [random_extended_walk(start(), 20, seed=seed)[1] for seed in seeds]
    suspended = {
        len(r.move.inner.a) for walk in walks for r in walk if r.move.stratum < start().n
    }
    assert suspended == sizes
    for walk in walks:
        _assert_extended_walk(start(), walk)


def _assert_extended_walk(fc, walk):
    assert len(walk) == 20
    for record in walk:
        move = record.move
        a, b = move.inner.a, move.inner.b
        after = apply_extended_bistellar(fc, move)
        for level in range(move.stratum, fc.n + 1):
            stratum = fc.strata[level]
            body = join(
                join(simplex_boundary(a), simplex_complex(b)),
                pair_complex_through(move.suspension, level),
            )
            want = dict(stratum._star_index)
            reference = _replace_in_stars(want, want[a], body.facets)
            got = dict(stratum._star_index)
            gone = got[a]
            kept, vanished, appeared = [], [], []
            for p in product(*move.suspension.apexes[: level - move.stratum]):
                k, v, n = _move_stars(got, gone, a, b, p)
                kept += k
                vanished += v
                appeared += n
            assert _as_sets(got) == _as_sets(want)
            # a face that appeared under one apex facet keeps its star under
            # the next one
            assert set(kept) - set(appeared) == (
                set(reference[0]) - set(reference[1]) - set(reference[2])
            )
            assert sorted(vanished) == sorted(reference[1])
            assert sorted(appeared) == sorted(reference[2])
            assert _as_sets(after.strata[level]._star_index) == _as_sets(want)
        fc = after
