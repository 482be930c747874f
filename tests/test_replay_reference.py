"""Replay of a plain certificate, which checks and applies every move on one
mutable star index, against the chain of checked ``apply_bistellar`` calls
it replaced, which built a complex per step.

Both must end at the same complex, handed the same star index, dimension,
vertices and boundary as a fresh build of it, and must refuse a tampered
certificate with the same ``SearchError`` text.  The tampered steps are the
last ones of their kind, so the mutable index has taken most of the
certificate before it fails.
"""

import pytest

from plmoves import (
    EMPTY,
    BistellarMove,
    Complex,
    MoveError,
    MoveRecord,
    MoveSequence,
    SearchError,
    apply_bistellar,
    boundary_of_simplex,
    random_walk,
    reduce,
    replay,
)
from plmoves.demos import torus7
from support import hexagon_disk


def _chain(start, seq):
    """(end, None) when every record of ``seq`` applies to ``start`` by one
    ``apply_bistellar`` each, else (None, the text replay gives the first
    that fails)."""
    state = start
    for i, record in enumerate(seq.moves):
        try:
            state = apply_bistellar(state, record.move)
        except MoveError as e:
            return None, "illegal step %d (%s): %s" % (i, record, e)
    return state, None


def _replayed(start, seq):
    try:
        return replay(start, seq), None
    except SearchError as e:
        return None, str(e)


def _assert_handed_over(k):
    fresh = Complex(k.facets, _trusted=True)
    for name in ("_star_index", "dim", "vertices", "boundary_complex"):
        assert name in k.__dict__, name
        assert getattr(k, name) == getattr(fresh, name), name


def _starts():
    """name -> (start, avoid, walk steps, whether to reduce the walk)."""
    disk = hexagon_disk()
    # a 2-sphere with a dangling edge at vertex 4; a walk of the sphere that
    # keeps vertex 4 and takes fresh labels above 5 applies to it too
    dangling = Complex(list(boundary_of_simplex(3).facets) + [(4, 5)])
    return {
        "s2": (boundary_of_simplex(3), EMPTY, 30, True),
        "s3": (boundary_of_simplex(4), EMPTY, 60, True),
        "s4": (boundary_of_simplex(5), EMPTY, 40, True),
        "torus7": (torus7(), EMPTY, 40, True),
        "disk": (disk, disk.boundary_complex, 40, False),
        "dangling": (dangling, Complex([(4,)]), 30, False),
    }


def _certificates(name, seed):
    start, avoid, steps, reduces = _starts()[name]
    if name == "dangling":
        sphere = boundary_of_simplex(3)
        _, walk = random_walk(sphere, steps, seed=seed, avoid=avoid, label_floor=5)
        walk = MoveSequence.for_state(start, walk.moves)
    else:
        _, walk = random_walk(start, steps, seed=seed, avoid=avoid)
    out = [(start, walk)]
    if reduces:
        walked = replay(start, walk)
        out.append((walked, reduce(walked, seed=seed)[1]))
    return out


def _tampered(start, seq):
    """(kind, certificate) pairs: ``seq`` with one step changed."""
    records = list(seq.moves)
    states = [start]
    for record in records:
        states.append(apply_bistellar(states[-1], record.move))
    facets = [i for i, r in enumerate(records) if r.move.a in states[i].facets]
    subdivisions = [i for i in facets if len(records[i].move.b) == 1]
    flips = [i for i in range(len(records)) if i not in facets]

    def changed(i, a, b):
        out = records[:i] + [MoveRecord("bistellar", BistellarMove(a, b))] + records[i + 1 :]
        return MoveSequence(seq.start_fingerprint, tuple(out))

    labels = max(max(k.vertices) for k in states) + 1
    if subdivisions:
        i = subdivisions[-1]
        a = records[i].move.a
        used = min(v for v in states[i].vertices if v not in a)
        yield "used label", changed(i, a, (used,))
        # an unused label other than the recorded one: legal, and the rest
        # of the certificate may then name a vertex that is not there
        yield "relabeled", changed(i, a, (labels + 99,))
    if flips:
        i = flips[-1]
        a, b = records[i].move.a, records[i].move.b
        yield "wrong b", changed(i, a, b[1:] + (labels,))
        yield "dimension", changed(i, a, b + (labels,))
    boundary = start.boundary_complex
    if boundary:
        i = len(records) - 1
        edge = min(boundary.simplices_of_dim(1))
        far = [v for v in states[i].vertices if v not in edge][:2]
        yield "boundary face", changed(i, edge, far)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(_starts()))
def test_replay_ends_and_fails_as_the_chain_of_checked_moves_does(name, seed):
    kinds = set()
    for start, seq in _certificates(name, seed):
        assert len(seq)
        end, problem = _replayed(start, seq)
        assert problem is None
        assert (end, problem) == _chain(start, seq)
        _assert_handed_over(end)
        for kind, tampered in _tampered(start, seq):
            kinds.add(kind)
            got = _replayed(start, tampered)
            assert got == _chain(start, tampered), kind
            if kind == "relabeled":
                if got[0] is not None:
                    _assert_handed_over(got[0])
            else:
                assert got[1] is not None, kind
    assert kinds >= {"used label", "relabeled", "wrong b", "dimension"}
    if name == "disk":
        assert "boundary face" in kinds


def test_the_relabeled_step_still_replays_to_an_end_holding_the_new_label():
    # step 2 of this walk subdivides a facet with the fresh label 8; with 99
    # in its place the certificate still replays, and so does the chain
    s3 = boundary_of_simplex(4)
    _, walk = random_walk(s3, 6, seed=3)
    records = list(walk.moves)
    move = records[2].move
    assert move.b == (8,)
    records[2] = MoveRecord("bistellar", BistellarMove(move.a, (99,)))
    tampered = MoveSequence(walk.start_fingerprint, tuple(records))
    end, problem = _replayed(s3, tampered)
    assert problem is None
    assert 99 in end.vertices and 8 not in end.vertices
    assert (end, problem) == _chain(s3, tampered)
    _assert_handed_over(end)


def test_a_failed_replay_leaves_its_start_as_it_was():
    s3 = boundary_of_simplex(4)
    walked, walk = random_walk(s3, 20, seed=5)
    index = dict(s3._star_index)
    records = list(walk.moves)
    records[-1] = MoveRecord("bistellar", BistellarMove((97, 98), (99,)))
    with pytest.raises(SearchError, match=r"^illegal step 19 .*: \(97, 98\) not in complex$"):
        replay(s3, MoveSequence(walk.start_fingerprint, tuple(records)))
    assert s3._star_index == index
    assert replay(s3, walk) == walked
