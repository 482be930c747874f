"""The greedy reduction and the move set's kept order against the
sort-every-step loop they replaced, which sorted every move and listed the
change of the simplex count of each at every step."""

import random

import pytest

from plmoves import Complex, boundary_of_simplex, f_vector, join, random_walk
from plmoves.complexes import Simplex
from plmoves.demos import torus7
from plmoves.homology import minimal_sphere_f_vector
from plmoves.moves import BistellarMove, MoveSet, greedy_reduction


def _sorted_moves(ms):
    """The moves (a, b) of ms, sorted from its move dict at the call."""
    fresh = Simplex([max(ms._top, ms._floor) + 1])
    return [(a, fresh if b is None else b) for a, b in sorted(ms._moves.items())]


def _reference_reduction(ms, move_budget=600, seed=0):
    """greedy_reduction as a loop that sorts every move and lists the delta
    of each at every step."""
    minimal = minimal_sphere_f_vector(ms._size - 1)
    rng = random.Random(seed)
    applied = []
    high = sum(ms.f_vector)
    sideways_left = 8 * ms.f_vector[0] + 16
    while len(applied) < move_budget:
        if ms.f_vector == minimal:
            break
        moves = _sorted_moves(ms)
        if not moves:
            break
        deltas = [BistellarMove(a, b).fsum_delta() for a, b in moves]
        best = min(deltas)
        if best < 0:
            a, b = moves[deltas.index(best)]  # the least a among the best
        else:
            if sideways_left <= 0:
                break
            step = 0
            if 0 not in deltas:
                allowance = high + 2 - sum(ms.f_vector)
                step = min((d for d in deltas if 0 < d <= allowance), default=None)
                if step is None:
                    break
            a, b = rng.choice([m for m, d in zip(moves, deltas) if d == step])
            sideways_left -= 1
        ms.apply(a, b)
        applied.append((a, b))
        high = max(high, sum(ms.f_vector))
    return applied


def _assert_ordered(ms):
    # the kept order is the sorted move dict, split by face size
    order = sorted(ms._moves)
    assert ms.faces() == order
    assert [(a, ms.move_at(a)[1]) for a in order] == ms.moves() == _sorted_moves(ms)
    for size in range(1, ms._size + 1):
        assert ms.faces(size) == [a for a in order if len(a) == size]


def _cross_polytope_boundary(n):
    """The boundary of the n-dimensional cross-polytope, on the antipodal
    pairs (1, 2), (3, 4), ...: a sphere with no downhill move for n >= 3."""
    facets = [[]]
    for i in range(n):
        facets = [f + [v] for f in facets for v in (2 * i + 1, 2 * i + 2)]
    return Complex(facets)


def _starts():
    # walked spheres of dimension 2 to 5 (S3 after 100 steps at seed 9
    # climbs within its allowance, and the walked S2 take zero-delta
    # sideways steps), the octahedron, whose first step is sideways, and the
    # 3-sphere of the cross-polytope, whose first step climbs by 4 and so is
    # refused: the allowance is 2 above the high-water mark
    walks = [(2, 20, range(4)), (3, 40, range(4)), (3, 100, [9])]
    walks += [(4, 30, range(3)), (5, 15, range(2))]
    for dim, steps, seeds in walks:
        for seed in seeds:
            yield random_walk(boundary_of_simplex(dim + 1), steps, seed=seed)[0], seed
    yield _cross_polytope_boundary(3), 0
    yield _cross_polytope_boundary(4), 0


def test_greedy_reduction_takes_the_moves_of_the_sorting_loop():
    deltas = set()
    for start, seed in _starts():
        for budget in (600, 7):
            for reduction_seed in (0, seed + 1):
                got = greedy_reduction(MoveSet(start), budget, reduction_seed)
                ms = MoveSet(start)
                want = _reference_reduction(ms, budget, reduction_seed)
                assert got == want, (sorted(start.facets), budget)
                deltas.update(BistellarMove(a, b).fsum_delta() for a, b in want)
                _assert_ordered(ms)
    # every kind of step ran: downhill, sideways and uphill
    assert min(deltas) < 0 and 0 in deltas and max(deltas) > 0
    # and the allowance decides on the cross-polytope
    assert greedy_reduction(MoveSet(_cross_polytope_boundary(4))) == []


def test_the_stall_rule_ends_a_reduction_with_no_budget():
    # the sphere verdict runs the reduction without a move budget; the
    # suspended torus is no sphere, and a walk of it reduces past reduce's
    # 600 moves to an 8-vertex state with no downhill move, then stops once
    # its 8 f_0 + 16 sideways or uphill moves are spent
    suspended = join(torus7(), Complex([(100,), (101,)]))
    walked, _ = random_walk(suspended, 60, seed=2)
    ms = MoveSet(walked)
    applied = greedy_reduction(ms)
    assert len(applied) > 600
    assert applied[:600] == greedy_reduction(MoveSet(walked), 600)
    uphill = sum(BistellarMove(a, b).fsum_delta() >= 0 for a, b in applied)
    assert uphill == 8 * len(walked.vertices) + 16
    assert ms.f_vector == (8, 28, 44, 22)


def test_a_move_set_with_no_move_ends_the_reduction():
    walked, _ = random_walk(boundary_of_simplex(4), 20, seed=1)
    ms = MoveSet(walked, avoid=walked)
    assert not ms.faces()
    assert greedy_reduction(ms) == []
    assert ms.f_vector == f_vector(walked) != minimal_sphere_f_vector(3)


@pytest.mark.parametrize(
    "start, steps", [(boundary_of_simplex(4), 300), (boundary_of_simplex(3), 100)]
)
def test_the_kept_order_is_the_sorted_move_dict_at_every_step(start, steps):
    rng = random.Random(1)
    ms = MoveSet(start)
    _assert_ordered(ms)
    for i in range(steps):
        a, b = rng.choice(ms.moves())
        ms.apply(a, b)
        _assert_ordered(ms)
        if i % 10 == 0:
            # a copy keeps its own order
            copy = ms.copy()
            copy.apply(*copy.moves()[0])
            _assert_ordered(copy)
            _assert_ordered(ms)
