"""The move rules read from the star index, against their reading from link
complexes.

A plain move chi_(a, b) is available when lk(a) = boundary(b), and an
extended one when lk(a; M_l) = boundary(b) * P_l at every level l.  The
package reads both conditions from star indexes; the references here build
the link complex and the expected join, as the definitions say, and must
give the same answers and the same messages on walked complexes, a complex
with boundary, non-pure complexes, walked filtered demos, perturbed apexes
and random inner moves.
"""

import random

from plmoves import (
    EMPTY,
    BistellarMove,
    Complex,
    ExtendedMove,
    MoveError,
    Simplex,
    SuspensionData,
    applicability_obstruction,
    bistellar_applicable,
    boundary_of_simplex,
    closure,
    enumerate_moves,
    extended_applicable,
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    fresh_vertex,
    join,
    link,
    random_extended_walk,
    random_walk,
    simplex_boundary,
    suspension_from_links,
)
from plmoves.demos import rp2_6, torus7
from plmoves.moves import MoveSet
from support import disk_with_interior_triangle, pair_complex_through


def link_obstruction(k, a):
    """``applicability_obstruction`` read from the link complex of a."""
    if a in k.boundary_complex:
        return "simplex %s lies in the boundary" % (a,)
    if a.dim == k.dim:
        return None
    lk = link(a, k)
    m = k.dim - a.dim
    b = Simplex(sorted(lk.vertices)) if lk else None
    if b is None or len(b) != m + 1 or lk != simplex_boundary(b):
        return "link of %s is not the boundary of a %d-simplex" % (a, m)
    if b in k:
        return "candidate co-simplex %s already present" % (list(b),)
    return None


def link_suspension(fc, a, b, k):
    """``suspension_from_links`` read from the link complexes of a."""
    pairs = []
    seen = set() if b is None else set(b)
    for level in range(k + 1, fc.n + 1):
        lower = fc.strata[level - 1].vertices
        extra = sorted(
            v for v in link(a, fc.strata[level]).vertices - seen if v not in lower
        )
        if len(extra) != 2:
            return None
        pairs.append(tuple(extra))
        seen.update(extra)
    return SuspensionData(k, tuple(pairs))


def link_extended_obstruction(fc, move):
    """``extended_applicable`` with each level read as a link complex and
    compared with the join boundary(b) * P_l."""
    k, inner, apexes = move.stratum, move.inner, move.suspension.apexes
    if not 1 <= k <= fc.n:
        return "stratum index %d outside 1..%d" % (k, fc.n)
    if len(apexes) != fc.n - k:
        return "suspension must carry %d levels, has %d" % (fc.n - k, len(apexes))
    mk, a = fc.strata[k], inner.a
    if a not in mk:
        return "%s is not a simplex of stratum %d" % (a, k)
    if a in fc.strata[k - 1]:
        return "%s is not in the open stratum %d" % (a, k)
    if a in mk.boundary_complex:
        return "%s lies in the boundary of stratum %d" % (a, k)
    fresh = inner.b.dim == 0 and inner.b[0] not in fc.complex.vertices
    if fresh and a.dim != k:
        return "fresh-vertex move needs a %d-simplex, got %s" % (k, a)
    if not fresh and inner.n != k:
        return "inner move dimensions do not sum to %d" % k
    if not fresh and inner.b in fc.complex:
        return "co-simplex %s already present" % (inner.b,)
    seen = set()
    for level, pair in zip(range(k + 1, fc.n + 1), apexes):
        for v in pair:
            if v in fc.strata[level - 1].vertices or v not in fc.strata[level].vertices:
                return "apex %d is not in the open stratum %d" % (v, level)
            if v in seen:
                return "apex %d repeated" % v
            seen.add(v)
    for level in range(k, fc.n + 1):
        base = EMPTY if fresh else simplex_boundary(inner.b)
        if link(a, fc.strata[level]) != join(base, pair_complex_through(move.suspension, level)):
            return "link of %s in stratum %d is not the suspended boundary" % (a, level)
    return None


def plain_complexes():
    yield random_walk(boundary_of_simplex(4), 120, seed=1)[0]
    yield random_walk(torus7(), 30, seed=2)[0]
    yield random_walk(rp2_6(), 30, seed=3)[0]
    yield disk_with_interior_triangle()
    # non-pure: a vertex star of four triangles beside a tetrahedron, and a
    # triangle whose edges see a dangling edge
    yield closure([(0, 1, 2), (0, 3, 4), (0, 1, 3), (0, 2, 4), (5, 6, 7, 8)])
    yield Complex([(1, 2, 3), (2, 3, 4), (1, 5), (4, 6)])


def test_plain_rule_reads_the_link_of_every_face():
    checked = 0
    for k in plain_complexes():
        for a in sorted(k.simplices):
            want = link_obstruction(k, a)
            assert applicability_obstruction(k, a) == want, (sorted(k.facets), a)
            move = bistellar_applicable(k, a)
            assert (move is None) == (want is not None), a
            if move is not None and a.dim < k.dim:
                assert simplex_boundary(move.b) == link(a, k)
            checked += 1
        if k.is_pure and not k.boundary_complex:
            by_links = [a for a in sorted(k.simplices) if link_obstruction(k, a) is None]
            assert [a for a, _ in MoveSet(k).moves()] == by_links
    assert checked > 1000


def extended_candidates(fc, rng):
    """Inner moves of each stratum, with their forced, perturbed and swapped
    suspensions, and random inner moves with random apexes."""
    for k in range(1, fc.n + 1):
        mk = fc.strata[k]
        if not mk:
            continue
        avoid = closure(list(fc.strata[k - 1].facets) + list(mk.boundary_complex.facets))
        try:
            inners = enumerate_moves(mk, avoid, fresh_vertex(fc.complex) - 1)
        except MoveError:
            inners = []
        faces = sorted(s for s in mk.simplices if s not in fc.strata[k - 1])
        vertices = sorted(mk.vertices) + [fresh_vertex(fc.complex)]
        for _ in range(len(inners)):
            a = rng.choice(faces)
            rest = [v for v in vertices if v not in a]
            b = rng.sample(rest, min(len(rest), k + 2 - len(a)))
            inners.append(BistellarMove(a, b))
        for inner in inners:
            fresh = inner.b.dim == 0 and inner.b[0] not in fc.complex.vertices
            forced = link_suspension(fc, inner.a, None if fresh else inner.b, k)
            assert suspension_from_links(fc, inner.a, None if fresh else inner.b, k) == forced
            levels = [
                [v for v in fc.strata[level].vertices if v not in fc.strata[level - 1].vertices]
                for level in range(k + 1, fc.n + 1)
            ]
            guessed = tuple(tuple(sorted(rng.sample(vs, 2))) for vs in levels if len(vs) > 1)
            options = [SuspensionData(k, guessed)]
            if forced is not None:
                options.append(forced)
                options.append(SuspensionData(k, tuple(p[::-1] for p in forced.apexes)))
            for susp in options:
                yield ExtendedMove(k, inner, susp)


def test_suspended_rule_reads_the_links_of_every_level():
    rng = random.Random(0)
    states = []
    for demo, steps in ((filtered_s2_equator(), 12), (filtered_s3_equatorial_s2(), 6)):
        states.append(demo)
        for seed in range(3):
            states.append(random_extended_walk(demo, steps, seed=seed)[0])
    checked = available = 0
    for fc in states:
        for move in extended_candidates(fc, rng):
            want = link_extended_obstruction(fc, move)
            assert extended_applicable(fc, move) == want, move
            checked += 1
            available += want is None
    assert checked > 1000 and available > 100, (checked, available)
