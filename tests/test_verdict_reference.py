"""The one-path sphere-or-ball verdict against the separate exact
classifiers of dimensions 0 to 2 kept in ``support``."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmoves import (
    Complex,
    Verdict,
    boundary_of_simplex,
    closure,
    f_vector,
    link,
    random_walk,
    sphere_or_ball_verdict,
)
from plmoves.demos import bipyramid, rp2_6, torus7
from support import reference_sphere_or_ball_verdict, reference_star_index


def assert_agrees(k):
    for d in range(-1, 3):
        assert sphere_or_ball_verdict(k, d) == reference_sphere_or_ball_verdict(k, d), (
            sorted(k.facets),
            d,
        )


@st.composite
def graphs(draw):
    """One or two circles or arcs on drawn labels, some crossed or joined by
    extra edges."""
    labels = draw(st.permutations(range(1, 11)))
    edges, used = set(), 0
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(2, 5))
        run = labels[used : used + n]
        used += n
        ends = run[1:] + run[:1] if n > 2 and draw(st.booleans()) else run[1:]
        edges |= {tuple(sorted(e)) for e in zip(run, ends)}
    extra = st.tuples(st.sampled_from(labels[:used]), st.sampled_from(labels[:used]))
    edges |= {tuple(sorted(e)) for e in draw(st.lists(extra, max_size=2)) if e[0] != e[1]}
    return Complex(sorted(edges))


SURFACES = {"S2": boundary_of_simplex(3), "bipyramid": bipyramid(), "torus7": torus7(), "rp2_6": rp2_6()}


@st.composite
def surface_pieces(draw):
    """A walked closed surface, a patch of it grown across edges (a disk, an
    annulus, a Moebius band or a pinched surface), or any set of its
    triangles."""
    start = SURFACES[draw(st.sampled_from(sorted(SURFACES)))]
    k = random_walk(start, draw(st.integers(0, 12)), seed=draw(st.integers(0, 10**6)))[0]
    facets = sorted(k.facets)
    how = draw(st.sampled_from(["whole", "patch", "subset"]))
    if how == "whole":
        return k
    if how == "subset":
        return Complex(draw(st.sets(st.sampled_from(facets), min_size=1)))
    patch = [draw(st.sampled_from(facets))]
    for _ in range(draw(st.integers(0, len(facets)))):
        rim = [f for f in facets if f not in patch and any(len(set(f) & set(g)) == 2 for g in patch)]
        if not rim:
            break
        patch.append(draw(st.sampled_from(rim)))
    return Complex(patch)


# pure and mixed complexes of dimension at most 2
families = st.lists(st.sets(st.integers(1, 7), min_size=1, max_size=3), min_size=1, max_size=10)


@settings(max_examples=300)
@given(st.one_of(graphs(), families.map(closure), surface_pieces()))
def test_the_verdict_equals_the_reference_up_to_dimension_two(k):
    assert_agrees(k)
    counts = Counter(map(len, reference_star_index(k)))
    assert f_vector(k) == tuple(counts[n] for n in range(1, k.dim + 2))


@settings(max_examples=10)
@given(st.sampled_from([4, 5]), st.integers(0, 30), st.integers(0, 10**6))
def test_links_of_walked_spheres_equal_the_reference(n, steps, seed):
    # the 2- and 1-spheres reached as vertex links of vertex links of a
    # walked S3 or S4, and each less the open star of its least vertex
    level = [random_walk(boundary_of_simplex(n), steps, seed=seed)[0]]
    spheres = {}
    while level[0].dim > 1:
        level = {lk.facets: lk for c in level for lk in (link((v,), c) for v in sorted(c.vertices))}
        spheres.update((f, lk) for f, lk in level.items() if lk.dim <= 2)
        level = list(level.values())
    balls = [Complex([f for f in s.facets if min(s.vertices) not in f]) for s in spheres.values()]
    for k in list(spheres.values()) + balls:
        assert_agrees(k)
    assert all(sphere_or_ball_verdict(s, s.dim) == (Verdict.YES, "sphere") for s in spheres.values())
    assert all(sphere_or_ball_verdict(b, b.dim) == (Verdict.YES, "ball") for b in balls)


def _octahedron(equator):
    rim = list(zip(equator, equator[1:] + equator[:1]))
    return [(pole, a, b) for pole in (1, 2) for a, b in rim]


MOEBIUS = [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)]
ANNULUS = [(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6)]
SPHERE_AND_TORUS = list(boundary_of_simplex(3).facets) + [
    tuple(v + 10 for v in f) for f in torus7().facets
]


@pytest.mark.parametrize(
    "facets",
    [
        # no connectivity
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
        SPHERE_AND_TORUS,
        # a vertex in three edges
        [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)],
        [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)],
        # a ridge in three facets
        [(1, 2, 3), (1, 2, 4), (1, 2, 5)],
        # a vertex link that is neither a circle nor an arc
        _octahedron([3, 4, 5, 6]) + _octahedron([7, 8, 9, 10]),
        [(1, 2, 3), (1, 4, 5)],
        # chi: a torus, a Moebius band, an annulus
        list(torus7().facets),
        MOEBIUS,
        ANNULUS,
    ],
    ids=[
        "two-circles",
        "sphere-and-torus",
        "theta",
        "figure-eight",
        "three-triangles-on-an-edge",
        "octahedra-glued-at-both-poles",
        "triangles-meeting-in-a-vertex",
        "torus",
        "moebius-band",
        "annulus",
    ],
)
def test_one_condition_rejects(facets):
    k = Complex(facets)
    assert_agrees(k)
    assert sphere_or_ball_verdict(k, k.dim) == (Verdict.NO, None)
