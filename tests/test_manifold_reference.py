"""The manifold check, which asks a complex of dimension four and up for its
own verdict first, against the link-by-link check kept in ``support``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from plmoves import (
    Complex,
    ManifoldReport,
    Verdict,
    boundary_of_simplex,
    check_combinatorial_manifold,
    cone,
    fresh_vertex,
    join,
    random_walk,
    star,
    suspension,
)
from plmoves.demos import rp2_6, torus7
from plmoves.manifold import _homology_ok
from support import checked_with_builds, disjoint_union, reference_manifold_report, shifted


def walked(draw, n, most):
    """A walk of the n-sphere of at most ``most`` steps."""
    steps, seed = draw(st.integers(0, most)), draw(st.integers(0, 10**6))
    return random_walk(boundary_of_simplex(n + 1), steps, seed=seed)[0]


@st.composite
def drawn_complexes(draw):
    """One of: a walked 4- or 5-sphere; the closed star of one of its
    vertices, or the cone over a walked 3- or 4-sphere (balls); a walked
    closed 4-dimensional pseudomanifold that is not a sphere (suspensions
    and joins of the torus and the projective plane, disjoint unions); or
    the cone over a walked suspended surface, a 4-complex with the homology
    of a point whose boundary is no sphere."""
    surface = draw(st.sampled_from([torus7, rp2_6]))()
    twice_suspended = suspension(suspension(surface, 200, 201), 202, 203)
    kind = draw(
        st.sampled_from(
            [
                "sphere",
                "star",
                "cone over a sphere",
                "twice suspended",
                "join with a circle",
                "two spheres",
                "sphere and twice suspended",
                "cone over suspended",
            ]
        )
    )
    if kind == "sphere":
        return walked(draw, draw(st.sampled_from([4, 5])), 30)
    if kind == "star":
        k = walked(draw, draw(st.sampled_from([4, 5])), 40)
        return star((draw(st.sampled_from(sorted(k.vertices))),), k)
    if kind == "cone over a sphere":
        k = walked(draw, draw(st.sampled_from([3, 4])), 40)
        return cone(k, fresh_vertex(k))
    if kind == "twice suspended":
        k = twice_suspended
    elif kind == "join with a circle":
        k = join(surface, shifted(walked(draw, 1, 4), 100))
    elif kind == "two spheres":
        k = disjoint_union(walked(draw, 4, 10), walked(draw, 4, 10))
    elif kind == "sphere and twice suspended":
        k = disjoint_union(walked(draw, 4, 10), twice_suspended)
    else:
        k = suspension(surface, 200, 201)
    k = random_walk(k, draw(st.integers(0, 6)), seed=draw(st.integers(0, 10**6)))[0]
    return cone(k, fresh_vertex(k)) if kind == "cone over suspended" else k


def assert_only_unknown_turns_yes(got, want):
    if got.verdict is Verdict.YES and want.verdict is Verdict.UNKNOWN:
        assert got == ManifoldReport(want.pure, True, Verdict.YES, want.boundary)
        assert str(got) == "combinatorial manifold: yes"
        return
    assert (str(got), got.verdict, got.offenders, got.boundary, got.pseudomanifold, got.pure) == (
        str(want),
        want.verdict,
        want.offenders,
        want.boundary,
        want.pseudomanifold,
        want.pure,
    )


@settings(max_examples=50)
@given(drawn_complexes())
def test_the_check_equals_the_link_by_link_reference(k):
    assert_only_unknown_turns_yes(check_combinatorial_manifold(k), reference_manifold_report(k))


def test_walked_spheres_build_one_move_set_in_dimension_four_and_none_in_three(monkeypatch):
    for seed in range(3):
        s4 = random_walk(boundary_of_simplex(5), 40, seed=seed)[0]
        report, built = checked_with_builds(s4, monkeypatch)
        assert report.verdict is Verdict.YES and built == [s4], seed
        # the links of a 3-sphere are surfaces, decided with no reduction
        s3 = random_walk(boundary_of_simplex(4), 40, seed=seed)[0]
        report, built = checked_with_builds(s3, monkeypatch)
        assert report.verdict is Verdict.YES and built == [], seed


def test_a_closed_non_sphere_pays_no_reduction_of_the_whole_complex(monkeypatch):
    for surface in (torus7(), rp2_6()):
        closed = [
            suspension(suspension(surface, 200, 201), 202, 203),
            join(surface, shifted(boundary_of_simplex(2), 100)),
            disjoint_union(boundary_of_simplex(5), boundary_of_simplex(5)),
        ]
        for k in closed:
            assert not k.boundary_complex and not _homology_ok(k, closed=True)
            report, built = checked_with_builds(k, monkeypatch)
            assert k not in built
            assert report == reference_manifold_report(k)
