"""Combinatorial manifold checking and the sphere-or-ball verdict."""

from plmoves import (
    Complex,
    Verdict,
    boundary_of_simplex,
    check_combinatorial_manifold,
    random_walk,
    sphere_or_ball_verdict,
    star,
)
from plmoves.demos import bipyramid, rp2_6, torus7
from support import hexagon_disk


def test_closed_spheres_pass():
    for n in range(2, 6):
        r = check_combinatorial_manifold(boundary_of_simplex(n))
        assert r.verdict is Verdict.YES
        assert r.pure and r.pseudomanifold
        assert not r.boundary
        assert not r.offenders


def test_closed_surfaces_pass():
    for k in (bipyramid(), torus7(), rp2_6()):
        r = check_combinatorial_manifold(k)
        assert r.verdict is Verdict.YES
        assert not r.boundary


def test_disk_reports_its_boundary():
    r = check_combinatorial_manifold(hexagon_disk())
    assert r.verdict is Verdict.YES
    assert sorted(r.boundary.facets) == [
        (1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6),
    ]


def test_pinched_vertex_is_rejected():
    pinch = Complex([(1, 2, 3), (1, 4, 5)])
    r = check_combinatorial_manifold(pinch)
    assert r.verdict is Verdict.NO
    assert r.pseudomanifold  # every ridge is fine, only the vertex link fails
    offender_simplices = {s for s, _ in r.offenders}
    assert (1,) in offender_simplices


def test_triple_ridge_is_rejected():
    book = Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
    r = check_combinatorial_manifold(book)
    assert r.verdict is Verdict.NO
    assert not r.pseudomanifold
    assert any("3 facets" in why for _, why in r.offenders)


def test_mixed_dimension_is_rejected():
    r = check_combinatorial_manifold(Complex([(1, 2, 3), (3, 4)]))
    assert r.verdict is Verdict.NO
    assert not r.pure
    assert "mixed" in str(r)


def test_sphere_or_ball_verdict():
    circle = Complex([(1, 2), (2, 3), (1, 3)])
    assert sphere_or_ball_verdict(circle, 1) == (Verdict.YES, "sphere")
    arc = Complex([(1, 2), (2, 3)])
    assert sphere_or_ball_verdict(arc, 1) == (Verdict.YES, "ball")
    assert sphere_or_ball_verdict(boundary_of_simplex(4), 3) == (Verdict.YES, "sphere")
    assert sphere_or_ball_verdict(Complex([(1, 2, 3, 4)]), 3) == (Verdict.YES, "ball")
    assert sphere_or_ball_verdict(hexagon_disk(), 2) == (Verdict.YES, "ball")
    # wrong dimension and wrong topology both say no
    assert sphere_or_ball_verdict(Complex([(1, 2)]), 2)[0] is Verdict.NO
    assert sphere_or_ball_verdict(torus7(), 2)[0] is Verdict.NO
    assert sphere_or_ball_verdict(rp2_6(), 2)[0] is Verdict.NO


def test_report_renders_offenders():
    r = check_combinatorial_manifold(Complex([(1, 2, 3), (1, 4, 5)]))
    text = str(r)
    assert "combinatorial manifold: no" in text
    assert "offenders" in text


# Reports on walked spheres, recorded before the manifold reducer followed
# one incremental move set.  An "unknown" is a vertex link whose greedy
# reduction stalls; it must stall on the same links.
WALKED_REPORTS = {
    (3, 30, 0): "combinatorial manifold: yes",
    (3, 30, 1): "combinatorial manifold: yes",
    (3, 60, 2): "combinatorial manifold: yes",
    (4, 30, 0): "combinatorial manifold: unknown; offenders: [7] (vertex link verdict unknown)",
    (4, 30, 1): "combinatorial manifold: yes",
    (4, 60, 1): "combinatorial manifold: unknown; offenders: "
    "[2] (vertex link verdict unknown), [11] (vertex link verdict unknown)",
    (4, 60, 3): "combinatorial manifold: yes",
}


def test_walked_sphere_reports_are_unchanged():
    for (n, steps, seed), want in WALKED_REPORTS.items():
        walked, _ = random_walk(boundary_of_simplex(n + 1), steps, seed=seed)
        assert str(check_combinatorial_manifold(walked)) == want, (n, steps, seed)
        if n == 3:
            # the closed star of a vertex is a 3-ball, proved by coning off
            # its boundary and reducing the resulting sphere
            ball = star((max(walked.vertices),), walked)
            assert sphere_or_ball_verdict(ball, 3) == (Verdict.YES, "ball")
