"""Combinatorial manifold checking and the sphere-or-ball verdict."""

from plmoves import (
    Complex,
    Verdict,
    boundary_of_simplex,
    check_combinatorial_manifold,
    cone,
    f_vector,
    link,
    random_walk,
    reduce,
    sphere_or_ball_verdict,
    star,
    suspension,
)
from plmoves import moves
from plmoves.demos import (
    bipyramid,
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    rp2_6,
    torus7,
)
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


def test_the_sphere_verdict_runs_the_rule_of_reduce():
    # one greedy reducer: a closed vertex link of a walked 4-sphere is a YES
    # exactly when reduce takes it to the boundary of the 4-simplex
    links = 0
    for seed in range(4):
        walked, _ = random_walk(boundary_of_simplex(5), 30, seed=seed)
        for v in sorted(walked.vertices):
            lk = link((v,), walked)
            reached = f_vector(reduce(lk)[0]) == (5, 10, 10, 5)
            yes = sphere_or_ball_verdict(lk, 3)[0] is Verdict.YES
            assert yes == reached, (seed, v)
            links += 1
    assert links == 78


def test_the_boundary_of_a_simplex_needs_no_move_set(monkeypatch):
    # d + 2 facets on d + 2 vertices already are the minimal sphere
    builds = []
    init = moves.MoveSet.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(moves.MoveSet, "__init__", counting)
    for d in range(3, 6):
        sphere = boundary_of_simplex(d)
        assert check_combinatorial_manifold(sphere).verdict is Verdict.YES
        assert sphere_or_ball_verdict(sphere, d - 1) == (Verdict.YES, "sphere")
    assert not builds


# Reports on walked spheres.  An "unknown" would be a vertex link that the
# greedy reduction of ``reduce`` does not take to the boundary of a simplex;
# (4, 30, 0) and (4, 60, 1) were "unknown" while the manifold check ran a
# weaker reducer of its own, and each link it stalled on now reduces.
WALKED_REPORTS = {
    (3, 30, 0): "combinatorial manifold: yes",
    (3, 30, 1): "combinatorial manifold: yes",
    (3, 60, 2): "combinatorial manifold: yes",
    (4, 30, 0): "combinatorial manifold: yes",
    (4, 30, 1): "combinatorial manifold: yes",
    (4, 60, 1): "combinatorial manifold: yes",
    (4, 60, 3): "combinatorial manifold: yes",
}


# Reports recorded before each link got one verdict per check and the ridge
# counts moved to one helper: walks of the shape the verifier sees, the
# filtered demos' strata, and complexes that fail, with every offender.
YES = "combinatorial manifold: yes"
LINK_NO = "vertex link is not a sphere or ball"
LINK_UNKNOWN = "vertex link verdict unknown"
WALKED_SURFACES = {("torus7", 12, s): YES for s in range(4)}
WALKED_SURFACES.update({("rp2_6", 12, s): YES for s in range(4)})
FAILING = {
    "triple ridge": (
        Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)]),
        (((1, 2), "ridge lies in 3 facets"),),
    ),
    "pinched vertex": (Complex([(1, 2, 3), (1, 4, 5)]), (((1,), LINK_NO),)),
    "triple ridge, dimension 3": (
        Complex([(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (2, 3, 4, 7)]),
        (((1, 2, 3), "ridge lies in 3 facets"),),
    ),
    "pinched vertex, dimension 3": (
        Complex([(1, 2, 3, 4), (1, 5, 6, 7)]),
        (((1,), LINK_NO),),
    ),
    "cone over the torus": (cone(torus7(), 20), (((20,), LINK_NO),)),
    "suspended projective plane": (
        suspension(rp2_6(), 20, 21),
        (((20,), LINK_NO), ((21,), LINK_NO)),
    ),
    # the links of 1..7 are 3-spheres whose greedy reduction stalls
    "twice suspended torus": (
        suspension(suspension(torus7(), 20, 21), 22, 23),
        tuple(((v,), LINK_UNKNOWN) for v in range(1, 8))
        + tuple(((v,), LINK_NO) for v in range(20, 24)),
    ),
    # recorded before the closed case tried the reducer first: each link of
    # 20..23 is a suspended projective plane, which the reducer cannot
    # reduce and homology then rejects
    "twice suspended projective plane": (
        suspension(suspension(rp2_6(), 20, 21), 22, 23),
        tuple(((v,), LINK_UNKNOWN) for v in range(1, 7))
        + tuple(((v,), LINK_NO) for v in range(20, 24)),
    ),
    "cone over the suspended torus": (
        cone(suspension(torus7(), 20, 21), 22),
        tuple(((v,), LINK_UNKNOWN) for v in range(1, 8))
        + tuple(((v,), LINK_NO) for v in range(20, 23)),
    ),
}
STAR_VERDICTS = {
    # (n, steps, seed, vertex) -> verdict of the closed star as an n-ball
    # coned off, each of these 4- and 5-dimensional stars is a sphere that
    # reduces, which proves a ball in every dimension
    (4, 10, 3, 1): (Verdict.YES, "ball"),
    (4, 30, 0, 2): (Verdict.YES, "ball"),
    (5, 10, 1, 3): (Verdict.YES, "ball"),
    # coned off, this star is a 3-sphere that reduces (once "unknown")
    (3, 12, 2, 1): (Verdict.YES, "ball"),
    (3, 12, 2, 2): (Verdict.YES, "ball"),
    (3, 12, 2, 3): (Verdict.YES, "ball"),
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
    for seed in range(8):  # the verifier's shape: 10-step walks of S4
        walked, _ = random_walk(boundary_of_simplex(5), 10, seed=seed)
        assert str(check_combinatorial_manifold(walked)) == YES, seed
    starts = {"torus7": torus7, "rp2_6": rp2_6}
    for (name, steps, seed), want in WALKED_SURFACES.items():
        walked, _ = random_walk(starts[name](), steps, seed=seed)
        assert str(check_combinatorial_manifold(walked)) == want, (name, seed)
    for fc in (filtered_s2_equator(), filtered_s3_equatorial_s2()):
        for stratum in list(fc.strata[: fc.n]) + [fc.complex]:
            assert str(check_combinatorial_manifold(stratum)) == YES
    for name, (k, offenders) in FAILING.items():
        r = check_combinatorial_manifold(k)
        assert r.verdict is Verdict.NO, name
        assert r.offenders == offenders, name
    for (n, steps, seed, v), want in STAR_VERDICTS.items():
        walked, _ = random_walk(boundary_of_simplex(n + 1), steps, seed=seed)
        assert sphere_or_ball_verdict(star((v,), walked), n) == want, (n, seed, v)
    for seed in range(4):  # cones over walked 3-spheres are 4-balls
        walked, _ = random_walk(boundary_of_simplex(4), 80, seed=seed)
        assert sphere_or_ball_verdict(cone(walked, 100), 4) == (Verdict.YES, "ball"), seed
    assert sphere_or_ball_verdict(suspension(torus7(), 20, 21), 3) == (Verdict.NO, None)
    assert sphere_or_ball_verdict(suspension(rp2_6(), 20, 21), 3) == (Verdict.NO, None)
    assert sphere_or_ball_verdict(cone(suspension(torus7(), 20, 21), 22), 4)[0] is Verdict.NO
