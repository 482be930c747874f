"""What a verdict of dimension three and up computes: the homology
condition once, before any reduction, and one reduction of one target, the
complex itself when closed and the complex with its boundary coned off when
not."""

from collections import Counter

from plmoves import (
    Complex,
    Verdict,
    boundary_of_simplex,
    cone,
    fresh_vertex,
    join,
    random_walk,
    star,
)
from plmoves.demos import torus7
from support import checked_with_builds, stalled_4_sphere


def test_a_closed_non_sphere_verdict_builds_no_move_set(monkeypatch):
    # a walked suspended torus: its reduction, had it run, would go 744
    # moves to the stall rule before the homology said no
    k = random_walk(join(torus7(), Complex([(100,), (101,)])), 60, seed=2)[0]
    homologies = Counter()
    verdict, built = checked_with_builds(k, monkeypatch, homologies, expect_dim=3)
    assert verdict == (Verdict.NO, None)
    assert built == [] and homologies == Counter({k: 1})


def test_a_stalled_sphere_computes_its_own_homology_once(monkeypatch):
    s = stalled_4_sphere()
    homologies = Counter()
    report, built = checked_with_builds(s, monkeypatch, homologies)
    assert report.verdict is Verdict.UNKNOWN
    assert homologies[s] == 1 and built.count(s) == 1


def test_a_ball_verdict_computes_no_homology_of_its_capped_complex(monkeypatch):
    b = star((2,), stalled_4_sphere())
    boundary = b.boundary_complex
    capped = Complex(list(b.facets) + list(cone(boundary, fresh_vertex(b)).facets))
    homologies = Counter()
    verdict, built = checked_with_builds(b, monkeypatch, homologies, expect_dim=4)
    assert verdict == (Verdict.UNKNOWN, None)
    assert built.count(capped) == 1 and homologies[capped] == 0
    assert homologies[b] == 1 and homologies[boundary] == 1
    # a ball the cone route proves builds the one capped move set too
    s3 = random_walk(boundary_of_simplex(4), 30, seed=1)[0]
    ball = cone(s3, fresh_vertex(s3))
    verdict, built = checked_with_builds(ball, monkeypatch, expect_dim=4)
    assert verdict == (Verdict.YES, "ball") and len(built) == 2
