"""One SHA-256 over the sphere-or-ball verdicts and the manifold reports of a
fixed corpus of complexes.

The corpus: walks of S1-S5, their vertex links, stars and cones, joins,
suspensions and disjoint unions of walked spheres and surfaces, random
closures in dimensions 1-4, and 0-complexes of 0-3 points.  For each
complex the digest takes ``sphere_or_ball_verdict(k, d)`` for d = -1..5 and
the full link-by-link report of ``reference_manifold_report``, so a change
to how a verdict is decided that moves any YES, NO or UNKNOWN shows here.
``check_combinatorial_manifold`` must then give that same report, except
where the reference is UNKNOWN and the verdict of the whole complex says
YES; the corpus entries where it does are listed.
"""

import hashlib
import random

from plmoves import (
    Complex,
    ManifoldReport,
    Verdict,
    boundary_of_simplex,
    check_combinatorial_manifold,
    closure,
    cone,
    fresh_vertex,
    join,
    link,
    random_walk,
    sphere_or_ball_verdict,
    star,
    suspension,
)
from plmoves.demos import bipyramid, rp2_6, torus7
from support import disjoint_union, reference_manifold_report, shifted

CORPUS_DIGEST = "2664ea0de8b9f0730ad57ca5ab40e29786e9b4c5348515636bb67aadacfce75b"

# The corpus entries whose reference report is UNKNOWN and whose manifold
# check is YES.  Entry 58 is the closed star of vertex 1 in the 20-step walk
# of S4 at seed 1: the link of its boundary vertex 4 is a 3-ball whose
# boundary, coned off, gives a 3-sphere the reduction stalls on, while
# coning off the star's own boundary gives a 4-sphere that reduces.
DECIDED_BY_THE_WHOLE_COMPLEX = [58]

# n -> steps of each walk of the n-sphere
WALK_STEPS = {1: 8, 2: 14, 3: 24, 4: 20, 5: 6}


def corpus():
    """The complexes, in a fixed order."""
    out = []
    walked = {}
    for n, steps in WALK_STEPS.items():
        for seed in range(2):
            k, _ = random_walk(boundary_of_simplex(n + 1), steps, seed=seed)
            walked[n, seed] = k
            verts = sorted(k.vertices)
            out.append(k)
            for v in (verts[0], verts[len(verts) // 2], verts[-1]):
                out.append(link((v,), k))
                out.append(star((v,), k))
            out.append(cone(k, fresh_vertex(k)))
    for s in (torus7(), rp2_6(), bipyramid()):
        out.append(random_walk(s, 6, seed=1)[0])
        out.append(suspension(s, 100, 101))
        out.append(cone(s, 100))
    circle = walked[1, 0]
    out.append(join(circle, shifted(walked[1, 1], 100)))  # S3
    out.append(join(circle, shifted(walked[2, 0], 100)))  # S4
    out.append(join(circle, shifted(torus7(), 100)))  # links of the circle fail
    out.append(join(torus7(), Complex([(100,), (101,)])))
    out.append(join(rp2_6(), shifted(circle, 100)))
    out.append(suspension(suspension(torus7(), 100, 101), 102, 103))
    out.append(cone(suspension(rp2_6(), 100, 101), 102))
    for n in (2, 3, 4):
        out.append(disjoint_union(walked[n, 0], walked[n, 1]))
    out.append(disjoint_union(walked[3, 0], torus7()))
    rng = random.Random(5)
    for _ in range(80):
        d = rng.randint(1, 4)
        labels = range(1, d + 5)
        family = [rng.sample(labels, rng.randint(1, d + 1)) for _ in range(rng.randint(1, 9))]
        out.append(closure(family))
    for points in range(4):
        out.append(Complex([(v,) for v in range(points)]))
    return out


def fingerprint_line(k: Complex, r: ManifoldReport) -> str:
    verdicts = [sphere_or_ball_verdict(k, d) for d in range(-1, 6)]
    report = (
        r.pure,
        r.pseudomanifold,
        r.verdict.value,
        sorted(map(list, r.boundary.facets)),
        [(list(s), why) for s, why in r.offenders],
        str(r),
    )
    verdict_text = [(v.value, kind) for v, kind in verdicts]
    return repr((sorted(map(list, k.facets)), verdict_text, report))


def test_the_verdict_corpus_digest_is_pinned():
    h = hashlib.sha256()
    decided = []
    for i, k in enumerate(corpus()):
        want = reference_manifold_report(k)
        got = check_combinatorial_manifold(k)
        if got != want:
            assert want.verdict is Verdict.UNKNOWN, i
            assert got == ManifoldReport(want.pure, True, Verdict.YES, want.boundary), i
            decided.append(i)
        h.update(fingerprint_line(k, want).encode() + b"\n")
    assert decided == DECIDED_BY_THE_WHOLE_COMPLEX
    assert h.hexdigest() == CORPUS_DIGEST
