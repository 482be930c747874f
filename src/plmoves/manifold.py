"""Recognition of pseudomanifolds, spheres, balls and combinatorial
manifolds.

The pseudomanifold test (every ridge in at most two top-dimensional facets)
is exact in all dimensions.  The sphere-or-ball verdict takes one path in
every dimension.  A 0-complex is decided by its number of points.  Above
that, purity and connectedness are checked once; a graph is then a circle
or an arc exactly when no vertex lies in three edges, and from dimension two
up no ridge may lie in three facets.  A surface is a sphere or a disk, by
the classification of surfaces, exactly when its vertex links are circles
or arcs and its Euler characteristic is 2, or 1 when it has boundary.

In dimension three and above the verdict falls back on
``moves.greedy_reduction``, the one greedy bistellar reducer, which
``reduce`` runs too.  A closed complex is reduced first: reaching the
boundary of a simplex proves a PL sphere, on which no exact necessary
condition can fail, so the answer is YES at once.  Only a stall runs the
homology of a sphere and the vertex links; they turn it into NO, or leave it
UNKNOWN.  A complex K with boundary needs the homology of a point and a
sphere for boundary, and is a ball when coning off that boundary gives a
sphere: K is then that sphere less the open star of the cone point, a PL
ball by Newman's theorem.

A complex is reported as a combinatorial manifold when every vertex link
passes its sphere-or-ball check; links of higher-dimensional simplices are
links of vertices inside those links, so nothing further needs checking.
One generator walks the vertex links, for surfaces, for stalled closed
complexes and for the manifold check.  Each link gets one verdict per check:
the recursion reaches lk(vw, K) once from v and once from w, so every
top-level call keeps a table from (facet set, expected dimension) to
verdict, and the table dies with the call.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .complexes import EMPTY, Complex, Simplex, cone, fresh_vertex, link
from .homology import euler_characteristic, homology, minimal_sphere_f_vector
from .moves import MoveSet, greedy_reduction


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def _combine(verdicts):
    vs = list(verdicts)
    if any(v is Verdict.NO for v in vs):
        return Verdict.NO
    if any(v is Verdict.UNKNOWN for v in vs):
        return Verdict.UNKNOWN
    return Verdict.YES


@dataclass(frozen=True)
class ManifoldReport:
    pure: bool
    pseudomanifold: bool
    verdict: Verdict
    boundary: Complex
    offenders: tuple = field(default_factory=tuple)

    def __str__(self):
        head = "combinatorial manifold: %s" % self.verdict.value
        if self.offenders:
            head += "; offenders: " + ", ".join(
                "%s (%s)" % (list(s), why) for s, why in self.offenders[:4]
            )
        return head


def _is_connected(k: Complex) -> bool:
    verts = list(k.vertices)
    if not verts:
        return True
    adjacency = {v: set() for v in verts}
    for f in k.facets:
        for a in f:
            adjacency[a].update(f)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def _crowded_ridges(k: Complex):
    """Sorted (ridge, count) for each ridge of ``k`` that lies in more than
    two top-dimensional facets, read from the star index.  A face with dim(k)
    vertices lies only in top-dimensional facets, unless it is a facet and
    lies in nothing else."""
    n = k.dim
    return sorted(
        (r, len(fs)) for r, fs in k._star_index.items() if len(r) == n and len(fs) > 2
    )


def sphere_or_ball_verdict(k: Complex, expect_dim: int):
    """(verdict, kind) where kind is 'sphere' or 'ball' when verdict is YES.

    ``expect_dim`` of -1 accepts exactly the empty complex (the link of a
    facet vertex in a 0-manifold).
    """
    return _verdict(k, expect_dim, {})


def _verdict(k: Complex, expect_dim: int, verdicts: dict):
    """``sphere_or_ball_verdict``, looked up in ``verdicts`` first.

    The table belongs to one top-level check.  A verdict depends only on
    the facet set (``greedy_reduction`` reads its moves sorted and runs
    with its default seed),
    and lk(w, lk(v, K)) = lk(vw, K), so the links of links reached from
    different vertices are each decided once.
    """
    key = (k.facets, expect_dim)
    found = verdicts.get(key)
    if found is None:
        found = verdicts[key] = _decide(k, expect_dim, verdicts)
    return found


def _link_verdicts(k: Complex, verdicts: dict):
    """(vertex, verdict) for each vertex of ``k`` in order, its link asked
    to be a sphere or ball one dimension down."""
    for v in sorted(k.vertices):
        vertex = tuple.__new__(Simplex, (v,))
        yield vertex, _verdict(link(vertex, k), k.dim - 1, verdicts)[0]


def _homology_ok(k: Complex, closed: bool) -> bool:
    """Whether ``k`` has the integral homology of a sphere of its dimension
    (``closed``) or of a point."""
    top = k.dim if closed else 0
    return all(
        h.betti == (1 if i in (0, top) else 0) and not h.torsion
        for i, h in enumerate(homology(k))
    )


def _decide(k: Complex, expect_dim: int, verdicts: dict):
    if expect_dim <= -1:
        return (Verdict.YES, "sphere") if not k else (Verdict.NO, None)
    if not k or k.dim != expect_dim:
        return Verdict.NO, None
    d = k.dim
    if d == 0:
        kind = {2: "sphere", 1: "ball"}.get(len(k.facets))
        return (Verdict.YES, kind) if kind else (Verdict.NO, None)
    # the exact necessary conditions every dimension shares
    if not k.is_pure or not _is_connected(k):
        return Verdict.NO, None
    if d == 1:
        # a connected graph with no vertex in three edges is a circle or an arc
        degrees = Counter(chain.from_iterable(k.facets)).values()
        if max(degrees) > 2:
            return Verdict.NO, None
        return Verdict.YES, "ball" if 1 in degrees else "sphere"
    if _crowded_ridges(k):
        return Verdict.NO, None
    boundary = k.boundary_complex
    if d == 2:
        # with circles and arcs for links, k is a connected surface, and
        # chi = 2 - 2g - b or 2 - h - b is 2 only on the sphere and 1 with
        # boundary only on the disk
        if any(v is Verdict.NO for _, v in _link_verdicts(k, verdicts)):
            return Verdict.NO, None
        if euler_characteristic(k) != (1 if boundary else 2):
            return Verdict.NO, None
        return Verdict.YES, "ball" if boundary else "sphere"
    if not boundary:
        # d + 2 distinct d-facets on d + 2 vertices are every d-face of the
        # (d+1)-simplex, so k is its boundary and needs no reduction
        if len(k.vertices) == len(k.facets) == d + 2:
            return Verdict.YES, "sphere"
        # a reduction proves a PL sphere, on which no check below says no
        ms = MoveSet(k)
        greedy_reduction(ms)
        if ms.f_vector == minimal_sphere_f_vector(d):
            return Verdict.YES, "sphere"
        if not _homology_ok(k, closed=True) or any(
            v is Verdict.NO for _, v in _link_verdicts(k, verdicts)
        ):
            return Verdict.NO, None
        return Verdict.UNKNOWN, None
    if not _homology_ok(k, closed=False):
        return Verdict.NO, None
    bverdict, bkind = _verdict(boundary, d - 1, verdicts)
    if bverdict is Verdict.NO or (bverdict is Verdict.YES and bkind != "sphere"):
        return Verdict.NO, None
    if bverdict is Verdict.YES:
        capped = cone(boundary, fresh_vertex(k))
        merged = Complex(list(k.facets) + list(capped.facets), _trusted=True)
        sv, skind = _verdict(merged, d, verdicts)
        if sv is Verdict.YES and skind == "sphere":
            return Verdict.YES, "ball"
    return Verdict.UNKNOWN, None


def check_combinatorial_manifold(k: Complex) -> ManifoldReport:
    """Full report: purity, the exact pseudomanifold test, the boundary
    subcomplex, and the vertex-link verdict described in the module
    docstring.

    >>> from .complexes import boundary_of_simplex
    >>> check_combinatorial_manifold(boundary_of_simplex(3)).verdict.value
    'yes'
    """
    if not k:
        return ManifoldReport(True, True, Verdict.YES, EMPTY)
    offenders = []
    pure = k.is_pure
    if not pure:
        dims = sorted({f.dim for f in k.facets})
        offenders.append(
            (sorted(k.facets)[0], "facet dimensions are mixed: %s" % dims)
        )
    pseudo = pure
    for r, c in _crowded_ridges(k):
        pseudo = False
        offenders.append((r, "ridge lies in %d facets" % c))
    boundary = k.boundary_complex
    if not pseudo:
        return ManifoldReport(pure, False, Verdict.NO, boundary, tuple(offenders))
    if k.dim == 0:
        return ManifoldReport(pure, True, Verdict.YES, boundary)
    link_verdicts = []
    for vertex, verdict in _link_verdicts(k, {}):
        link_verdicts.append(verdict)
        if verdict is Verdict.NO:
            offenders.append((vertex, "vertex link is not a sphere or ball"))
        elif verdict is Verdict.UNKNOWN:
            offenders.append((vertex, "vertex link verdict unknown"))
    return ManifoldReport(
        pure, True, _combine(link_verdicts), boundary, tuple(offenders)
    )
