"""Recognition of pseudomanifolds, spheres, balls and combinatorial
manifolds.

The pseudomanifold test (every ridge in at most two top-dimensional facets)
is exact in all dimensions.  Sphere and ball recognition is exact for
complexes of dimension at most two, where the classification of surfaces
settles everything; in dimension three and above it falls back on
``moves.greedy_reduction``, the one greedy bistellar reducer, which
``reduce`` runs too: reaching the boundary of a simplex proves a sphere, and
a stall alone can only ever answer "unknown".  Ball recognition, in every
dimension, cones off the boundary sphere and sphere-checks the result: if
K + c * boundary(K) is a PL sphere, K is that sphere less the open star of
the cone point c, a PL ball by Newman's theorem.

In the closed case of dimension three and up, the reduction runs first,
after the cheap tests of purity, connectedness and ridges.  Reaching the
boundary of a simplex by bistellar moves proves a PL sphere, and on a PL
sphere no exact necessary condition can fail, so the answer is YES at once.
Only when the reduction stalls do the homology of a sphere and the vertex
links run; they turn the stall into NO, or leave it UNKNOWN.

A complex is reported as a combinatorial manifold when every vertex link
passes its sphere-or-ball check; links of higher-dimensional simplices are
links of vertices inside those links, so nothing further needs checking.

Each link gets one verdict per check.  The recursion reaches lk(vw, K) once
from v and once from w, so every top-level call (a manifold check, or one
public ``sphere_or_ball_verdict``) keeps a table from (facet set, expected
dimension) to verdict, and the table dies with the call.  Ridge
multiplicities, for the pseudomanifold test and the ridge conditions inside
the verdict, are read from the star index by one helper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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


def _vertex_degrees(k: Complex):
    deg = {v: 0 for v in k.vertices}
    for f in k.facets:
        if len(f) == 2:
            deg[f[0]] += 1
            deg[f[1]] += 1
    return deg


def _circle_or_arc(k: Complex):
    """Classify a 1-complex: 'circle', 'arc', or None."""
    if not k or k.dim != 1 or not k.is_pure or not _is_connected(k):
        return None
    deg = _vertex_degrees(k)
    ones = sum(1 for d in deg.values() if d == 1)
    if any(d > 2 for d in deg.values()):
        return None
    if ones == 0:
        return "circle"
    if ones == 2:
        return "arc"
    return None


def _crowded_ridges(k: Complex):
    """Sorted (ridge, count) for each ridge of ``k`` that lies in more than
    two top-dimensional facets, read from the star index.  A face with dim(k)
    vertices lies only in top-dimensional facets, unless it is a facet and
    lies in nothing else."""
    n = k.dim
    return sorted(
        (r, len(fs)) for r, fs in k._star_index.items() if len(r) == n and len(fs) > 2
    )


def _surface_kind(k: Complex, verdicts: dict):
    """Classify a 2-complex as 'sphere', 'disk', or None, exactly."""
    if k.dim != 2 or not k.is_pure or not _is_connected(k):
        return None
    if _crowded_ridges(k):
        return None
    for v in k.vertices:
        if _verdict(link(tuple.__new__(Simplex, (v,)), k), 1, verdicts)[0] is Verdict.NO:
            return None
    boundary = k.boundary_complex
    if not boundary:
        return "sphere" if euler_characteristic(k) == 2 else None
    if _circle_or_arc(boundary) != "circle":
        return None
    return "disk" if euler_characteristic(k) == 1 else None


def _sphere_homology_ok(k: Complex, d: int) -> bool:
    hs = homology(k)
    for i, h in enumerate(hs):
        want = 1 if i in (0, d) else 0
        if h.betti != want or h.torsion:
            return False
    return True


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


def _decide(k: Complex, expect_dim: int, verdicts: dict):
    if expect_dim <= -1:
        return (Verdict.YES, "sphere") if not k else (Verdict.NO, None)
    if not k or k.dim != expect_dim:
        return Verdict.NO, None
    d = k.dim
    if d == 0:
        npts = len(k.facets)
        if npts == 2:
            return Verdict.YES, "sphere"
        if npts == 1:
            return Verdict.YES, "ball"
        return Verdict.NO, None
    if d == 1:
        kind = _circle_or_arc(k)
        if kind == "circle":
            return Verdict.YES, "sphere"
        if kind == "arc":
            return Verdict.YES, "ball"
        return Verdict.NO, None
    if d == 2:
        kind = _surface_kind(k, verdicts)
        if kind == "sphere":
            return Verdict.YES, "sphere"
        if kind == "disk":
            return Verdict.YES, "ball"
        return Verdict.NO, None
    # dimension three and up: exact necessary conditions, then reduction
    if not k.is_pure or not _is_connected(k):
        return Verdict.NO, None
    if _crowded_ridges(k):
        return Verdict.NO, None
    boundary = k.boundary_complex
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
        if not _sphere_homology_ok(k, d):
            return Verdict.NO, None
        for v in sorted(k.vertices):
            lk = link(tuple.__new__(Simplex, (v,)), k)
            sub, _ = _verdict(lk, d - 1, verdicts)
            if sub is Verdict.NO:
                return Verdict.NO, None
        return Verdict.UNKNOWN, None
    hs = homology(k)
    if any(h.betti != (1 if i == 0 else 0) or h.torsion for i, h in enumerate(hs)):
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
    n = k.dim
    pseudo = pure
    for r, c in _crowded_ridges(k):
        pseudo = False
        offenders.append((r, "ridge lies in %d facets" % c))
    boundary = k.boundary_complex
    if not pseudo:
        return ManifoldReport(pure, False, Verdict.NO, boundary, tuple(offenders))
    if n == 0:
        return ManifoldReport(pure, True, Verdict.YES, boundary)
    verdicts = {}
    link_verdicts = []
    for v in sorted(k.vertices):
        vertex = tuple.__new__(Simplex, (v,))
        verdict, _ = _verdict(link(vertex, k), n - 1, verdicts)
        link_verdicts.append(verdict)
        if verdict is Verdict.NO:
            offenders.append((vertex, "vertex link is not a sphere or ball"))
        elif verdict is Verdict.UNKNOWN:
            offenders.append((vertex, "vertex link verdict unknown"))
    return ManifoldReport(
        pure, True, _combine(link_verdicts), boundary, tuple(offenders)
    )
