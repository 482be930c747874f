"""Recognition of pseudomanifolds, spheres, balls and combinatorial
manifolds.

The pseudomanifold test (every ridge in at most two top-dimensional facets)
is exact in all dimensions.  Sphere and ball recognition is exact for
complexes of dimension at most two, where the classification of surfaces
settles everything; in dimension three and above it falls back on greedy
bistellar reduction toward the boundary of a simplex, which can prove a
sphere but can only ever answer "unknown" when it stalls.  Ball recognition
in dimension three cones off the boundary and sphere-checks the result
(sound by Alexander's theorem); in dimension four and above a positive
answer is withheld and "unknown" returned, since the corresponding
Schoenflies question is open.

A complex is reported as a combinatorial manifold when every vertex link
passes its sphere-or-ball check; links of higher-dimensional simplices are
links of vertices inside those links, so nothing further needs checking.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from .complexes import EMPTY, Complex, Simplex, cone, fresh_vertex, link
from .homology import euler_characteristic, f_vector, homology, minimal_sphere_f_vector
from .moves import MoveError, MoveSet, fsum_delta


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


def _surface_kind(k: Complex):
    """Classify a 2-complex as 'sphere', 'disk', or None, exactly."""
    if k.dim != 2 or not k.is_pure or not _is_connected(k):
        return None
    edge_count = {}
    for f in k.facets:
        for e in f.boundary_faces():
            edge_count[e] = edge_count.get(e, 0) + 1
    if any(c > 2 for c in edge_count.values()):
        return None
    for v in k.vertices:
        if _circle_or_arc(link(tuple.__new__(Simplex, (v,)), k)) is None:
            return None
    boundary = k.boundary_complex
    if not boundary:
        return "sphere" if euler_characteristic(k) == 2 else None
    if _circle_or_arc(boundary) != "circle":
        return None
    return "disk" if euler_characteristic(k) == 1 else None


def _reduces_to_minimal_sphere(k: Complex, move_budget: int = 600, seed: int = 7) -> bool:
    """Greedy bistellar reduction toward the boundary of a simplex, with a
    few seeded sideways flips to get past plateaus.  True only when the
    minimal sphere is actually reached."""
    target = minimal_sphere_f_vector(k.dim)
    if f_vector(k) == target:
        return True
    try:
        ms = MoveSet(k)
    except MoveError:
        return False
    rng = random.Random(seed)
    sideways = 0
    for _ in range(move_budget):
        if ms.f_vector == target:
            return True
        cands = ms.moves()
        deltas = [fsum_delta(a, b) for a, b in cands]
        best = min(deltas, default=0)
        if best < 0:
            ms.apply(*cands[deltas.index(best)])  # the least a among the best
            sideways = 0
            continue
        flat = [m for m, d in zip(cands, deltas) if d == 0]
        if not flat or sideways > 8 * ms.f_vector[0]:
            return False
        ms.apply(*flat[rng.randrange(len(flat))])
        sideways += 1
    return ms.f_vector == target


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
        kind = _surface_kind(k)
        if kind == "sphere":
            return Verdict.YES, "sphere"
        if kind == "disk":
            return Verdict.YES, "ball"
        return Verdict.NO, None
    # dimension three and up: exact necessary conditions, then reduction
    if not k.is_pure or not _is_connected(k):
        return Verdict.NO, None
    ridge_count = {}
    for f in k.facets:
        for r in f.boundary_faces():
            ridge_count[r] = ridge_count.get(r, 0) + 1
    if any(c > 2 for c in ridge_count.values()):
        return Verdict.NO, None
    boundary = k.boundary_complex
    if not boundary:
        if not _sphere_homology_ok(k, d):
            return Verdict.NO, None
        for v in sorted(k.vertices):
            lk = link(tuple.__new__(Simplex, (v,)), k)
            sub, _ = sphere_or_ball_verdict(lk, d - 1)
            if sub is Verdict.NO:
                return Verdict.NO, None
        if _reduces_to_minimal_sphere(k):
            return Verdict.YES, "sphere"
        return Verdict.UNKNOWN, None
    hs = homology(k)
    if any(h.betti != (1 if i == 0 else 0) or h.torsion for i, h in enumerate(hs)):
        return Verdict.NO, None
    bverdict, bkind = sphere_or_ball_verdict(boundary, d - 1)
    if bverdict is Verdict.NO or (bverdict is Verdict.YES and bkind != "sphere"):
        return Verdict.NO, None
    if d == 3 and bverdict is Verdict.YES:
        capped = cone(boundary, fresh_vertex(k))
        merged = Complex(list(k.facets) + list(capped.facets), _trusted=True)
        sv, skind = sphere_or_ball_verdict(merged, d)
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
    if n >= 1:
        ridge_count = {}
        for f in k.facets:
            if len(f) != n + 1:
                continue
            for r in f.boundary_faces():
                ridge_count[r] = ridge_count.get(r, 0) + 1
        for r, c in sorted(ridge_count.items()):
            if c > 2:
                pseudo = False
                offenders.append((r, "ridge lies in %d facets" % c))
    boundary = k.boundary_complex
    if not pseudo:
        return ManifoldReport(pure, False, Verdict.NO, boundary, tuple(offenders))
    if n == 0:
        return ManifoldReport(pure, True, Verdict.YES, boundary)
    link_verdicts = []
    for v in sorted(k.vertices):
        vertex = tuple.__new__(Simplex, (v,))
        verdict, _ = sphere_or_ball_verdict(link(vertex, k), n - 1)
        link_verdicts.append(verdict)
        if verdict is Verdict.NO:
            offenders.append((vertex, "vertex link is not a sphere or ball"))
        elif verdict is Verdict.UNKNOWN:
            offenders.append((vertex, "vertex link verdict unknown"))
    return ManifoldReport(
        pure, True, _combine(link_verdicts), boundary, tuple(offenders)
    )
