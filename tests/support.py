"""Shared builders for the test suite."""

from itertools import combinations

from plmoves import EMPTY, Complex, Simplex, Verdict, join, link, stellar_subdivide
from plmoves.complexes import _as_simplex
from plmoves.homology import euler_characteristic
from plmoves.manifold import _crowded_ridges, _is_connected


def hexagon_disk() -> Complex:
    """Cone over a 6-cycle from vertex 7; every triangle meets the rim."""
    return Complex([(i, i % 6 + 1, 7) for i in range(1, 7)])


def disk_with_interior_triangle() -> Complex:
    """Hexagon disk with one sector subdivided.  The triangle (1, 7, 8) has
    all three of its edges interior, so its subdivision touches nothing on
    the rim."""
    return stellar_subdivide(hexagon_disk(), (1, 2, 7), new_vertex=8)


def pair_complex_through(suspension, level: int) -> Complex:
    """P_level of a ``SuspensionData``: the join of the two-point complexes
    of levels start+1 through level (EMPTY when level == start)."""
    out = EMPTY
    for plus, minus in suspension.apexes[: level - suspension.start]:
        out = join(out, Complex([(plus,), (minus,)]))
    return out


def run_cli(argv, stdin=None):
    """Run the command line entry point in process; returns (code, stdout,
    stderr).  Avoids subprocess startup cost for the many small CLI tests."""
    import contextlib
    import io
    import sys

    from plmoves import cli

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# Plain-loop references for the face-lattice code, which the tests compare
# against: one Simplex per (facet, face) pair for the star index, a summed
# boundary of boundary per column for the table check, and every simplex
# tested against every other for nesting.


def subsimplices(s):
    """All nonempty faces of the simplex s, s itself included."""
    return [Simplex(c) for r in range(1, len(s) + 1) for c in combinations(s, r)]


def without(s, v):
    """The face of the simplex s opposite its vertex v."""
    return Simplex(x for x in s if x != v)


def reference_star_index(k: Complex):
    """face -> sorted tuple of facets containing it."""
    idx = {}
    for f in sorted(k.facets):
        for s in subsimplices(f):
            idx.setdefault(s, []).append(f)
    return {s: tuple(fs) for s, fs in idx.items()}


def reference_check_chain_complex(bases, faces):
    """Assert boundary-of-boundary vanishes, composing consecutive tables
    column by column over the sparse sign structure."""
    for d in range(2, len(faces)):
        lower = faces[d - 1]
        for col, rows in enumerate(faces[d]):
            acc = {}
            outer_sign = 1
            for r in rows:
                inner_sign = outer_sign
                for q in lower[r]:
                    acc[q] = acc.get(q, 0) + inner_sign
                    inner_sign = -inner_sign
                outer_sign = -outer_sign
            if any(acc.values()):
                raise AssertionError("boundary of boundary nonzero at %s" % (bases[d][col],))


def reference_complex(facets) -> Complex:
    """``Complex(facets)``, validated pairwise."""
    fs = frozenset(_as_simplex(f) for f in facets)
    by_len = sorted(fs, key=len)
    for i, f in enumerate(by_len):
        fset = set(f)
        for g in by_len[i + 1 :]:
            if len(g) > len(f) and fset <= set(g):
                raise ValueError(
                    "facet %s is a face of facet %s; use closure()" % (f, g)
                )
    return Complex(fs, _trusted=True)


def reference_closure(simplices) -> Complex:
    """The complex generated by a family of simplices."""
    ss = sorted({_as_simplex(s) for s in simplices}, key=len, reverse=True)
    maximal = []
    maximal_sets = []
    for s in ss:
        sset = set(s)
        if any(sset <= m for m in maximal_sets):
            continue
        maximal.append(s)
        maximal_sets.append(sset)
    return Complex(maximal, _trusted=True)


# Exact sphere-or-ball classifiers for dimensions 0 to 2, one for each
# dimension with its own conditions and its own vertex-link loop, which the
# tests compare the one-path verdict against.


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


def _verdict(k: Complex, expect_dim: int, verdicts: dict):
    if expect_dim <= -1:
        return (Verdict.YES, "sphere") if not k else (Verdict.NO, None)
    if not k or k.dim != expect_dim:
        return Verdict.NO, None
    if k.dim == 0:
        kind = {2: "sphere", 1: "ball"}.get(len(k.facets))
    elif k.dim == 1:
        kind = {"circle": "sphere", "arc": "ball"}.get(_circle_or_arc(k))
    else:
        kind = {"sphere": "sphere", "disk": "ball"}.get(_surface_kind(k, verdicts))
    return (Verdict.YES, kind) if kind else (Verdict.NO, None)


def reference_sphere_or_ball_verdict(k: Complex, expect_dim: int):
    """``sphere_or_ball_verdict(k, expect_dim)`` for ``expect_dim`` at most 2."""
    return _verdict(k, expect_dim, {})
