"""Starkly stratified spaces, stark neighborhoods, and their moves.

A starkly stratified space carries nested strata X_0 .. X_n = X whose open
parts X_k \\ X_{k-1} are k-manifolds with combinatorially-manifold closures.
Its state is a FilteredComplex, the same shape as a filtered manifold: a
document's state is filtered (neighborhoods validated) or plain, and the
stark conditions on the open parts live in validate_stark_complex.
A stark neighborhood of a k-ball lists, level by level l = k .. n-1, apexes
v together with cell descriptions L(v), each a ball with base <= L(v) <=
N_l; the neighborhood is N = base u U join(L(v), v).  Cells are stored
untriangulated, as vertex supports, and a support is meaningful only when
it is an exact union of cells built at earlier levels.  cone_extend
reimposes triangulations by iterated coning, so any triangulation T of the
base determines one of the whole neighborhood (T up N).  The stark extended
bistellar operation swaps A * dB for dA * B inside the base ball and
rebuilds both cone extensions; on filtered manifolds it reproduces the
iterated-suspension move exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex, closure, cone
from .filtration import FilteredComplex, FiltrationReport, SuspensionData
from .manifold import Verdict, check_combinatorial_manifold, sphere_or_ball_verdict
from .moves import BistellarMove, inserted_ball, replaced_ball


class StarkError(ValueError):
    pass


def _support(l) -> frozenset:
    if isinstance(l, Complex):
        return frozenset(l.vertices)
    return frozenset(int(v) for v in l)


@dataclass(frozen=True)
class StarkNeighborhood:
    """base is the reference ball B_k; levels[i] lists the (apex, support)
    pairs of level k+i.  A support is the vertex set of the cell L(apex);
    per the defining conditions the triangulation of a cell is not part of
    the data, only cone_extend reimposes one.  Each support may be given as
    a Complex or as an iterable of vertex labels."""

    base: Complex
    levels: tuple[tuple[tuple[int, frozenset], ...], ...]

    def __post_init__(self):
        if not self.base or not self.base.is_pure:
            raise StarkError("the base must be a nonempty pure complex")
        norm = tuple(
            tuple(sorted((int(apex), _support(l)) for apex, l in level))
            for level in self.levels
        )
        object.__setattr__(self, "levels", norm)
        seen = set(self.base.vertices)
        for level in norm:
            for apex, sup in level:
                if apex in sup:
                    raise StarkError("apex %d lies in its own cell" % apex)
                if apex in seen:
                    raise StarkError("apex label %d is already in use" % apex)
                seen.add(apex)

    @property
    def k(self) -> int:
        return self.base.dim

    @property
    def apexes(self) -> tuple[int, ...]:
        return tuple(apex for level in self.levels for apex, _ in level)


def _resolve_cells(nbhd: StarkNeighborhood):
    """Resolve each cell description against the cells of earlier levels.

    Returns a list of (apex, support, covered) in coning order, the base
    first with apex None; ``covered`` indexes the earlier cells whose union
    realizes the support.  Raises StarkError when a support misses the base
    or is not an exact union of available cells.
    """
    cells = [(None, frozenset(nbhd.base.vertices), ())]
    for level in nbhd.levels:
        # joins of one level only see cells finished before it started
        visible = len(cells)
        for apex, sup in level:
            if not cells[0][1] <= sup:
                raise StarkError("cell for apex %d does not contain the base" % apex)
            covered = tuple(i for i in range(visible) if cells[i][1] <= sup)
            union = frozenset().union(*(cells[i][1] for i in covered))
            if union != sup:
                raise StarkError(
                    "cell for apex %d is not a union of neighborhood cells"
                    " (unmatched vertices %s)" % (apex, sorted(sup - union))
                )
            cells.append((apex, sup | {apex}, covered))
    return cells


def _cell_cones(t: Complex, nbhd: StarkNeighborhood, cells):
    """Per-cell triangulations of T up N, as (cone base, cone) pairs in the
    order of ``cells``; entry 0 is (None, t)."""
    out = [(None, t)]
    for apex, _, covered in cells[1:]:
        pieces = []
        for i in covered:
            pieces.extend(out[i][1].facets)
        lhat = closure(pieces)
        if apex in lhat.vertices:
            raise StarkError(
                "apex %d collides with a vertex of the triangulation" % apex
            )
        out.append((lhat, cone(lhat, apex)))
    return out


def cone_extend(t: Complex, nbhd: StarkNeighborhood) -> Complex:
    """T up N: extend a triangulation of the base ball over the whole stark
    neighborhood by iterated coning, level by level, ascending apex within
    a level.  Restricted to the base the result is exactly T; with no
    levels it is T itself."""
    if not t or not t.is_pure or t.dim != nbhd.base.dim:
        raise StarkError(
            "the triangulation must be a pure %d-complex" % nbhd.base.dim
        )
    rebuilt = _cell_cones(t, nbhd, _resolve_cells(nbhd))
    facets = []
    for _, piece in rebuilt:
        facets.extend(piece.facets)
    return closure(facets)


def validate_stark_complex(x: FilteredComplex) -> FiltrationReport:
    """The checkable stark conditions: each X_k is a subcomplex (true by
    construction) and the closure of every connected component of an open
    part X_k \\ X_{k-1} is a combinatorial k-manifold, boundary allowed.
    Existence of stark neighborhoods around every ball is an assumption on
    the input; supplied neighborhoods are checked individually.

    >>> from plmoves.demos import knot_model
    >>> x, _ = knot_model()
    >>> type(x).__name__, validate_stark_complex(x).ok
    ('FilteredComplex', True)
    """
    findings = []
    notes = [
        "neighborhood existence (condition 4) is assumed; validate each"
        " supplied neighborhood separately"
    ]
    for k in range(x.n + 1):
        lower = x.strata[k - 1] if k else None
        open_part = [
            s for s in x.strata[k].simplices if lower is None or s not in lower
        ]
        for piece in _face_components(open_part):
            body = closure(piece)
            if body.dim != k:
                findings.append(
                    "a component of X_%d \\ X_%d has dimension %d"
                    % (k, k - 1, body.dim)
                )
                continue
            report = check_combinatorial_manifold(body)
            if report.verdict is Verdict.NO:
                findings.append(
                    "a component closure in stratum %d fails the manifold"
                    " check: %s" % (k, report.offenders[0][1])
                )
            elif report.verdict is Verdict.UNKNOWN:
                notes.append(
                    "manifold check undecided for a component closure in"
                    " stratum %d" % k
                )
    return FiltrationReport(not findings, tuple(findings), tuple(notes))


def _face_components(simplices):
    """Group simplices by the face relation restricted to the given set;
    immediate faces suffice because intermediate faces of members stay in
    any set of the form X_k minus X_{k-1}."""
    present = set(simplices)
    parent = {s: s for s in present}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for s in present:
        for f in s.boundary_faces():
            if f in present:
                parent[find(f)] = find(s)
    groups = {}
    for s in present:
        groups.setdefault(find(s), []).append(s)
    return list(groups.values())


def validate_stark_neighborhood(x: FilteredComplex, nbhd: StarkNeighborhood) -> FiltrationReport:
    """Check the inductive join structure cell by cell, run ball checks on
    the base and on every resolved cell (exact through dimension 2,
    heuristic above), and verify the stratum constraints: level-l apexes
    outside X_l and the interior of the base inside X_k \\ X_{k-1}.
    Findings land in the report; nothing raises."""
    findings = []
    notes = []
    k = nbhd.k
    if len(nbhd.levels) != x.n - k:
        findings.append(
            "neighborhood of a %d-ball needs %d levels, has %d"
            % (k, x.n - k, len(nbhd.levels))
        )
    verdict, kind = sphere_or_ball_verdict(nbhd.base, k)
    if verdict is Verdict.NO or (verdict is Verdict.YES and kind != "ball"):
        findings.append("the base is not a combinatorial %d-ball" % k)
    elif verdict is Verdict.UNKNOWN:
        notes.append("ball check for the base undecided")
    try:
        cells = _resolve_cells(nbhd)
        rebuilt = _cell_cones(nbhd.base, nbhd, cells)
    except StarkError as e:
        findings.append(str(e))
        return FiltrationReport(False, tuple(findings), tuple(notes))
    for (apex, _, _), (lhat, _) in zip(cells[1:], rebuilt[1:]):
        verdict, kind = sphere_or_ball_verdict(lhat, lhat.dim)
        if verdict is Verdict.NO or (verdict is Verdict.YES and kind != "ball"):
            findings.append("the cell for apex %d is not a combinatorial ball" % apex)
        elif verdict is Verdict.UNKNOWN:
            notes.append("ball check for the cell of apex %d undecided" % apex)
    abstract = 0
    for offset, level in enumerate(nbhd.levels):
        bound = min(k + offset, x.n)
        for apex, _ in level:
            if apex in x.strata[bound].vertices:
                findings.append(
                    "level-%d apex %d lies in X_%d" % (k + offset, apex, bound)
                )
            if apex not in x.complex.vertices:
                abstract += 1
    if abstract:
        notes.append(
            "%d apex labels are not vertices of the space (abstract"
            " neighborhood); moves need realized apexes" % abstract
        )
    if nbhd.base.is_subcomplex_of(x.strata[k]):
        interior = set(nbhd.base.simplices) - set(nbhd.base.boundary_complex.simplices)
        if k and any(s in x.strata[k - 1] for s in interior):
            findings.append("the interior of the base meets X_%d" % (k - 1))
    else:
        findings.append("the base is not a subcomplex of stratum %d" % k)
    return FiltrationReport(not findings, tuple(findings), tuple(notes))


def neighborhood_from_suspension(ball: Complex, susp: SuspensionData) -> StarkNeighborhood:
    """The stark neighborhood of an iterated filtered suspension: each level
    contributes its two apexes, both over the suspension built so far."""
    sup = set(ball.vertices)
    levels = []
    for plus, minus in susp.apexes:
        cell = frozenset(sup)
        levels.append(((plus, cell), (minus, cell)))
        sup.update((plus, minus))
    return StarkNeighborhood(ball, tuple(levels))


def inverse_neighborhood(nbhd: StarkNeighborhood, inner: BistellarMove) -> StarkNeighborhood:
    """The neighborhood seen after applying ``inner`` in ``nbhd``: the base
    becomes dA * B and every cell support swaps the old base vertices for
    the new ones.  Composing with inner.inverse() undoes the stark move."""
    after = inserted_ball(inner)
    old = frozenset(nbhd.base.vertices)
    new = frozenset(after.vertices)
    levels = tuple(
        tuple((apex, (sup - old) | new) for apex, sup in level)
        for level in nbhd.levels
    )
    return StarkNeighborhood(after, levels)


def _vertex_strata(x: FilteredComplex) -> dict:
    out = {}
    for l in range(x.n + 1):
        for v in x.strata[l].vertices:
            out.setdefault(v, l)
    return out


def stark_obstruction(x: FilteredComplex, nbhd: StarkNeighborhood, inner: BistellarMove):
    """None when the stark extended bistellar operation applies, otherwise
    the first failed condition."""
    k = nbhd.k
    if inner.n != k:
        return (
            "the inner move is %d-dimensional, the base ball is"
            " %d-dimensional" % (inner.n, k)
        )
    if len(nbhd.levels) != x.n - k:
        return (
            "neighborhood of a %d-ball needs %d levels, has %d"
            % (k, x.n - k, len(nbhd.levels))
        )
    if nbhd.base != replaced_ball(inner):
        return "the base is not the source ball A * dB of the move"
    if inner.b in x.complex:
        return "co-simplex %s already present" % (inner.b,)
    if set(inner.b) & set(nbhd.apexes):
        return "co-simplex %s collides with a neighborhood apex" % (inner.b,)
    interior = set(nbhd.base.simplices) - set(nbhd.base.boundary_complex.simplices)
    for s in sorted(interior):
        if s not in x.strata[k]:
            return "interior simplex %s is not in stratum %d" % (s, k)
        if k and s in x.strata[k - 1]:
            return "interior simplex %s lies in X_%d" % (s, k - 1)
    body_before = cone_extend(nbhd.base, nbhd)
    space_facets = set(x.complex.facets)
    for f in body_before.facets:
        if f not in x.complex:
            return (
                "neighborhood cell %s is not triangulated in the complex"
                " (subdivided or absent)" % (f,)
            )
        if f not in space_facets:
            return "neighborhood cell %s is not maximal in the complex" % (f,)
    before_facets = set(body_before.facets)
    for f in x.complex.facets_containing(inner.a):
        if f not in before_facets:
            return (
                "the star of %s reaches outside the stark neighborhood"
                " (facet %s)" % (inner.a, f)
            )
    # removed simplices must sit in exactly the strata the cone levels say,
    # otherwise the replacement would shift memberships near the ball
    vstrat = _vertex_strata(x)
    aset = set(inner.a)
    for s in body_before.simplices:
        if not aset <= set(s):
            continue
        want = max(k, max(vstrat[v] for v in s))
        for l in range(x.n + 1):
            if (s in x.strata[l]) != (l >= want):
                return "stratum memberships of %s do not follow the cone levels" % (s,)
    return None


def apply_stark_extended_bistellar(
    x: FilteredComplex, nbhd: StarkNeighborhood, inner: BistellarMove
) -> FilteredComplex:
    """Replace [A * dB] up N with [dA * B] up N.

    The replaced simplices are exactly those containing A and the inserted
    ones exactly those containing B; an inserted simplex joins stratum l
    for every l >= max(k, strata of its vertices), a fresh vertex counting
    as stratum k.  On filtered manifolds this reproduces
    apply_extended_bistellar stratum for stratum.
    """
    problem = stark_obstruction(x, nbhd, inner)
    if problem is not None:
        raise StarkError("cannot apply %s in a stark neighborhood: %s" % (inner, problem))
    k = nbhd.k
    after = inserted_ball(inner)
    body_after = cone_extend(after, nbhd)
    vstrat = _vertex_strata(x)
    bset = set(inner.b)
    added = [
        (max(k, max(vstrat.get(v, k) for v in s)), s)
        for s in body_after.simplices
        if bset <= set(s)
    ]
    aset = set(inner.a)
    new_strata = list(x.strata[:k])
    for l in range(k, x.n + 1):
        kept = [f for f in x.strata[l].facets if not aset <= set(f)]
        kept.extend(s for level, s in added if level <= l)
        new_strata.append(closure(kept))
    return FilteredComplex(tuple(new_strata))


@dataclass(frozen=True)
class StarkMove:
    """A stark extended bistellar operation as data: the neighborhood with
    the inner move in its base ball."""

    neighborhood: StarkNeighborhood
    inner: BistellarMove

    def inverse(self) -> "StarkMove":
        return StarkMove(
            inverse_neighborhood(self.neighborhood, self.inner),
            self.inner.inverse(),
        )

    def __str__(self):
        return "stark %s over %d apexes" % (self.inner, len(self.neighborhood.apexes))


def apply_stark_move(x: FilteredComplex, move: StarkMove) -> FilteredComplex:
    return apply_stark_extended_bistellar(x, move.neighborhood, move.inner)


@dataclass(frozen=True)
class StarkSchema:
    """Structure type of a stark neighborhood: the base dimension together
    with, per level, the sorted support sizes of its cells."""

    k: int
    levels: tuple[tuple[int, ...], ...]

    @property
    def apex_count(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def weight(self) -> int:
        # one inverse pair per unordered inner split {j, k-j}, propagated
        # through the base plus one cone per apex
        return (self.k // 2 + 1) * (1 + self.apex_count)

    def __str__(self):
        return "k=%d levels=%s" % (self.k, [list(level) for level in self.levels])


@dataclass(frozen=True)
class StarkCensus:
    schemas: tuple[StarkSchema, ...]

    @property
    def size(self) -> int:
        return sum(schema.weight for schema in self.schemas)


def schema_of(nbhd: StarkNeighborhood) -> StarkSchema:
    return StarkSchema(
        nbhd.k,
        tuple(
            tuple(sorted(len(sup) for _, sup in level)) for level in nbhd.levels
        ),
    )


def stark_schema_census(neighborhoods) -> StarkCensus:
    """Distinct neighborhood schemas of the given local models, weighted by
    the move descriptions each carries.  Families like the join of an edge
    with ever more points grow without bound here, which is the point: no
    finite move set covers all starkly stratified spaces of one dimension."""
    schemas = sorted(
        {schema_of(n) for n in neighborhoods},
        key=lambda s: (s.k, s.levels),
    )
    return StarkCensus(tuple(schemas))
