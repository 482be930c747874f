"""Filtered manifolds and extended bistellar moves.

A filtered complex carries nested strata M_0 within M_1 within ... within
M_n = K.  A bistellar move chi_(A,B) performed inside the stratum M_k
propagates upward through its iterated filtered suspension: writing P_l for
the join of the apex pairs of levels k+1..l, the move is available when

    lk(A; M_l) = boundary(B) * P_l          for every l = k..n,

with each level's two apexes lying in the next-higher open stratum, and it
replaces the suspended star (A * boundary(B)) * P_l by (boundary(A) * B) *
P_l inside every M_l.  Restricted to M_k this is exactly the inner
bistellar move; that commutation is what the tests pin down.

``extended_applicable`` reads the link condition from the star index of
each level, as star(A; M_l) = {A + (B - y) + p : y in B, p a facet of P_l},
or {A + p} when B is a fresh vertex, so a checked move builds no link or
join.  ``_extended_move`` is the one lift of an inner move: through the
apexes its links force, then the full check.

Local flatness of the strata is an input assumption; validate_filtration
says so rather than pretending to check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .complexes import (
    Complex,
    Simplex,
    _as_simplex,
    closure,
    fresh_vertex,
    join,
    product_with_interval,
)
from .manifold import Verdict, check_combinatorial_manifold
from .moves import BistellarMove, MoveError, _derived, _inserted_facets, enumerate_moves


class FiltrationError(ValueError):
    pass


@dataclass(frozen=True)
class FilteredComplex:
    """Strata M_0 .. M_n with M_n the whole complex.  Cheap structural
    invariants (nesting, dimension bounds) are enforced on construction;
    the manifold conditions live in validate_filtration."""

    strata: tuple[Complex, ...]

    def __post_init__(self):
        strata = tuple(self.strata)
        object.__setattr__(self, "strata", strata)
        if not strata:
            raise FiltrationError("a filtered complex needs at least one stratum")
        n = len(strata) - 1
        if strata[n].dim > n:
            raise FiltrationError(
                "top stratum has dimension %d, expected at most %d" % (strata[n].dim, n)
            )
        for k, m in enumerate(strata):
            if m and m.dim > k:
                raise FiltrationError("stratum %d has dimension %d" % (k, m.dim))
            if k < n and m and not m.is_subcomplex_of(strata[k + 1]):
                raise FiltrationError("stratum %d is not contained in stratum %d" % (k, k + 1))

    @property
    def complex(self) -> Complex:
        return self.strata[-1]

    @property
    def n(self) -> int:
        return len(self.strata) - 1

    def __eq__(self, other):
        return isinstance(other, FilteredComplex) and self.strata == other.strata

    def __hash__(self):
        return hash(self.strata)


@dataclass(frozen=True)
class SuspensionData:
    """Apex pairs per level for an iterated filtered suspension starting at
    stratum dimension start; level k+1+i uses apexes[i]."""

    start: int
    apexes: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ExtendedMove:
    """An inner bistellar move in stratum dimension ``stratum`` together
    with the suspension carrying it up to the top stratum."""

    stratum: int
    inner: BistellarMove
    suspension: SuspensionData

    def __post_init__(self):
        if self.suspension.start != self.stratum:
            raise FiltrationError("suspension data starts at the wrong stratum")

    def inverse(self) -> "ExtendedMove":
        return ExtendedMove(self.stratum, self.inner.inverse(), self.suspension)

    def __str__(self):
        return "extended[%d] %s via %s" % (self.stratum, self.inner, list(self.suspension.apexes))


@dataclass(frozen=True)
class FiltrationReport:
    ok: bool
    findings: tuple[str, ...]
    notes: tuple[str, ...]


def validate_filtration(fc: FilteredComplex) -> FiltrationReport:
    """Check what can be checked combinatorially: nesting and dimension
    bounds hold by construction; each nonempty stratum must be pure of its
    own dimension and pass the combinatorial-manifold report (boundary
    allowed).  Local flatness of strata is assumed, not checked."""
    findings = []
    for k, m in enumerate(fc.strata):
        if not m:
            continue
        if m.dim != k:
            findings.append("stratum %d is %d-dimensional" % (k, m.dim))
            continue
        if not m.is_pure:
            findings.append("stratum %d is not pure" % k)
            continue
        report = check_combinatorial_manifold(m)
        if report.verdict is Verdict.NO:
            findings.append("stratum %d fails the manifold check: %s" % (k, report))
    return FiltrationReport(
        ok=not findings,
        findings=tuple(findings),
        notes=("local flatness of strata is assumed, not checked",),
    )


def _is_fresh_inner(fc: FilteredComplex, inner: BistellarMove) -> bool:
    """A facet-subdivision inner move is recognized by its b being a single
    vertex absent from the whole complex."""
    return inner.b.dim == 0 and inner.b[0] not in fc.complex.vertices


def _stratum_avoid(fc: FilteredComplex, k: int) -> Complex:
    """What an inner move of stratum k keeps: the lower stratum and the
    boundary of M_k."""
    return closure(
        list(fc.strata[k - 1].facets) + list(fc.strata[k].boundary_complex.facets)
    )


def extended_applicable(fc: FilteredComplex, move: ExtendedMove) -> str | None:
    """None when the move applies; otherwise the first failed condition."""
    k = move.stratum
    inner = move.inner
    if not 1 <= k <= fc.n:
        return "stratum index %d outside 1..%d" % (k, fc.n)
    if len(move.suspension.apexes) != fc.n - k:
        return "suspension must carry %d levels, has %d" % (
            fc.n - k,
            len(move.suspension.apexes),
        )
    mk = fc.strata[k]
    a = inner.a
    if a not in mk:
        return "%s is not a simplex of stratum %d" % (a, k)
    if k > 0 and a in fc.strata[k - 1]:
        return "%s is not in the open stratum %d" % (a, k)
    if a in mk.boundary_complex:
        return "%s lies in the boundary of stratum %d" % (a, k)
    fresh = _is_fresh_inner(fc, inner)
    if fresh:
        if a.dim != k:
            return "fresh-vertex move needs a %d-simplex, got %s" % (k, a)
    else:
        if inner.n != k:
            return "inner move dimensions do not sum to %d" % k
        if inner.b in fc.complex:
            return "co-simplex %s already present" % (inner.b,)
    seen = set()
    for level, (plus, minus) in zip(range(k + 1, fc.n + 1), move.suspension.apexes):
        upper_vertices = fc.strata[level].vertices
        lower_vertices = fc.strata[level - 1].vertices
        for v in (plus, minus):
            if v in lower_vertices or v not in upper_vertices:
                return "apex %d is not in the open stratum %d" % (v, level)
            if v in seen:
                return "apex %d repeated" % v
            seen.add(v)
    # star(a; M_level) must be the facets of a * boundary(b) * P_level, built
    # one apex pair at a time; for a fresh vertex b this starts from a alone
    expected = _inserted_facets(inner.b, a)
    for level in range(k, fc.n + 1):
        if level > k:
            pair = move.suspension.apexes[level - k - 1]
            expected = [tuple(sorted(f + (v,))) for f in expected for v in pair]
        if set(fc.strata[level]._star_index[a]) != set(expected):
            return "link of %s in stratum %d is not the suspended boundary" % (a, level)
    return None


def apply_extended_bistellar(fc: FilteredComplex, move: ExtendedMove) -> FilteredComplex:
    """Replace the iterated suspension of [A * dB] with that of [dA * B] in
    every stratum from the move's own upward.  Restriction to M_k is the
    plain bistellar move; lower strata are untouched.  Each rebuilt stratum
    is handed its parent's boundary, which it keeps: the replaced and the
    inserted ball share their frontier boundary(a) * boundary(b) * P_l.
    Each rebuilt stratum derives its star index from its parent's, one facet
    p of P_l at a time, through the star update of a plain move.

    >>> from .demos import filtered_s2_equator
    >>> from .homology import f_vector
    >>> fc = filtered_s2_equator()
    >>> move = enumerate_extended_moves(fc)[0]
    >>> print(move)
    extended[1] chi([1, 2], [6]) via [(4, 5)]
    >>> out = apply_extended_bistellar(fc, move)
    >>> [f_vector(m) for m in fc.strata[1:]], [f_vector(m) for m in out.strata[1:]]
    ([(3, 3), (5, 9, 6)], [(4, 4), (6, 12, 8)])
    >>> apply_extended_bistellar(out, move.inverse()) == fc
    True
    """
    problem = extended_applicable(fc, move)
    if problem is not None:
        raise MoveError("cannot apply %s: %s" % (move, problem))
    k = move.stratum
    a, b = move.inner.a, move.inner.b
    new_strata = list(fc.strata[:k])
    for level in range(k, fc.n + 1):
        # the facets p of P_level, one apex of each pair
        apexes = product(*move.suspension.apexes[: level - k])
        out = _derived(fc.strata[level], a, b, apexes)
        out.__dict__["boundary_complex"] = fc.strata[level].boundary_complex
        new_strata.append(out)
    return FilteredComplex(tuple(new_strata))


def suspension_from_links(
    fc: FilteredComplex, a, b, k: int
) -> SuspensionData | None:
    """Derive the apex pair of each level directly from the links of ``a``:
    when the extended move is available the apexes are forced, being the
    vertices of lk(a; M_{l}), the union of star(a; M_l) less a, beyond those
    of the level below.  Returns None as soon as the forced shape fails."""
    a = _as_simplex(a)
    pairs = []
    prev_vertices = set() if b is None else set(b)
    for level in range(k + 1, fc.n + 1):
        star = fc.strata[level]._star_index.get(a, ())
        extra = sorted(set().union(*star).difference(a, prev_vertices))
        lower = fc.strata[level - 1].vertices
        extra = [v for v in extra if v not in lower]
        if len(extra) != 2:
            return None
        pairs.append((extra[0], extra[1]))
        prev_vertices |= set(extra)
    return SuspensionData(k, tuple(pairs))


def _extended_move(fc: FilteredComplex, k: int, inner: BistellarMove) -> ExtendedMove | None:
    """The inner move of stratum k lifted through its forced suspension, or
    None when the lifted move is not available."""
    susp = suspension_from_links(fc, inner.a, None if _is_fresh_inner(fc, inner) else inner.b, k)
    if susp is None:
        return None
    move = ExtendedMove(k, inner, susp)
    return move if extended_applicable(fc, move) is None else None


def enumerate_extended_moves(fc: FilteredComplex) -> list[ExtendedMove]:
    """Every applicable extended move, ordered by (stratum, inner move).

    Inner candidates come from each pure stratum, with its lower stratum
    and its boundary avoided; a stratum that is not pure carries none.
    Fresh labels are fresh for the whole complex.  Each candidate is lifted
    through the suspension its links force, and the full applicability
    check filters the rest.
    """
    out = []
    floor = fresh_vertex(fc.complex) - 1
    for k in range(1, fc.n + 1):
        mk = fc.strata[k]
        if not mk or mk.dim != k or not mk.is_pure:
            continue
        for inner in enumerate_moves(mk, _stratum_avoid(fc, k), label_floor=floor):
            move = _extended_move(fc, k, inner)
            if move is not None:
                out.append(move)
    return out


@dataclass(frozen=True)
class BallInterval:
    """The output of ball_times_interval: the triangulated product together
    with the source ball, the three copy maps and the two cone apexes."""

    complex: Complex
    source: Complex
    minus_map: dict
    zero_map: dict
    plus_map: dict
    apex_plus: int
    apex_minus: int

    def suspension_part(self) -> Complex:
        """The suspension of the middle copy from the two apexes, which the
        construction contains as a subcomplex."""
        middle = Complex(
            [Simplex(self.zero_map[v] for v in f) for f in self.source.facets],
            _trusted=True,
        )
        return join(
            middle,
            Complex([Simplex([self.apex_plus]), Simplex([self.apex_minus])], _trusted=True),
        )


def ball_times_interval(b: Complex, vertex_order=None, apexes=None) -> BallInterval:
    """Triangulate B x [-1, 1] from three copies of B, staircase walls over
    the boundary, and two cone apexes.

    Copies of B sit at heights 1, 0, -1; dB x [0,1] and dB x [-1,0] get the
    staircase triangulation induced by ``vertex_order``; what remains of
    B x [0,1] is starred from apex_plus and of B x [-1,0] from apex_minus.
    The suspension of the middle copy from the two apexes is a subcomplex,
    which is the point of the construction.
    """
    if not b:
        raise MoveError("cannot thicken the empty complex")
    report = check_combinatorial_manifold(b)
    if not report.pseudomanifold:
        raise MoveError("input fails the pseudomanifold-with-boundary check: %s" % report)
    verts = sorted(b.vertices)
    order = list(vertex_order) if vertex_order is not None else verts
    if set(order) != set(verts):
        raise MoveError("vertex_order must enumerate the vertex set exactly")
    base = fresh_vertex(b)
    zero_map = {v: v for v in verts}
    plus_map = {v: base + i for i, v in enumerate(verts)}
    minus_map = {v: base + len(verts) + i for i, v in enumerate(verts)}
    if apexes is None:
        apex_plus, apex_minus = base + 2 * len(verts), base + 2 * len(verts) + 1
    else:
        apex_plus, apex_minus = apexes
        used = set(verts) | set(plus_map.values()) | set(minus_map.values())
        if apex_plus == apex_minus or {apex_plus, apex_minus} & used:
            raise MoveError("apex labels collide with the construction")

    def relabeled(mapping):
        return Complex([Simplex(mapping[v] for v in f) for f in b.facets], _trusted=True)

    boundary = b.boundary_complex
    sides = {}
    for name, bottom, top in (("plus", zero_map, plus_map), ("minus", minus_map, zero_map)):
        if boundary:
            border = [v for v in order if v in boundary.vertices]
            wall = product_with_interval(
                boundary,
                border,
                bottom_labels={v: bottom[v] for v in boundary.vertices},
                top_labels={v: top[v] for v in boundary.vertices},
            )
            wall_facets = list(wall.facets)
        else:
            wall_facets = []
        cell_boundary = closure(
            list(relabeled(bottom).facets) + list(relabeled(top).facets) + wall_facets
        )
        apex = apex_plus if name == "plus" else apex_minus
        sides[name] = [f.joined(Simplex([apex])) for f in cell_boundary.facets]
    result = closure(sides["plus"] + sides["minus"])
    return BallInterval(result, b, minus_map, zero_map, plus_map, apex_plus, apex_minus)


@dataclass(frozen=True)
class SchemaEntry:
    stratum_dim: int
    pair: tuple[int, int]  # inner move dimensions (j, k - j), j <= k - j
    suspension_depth: int


@dataclass(frozen=True)
class SchemaCensus:
    ambient_dim: int
    present_dims: tuple[int, ...]
    entries: tuple[SchemaEntry, ...]
    quoted_pair_count: int

    @property
    def pair_count(self) -> int:
        return len(self.entries)


def count_move_schemas(n: int, present_dims=None) -> SchemaCensus:
    """The census of inverse pairs of extended-move schemas.

    For each stratum dimension k the inner bistellar operations chi_(A,B)
    with dim A = j, dim B = k - j pair off under inversion as {j, k-j}, so a
    k-stratum contributes floor(k/2) + 1 pairs, each carried by an
    (n-k)-fold suspension.  ``present_dims`` restricts which stratum
    dimensions occur (default: all of 1..n; dimension-0 strata carry no
    moves).  The pattern of a knotted surface, strata of dimensions 1, 2
    and 3, yields exactly five pairs.  The count n*n - n quoted for the
    general filtered case is reported alongside, not asserted: it differs
    from this enumeration.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    dims = tuple(sorted(set(range(1, n + 1) if present_dims is None else present_dims)))
    if any(k < 1 or k > n for k in dims):
        raise ValueError("stratum dimensions must lie in 1..%d" % n)
    entries = []
    for k in dims:
        for j in range(0, k // 2 + 1):
            entries.append(SchemaEntry(k, (j, k - j), n - k))
    return SchemaCensus(n, dims, tuple(entries), n * n - n)
