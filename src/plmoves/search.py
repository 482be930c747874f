"""Flip-graph search and move-sequence certificates.

The searchable flip graph is a digraph over complexes with canonical
labeling: flips and removals are always edges, while an insertion edge must
use the one canonical fresh label max(labels, floor) + 1.  Recorded walks
draw from the same move sets as enumerate_moves and live inside this graph,
so a bidirectional breadth-first search can meet in the middle and return a
certificate.  A move changes only the closed star of a, so the search
keeps move sets the same way: the two ends get fresh, validated move sets,
and every other state it expands copies its parent's and advances the copy
by the one move that made the state.  Every successor, a bare facet set,
is built from the move set's star without verifying the move; the
certificate is verified by replay before anyone sees it.  Search is a
semi-decision procedure: a None means the budget ran out, except when the
ends differ in dimension or Euler characteristic, which no sequence of moves
changes, or when the target holds a label at or below the floor that the
start lacks.  Every insertion edge of the digraph creates a label above the
floor, so such a label is out of reach: a proof only within the
canonical-label digraph, since apply_bistellar accepts any unused label.

stratified_align mirrors the stratum-by-stratum induction of the main
theorem: align the lowest differing stratum with an inner search, realize
each inner move as an extended move through its forced suspension, and move
up.  When label interleaving between strata defeats that fast path, a
bounded bidirectional search over whole filtered states takes over.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .complexes import (
    EMPTY,
    Complex,
    Simplex,
    canonical_facet_text,
    facet_text,
    fingerprint,
    fresh_vertex,
)
from .filtration import (
    ExtendedMove,
    FilteredComplex,
    _extended_move,
    _is_fresh_inner,
    _stratum_avoid,
    apply_extended_bistellar,
    enumerate_extended_moves,
    validate_filtration,
)
from .homology import euler_characteristic, f_vector, minimal_sphere_f_vector
from .moves import (
    BistellarMove,
    MoveError,
    MoveSet,
    _inserted_facets,
    apply_bistellar,
    greedy_reduction,
)
from .stark import StarkMove, apply_stark_move


class SearchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    """depth caps certificate length; nodes caps generated search states."""

    depth: int = 8
    nodes: int = 2_000_000


_KINDS = ("bistellar", "extended", "stark")


@dataclass(frozen=True)
class MoveRecord:
    """One tagged step of a certificate."""

    kind: str
    move: object

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SearchError("unknown move record kind %r" % (self.kind,))
        want = {
            "bistellar": BistellarMove,
            "extended": ExtendedMove,
            "stark": StarkMove,
        }[self.kind]
        if not isinstance(self.move, want):
            raise SearchError(
                "%s record needs a %s" % (self.kind, want.__name__)
            )

    def __str__(self):
        return "%s %s" % (self.kind, self.move)


def state_fingerprint(state) -> str:
    """Canonical 16-hex fingerprint of a complex or of a stratified state
    (all strata in order)."""
    if isinstance(state, Complex):
        return fingerprint(state)
    return hashlib.sha256(_strata_key(state).encode("ascii")).hexdigest()[:16]


def _strata_key(fc: FilteredComplex) -> str:
    """The canonical facet texts of all strata, in order."""
    return "|".join(canonical_facet_text(m) for m in fc.strata)


@dataclass(frozen=True)
class MoveSequence:
    """A replayable certificate: the fingerprint of the complex it starts
    from and the tagged moves in order."""

    start_fingerprint: str
    moves: tuple[MoveRecord, ...]

    @classmethod
    def for_state(cls, state, records) -> "MoveSequence":
        return cls(state_fingerprint(state), tuple(records))

    def __len__(self):
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)


def _apply_record(state, record: MoveRecord):
    if record.kind == "bistellar":
        if not isinstance(state, Complex):
            raise SearchError("bistellar record applied to a stratified state")
        return apply_bistellar(state, record.move)
    if not isinstance(state, FilteredComplex):
        raise SearchError("%s record needs a filtered complex" % record.kind)
    if record.kind == "extended":
        return apply_extended_bistellar(state, record.move)
    return apply_stark_move(state, record.move)


def replay(state, seq: MoveSequence):
    """Apply every move of the certificate with full precondition checking,
    failing loudly at the first illegal step."""
    have = state_fingerprint(state)
    if have != seq.start_fingerprint:
        raise SearchError(
            "fingerprint mismatch: sequence starts at %s, state is %s"
            % (seq.start_fingerprint, have)
        )
    current = state
    for i, record in enumerate(seq.moves):
        try:
            current = _apply_record(current, record)
        except (MoveError, ValueError) as e:
            raise SearchError("illegal step %d (%s): %s" % (i, record, e)) from None
    return current


def _bidirectional(start, goal, expand_fw, expand_bw, key, budget: SearchBudget):
    """Move path start -> goal in the canonical-label digraph, or None.

    expand_fw(node, made_by) returns (context, successors), where successors
    yields (move, successor); expand_bw(node, made_by) returns (context,
    predecessors), where predecessors yields (move, predecessor) and the move
    labels the edge predecessor -> node.  made_by is None for the two ends,
    and for any other node (context, move): the context its parent's
    expansion returned and the move on the edge between them.

    One loop serves both sides.  A side is its reached dict (node -> None
    at its end, else the node it came from and the move between them), its
    frontier, the contexts of the layer it expanded last and its expander.
    Each round expands the smaller frontier, forward on ties, one layer
    deep, in canonical-key order, so a side keeps the contexts of the layer
    it is expanding and of the layer before, no more.  Every generated
    node counts against budget.nodes and every layer against budget.depth.
    """
    if start == goal:
        return []
    # a side: [reached, frontier, contexts of the last layer, expander]
    fw = [{start: None}, [start], {}, expand_fw]
    bw = [{goal: None}, [goal], {}, expand_bw]
    used = depth = 0
    while fw[1] and bw[1] and depth < budget.depth:
        depth += 1
        side, other = (fw, bw) if len(fw[1]) <= len(bw[1]) else (bw, fw)
        reached, frontier, contexts, expand = side
        grown = []
        expanded = {}
        for node in sorted(frontier, key=key):
            made = reached[node]
            made_by = None if made is None else (contexts[made[0]], made[1])
            expanded[node], edges = expand(node, made_by)
            for move, nxt in edges:
                used += 1
                if used > budget.nodes:
                    return None
                if nxt in reached:
                    continue
                reached[nxt] = (node, move)
                if nxt in other[0]:
                    return _walk_back(fw[0], nxt)[::-1] + _walk_back(bw[0], nxt)
                grown.append(nxt)
        side[1], side[2] = grown, expanded
    return None


def _walk_back(reached, node) -> list:
    """The moves on the reached path from node to its side's end, nearest
    first."""
    moves = []
    while reached[node] is not None:
        node, move = reached[node]
        moves.append(move)
    return moves


def _replayed(start, goal, records) -> MoveSequence:
    """The certificate of these records from start, once it replays to
    goal."""
    seq = MoveSequence.for_state(start, records)
    if replay(start, seq) != goal:
        raise SearchError("internal error: certificate failed replay")
    return seq


def _fresh_without(vertices, v: int, floor: int) -> int:
    """The canonical fresh label once the vertex v is removed from a complex
    with these vertices: fresh_vertex of the result, without building it."""
    return max(max((u for u in vertices if u != v), default=-1), floor) + 1


class _FacetTexts(dict):
    """facet -> facet_text(facet), built on first use; ``key`` joins them
    into the canonical_facet_text of a facet set."""

    def __missing__(self, f):
        text = self[f] = facet_text(f)
        return text

    def key(self, facets) -> str:
        return ";".join(map(self.__getitem__, sorted(facets)))


class _MoveSetOf:
    """The move set of a state of flip_search, derived from its parent's.

    A state's own expansion derives its move set (``derive``) and drops it
    once the successors are built.  The first of its successors to be
    expanded derives it again and keeps it for the rest (``held``), and
    then lets go of the parent's.  So a search holds the move sets of the
    states whose successors it is expanding, not of every state it
    expanded, at the cost of one more move per state with an expanded
    successor.  The ends hold fresh move sets from the start.
    """

    __slots__ = ("parent", "move", "_held")

    def __init__(self, parent, move, ms=None):
        self.parent = parent
        self.move = move
        self._held = ms

    def derive(self) -> MoveSet:
        ms = self.parent.held().copy()
        ms.apply(*self.move)
        return ms

    def held(self) -> MoveSet:
        if self._held is None:
            self._held = self.derive()
            self.parent = None
        return self._held


def flip_search(
    k1: Complex,
    k2: Complex,
    avoid: Complex = EMPTY,
    budget: SearchBudget | None = None,
    label_floor: int = -1,
) -> MoveSequence | None:
    """A bistellar certificate from k1 to k2 touching only moves from
    enumerate_moves(., avoid), or None.

    None means the budget ran out, that the ends differ in dimension or
    Euler characteristic, which bistellar moves preserve, or that k2 holds
    a label at or below label_floor that k1 lacks; the last two are found
    before any search.  Only the second is a proof that no sequence
    exists.  The third is a proof within the canonical-label digraph,
    whose every insertion edge creates a label above the floor: forward
    subdivisions take max(labels, floor) + 1, a backward reinsertion of a
    must be _fresh_without's label, and the backward predecessors that gain
    end labels are removal edges.

    A state is the frozenset of its facets.  The ends get fresh move sets,
    validated as enumerate_moves validates them; every other state's move
    set is a copy of its parent's advanced by the one move that made the
    state, which lists exactly the moves a fresh one would, since a move at
    a face outside ``avoid`` keeps both ``avoid`` and the boundary.  Each
    successor is its parent's facets minus the star of a plus those of
    boundary(a) * b, built without verifying the move again; replaying the
    returned certificate, with every precondition checked, is the check.
    Backward expansion enumerates insertion predecessors: a removed label
    must either be canonically fresh for the predecessor or come back from
    the label set of the two ends; ephemeral helper labels beyond that are
    out of reach, which only ever costs completeness, never soundness.
    """
    budget = budget or SearchBudget()
    if avoid and not (avoid.is_subcomplex_of(k1) and avoid.is_subcomplex_of(k2)):
        raise SearchError("the avoided subcomplex is not shared by both ends")
    if k1.dim != k2.dim or euler_characteristic(k1) != euler_characteristic(k2):
        return None
    if any(v <= label_floor for v in k2.vertices - k1.vertices):
        return None
    end_labels = k1.vertices | k2.vertices
    ends = {k1.facets: k1, k2.facets: k2}
    avoided = avoid.simplices

    # Edges carry moves as (a, b) pairs; only the certificate's become
    # BistellarMove records.  The context of an expanded state is its
    # _MoveSetOf.  The facets each move inserts are built once and shared by
    # every state that holds them.
    inserted = {}

    def step(facets, ms, a, b):
        new = inserted.get((a, b))
        if new is None:
            new = inserted[a, b] = _inserted_facets(a, b)
        return facets.difference(ms.star(a)).union(new)

    def move_set(facets, made_by, backward):
        # the state's _MoveSetOf and move set; a backward edge is labelled
        # with the inverse of the move that made the state
        if made_by is None:
            of = _MoveSetOf(None, None, MoveSet(ends[facets], avoid, label_floor))
            return of, of.held()
        parent, (a, b) = made_by
        of = _MoveSetOf(parent, (b, a) if backward else (a, b))
        return of, of.derive()

    def expand_fw(facets, made_by):
        of, ms = move_set(facets, made_by, False)
        return of, ((move, step(facets, ms, *move)) for move in ms.moves())

    def expand_bw(facets, made_by):
        of, ms = move_set(facets, made_by, True)
        return of, predecessors(facets, ms)

    def predecessors(facets, ms):
        vertices = set().union(*facets)
        for a, b in ms.moves():
            if len(b) == 1:
                continue  # insertions get chosen labels below
            if len(a) == 1 and a[0] != _fresh_without(vertices, a[0], label_floor):
                continue  # the reverse insertion would use a non-canonical label
            yield (b, a), step(facets, ms, a, b)
        # subdividing a facet of avoid would remove it from the predecessor
        outside = [f for f in sorted(facets) if f not in avoided]
        fresh = max(max(vertices), label_floor) + 1
        for v in sorted((end_labels - vertices) | {fresh}):
            vertex = tuple.__new__(Simplex, (v,))
            for facet in outside:
                yield (vertex, facet), step(facets, ms, facet, vertex)

    key = _FacetTexts().key
    moves = _bidirectional(k1.facets, k2.facets, expand_fw, expand_bw, key, budget)
    if moves is None:
        return None
    return _replayed(
        k1, k2, [MoveRecord("bistellar", BistellarMove(a, b)) for a, b in moves]
    )


def random_walk(
    k: Complex,
    steps: int,
    seed: int = 0,
    avoid: Complex = EMPTY,
    label_floor: int = -1,
) -> tuple[Complex, MoveSequence]:
    """A recorded random walk in the flip graph; uniform over the moves
    available at each step, deterministic for a fixed seed.  The steps
    follow one incremental move set and are not verified one by one:
    replaying the certificate is the check.  Each step draws a face from
    the move set's ordered faces, the same draw as from ``moves()``, and
    reads the move there.

    >>> from .complexes import boundary_of_simplex
    >>> s3 = boundary_of_simplex(4)
    >>> end, seq = random_walk(s3, 10, seed=1)
    >>> len(seq), f_vector(end), replay(s3, seq) == end
    (10, (13, 42, 58, 29), True)
    """
    if steps <= 0:
        return k, MoveSequence.for_state(k, [])
    rng = random.Random(seed)
    records = []
    ms = MoveSet(k, avoid, label_floor)
    for _ in range(steps):
        faces = ms.faces()
        if not faces:
            break
        a, b = ms.move_at(rng.choice(faces))
        ms.apply(a, b)
        records.append(MoveRecord("bistellar", BistellarMove(a, b)))
    return ms.complex(), MoveSequence.for_state(k, records)


def random_extended_walk(
    fc: FilteredComplex, steps: int, seed: int = 0
) -> tuple[FilteredComplex, MoveSequence]:
    """A recorded random walk by extended moves on a filtered manifold."""
    rng = random.Random(seed)
    records = []
    current = fc
    for _ in range(steps):
        moves = enumerate_extended_moves(current)
        if not moves:
            break
        move = rng.choice(moves)
        current = apply_extended_bistellar(current, move)
        records.append(MoveRecord("extended", move))
    return current, MoveSequence.for_state(fc, records)


def reduce(
    k: Complex,
    move_budget: int = 600,
    seed: int = 0,
) -> tuple[Complex, MoveSequence]:
    """Drive a closed pseudomanifold toward a minimal triangulation.

    The moves are those of ``moves.greedy_reduction``, the one greedy
    reducer, which the sphere verdict runs too: the most
    simplex-count-decreasing move first, and on a plateau a bounded
    allowance of seeded sideways or mildly uphill moves within 2 of the
    simplex-count high-water mark.  Like random_walk it follows one
    incremental move set without verifying each step; the certificate
    always replays.  A complex with boundary is refused with a SearchError.

    >>> from .complexes import boundary_of_simplex
    >>> walked, _ = random_walk(boundary_of_simplex(4), 10, seed=1)
    >>> end, seq = reduce(walked)
    >>> len(seq), f_vector(end), replay(walked, seq) == end
    (8, (5, 10, 10, 5), True)
    """
    if move_budget <= 0 or f_vector(k) == minimal_sphere_f_vector(k.dim):
        return k, MoveSequence.for_state(k, [])
    if k.boundary_complex:
        raise SearchError("reduce needs a closed complex; this one has boundary")
    ms = MoveSet(k)
    records = [
        MoveRecord("bistellar", BistellarMove(a, b))
        for a, b in greedy_reduction(ms, move_budget, seed)
    ]
    return ms.complex(), MoveSequence.for_state(k, records)


def _align_fast(fc1: FilteredComplex, fc2: FilteredComplex, budget: SearchBudget):
    """Stratum-by-stratum alignment: search inside each stratum, realize
    the inner moves through their forced suspensions.  Returns the records
    or None when any stage fails; label interleaving across strata is the
    usual reason.  Each inner search runs with its floor just below the
    fresh label of the current complex, so a target stratum that needs back
    a lower label it lacks fails at once, without a search."""
    records = []
    current = fc1
    for k in range(1, fc1.n + 1):
        if current.strata[k] == fc2.strata[k]:
            continue
        avoid = _stratum_avoid(current, k)
        if not avoid.is_subcomplex_of(fc2.strata[k]):
            return None
        floor = fresh_vertex(current.complex) - 1
        inner_seq = flip_search(
            current.strata[k], fc2.strata[k], avoid, budget, label_floor=floor
        )
        if inner_seq is None:
            return None
        for record in inner_seq.moves:
            move = _extended_move(current, k, record.move)
            if move is None:
                return None
            current = apply_extended_bistellar(current, move)
            records.append(MoveRecord("extended", move))
    if current != fc2:
        return None
    return records


def _align_states(fc1: FilteredComplex, fc2: FilteredComplex, budget: SearchBudget):
    """Bidirectional search over whole filtered states; complete for walks
    recorded with canonical fresh labels whose removals return end labels."""
    end_labels = fc1.complex.vertices | fc2.complex.vertices

    def expand_fw(fc, _made_by):
        return None, [
            (m, apply_extended_bistellar(fc, m)) for m in enumerate_extended_moves(fc)
        ]

    def expand_bw(fc, _made_by):
        out = []
        for m in enumerate_extended_moves(fc):
            inner = m.inner
            if _is_fresh_inner(fc, inner):
                continue  # insertions get chosen labels below
            result = apply_extended_bistellar(fc, m)
            if inner.a.dim == 0 and inner.a[0] != fresh_vertex(result.complex):
                continue
            out.append((m.inverse(), result))
        labels = sorted(
            (end_labels - fc.complex.vertices) | {fresh_vertex(fc.complex)}
        )
        for k in range(1, fc.n + 1):
            for facet in sorted(fc.strata[k].facets):
                for v in labels:
                    grow = _extended_move(fc, k, BistellarMove(facet, Simplex([v])))
                    if grow is not None:
                        out.append((grow.inverse(), apply_extended_bistellar(fc, grow)))
        return None, out

    return _bidirectional(fc1, fc2, expand_fw, expand_bw, _strata_key, budget)


def stratified_align(
    fc1: FilteredComplex, fc2: FilteredComplex, budget: SearchBudget | None = None
) -> MoveSequence | None:
    """An extended-move certificate turning fc1 into fc2, or None when the
    budgets run out.  Works stratum by stratum like the main equivalence
    theorem; falls back to a bounded search over whole filtered states when
    the stratumwise path cannot realize the target labels."""
    budget = budget or SearchBudget()
    for name, fc in (("first", fc1), ("second", fc2)):
        report = validate_filtration(fc)
        if not report.ok:
            raise SearchError(
                "%s filtration invalid: %s" % (name, "; ".join(report.findings))
            )
    if fc1.n != fc2.n:
        raise SearchError("filtrations have different lengths")
    if fc1.strata[0] != fc2.strata[0]:
        raise SearchError("filtrations disagree on the 0-stratum")
    if fc1 == fc2:
        return MoveSequence.for_state(fc1, [])
    records = _align_fast(fc1, fc2, budget)
    if records is None:
        moves = _align_states(fc1, fc2, budget)
        if moves is None:
            return None
        records = [MoveRecord("extended", m) for m in moves]
    return _replayed(fc1, fc2, records)


def find_isomorphism(k1: Complex, k2: Complex) -> dict | None:
    """A vertex bijection carrying k1's facets onto k2's, or None.  Plain
    backtracking with degree-signature pruning; meant for small targets
    like minimal spheres, not for general graph isomorphism duty."""
    if k1.dim != k2.dim or len(k1.facets) != len(k2.facets):
        return None
    if len(k1.vertices) != len(k2.vertices):
        return None

    def signature(k, v):
        return tuple(sorted(len(f) for f in k.facets_containing([v])))

    sig1 = {v: signature(k1, v) for v in k1.vertices}
    sig2 = {v: signature(k2, v) for v in k2.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    order = sorted(k1.vertices, key=lambda v: (sig1[v], v))
    targets = sorted(k2.vertices)
    facets2 = set(k2.facets)

    def compatible(mapping):
        mapped = set(mapping)
        for f in k1.facets:
            if set(f) <= mapped:
                if tuple(sorted(mapping[v] for v in f)) not in facets2:
                    return False
        return True

    def extend(i, mapping, used):
        if i == len(order):
            return dict(mapping)
        v = order[i]
        for w in targets:
            if w in used or sig2[w] != sig1[v]:
                continue
            mapping[v] = w
            used.add(w)
            if compatible(mapping):
                found = extend(i + 1, mapping, used)
                if found is not None:
                    return found
            del mapping[v]
            used.discard(w)
        return None

    return extend(0, {}, set())
