"""Flip-graph search and move-sequence certificates.

The searchable flip graph is a digraph over complexes with canonical
labeling: flips and removals are always edges, while an insertion edge must
use the one canonical fresh label max(labels, floor) + 1.  Recorded walks
draw from the same move sets as enumerate_moves and live inside this graph,
so a bidirectional breadth-first search can meet in the middle and return a
certificate, verified by replay before anyone sees it.  Search is a
semi-decision procedure: a None means the budget ran out, never that no
sequence exists.

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
    closure,
    fingerprint,
    fresh_vertex,
)
from .filtration import (
    ExtendedMove,
    FilteredComplex,
    apply_extended_bistellar,
    enumerate_extended_moves,
    extended_applicable,
    suspension_from_links,
    validate_filtration,
)
from .homology import euler_characteristic, f_vector, minimal_sphere_f_vector
from .moves import (
    BistellarMove,
    MoveError,
    MoveSet,
    apply_bistellar,
    enumerate_moves,
    fsum_delta,
)
from .stark import StarkComplex, StarkMove, apply_stark_move


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
    text = "|".join(canonical_facet_text(m) for m in state.strata)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


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
    if record.kind == "extended":
        if not isinstance(state, FilteredComplex):
            raise SearchError("extended record needs a filtered complex")
        return apply_extended_bistellar(state, record.move)
    if not isinstance(state, StarkComplex):
        raise SearchError("stark record needs a stark complex")
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

    expand_fw(node) yields (move, successor); expand_bw(node) yields
    (move, predecessor) where the move labels the edge predecessor -> node.
    Deterministic: frontiers expand in canonical-key order and the smaller
    frontier goes first.
    """
    if start == goal:
        return []
    forward = {start: None}
    backward = {goal: None}
    frontier_f = [start]
    frontier_b = [goal]
    used = 0
    depth_f = depth_b = 0

    def stitch(meet):
        head = []
        node = meet
        while forward[node] is not None:
            prev, move = forward[node]
            head.append(move)
            node = prev
        head.reverse()
        node = meet
        while backward[node] is not None:
            nxt, move = backward[node]
            head.append(move)
            node = nxt
        return head

    while frontier_f and frontier_b and depth_f + depth_b < budget.depth:
        if len(frontier_f) <= len(frontier_b):
            depth_f += 1
            grown = []
            for node in sorted(frontier_f, key=key):
                for move, succ in expand_fw(node):
                    used += 1
                    if used > budget.nodes:
                        return None
                    if succ in forward:
                        continue
                    forward[succ] = (node, move)
                    if succ in backward:
                        return stitch(succ)
                    grown.append(succ)
            frontier_f = grown
        else:
            depth_b += 1
            grown = []
            for node in sorted(frontier_b, key=key):
                for move, pred in expand_bw(node):
                    used += 1
                    if used > budget.nodes:
                        return None
                    if pred in backward:
                        continue
                    backward[pred] = (node, move)
                    if pred in forward:
                        return stitch(pred)
                    grown.append(pred)
            frontier_b = grown
    return None


def flip_search(
    k1: Complex,
    k2: Complex,
    avoid: Complex = EMPTY,
    budget: SearchBudget | None = None,
    label_floor: int = -1,
) -> MoveSequence | None:
    """A bistellar certificate from k1 to k2 touching only moves from
    enumerate_moves(., avoid), or None when the budget runs out.

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
    end_labels = k1.vertices | k2.vertices

    def expand_fw(k):
        return [(m, apply_bistellar(k, m)) for m in enumerate_moves(k, avoid, label_floor)]

    def expand_bw(k):
        out = []
        for m in enumerate_moves(k, avoid, label_floor):
            if m.b.dim == 0 and m.b[0] not in k.vertices:
                continue  # insertions on k are handled with chosen labels below
            result = apply_bistellar(k, m)
            if m.a.dim == 0 and m.a[0] != fresh_vertex(result, label_floor):
                continue  # the reverse insertion would use a non-canonical label
            out.append((m.inverse(), result))
        labels = sorted((end_labels - k.vertices) | {fresh_vertex(k, label_floor)})
        for v in labels:
            vertex = Simplex([v])
            for facet in sorted(k.facets):
                if facet in avoid:
                    continue  # subdividing it would remove it from the predecessor
                grow = BistellarMove(facet, vertex)
                out.append((grow.inverse(), apply_bistellar(k, grow)))
        return out

    moves = _bidirectional(k1, k2, expand_fw, expand_bw, canonical_facet_text, budget)
    if moves is None:
        return None
    seq = MoveSequence.for_state(k1, [MoveRecord("bistellar", m) for m in moves])
    if replay(k1, seq) != k2:
        raise SearchError("internal error: certificate failed replay")
    return seq


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
    replaying the certificate is the check."""
    if steps <= 0:
        return k, MoveSequence.for_state(k, [])
    rng = random.Random(seed)
    records = []
    ms = MoveSet(k, avoid, label_floor)
    for _ in range(steps):
        moves = ms.moves()
        if not moves:
            break
        a, b = rng.choice(moves)
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
    relax: int = 2,
) -> tuple[Complex, MoveSequence]:
    """Drive a closed pseudomanifold toward a minimal triangulation.

    Greedy: always take the most simplex-count-decreasing move (ties by
    lexicographic move); on a plateau, spend a bounded allowance of seeded
    sideways or mildly uphill moves, never exceeding the recorded
    simplex-count high-water mark plus ``relax``.  Stops at the f-vector of
    a simplex boundary, on stall, or when the budget runs out.  Like
    random_walk it follows one incremental move set without verifying each
    step; the certificate always replays.
    """
    minimal = minimal_sphere_f_vector(k.dim)
    if move_budget <= 0 or f_vector(k) == minimal:
        return k, MoveSequence.for_state(k, [])
    rng = random.Random(seed)
    records = []
    ms = MoveSet(k)
    high = sum(ms.f_vector)
    sideways_left = 8 * len(k.vertices) + 16
    while len(records) < move_budget:
        if ms.f_vector == minimal:
            break
        moves = ms.moves()
        if not moves:
            break
        deltas = [fsum_delta(a, b) for a, b in moves]
        best = min(deltas)
        if best < 0:
            a, b = moves[deltas.index(best)]  # the least a among the best
        else:
            if sideways_left <= 0:
                break
            step = 0
            if 0 not in deltas:
                allowance = high + relax - sum(ms.f_vector)
                step = min((d for d in deltas if 0 < d <= allowance), default=None)
                if step is None:
                    break
            a, b = rng.choice([m for m, d in zip(moves, deltas) if d == step])
            sideways_left -= 1
        ms.apply(a, b)
        records.append(MoveRecord("bistellar", BistellarMove(a, b)))
        high = max(high, sum(ms.f_vector))
    return ms.complex(), MoveSequence.for_state(k, records)


def _strata_key(fc: FilteredComplex) -> str:
    return "|".join(canonical_facet_text(m) for m in fc.strata)


def _stratum_avoid(fc: FilteredComplex, k: int) -> Complex:
    return closure(
        list(fc.strata[k - 1].facets) + list(fc.strata[k].boundary_complex.facets)
    )


def _align_fast(fc1: FilteredComplex, fc2: FilteredComplex, budget: SearchBudget):
    """Stratum-by-stratum alignment: search inside each stratum, realize
    the inner moves through their forced suspensions.  Returns the records
    or None when any stage fails; label interleaving across strata is the
    usual reason."""
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
            inner = record.move
            fresh = inner.b.dim == 0 and inner.b[0] not in current.complex.vertices
            susp = suspension_from_links(
                current, inner.a, None if fresh else inner.b, k
            )
            if susp is None:
                return None
            move = ExtendedMove(k, inner, susp)
            if extended_applicable(current, move) is not None:
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

    def expand_fw(fc):
        return [
            (m, apply_extended_bistellar(fc, m)) for m in enumerate_extended_moves(fc)
        ]

    def expand_bw(fc):
        out = []
        for m in enumerate_extended_moves(fc):
            inner = m.inner
            if inner.b.dim == 0 and inner.b[0] not in fc.complex.vertices:
                continue  # insertions get chosen labels below
            result = apply_extended_bistellar(fc, m)
            if inner.a.dim == 0 and inner.a[0] != fresh_vertex(result.complex):
                continue
            out.append((m.inverse(), result))
        labels = sorted(
            (end_labels - fc.complex.vertices) | {fresh_vertex(fc.complex)}
        )
        for k in range(1, fc.n + 1):
            mk = fc.strata[k]
            if not mk or mk.dim != k:
                continue
            avoid = _stratum_avoid(fc, k)
            for facet in sorted(mk.facets):
                if facet.dim != k or facet in avoid:
                    continue
                susp = suspension_from_links(fc, facet, None, k)
                if susp is None:
                    continue
                for v in labels:
                    grow = ExtendedMove(k, BistellarMove(facet, Simplex([v])), susp)
                    if extended_applicable(fc, grow) is not None:
                        continue
                    out.append((grow.inverse(), apply_extended_bistellar(fc, grow)))
        return out

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
    seq = MoveSequence.for_state(fc1, records)
    if replay(fc1, seq) != fc2:
        raise SearchError("internal error: certificate failed replay")
    return seq


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
