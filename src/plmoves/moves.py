"""Bistellar moves.

For a simplex A of an n-dimensional complex K whose link is the boundary
sphere of a simplex B not itself in K, the move chi_(A,B) replaces the star
A * boundary(B) with boundary(A) * B.  When dim(A) = n the link is the empty
complex; B is then a fresh vertex and the move is the subdivision of the
facet A.  The inverse of chi_(A,B) is chi_(B,A):  both operations exist on
combinatorial manifolds (with A interior when there is boundary), and
applying one after the other restores the facet set exactly.

The move is available where lk(A) = boundary(B), and that rule is read from
the star index, in one helper, ``_co_simplex``, which the move set and the
checked moves (``applicability_obstruction``, ``bistellar_applicable``,
``apply_bistellar``) all ask; a checked move builds no link complex.

A move changes only the closed star of A (Pachner's locality), and the move
set is kept the same way.  :class:`MoveSet` reads the star index of a
complex once and asks the rule at every face; applying a move updates only
the stars of the proper faces of A + B, and asks the rule again only where
a star was kept and changed: the faces that vanish or appear, and those
linked to them, are decided in closed form.  It keeps its faces that have
a move in order, sorted once on construction into one list and one list
per face size, and moves a face in or out by bisection when the face gains
or loses its move, so no step sorts anything.  ``enumerate_moves`` reads a
fresh MoveSet once.  Random walks and ``greedy_reduction``, the one greedy
reducer behind both ``reduce`` and the sphere verdict, follow one MoveSet
through all their steps and do not verify each step: a walk draws from the
ordered faces, and a reduction step reads the size lists, since a move's
``fsum_delta`` depends on |a| alone.  Both end in ``MoveSet.complex()``,
which hands its complex the move set's star index, dimension and vertices;
``flip_search`` gives each state a copy of its parent's MoveSet advanced by
the one move that made it; its states are bare facet sets, and each
successor is the state's facets minus that MoveSet's star of a plus the
inserted facets, unverified.  Replaying the certificate they return, which
re-checks every precondition, is the check.

A checked move builds its result once.  After its checks,
``apply_bistellar`` hands the result what the checks built on the parent:
a star index, dimension and vertices derived from the parent's
(``_derived``), and the parent's boundary, which a move at an interior face
keeps; ``apply_extended_bistellar`` does the same on each stratum it
rebuilds.  So a replayed certificate builds the index, the boundary and the
vertices of its first state only.  ``MoveSet.apply`` and ``_derived``, and
so every plain and extended checked move, update a star index through the
one kernel ``_move_stars``: one pass over the faces of A + B, read against
a table of the positions each face misses, cached per size of A + B.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations

from .complexes import (
    EMPTY,
    Complex,
    Simplex,
    _as_simplex,
    fresh_vertex,
    join,
    simplex_boundary,
    simplex_complex,
)
from .homology import minimal_sphere_f_vector


class MoveError(ValueError):
    """A move was applied where its preconditions fail."""


_NO_MOVE = object()  # MoveSet._mark's b for a face without a move


def fsum_delta(a, b) -> int:
    """Change of the total simplex count under chi_(a, b): 2^|a| - 2^|b|."""
    return (1 << len(a)) - (1 << len(b))


def _co_simplex(fs: tuple, a: Simplex, size: int) -> Simplex | None:
    """The b with lk(a) = boundary(b), or None, read from the facets ``fs``
    holding a in a complex whose facets have at most ``size`` vertices.
    With m = size - |a|, it exists exactly when ``fs`` is m + 1 facets, all
    of ``size`` vertices, with m + 1 vertices outside a: their rests are
    then every facet of boundary(b).  The size condition keeps the rule
    exact on non-pure complexes."""
    m = size - len(a)
    if len(fs) != m + 1:
        return None
    rest = set().union(*fs).difference(a)
    if len(rest) != m + 1 or sum(map(len, fs)) != size * len(fs):
        return None
    return tuple.__new__(Simplex, sorted(rest))


def _inserted_facets(a: Simplex, b: Simplex) -> list[Simplex]:
    """The facets of boundary(a) * b, which chi_(a, b) inserts; a and b are
    disjoint, as every move's ends are."""
    if len(a) == 1:
        return [b]
    ab = sorted(a + b)
    return [tuple.__new__(Simplex, [v for v in ab if v != x]) for x in a]


@cache
def _missed(n: int) -> tuple:
    """For each face of ``combinations(range(n), r)``, 0 < r < n, in that
    order, the bits of the positions it misses."""
    full = (1 << n) - 1
    return tuple(
        full ^ sum(1 << i for i in face)
        for r in range(1, n)
        for face in combinations(range(n), r)
    )


def _move_stars(star: dict, gone, a: Simplex, b: Simplex, p: tuple = ()):
    """Update the star index ``star`` (face -> tuple of facets) in place for
    chi_(a, b), suspended by the apexes ``p`` when they are given.

    With u = a + b + p, the move removes the facets u - y, y in b, and
    inserts u - x, x in a; ``gone`` holds at least the removed ones, and no
    facet that stays.  So only the proper faces of u change their stars,
    and those that hold all of a and b are no faces of either.  One pass
    over the faces of u reads, from the positions each face misses (a table
    cached per size of u), the inserted facets that hold it and whether it
    vanishes (it holds a) or appears (it holds b).  A suspended move sees
    only part of a face's star, so there a face that holds a or b is told by
    the index.

    Returns the faces that kept a changed star (they hold neither a nor b),
    those that vanished and those that appeared, in the pass's order.  A
    star keeps its order, with the inserted facets after it.

    A flip on the bipyramid, the edge 1-2 for the edge of its poles:

    >>> from .demos import bipyramid
    >>> star = dict(bipyramid()._star_index)
    >>> a, b = Simplex([1, 2]), Simplex([4, 5])
    >>> kept, vanished, appeared = _move_stars(star, star[a], a, b)
    >>> kept
    [(1,), (2,), (4,), (5,), (1, 4), (1, 5), (2, 4), (2, 5)]
    >>> vanished
    [(1, 2), (1, 2, 4), (1, 2, 5)]
    >>> appeared, star[b]
    ([(4, 5), (1, 4, 5), (2, 4, 5)], ((2, 4, 5), (1, 4, 5)))
    """
    u = sorted(a + b + p)
    in_a = in_b = 0  # the positions of a and of b in u, as bits
    # held[m], for positions m of a: the inserted facets u - u[i], i in m,
    # which are those that hold a face missing the positions m of a
    held = [()] * (1 << len(u))
    masks = [0]
    for i, v in enumerate(u):
        if v in a:
            f = tuple.__new__(Simplex, [w for w in u if w != v])
            for m in masks[:]:
                held[m | 1 << i] = held[m] + (f,)
                masks.append(m | 1 << i)
            in_a |= 1 << i
        elif v in b:
            in_b |= 1 << i
    faces = chain.from_iterable(combinations(u, r) for r in range(1, len(u)))
    kept = []
    vanished = []
    appeared = []
    for c, missed in zip(faces, _missed(len(u))):
        fs = held[missed & in_a]
        if fs and missed & in_b:  # it holds neither a nor b, and stays
            star[c] = tuple([g for g in star[c] if g not in gone]) + fs
            kept.append(tuple.__new__(Simplex, c))
        elif p:
            if not (fs or missed & in_b):
                continue  # it holds a and b
            s = tuple.__new__(Simplex, c)
            old = star.get(c)
            if old is None:
                if not fs:
                    continue  # it vanished under another apex facet
                star[s] = fs
                appeared.append(s)
            else:
                rest = tuple([g for g in old if g not in gone]) + fs
                if rest:
                    star[c] = rest
                    kept.append(s)
                else:
                    del star[c]
                    vanished.append(s)
        elif fs:  # it holds b
            s = tuple.__new__(Simplex, c)
            star[s] = fs
            appeared.append(s)
        else:  # it holds a
            del star[c]
            vanished.append(tuple.__new__(Simplex, c))
    return kept, vanished, appeared


def _derived(k: Complex, a: Simplex, b: Simplex, apexes=((),)) -> Complex:
    """The complex k after chi_(a, b), suspended over each apex facet p of
    ``apexes`` in turn, its star index, dimension and vertices derived from
    k's.

    The move must be a checked one, at a face whose star is that of the
    move: then the inserted facets all hold b, which k lacks, and none of
    them is nested with a facet that stays.  Purity is not needed.  Only
    the stars of the faces of the removed and inserted facets change
    (``_move_stars``); a star that gained a facet is sorted again, so every
    star is the sorted tuple that ``Complex._star_index`` builds.  The
    vertices that come or go are the one-vertex faces that appeared or
    vanished.
    """
    star = dict(k._star_index)
    gone = star[a]
    kept = []
    vanished = []
    appeared = []
    for p in apexes:
        update = _move_stars(star, gone, a, b, p)
        kept += update[0]
        vanished += update[1]
        appeared += update[2]
    for s in chain(kept, appeared):
        if len(star[s]) > 1:
            star[s] = tuple(sorted(star[s]))
    vertices = k.vertices
    lost = [s[0] for s in vanished if len(s) == 1]
    new = [s[0] for s in appeared if len(s) == 1]
    if lost or new:
        vertices = vertices.difference(lost).union(new)
    out = Complex(k.facets.difference(gone).union(star[b]), _trusted=True)
    # the slots the cached properties fill
    out.__dict__.update(_star_index=star, dim=k.dim, vertices=vertices)
    return out


@dataclass(frozen=True)
class BistellarMove:
    """The move chi_(a, b).  dim(a) + dim(b) equals the ambient dimension;
    when b is a single vertex absent from the complex, the move subdivides
    the facet a with that fresh label."""

    a: Simplex
    b: Simplex

    def __post_init__(self):
        object.__setattr__(self, "a", _as_simplex(self.a))
        object.__setattr__(self, "b", _as_simplex(self.b))
        if set(self.a) & set(self.b):
            raise MoveError("move simplices must be disjoint: %s, %s" % (self.a, self.b))

    @property
    def n(self):
        """Ambient dimension dim(a) + dim(b)."""
        return self.a.dim + self.b.dim

    def inverse(self) -> "BistellarMove":
        return BistellarMove(self.b, self.a)

    def fsum_delta(self):
        """Change of the total simplex count: 2^|a| - 2^|b|."""
        return fsum_delta(self.a, self.b)

    def __str__(self):
        return "chi(%s, %s)" % (list(self.a), list(self.b))


def applicability_obstruction(k: Complex, a) -> str | None:
    """Why chi_(a, .) is not available at ``a``, or None if it is.

    Raises if ``a`` is not a simplex of ``k`` at all; a boundary simplex and
    a link that fails to be a simplex boundary are reported separately.
    """
    a = _as_simplex(a)
    if a not in k:
        raise MoveError("%s is not a simplex of the complex" % (a,))
    if a in k.boundary_complex:
        return "simplex %s lies in the boundary" % (a,)
    if a.dim == k.dim:
        return None
    b = _co_simplex(k._star_index[a], a, k.dim + 1)
    if b is None:
        return "link of %s is not the boundary of a %d-simplex" % (a, k.dim - a.dim)
    if b in k:
        return "candidate co-simplex %s already present" % (list(b),)
    return None


def bistellar_applicable(k: Complex, a, label_floor: int = -1) -> BistellarMove | None:
    """The move available at ``a`` in ``k``, or None.

    For a facet ``a`` the returned move carries the canonical fresh vertex,
    one more than every label in ``k`` (and than ``label_floor``, which lets
    a caller reserve labels used elsewhere).
    """
    a = _as_simplex(a)
    if applicability_obstruction(k, a) is not None:
        return None
    if a.dim == k.dim:
        return BistellarMove(a, Simplex([fresh_vertex(k, label_floor)]))
    return BistellarMove(a, _co_simplex(k._star_index[a], a, k.dim + 1))


def apply_bistellar(k: Complex, move: BistellarMove) -> Complex:
    """Apply chi_(a,b): remove every simplex containing a, add boundary(a)*b.

    Preconditions are re-verified and reported through MoveError, so replay
    of a recorded sequence fails loudly at the first illegal step.  A fresh
    vertex only needs to be unused, so any unused label is accepted:
    ``bistellar_applicable`` offers one more than every label, but searches
    with a ``label_floor`` and the inner searches of an alignment record
    others.  A replayed certificate thus proves its moves legal, but not
    which labels its end carries.
    """
    a, b = move.a, move.b
    if a not in k:
        raise MoveError("cannot apply %s: %s not in complex" % (move, a))
    n = k.dim
    if move.n != n:
        if not (a.dim == n and b.dim == 0 and b[0] not in k.vertices):
            raise MoveError(
                "cannot apply %s: dimensions do not match an %d-complex" % (move, n)
            )
    obstruction = applicability_obstruction(k, a)
    if obstruction is not None:
        raise MoveError("cannot apply %s: %s" % (move, obstruction))
    if a.dim == n:
        if b.dim != 0 or b[0] in k.vertices:
            raise MoveError("cannot apply %s: %s is not a fresh vertex" % (move, b))
    else:
        expected = _co_simplex(k._star_index[a], a, n + 1)
        if b != expected:
            raise MoveError(
                "cannot apply %s: link of %s is the boundary of %s" % (move, a, expected)
            )
    out = _derived(k, a, b)
    # the boundary ridges are those in one top facet; the move keeps each
    # frontier ridge in one removed and one inserted facet, and puts the
    # ridges through a or b in two facets or in none, so the boundary stays
    out.__dict__["boundary_complex"] = k.boundary_complex
    return out


def replaced_ball(move: BistellarMove) -> Complex:
    """The ball [a * boundary(b)] that the move removes (its closed star)."""
    return join(simplex_complex(move.a), simplex_boundary(move.b))


def inserted_ball(move: BistellarMove) -> Complex:
    """The ball [boundary(a) * b] that the move inserts."""
    return join(simplex_boundary(move.a), simplex_complex(move.b))


class MoveSet:
    """The moves of a pure complex, kept current, and in order, as moves are
    applied.

    ``avoid`` and ``label_floor`` mean what they mean for
    :func:`enumerate_moves`, which validates the same way.  ``apply`` takes
    a move read from ``moves()``, or the subdivision of a facet outside
    ``avoid`` by any unused label, and trusts it; the f-vector and the
    largest label follow every step, so facet subdivisions always carry the
    canonical fresh label of the current complex.  ``copy`` gives a move
    set of the same complex that moves on its own.

    A move asks the rule, ``_co_simplex``, only at the faces that kept a
    changed star.  A vanished face loses its move.  An appeared face b + a',
    a' a proper part of a, is held only by the inserted facets u - x, x in
    a - a' (u = a + b), so its link is boundary(a - a'): a facet takes a
    subdivision, and another face has a move only when it is b, back to a,
    which just vanished.  A
    face linked to a face that came or went, its star unchanged, has a move
    exactly when that face is absent now.

    The faces that have a move are sorted once, on construction, into one
    list and into one list per face size; a move then inserts or deletes a
    face by bisection when it gains or loses its move, and leaves the lists
    alone when only its b changes.  So ``faces`` and ``moves()`` read the
    lexicographic order of a without sorting anything.
    """

    def __init__(self, k: Complex, avoid: Complex = EMPTY, label_floor: int = -1):
        if k:
            if not k.is_pure:
                raise MoveError("move enumeration needs a pure complex")
            if avoid and not avoid.is_subcomplex_of(k):
                raise MoveError("avoid is not a subcomplex")
            bd = k.boundary_complex
            if bd and not bd.is_subcomplex_of(avoid):
                raise MoveError("avoid must contain the boundary of a complex with boundary")
        # boundary faces lie in avoid, and a move at a face outside avoid
        # keeps both, so the faces skipped here never change
        self._avoided = avoid.simplices if avoid else frozenset()
        self._size = k.dim + 1
        self._floor = label_floor
        self._top = max(k.vertices, default=-1)
        self._star = dict(k._star_index)  # face -> tuple of facets
        self._f = [0] * self._size
        self._moves = {}  # a -> b, or None for a facet (fresh vertex)
        self._linked = {}  # a -> b where the link of a is the boundary of b
        self._waiting = {}  # b -> the faces linked to b
        star = self._star
        for a, fs in star.items():
            self._f[len(a) - 1] += 1
            if a in self._avoided:
                continue
            if len(a) == self._size:
                self._moves[a] = None
                continue
            b = _co_simplex(fs, a, self._size)
            if b is not None:
                self._link(a, b)
                if b not in star:
                    self._moves[a] = b
        self._order = sorted(self._moves)  # the faces that have a move
        self._sized = [[] for _ in range(self._size)]  # the same, by |a| - 1
        for a in self._order:
            self._sized[len(a) - 1].append(a)

    def _link(self, a, b):
        self._linked[a] = b
        self._waiting.setdefault(b, set()).add(a)

    def _unlink(self, a):
        b = self._linked.pop(a, None)
        if b is not None:
            waiting = self._waiting[b]
            waiting.discard(a)
            if not waiting:
                del self._waiting[b]

    def _mark(self, a, b):
        """Record the move chi_(a, b) at the face a (b None for a facet,
        which takes a fresh vertex), or with b _NO_MOVE that a has none, and
        keep the ordered lists in step."""
        moves = self._moves
        if b is _NO_MOVE:
            if moves.pop(a, _NO_MOVE) is not _NO_MOVE:
                for faces in (self._order, self._sized[len(a) - 1]):
                    del faces[bisect_left(faces, a)]
        else:
            if a not in moves:
                insort(self._order, a)
                insort(self._sized[len(a) - 1], a)
            moves[a] = b

    def copy(self) -> "MoveSet":
        """A move set of the same complex that moves on its own."""
        out = object.__new__(MoveSet)
        out.__dict__.update(self.__dict__)
        out._star = dict(self._star)
        out._f = list(self._f)
        out._moves = dict(self._moves)
        out._order = list(self._order)
        out._sized = [list(faces) for faces in self._sized]
        out._linked = dict(self._linked)
        out._waiting = {b: set(faces) for b, faces in self._waiting.items()}
        return out

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(self._f)

    def star(self, a: Simplex) -> tuple:
        """The facets of the current complex that hold the face a."""
        return self._star[a]

    def faces(self, size: int | None = None) -> list[Simplex]:
        """The faces a that have a move, in lexicographic order; with
        ``size``, those with that many vertices only.  The list is the move
        set's own, valid until the next ``apply``: the i-th face is the a of
        the i-th entry of ``moves()``."""
        return self._order if size is None else self._sized[size - 1]

    def move_at(self, a: Simplex) -> tuple[Simplex, Simplex]:
        """The move (a, b) available at a face a from ``faces``."""
        b = self._moves[a]
        if b is None:
            b = tuple.__new__(Simplex, (max(self._top, self._floor) + 1,))
        return a, b

    def moves(self) -> list[tuple[Simplex, Simplex]]:
        """The available moves (a, b), in lexicographic order of a."""
        fresh = tuple.__new__(Simplex, (max(self._top, self._floor) + 1,))
        moves = self._moves
        return [(a, fresh if (b := moves[a]) is None else b) for a in self._order]

    def apply(self, a: Simplex, b: Simplex):
        """Apply chi_(a, b), a move returned by ``moves()``."""
        star = self._star
        f = self._f
        size = self._size
        kept, vanished, appeared = _move_stars(star, star[a], a, b)
        for s in vanished:
            f[len(s) - 1] -= 1
            self._unlink(s)
            self._mark(s, _NO_MOVE)
        for s in appeared:
            f[len(s) - 1] += 1
            if len(s) == 1 and s[0] > self._top:
                self._top = s[0]
            if len(s) == size:
                self._mark(s, None)
            else:
                # the move back to a, when s is b, is given below
                self._link(s, tuple.__new__(Simplex, [v for v in a if v not in s]))
        if (self._top,) not in star:
            self._top = max((s[0] for s in star if len(s) == 1), default=-1)
        linked = self._linked
        for s in kept:
            if s in self._avoided:
                continue
            c = _co_simplex(star[s], s, size)
            if c != linked.get(s):
                self._unlink(s)
                if c is not None:
                    self._link(s, c)
            self._mark(s, _NO_MOVE if c is None or c in star else c)
        # the faces linked to a face that came or went, their stars kept
        # or just written, gain or lose their move by its presence alone
        waiting = self._waiting
        for s in vanished:
            for w in waiting.get(s, ()):
                self._mark(w, s)
        for s in appeared:
            for w in waiting.get(s, ()):
                self._mark(w, _NO_MOVE)

    def complex(self) -> Complex:
        """The current complex, handed the star index, with each star sorted
        as ``Complex._star_index`` sorts it, its dimension and its vertices,
        so a reader of a walked or reduced complex builds none of them."""
        star = {s: fs if len(fs) == 1 else tuple(sorted(fs)) for s, fs in self._star.items()}
        out = Complex([s for s in star if len(s) == self._size], _trusted=True)
        vertices = frozenset([s[0] for s in star if len(s) == 1])
        out.__dict__.update(_star_index=star, dim=self._size - 1, vertices=vertices)
        return out


def greedy_reduction(
    ms: MoveSet, move_budget: int = 600, seed: int = 0
) -> list[tuple[Simplex, Simplex]]:
    """Advance ``ms`` toward the f-vector of a simplex boundary; return the
    moves (a, b) applied, in order.

    Greedy: always take the most simplex-count-decreasing move (ties by the
    least a); on a plateau, spend an allowance of 8 f_0 + 16 seeded sideways
    or mildly uphill moves, never exceeding the recorded simplex-count
    high-water mark plus 2.  Stops at the target f-vector, on stall, or
    after ``move_budget`` moves.  ``reduce`` records the moves as a
    certificate; the sphere verdict asks only whether the target was reached.

    Since |a| + |b| = d + 2, a move's change of the simplex count,
    2^|a| - 2^|b|, grows with |a| alone.  So a step reads the move set's
    faces by size: the best moves are the faces of the least size that has
    any, the first of them is the least a, and a sideways or uphill step
    draws from that same list.

    >>> from .demos import bipyramid
    >>> ms = MoveSet(bipyramid())
    >>> len(greedy_reduction(ms)), ms.f_vector
    (1, (4, 6, 4))
    """
    size = ms._size
    minimal = minimal_sphere_f_vector(size - 1)
    rng = random.Random(seed)
    applied = []
    high = sum(ms.f_vector)
    sideways_left = 8 * ms.f_vector[0] + 16
    while len(applied) < move_budget:
        if ms.f_vector == minimal:
            break
        least = next((n for n in range(1, size + 1) if ms.faces(n)), None)
        if least is None:
            break
        faces = ms.faces(least)
        step = (1 << least) - (1 << (size + 1 - least))  # fsum_delta of each
        if step < 0:
            a = faces[0]
        else:
            if sideways_left <= 0:
                break
            if step > 0 and step > high + 2 - sum(ms.f_vector):
                break
            a = rng.choice(faces)
            sideways_left -= 1
        a, b = ms.move_at(a)
        ms.apply(a, b)
        applied.append((a, b))
        high = max(high, sum(ms.f_vector))
    return applied


def enumerate_moves(
    k: Complex, avoid: Complex = EMPTY, label_floor: int = -1
) -> list[BistellarMove]:
    """Every applicable move whose a is outside ``avoid``, in lexicographic
    order of a.

    ``avoid`` must be a subcomplex, and must contain the boundary whenever
    ``k`` has one; because avoid is downward closed, a outside avoid is
    exactly the condition for the replaced star to miss avoid except on its
    frontier, so the restriction of every enumerated move's result to avoid
    equals the restriction of ``k``.  Fresh vertices for facet subdivisions
    all use the canonical label max(labels, label_floor) + 1.
    """
    return [BistellarMove(a, b) for a, b in MoveSet(k, avoid, label_floor).moves()]
