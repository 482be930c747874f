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
``apply_bistellar``) all ask; a checked move asks it once, through
``_obstruction``, and builds no link complex.

A move changes only the closed star of A (Pachner's locality), so a star
index is kept in place.  ``_Stars`` holds one: a move updates the stars of
the proper faces of A + B through the one kernel ``_move_stars``, one pass
over those faces read against a table of the positions each face misses,
and ``complex()`` hands its complex the index, dimension, vertices and
boundary.  ``apply_bistellar`` checks a move on a ``_Stars`` of its
complex, which answers every check as the complex does, and applies it;
``replay`` checks and applies every move of a plain certificate on one
``_Stars`` and builds one complex, at the end; ``apply_extended_bistellar``
advances one ``_Stars`` per stratum it rebuilds.

:class:`MoveSet` is a ``_Stars`` plus its candidate lists, kept in order,
which a move changes only where a star was kept and changed.
``enumerate_moves`` reads a fresh MoveSet; random walks and
``greedy_reduction``, the one greedy reducer, follow one through all their
steps, and ``flip_search`` gives each state a copy of its parent's advanced
by the move that made it.  None of them verifies a step: replaying the
certificate they return, which re-checks every precondition, is the check.
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
        return (1 << len(self.a)) - (1 << len(self.b))

    def __str__(self):
        return "chi(%s, %s)" % (list(self.a), list(self.b))


def applicability_obstruction(k: Complex, a) -> str | None:
    """Why chi_(a, .) is not available at ``a``, or None if it is.

    Raises if ``a`` is not a simplex of ``k`` at all; a boundary simplex and
    a link that fails to be a simplex boundary are reported separately.
    """
    return _obstruction(k, _as_simplex(a))[0]


def _obstruction(k, a: Simplex) -> tuple[str | None, Simplex | None]:
    """``applicability_obstruction`` of ``k`` (a complex or a ``_Stars``) at
    ``a``, and the b of lk(a) = boundary(b) read on the way, None at a facet
    or where the rule fails: the one place a checked move asks the rule."""
    if a not in k:
        raise MoveError("%s is not a simplex of the complex" % (a,))
    if a in k.boundary_complex:
        return "simplex %s lies in the boundary" % (a,), None
    if a.dim == k.dim:
        return None, None
    b = _co_simplex(k._star_index[a], a, k.dim + 1)
    if b is None:
        return "link of %s is not the boundary of a %d-simplex" % (a, k.dim - a.dim), None
    if b in k:
        return "candidate co-simplex %s already present" % (list(b),), b
    return None, b


def bistellar_applicable(k: Complex, a, label_floor: int = -1) -> BistellarMove | None:
    """The move available at ``a`` in ``k``, or None.

    For a facet ``a`` the returned move carries the canonical fresh vertex,
    one more than every label in ``k`` (and than ``label_floor``, which lets
    a caller reserve labels used elsewhere).
    """
    a = _as_simplex(a)
    problem, b = _obstruction(k, a)
    if problem is not None:
        return None
    if a.dim == k.dim:
        return BistellarMove(a, Simplex([fresh_vertex(k, label_floor)]))
    return BistellarMove(a, b)


class _Stars:
    """The star index of a complex, which moves change in place.

    It answers the checks of a move (face membership, ``dim``,
    ``boundary_complex``, ``_star_index``) as its complex does.  ``apply``
    takes a move at a face whose star is the move's, pure or not; it keeps
    the dimension and, at an interior face, the boundary, as the removed
    and inserted balls share their frontier.  The index is shared with the
    complex last built until a move writes it.
    """

    def __init__(self, k: Complex):
        self._base = k  # the complex the state started from or last built
        self._star_index = k._star_index  # face -> tuple of facets
        self._shared = True  # whether another holder reads the index
        self._applied = 0  # the moves applied since _base
        self._last = None  # the last of them: a, b, removed facets, update
        self.dim = k.dim
        self.boundary_complex = k.boundary_complex

    def __contains__(self, s):
        return s in self._star_index

    def copy(self):
        """A state of the same complex that moves on its own."""
        out = object.__new__(type(self))
        self._shared = True
        out.__dict__.update(self.__dict__)
        return out

    def apply(self, a: Simplex, b: Simplex, apexes=None):
        """Apply chi_(a, b), suspended over each apex facet p of ``apexes``
        if given; return the faces that kept a changed star, vanished and appeared."""
        if self._shared:
            self._star_index = dict(self._star_index)
            self._shared = False
        star = self._star_index
        gone = star[a]
        if apexes is None:
            update = _move_stars(star, gone, a, b)
        else:
            updates = [_move_stars(star, gone, a, b, p) for p in apexes]
            update = [sum(faces, []) for faces in zip(*updates)]
        self._applied += 1
        self._last = a, b, gone, update
        return update

    def apply_checked(self, move: BistellarMove):
        """Apply ``move``, or raise MoveError naming the first of its
        preconditions that fails."""
        a, b = move.a, move.b
        n = self.dim
        if a not in self:
            problem = "%s not in complex" % (a,)
        elif move.n != n and not (a.dim == n and b.dim == 0 and b not in self):
            problem = "dimensions do not match an %d-complex" % n
        else:
            problem, expected = _obstruction(self, a)
        if problem is None and a.dim == n and (b.dim != 0 or b in self):
            problem = "%s is not a fresh vertex" % (b,)
        elif problem is None and a.dim < n and b != expected:
            problem = "link of %s is the boundary of %s" % (a, expected)
        if problem is not None:
            raise MoveError("cannot apply %s: %s" % (move, problem))
        self.apply(a, b)

    def complex(self) -> Complex:
        """The current complex, handed the star index, each star sorted as
        ``Complex._star_index`` sorts it, the dimension, the vertices and
        the boundary; the state goes on from it."""
        base = self._base
        if not self._applied:
            return base
        star = self._star_index
        if self._applied == 1:
            # one move: the inserted facets all hold b, and a vanished vertex
            # is a, an appeared one b; only the stars that gained a facet,
            # the kept and appeared faces, need sorting again (a copy that
            # shares the index sees the same stars)
            a, b, gone, (kept, _, appeared) = self._last
            for s in chain(kept, appeared):
                if len(star[s]) > 1:
                    star[s] = tuple(sorted(star[s]))
            facets = base.facets.difference(gone).union(star[b])
            lost, new = (a if len(a) == 1 else ()), (b if len(b) == 1 else ())
            vertices = base.vertices.difference(lost).union(new) if lost or new else base.vertices
        else:
            # several moves: the index built again, sorted; a dict keeps a
            # slot for each deleted key, which every reader would pay for
            star = {s: fs if len(fs) == 1 else tuple(sorted(fs)) for s, fs in star.items()}
            facets = [s for s, fs in star.items() if len(fs) == 1 and len(fs[0]) == len(s)]
            vertices = frozenset([s[0] for s in star if len(s) == 1])
        out = Complex(facets, _trusted=True)
        bd = self.boundary_complex
        out.__dict__.update(_star_index=star, dim=self.dim, vertices=vertices, boundary_complex=bd)
        _Stars.__init__(self, out)
        return out


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
    stars = _Stars(k)
    stars.apply_checked(move)
    return stars.complex()


def replaced_ball(move: BistellarMove) -> Complex:
    """The ball [a * boundary(b)] that the move removes (its closed star)."""
    return join(simplex_complex(move.a), simplex_boundary(move.b))


def inserted_ball(move: BistellarMove) -> Complex:
    """The ball [boundary(a) * b] that the move inserts."""
    return join(simplex_boundary(move.a), simplex_complex(move.b))


class MoveSet(_Stars):
    """The moves of a pure complex, kept current, and in order, as moves are
    applied.

    ``avoid`` and ``label_floor`` mean what they mean for
    :func:`enumerate_moves`, which validates the same way.  ``apply`` takes
    a move read from ``moves()``, or the subdivision of a facet outside
    ``avoid`` by any unused label, and trusts it; the f-vector and the
    largest label follow every step, so facet subdivisions always carry the
    canonical fresh label of the current complex.  ``copy`` gives a move
    set of the same complex that moves on its own; ``complex()`` is the
    current complex, as for any ``_Stars``.

    A move asks the rule, ``_co_simplex``, only at the faces that kept a
    changed star.  A vanished face loses its move.  An appeared face b + a',
    a' a proper part of a, is held only by the inserted facets u - x, x in
    a - a' (u = a + b), so its link is boundary(a - a'): a facet takes a
    subdivision, and another face has a move only when it is b, back to a,
    which just vanished.  A face linked to a face that came or went, its
    star unchanged, has a move exactly when that face is absent now.
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
        super().__init__(k)
        # boundary faces lie in avoid, and a move at a face outside avoid
        # keeps both, so the faces skipped here never change
        self._avoided = avoid.simplices if avoid else frozenset()
        self._size = k.dim + 1
        self._floor = label_floor
        self._top = max(k.vertices, default=-1)
        self._f = [0] * self._size
        self._moves = {}  # a -> b, or None for a facet (fresh vertex)
        self._linked = {}  # a -> b where the link of a is the boundary of b
        self._waiting = {}  # b -> the faces linked to b
        star = self._star_index
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
        out = super().copy()
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
        return self._star_index[a]

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
        kept, vanished, appeared = _Stars.apply(self, a, b)
        star = self._star_index
        f = self._f
        size = self._size
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


def greedy_reduction(
    ms: MoveSet, move_budget: int | None = None, seed: int = 0
) -> list[tuple[Simplex, Simplex]]:
    """Advance ``ms`` toward the f-vector of a simplex boundary; return the
    moves (a, b) applied, in order.

    Greedy: always take the most simplex-count-decreasing move (ties by the
    least a); on a plateau, spend an allowance of 8 f_0 + 16 seeded sideways
    or mildly uphill moves, never exceeding the recorded simplex-count
    high-water mark plus 2.  Stops at the target f-vector, on stall, or
    after ``move_budget`` moves when one is given.  The stall rule alone
    bounds the run: there are at most 8 f_0 + 16 sideways or uphill moves,
    none ending more than 2 above the high-water mark, and every other move
    lowers the simplex count.  So the sphere verdict, which asks only
    whether the target was reached, gives no budget; ``reduce`` gives one
    and records the moves as a certificate.

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
    while move_budget is None or len(applied) < move_budget:
        if ms.f_vector == minimal:
            break
        least = next((n for n in range(1, size + 1) if ms.faces(n)), None)
        if least is None:
            break
        faces = ms.faces(least)
        # the BistellarMove.fsum_delta of each of these moves
        step = (1 << least) - (1 << (size + 1 - least))
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
