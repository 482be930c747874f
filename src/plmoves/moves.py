"""Bistellar moves.

For a simplex A of an n-dimensional complex K whose link is the boundary
sphere of a simplex B not itself in K, the move chi_(A,B) replaces the star
A * boundary(B) with boundary(A) * B.  When dim(A) = n the link is the empty
complex; B is then a fresh vertex and the move is the subdivision of the
facet A.  The inverse of chi_(A,B) is chi_(B,A):  both operations exist on
combinatorial manifolds (with A interior when there is boundary), and
applying one after the other restores the facet set exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from .complexes import (
    EMPTY,
    Complex,
    Simplex,
    _as_simplex,
    closure,
    fresh_vertex,
    join,
    link,
    simplex_boundary,
    simplex_complex,
)


class MoveError(ValueError):
    """A move was applied where its preconditions fail."""


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
    def k(self):
        """dim(a), the index of the bistellar k-operation."""
        return self.a.dim

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
    a = _as_simplex(a)
    if a not in k:
        raise MoveError("%s is not a simplex of the complex" % (a,))
    if a in k.boundary_complex:
        return "simplex %s lies in the boundary" % (a,)
    if a.dim == k.dim:
        return None
    lk = link(a, k)
    m = k.dim - a.dim
    b = tuple.__new__(Simplex, sorted(lk.vertices))
    if len(b) != m + 1 or lk != simplex_boundary(b):
        return "link of %s is not the boundary of a %d-simplex" % (a, m)
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
    return BistellarMove(a, tuple.__new__(Simplex, sorted(link(a, k).vertices)))


def apply_bistellar(k: Complex, move: BistellarMove) -> Complex:
    """Apply chi_(a,b): remove every simplex containing a, add boundary(a)*b.

    Preconditions are re-verified and reported through MoveError, so replay
    of a recorded sequence fails loudly at the first illegal step.  A fresh
    vertex only needs to be unused; recorded sequences always carry the
    canonical max-plus-one label.
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
        expected = tuple.__new__(Simplex, sorted(link(a, k).vertices))
        if b != expected:
            raise MoveError(
                "cannot apply %s: link of %s is the boundary of %s" % (move, a, expected)
            )
    aset = set(a)
    kept = [f for f in k.facets if not aset <= set(f)]
    if a.dim == 0:
        added = [b]
    else:
        added = [a.without(x).joined(b) for x in a]
    if k.is_pure:
        return Complex(kept + added, _trusted=True)
    return closure(kept + added)


def inverse_move(move: BistellarMove) -> BistellarMove:
    return move.inverse()


def replaced_ball(move: BistellarMove) -> Complex:
    """The ball [a * boundary(b)] that the move removes (its closed star)."""
    return join(simplex_complex(move.a), simplex_boundary(move.b))


def inserted_ball(move: BistellarMove) -> Complex:
    """The ball [boundary(a) * b] that the move inserts."""
    return join(simplex_boundary(move.a), simplex_complex(move.b))


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
    if not k:
        return []
    if not k.is_pure:
        raise MoveError("move enumeration needs a pure complex")
    if avoid and not avoid.is_subcomplex_of(k):
        raise MoveError("avoid is not a subcomplex")
    bd = k.boundary_complex
    if bd and not bd.is_subcomplex_of(avoid if avoid else EMPTY):
        raise MoveError("avoid must contain the boundary of a complex with boundary")
    avoided = avoid.simplices if avoid else frozenset()
    fresh = Simplex([fresh_vertex(k, label_floor)])
    out = []
    # the kernel returns sorted vertex tuples of faces of k and of their links
    for a_t, b_t in _kernel.scan_moves(sorted(tuple(f) for f in k.facets)):
        if a_t in avoided:
            continue
        a = tuple.__new__(Simplex, a_t)
        b = fresh if b_t is None else tuple.__new__(Simplex, b_t)
        out.append(BistellarMove(a, b))
    return out
