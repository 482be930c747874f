"""Finite abstract simplicial complexes and the constructions on them.

Vertices are non-negative integers.  A simplex is a sorted tuple of distinct
vertices; a complex is determined by its facets (inclusion-maximal simplices)
and is immutable.  All derived structure (the full face set, the star index,
the boundary) is computed lazily and memoized, which is what makes the move
routines cheap enough to run inside search loops.

Public constructors validate; internal constructions are trusted.
``Simplex(...)``, ``Complex(...)`` and every function taking vertex labels
from a caller check their input.  Only a longer simplex can contain a
shorter one, and two distinct simplices of one length never nest, so the
nesting checks of ``Complex(...)`` and ``closure`` compare each simplex
with the strictly longer ones only.  A nonempty sorted subset of a
simplex, or the sorted union of two disjoint simplices, is a valid simplex
by construction, so faces, link facets and joins of existing simplices are
built with ``tuple.__new__(Simplex, vertices)`` and skip the checks.  The
faces of a complex are enumerated once, into its star index, from which the
face set, face membership and the boundary are all read.  A move does not
enumerate them again: ``moves._Stars`` updates an index in place, and its
``complex()`` alone hands a complex its index, dimension, vertices and
boundary, so a replay enumerates the faces of its first state only.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from itertools import combinations


class Simplex(tuple):
    """A sorted tuple of distinct non-negative integer vertices.

    >>> Simplex([3, 1, 2])
    (1, 2, 3)
    >>> Simplex([1, 2]).dim
    1
    """

    __slots__ = ()

    def __new__(cls, vertices):
        vs = tuple(sorted(vertices))
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError("vertex labels must be non-negative integers, got %r" % (v,))
        for a, b in zip(vs, vs[1:]):
            if a == b:
                raise ValueError("duplicate vertex %d in simplex" % a)
        return tuple.__new__(cls, vs)

    @property
    def dim(self):
        return len(self) - 1

    def boundary_faces(self):
        """The codimension-1 faces, in lexicographic order."""
        if len(self) == 1:
            return ()
        return tuple(
            tuple.__new__(Simplex, f) for f in combinations(self, len(self) - 1)
        )

    def joined(self, other):
        """The join with a disjoint simplex; ``other`` is validated unless it
        is a Simplex already."""
        shared = set(self) & set(other)
        if shared:
            raise ValueError("join of non-disjoint simplices (shared %s)" % sorted(shared))
        if isinstance(other, Simplex):
            return tuple.__new__(Simplex, sorted(self + other))
        return Simplex(self + tuple(other))


def _as_simplex(s):
    return s if isinstance(s, Simplex) else Simplex(s)


class Complex:
    """An immutable simplicial complex, stored by its facet set.

    ``Complex(facets)`` requires the given simplices to be pairwise
    non-nested; use :func:`closure` to build a complex from an arbitrary
    family of simplices.  The empty complex ``Complex([])`` is allowed and
    acts as the identity for :func:`join`.  Code inside the package passes
    ``_trusted=True`` with pairwise non-nested ``Simplex`` values, which are
    taken as they are.
    """

    def __init__(self, facets, *, _trusted=False):
        if _trusted:
            fs = frozenset(facets)
        else:
            fs = frozenset(_as_simplex(f) for f in facets)
            by_len = sorted(fs, key=len)
            # only a longer simplex can contain f: those past the last one
            # of f's length
            end = {len(f): i for i, f in enumerate(by_len, 1)}
            longer = {n: by_len[i:] for n, i in end.items()}
            for f in by_len:
                fset = set(f)
                for g in longer[len(f)]:
                    if fset <= set(g):
                        raise ValueError(
                            "facet %s is a face of facet %s; use closure()" % (f, g)
                        )
        self._facets = fs

    @property
    def facets(self) -> frozenset:
        return self._facets

    @cached_property
    def dim(self):
        """Dimension: max facet dimension, -1 for the empty complex."""
        return max((len(f) for f in self._facets), default=0) - 1

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(v for f in self._facets for v in f)

    @cached_property
    def simplices(self) -> frozenset:
        return frozenset(self._star_index)

    @cached_property
    def _star_index(self):
        # face -> sorted tuple of facets containing it, the faces in the
        # order the sorted facets first reach them, by size; a face is looked
        # up as the plain tuple combinations yields, and made a Simplex only
        # the first time
        idx = {}
        get = idx.get
        for f in sorted(self._facets):
            for r in range(1, len(f)):
                for c in combinations(f, r):
                    fs = get(c)
                    if fs is None:
                        idx[tuple.__new__(Simplex, c)] = [f]
                    else:
                        fs.append(f)
            idx[f] = [f]  # facets do not nest, so only f holds f
        return {s: tuple(fs) for s, fs in idx.items()}

    def simplices_of_dim(self, k):
        return sorted(s for s in self.simplices if len(s) == k + 1)

    def __contains__(self, s):
        try:
            s = _as_simplex(s)
        except ValueError:
            return False
        return s in self._star_index

    def __eq__(self, other):
        return isinstance(other, Complex) and self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    def __bool__(self):
        return bool(self._facets)

    def __repr__(self):
        if not self._facets:
            return "Complex([])"
        return "Complex(%s)" % (sorted(self._facets),)

    @cached_property
    def is_pure(self):
        dims = {len(f) for f in self._facets}
        return len(dims) <= 1

    @cached_property
    def boundary_complex(self) -> "Complex":
        """Closure of the ridges lying in exactly one top-dimensional facet.

        Ridges are the (dim-1)-faces of the top-dimensional facets.  For the
        empty complex and for 0-dimensional complexes this is empty.
        """
        n = self.dim
        if n <= 0:
            return EMPTY
        # a ridge's star holds its top-dimensional facets, or just the ridge
        # itself when the ridge is a facet
        return closure(
            r
            for r, fs in self._star_index.items()
            if len(r) == n and len(fs) == 1 and len(fs[0]) == n + 1
        )

    def facets_containing(self, s):
        return self._star_index.get(_as_simplex(s), ())

    def is_subcomplex_of(self, other: "Complex"):
        return all(f in other._star_index for f in self._facets)


EMPTY = Complex([])


def closure(simplices) -> Complex:
    """The complex generated by a family of simplices.

    Dominated members are dropped, so the result's facets are the
    inclusion-maximal elements of the family.
    """
    ss = sorted({_as_simplex(s) for s in simplices}, key=len, reverse=True)
    maximal = []
    longer = []  # the vertex sets of the maximal simplices longer than s
    for s in ss:
        if maximal and len(s) < len(maximal[-1]):
            longer.extend(map(set, maximal[len(longer) :]))
        if not any(map(set(s).issubset, longer)):
            maximal.append(s)
    return Complex(maximal, _trusted=True)


def simplex_complex(s) -> Complex:
    """The closure of a single simplex, as a complex."""
    return Complex([_as_simplex(s)], _trusted=True)


def simplex_boundary(s) -> Complex:
    """The boundary sphere of a single simplex: empty for a vertex."""
    s = _as_simplex(s)
    if len(s) == 1:
        return EMPTY
    return Complex(s.boundary_faces(), _trusted=True)


def star(a, k: Complex) -> Complex:
    """The closed star of simplex ``a`` in ``k``: the closure of every
    simplex containing ``a``.  Empty when ``a`` is not in ``k``."""
    a = _as_simplex(a)
    return closure(k.facets_containing(a))


def link(a, k: Complex) -> Complex:
    """The link of ``a`` in ``k``: all simplices disjoint from ``a`` whose
    union with ``a`` is in ``k``.

    >>> sorted(link([4], boundary_of_simplex(3)).facets)
    [(1, 2), (1, 3), (2, 3)]
    """
    a = _as_simplex(a)
    aset = set(a)
    out = []
    for f in k.facets_containing(a):
        rest = [v for v in f if v not in aset]
        if rest:
            out.append(tuple.__new__(Simplex, rest))
    # f - a within g - a puts f within g, so these are facets already
    return Complex(out, _trusted=True)


def join(k1: Complex, k2: Complex) -> Complex:
    """The simplicial join.  Vertex sets must be disjoint; the empty complex
    is the identity."""
    if not k1:
        return k2
    if not k2:
        return k1
    shared = k1.vertices & k2.vertices
    if shared:
        raise ValueError("join of complexes sharing vertices %s" % sorted(shared))
    return Complex(
        [f1.joined(f2) for f1 in k1.facets for f2 in k2.facets], _trusted=True
    )


def cone(k: Complex, apex: int) -> Complex:
    """The cone apex * k.  Cone over the empty complex is the apex point."""
    return join(k, simplex_complex([apex]))


def suspension(k: Complex, north: int, south: int) -> Complex:
    """The suspension k * {north, south} with two new apex vertices."""
    if north == south:
        raise ValueError("suspension apexes must differ")
    return join(k, Complex([Simplex([north]), Simplex([south])], _trusted=True))


def boundary_of_simplex(n: int, offset: int = 1) -> Complex:
    """The boundary of the n-simplex on vertices offset..offset+n, an
    (n-1)-sphere with n+1 facets."""
    verts = tuple(range(offset, offset + n + 1))
    return Complex(
        [Simplex(c) for c in combinations(verts, n)], _trusted=True
    )


def fresh_vertex(k: Complex, floor: int = -1) -> int:
    """The canonical fresh label: one more than every label in sight."""
    return max(max(k.vertices, default=-1), floor) + 1


def stellar_subdivide(k: Complex, a, new_vertex=None) -> Complex:
    """Stellar subdivision of ``k`` at the simplex ``a``.

    Replaces star(a) with new_vertex * boundary(a) * link(a).  Requires
    dim(a) >= 1 (subdividing a vertex would be the identity) and a fresh
    apex label, which defaults to one more than the current maximum.
    """
    a = _as_simplex(a)
    if a not in k:
        raise ValueError("cannot subdivide %s: not a simplex of the complex" % (a,))
    if a.dim < 1:
        raise ValueError("stellar subdivision needs dim(a) >= 1")
    if new_vertex is None:
        new_vertex = fresh_vertex(k)
    if new_vertex in k.vertices:
        raise ValueError("subdivision vertex %d already in use" % new_vertex)
    aset = set(a)
    new_facets = [f for f in k.facets if not aset <= set(f)]
    for f in k.facets_containing(a):
        for x in a:
            new_facets.append(Simplex(tuple(v for v in f if v != x) + (new_vertex,)))
    return closure(new_facets)


def product_with_interval(
    k: Complex, vertex_order=None, bottom_labels=None, top_labels=None
) -> Complex:
    """The staircase triangulation of |k| x [0,1].

    Every facet v_0 < ... < v_m (in ``vertex_order``, default: label order)
    yields the m+1 staircase simplices

        {(v_0,0)..(v_i,0), (v_i,1)..(v_m,1)},  i = 0..m,

    which glue compatibly across shared faces because the order is global.
    ``bottom_labels`` and ``top_labels`` map the vertices of ``k`` to the
    labels used for the two copies; the default keeps labels on the bottom
    and allocates a fresh block for the top.  The two copies of ``k`` are
    subcomplexes of the result.
    """
    if not k:
        return EMPTY
    order = list(vertex_order) if vertex_order is not None else sorted(k.vertices)
    if set(order) != set(k.vertices):
        raise ValueError("vertex_order must enumerate the vertex set exactly")
    pos = {v: i for i, v in enumerate(order)}
    if bottom_labels is None:
        bottom_labels = {v: v for v in k.vertices}
    if top_labels is None:
        base = fresh_vertex(k, max(bottom_labels.values(), default=-1))
        top_labels = {v: base + i for i, v in enumerate(sorted(k.vertices))}
    used = list(bottom_labels.values()) + list(top_labels.values())
    if len(set(used)) != len(used):
        raise ValueError("bottom and top label maps must be injective and disjoint")
    facets = []
    for f in k.facets:
        fv = sorted(f, key=pos.__getitem__)
        for i in range(len(fv)):
            facets.append(
                Simplex(
                    [bottom_labels[v] for v in fv[: i + 1]]
                    + [top_labels[v] for v in fv[i:]]
                )
            )
    return closure(facets)


def facet_text(f: Simplex) -> str:
    """One facet's part of canonical_facet_text: its labels, comma-joined."""
    return ",".join(map(str, f))


def canonical_facet_text(k: Complex) -> str:
    """A canonical one-line rendering of the facet set, used for hashing."""
    return ";".join(map(facet_text, sorted(k.facets)))


def fingerprint(k: Complex) -> str:
    """Stable 64-bit hex fingerprint of the facet set (not Python hash())."""
    digest = hashlib.sha256(canonical_facet_text(k).encode("ascii")).hexdigest()
    return digest[:16]
