"""Named example complexes, filtrations, and stratified spaces.

Every generator here returns a validated object; the document registry at
the bottom feeds the command-line ``demo`` command.  Labels are 1-based
small integers so fresh vertices allocated during moves stay readable.
"""

from __future__ import annotations

from .complexes import EMPTY, Complex, boundary_of_simplex, join
from .documents import (
    ComplexDocument,
    DocumentError,
    document_for_complex,
    document_for_filtered,
    document_for_stark,
)
from .filtration import FilteredComplex
from .stark import StarkNeighborhood


def sphere_boundary(n: int) -> Complex:
    """The n-sphere as the boundary of the (n+1)-simplex on 1..n+2."""
    return boundary_of_simplex(n + 1)


def bipyramid() -> Complex:
    """Two tetrahedron boundaries glued along the triangle 1-2-3, poles 4
    and 5; the result of the 0-move inserting vertex 5 at {1,2,3} in the
    boundary of the 3-simplex."""
    return Complex([(1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5)])


def torus7() -> Complex:
    """The 7-vertex torus: orbits of {1,2,4} and {1,3,4} under i -> i+1
    mod 7."""
    facets = []
    for i in range(7):
        facets.append((i % 7 + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1))
        facets.append((i % 7 + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1))
    return Complex(facets)


def rp2_6() -> Complex:
    """The 6-vertex projective plane, the antipodal quotient of the
    icosahedron."""
    return Complex(
        [
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 5),
            (1, 4, 6),
            (1, 5, 6),
            (2, 3, 6),
            (2, 4, 5),
            (2, 5, 6),
            (3, 4, 5),
            (3, 4, 6),
        ]
    )


def filtered_s2_equator() -> FilteredComplex:
    """The bipyramid 2-sphere with the triangle 1-2-3 as a distinguished
    equatorial circle; the sphere is exactly the join of the equator with
    the pole pair {4},{5}, so every equator edge carries a filtered
    suspension."""
    equator = Complex([(1, 2), (2, 3), (1, 3)])
    return FilteredComplex((EMPTY, equator, bipyramid()))


def filtered_s3_equatorial_s2() -> FilteredComplex:
    """The 3-sphere as the suspension of the 2-simplex boundary on 1..4
    with poles 5 and 6, filtered by the equatorial 2-sphere."""
    s2 = boundary_of_simplex(3)
    s3 = join(s2, Complex([(5,), (6,)]))
    return FilteredComplex((EMPTY, EMPTY, s2, s3))


def knot_model() -> tuple[FilteredComplex, tuple[StarkNeighborhood, ...]]:
    """Local model of a knotted arc on a spanning surface inside a 3-ball:
    the ball is the join of the edge 1-2 with the 4-cycle 3-5-4-6, the arc
    is the edge itself, and the surface piece is the triangle 1-2-3 plus
    its mirror 1-2-4.  The neighborhood of the arc cones first over the
    surface directions (apexes 3, 4) and then over the ambient directions
    (apexes 5, 6)."""
    x = FilteredComplex(
        (
            EMPTY,
            Complex([(1, 2)]),
            Complex([(1, 2, 3), (1, 2, 4)]),
            Complex([(1, 2, 3, 5), (1, 2, 4, 5), (1, 2, 3, 6), (1, 2, 4, 6)]),
        )
    )
    nb = StarkNeighborhood(
        Complex([(1, 2)]),
        (
            ((3, frozenset({1, 2})), (4, frozenset({1, 2}))),
            ((5, frozenset({1, 2, 3, 4})), (6, frozenset({1, 2, 3, 4}))),
        ),
    )
    return x, (nb,)


def join_fan(n: int) -> tuple[FilteredComplex, tuple[StarkNeighborhood, ...]]:
    """The join of the edge 1-2 with n points 3..n+2: n triangles sharing
    one edge.  For n > 2 the shared edge is non-manifold, so the space is
    stratified by the full 1-skeleton over the endpoints of the singular
    edge.  The neighborhood of the shared edge needs n coning apexes, one
    per sheet; its schema grows with n, which is the point of the family.
    Apexes are abstract labels beyond the fan's own vertices."""
    if n < 1:
        raise ValueError("the fan needs at least one triangle")
    points = range(3, n + 3)
    triangles = [(1, 2, p) for p in points]
    x2 = Complex(triangles)
    x1 = Complex(sorted(x2.simplices_of_dim(1)))
    x = FilteredComplex((Complex([(1,), (2,)]), x1, x2))
    fresh = n + 3
    main = StarkNeighborhood(
        Complex([(1, 2)]),
        (tuple((fresh + i, frozenset({1, 2})) for i in range(n)),),
    )
    sides = tuple(
        StarkNeighborhood(Complex([edge]), (((fresh, frozenset(edge)),),))
        for p in points
        for edge in ((1, p), (2, p))
    )
    tops = tuple(StarkNeighborhood(Complex([t]), ()) for t in triangles)
    return x, (main,) + sides + tops


_PLAIN = {
    "bipyramid": bipyramid,
    "torus7": torus7,
    "rp2-6": rp2_6,
}

_FILTERED = {
    "filtered-s2-equator": filtered_s2_equator,
    "filtered-s3-equatorial-s2": filtered_s3_equatorial_s2,
}

_STARK = {
    "knot-model": knot_model,
}

_PARAMETRIC = ("sphere-boundary", "join-fan")

DEMO_NAMES = tuple(
    sorted(list(_PLAIN) + list(_FILTERED) + list(_STARK) + list(_PARAMETRIC))
)


def demo_document(name: str, n: int | None = None) -> ComplexDocument:
    """Build the named demo as a document; parametric families need n."""
    if name in _PARAMETRIC:
        if n is None:
            raise DocumentError("demo %r needs a size argument" % name)
        if n < 1:
            raise DocumentError("demo %r needs a positive size" % name)
        meta = {"demo": name, "n": n}
        if name == "sphere-boundary":
            return document_for_complex(sphere_boundary(n), metadata=meta)
        x, nbhds = join_fan(n)
        return document_for_stark(x, nbhds, metadata=meta)
    if n is not None:
        raise DocumentError("demo %r does not take a size argument" % name)
    meta = {"demo": name}
    if name in _PLAIN:
        return document_for_complex(_PLAIN[name](), metadata=meta)
    if name in _FILTERED:
        return document_for_filtered(_FILTERED[name](), metadata=meta)
    if name in _STARK:
        x, nbhds = _STARK[name]()
        return document_for_stark(x, nbhds, metadata=meta)
    raise DocumentError(
        "unknown demo %r (available: %s)" % (name, ", ".join(DEMO_NAMES))
    )
