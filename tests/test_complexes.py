"""Simplices, complexes and the basic constructions."""

import pytest

from plmoves import (
    EMPTY,
    Complex,
    Simplex,
    boundary_of_simplex,
    canonical_facet_text,
    closure,
    cone,
    fingerprint,
    fresh_vertex,
    join,
    link,
    product_with_interval,
    random_walk,
    simplex_boundary,
    simplex_complex,
    star,
    stellar_subdivide,
    suspension,
)
from plmoves.demos import torus7
from support import disk_with_interior_triangle, hexagon_disk


def test_simplex_sorts_and_validates():
    assert Simplex([3, 1, 2]) == (1, 2, 3)
    assert Simplex([5]).dim == 0
    with pytest.raises(ValueError, match="at least one vertex"):
        Simplex([])
    with pytest.raises(ValueError, match="duplicate vertex"):
        Simplex([1, 1, 2])
    with pytest.raises(ValueError, match="non-negative"):
        Simplex([-1, 2])
    with pytest.raises(ValueError, match="non-negative"):
        Simplex([True, 2])
    with pytest.raises(ValueError, match="non-negative"):
        Simplex(["a", "b"])


def test_simplex_faces_and_join():
    s = Simplex([1, 2, 3])
    assert s.boundary_faces() == ((1, 2), (1, 3), (2, 3))
    assert Simplex([4]).boundary_faces() == ()
    assert Simplex([1, 2]).joined(Simplex([5])) == (1, 2, 5)
    assert Simplex([3, 4]).joined((2, 1)) == (1, 2, 3, 4)
    with pytest.raises(ValueError, match="non-disjoint"):
        Simplex([1, 2]).joined(Simplex([2, 3]))
    # a plain tuple is still validated
    with pytest.raises(ValueError, match="non-disjoint"):
        Simplex([1, 2]).joined((2, 3))
    with pytest.raises(ValueError, match="non-negative"):
        Simplex([1, 2]).joined((3, -1))
    with pytest.raises(ValueError, match="duplicate vertex"):
        Simplex([1, 2]).joined((3, 3))
    # faces and joins built without re-validation are still Simplex values
    built = (
        list(s.boundary_faces())
        + [s.joined(Simplex([7]))]
        + [f for f in link([1], boundary_of_simplex(3)).facets]
    )
    assert all(type(f) is Simplex for f in built)


def test_complex_rejects_nested_facets():
    with pytest.raises(ValueError, match="use closure"):
        Complex([(1, 2, 3), (1, 2)])
    with pytest.raises(ValueError, match="duplicate vertex"):
        Complex([(1, 2, 2)])
    with pytest.raises(ValueError, match="non-negative"):
        Complex([(1, -2, 3)])
    # closure accepts the same family and drops the dominated member
    k = closure([(1, 2, 3), (1, 2)])
    assert k.facets == frozenset({Simplex([1, 2, 3])})


def test_complex_basic_queries():
    k = Complex([(1, 2, 3), (3, 4)])
    assert k.dim == 2
    assert not k.is_pure
    assert k.vertices == frozenset({1, 2, 3, 4})
    assert len(k.simplices) == 7 + 2
    assert (1, 3) in k
    assert (1, 4) not in k
    assert [2, 2] not in k  # invalid simplex is simply absent
    assert k.simplices_of_dim(1) == [(1, 2), (1, 3), (2, 3), (3, 4)]
    assert k.facets_containing((3,)) == ((1, 2, 3), (3, 4))


def test_empty_complex_is_falsy_identity():
    assert not EMPTY
    assert EMPTY.dim == -1
    assert join(EMPTY, EMPTY) == EMPTY
    k = Complex([(1, 2)])
    assert join(EMPTY, k) == k
    assert join(k, EMPTY) == k
    assert repr(EMPTY) == "Complex([])"
    assert repr(Complex([(3,), (2, 1)])) == "Complex([(1, 2), (3,)])"


def test_equality_and_hash_by_facets():
    a = Complex([(1, 2), (2, 3)])
    b = closure([(2, 3), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Complex([(1, 2)])
    assert a != frozenset()


def test_boundary_complex():
    disk = hexagon_disk()
    rim = Complex([(i, i % 6 + 1) for i in range(1, 7)])
    assert disk.boundary_complex == rim
    assert boundary_of_simplex(3).boundary_complex == EMPTY
    assert Complex([(1,), (2,)]).boundary_complex == EMPTY
    # open book: the spine edge sits in three sheets, so it is not a ridge
    book = Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
    assert Simplex([1, 2]) not in book.boundary_complex


def test_star_and_link():
    s2 = boundary_of_simplex(3)
    assert star((4,), s2) == closure([(1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert link((4,), s2) == simplex_boundary((1, 2, 3))
    assert link((1, 2), s2) == Complex([(3,), (4,)])
    assert star((9,), s2) == EMPTY
    assert link((1, 2, 3), s2) == EMPTY


def test_link_equals_the_closure_of_its_facets():
    disk = disk_with_interior_triangle()
    for k in (
        random_walk(boundary_of_simplex(4), 20, seed=5)[0],
        torus7(),
        random_walk(disk, 8, seed=2, avoid=disk.boundary_complex)[0],
    ):
        for a in k.simplices:
            facets = [set(f) - set(a) for f in k.facets_containing(a)]
            assert link(a, k) == closure(f for f in facets if f), a


def test_join_cone_suspension():
    edge = Complex([(1, 2)])
    square = Complex([(1, 3), (3, 2), (2, 4), (4, 1)])
    assert join(edge, Complex([(5,), (6,)])).dim == 2
    with pytest.raises(ValueError, match="sharing vertices"):
        join(edge, Complex([(2, 5)]))
    assert cone(square, 9) == Complex(
        [(1, 3, 9), (2, 3, 9), (2, 4, 9), (1, 4, 9)]
    )
    sus = suspension(square, 8, 9)
    assert sus.dim == 2
    assert len(sus.facets) == 8
    with pytest.raises(ValueError, match="apexes must differ"):
        suspension(square, 7, 7)


def test_boundary_of_simplex_shape():
    s = boundary_of_simplex(4)
    assert s.dim == 3
    assert len(s.facets) == 5
    assert s.vertices == frozenset(range(1, 6))
    shifted = boundary_of_simplex(4, offset=10)
    assert shifted.vertices == frozenset(range(10, 15))


def test_simplex_complex_and_boundary():
    assert simplex_complex((2, 1)).facets == frozenset({Simplex([1, 2])})
    assert simplex_boundary((7,)) == EMPTY
    assert simplex_boundary((1, 2)) == Complex([(1,), (2,)])


def test_fresh_vertex():
    assert fresh_vertex(EMPTY) == 0
    assert fresh_vertex(Complex([(1, 5)])) == 6
    assert fresh_vertex(Complex([(1, 5)]), floor=9) == 10


def test_stellar_subdivision():
    s2 = boundary_of_simplex(3)
    sub = stellar_subdivide(s2, (1, 2, 3))
    assert sub.dim == 2
    assert len(sub.facets) == 6
    assert 5 in sub.vertices
    assert Simplex([1, 2, 3]) not in sub
    # subdividing an edge replaces both incident triangles
    sub2 = stellar_subdivide(s2, (1, 2), new_vertex=8)
    assert len(sub2.facets) == 6
    assert Simplex([1, 2]) not in sub2
    assert star((8,), sub2) == closure(
        [(1, 3, 8), (2, 3, 8), (1, 4, 8), (2, 4, 8)]
    )
    with pytest.raises(ValueError, match="not a simplex"):
        stellar_subdivide(s2, (1, 9))
    with pytest.raises(ValueError, match="dim"):
        stellar_subdivide(s2, (1,))
    with pytest.raises(ValueError, match="already in use"):
        stellar_subdivide(s2, (1, 2), new_vertex=3)


def test_product_with_interval_staircase():
    edge = Complex([(1, 2)])
    prism = product_with_interval(edge)
    # an edge times an interval is two triangles
    assert len(prism.facets) == 2
    assert prism == Complex([(1, 3, 4), (1, 2, 4)])
    tri = Complex([(1, 2, 3)])
    p3 = product_with_interval(tri)
    assert len(p3.facets) == 3
    assert p3.dim == 3
    # both copies are subcomplexes
    assert tri.is_subcomplex_of(p3)
    assert Complex([(4, 5, 6)]).is_subcomplex_of(p3)
    assert product_with_interval(EMPTY) == EMPTY


def test_product_with_interval_label_maps():
    edge = Complex([(1, 2)])
    prism = product_with_interval(
        edge, bottom_labels={1: 10, 2: 11}, top_labels={1: 20, 2: 21}
    )
    assert prism.vertices == frozenset({10, 11, 20, 21})
    with pytest.raises(ValueError, match="injective and disjoint"):
        product_with_interval(edge, bottom_labels={1: 5, 2: 6}, top_labels={1: 6, 2: 7})
    with pytest.raises(ValueError, match="vertex_order"):
        product_with_interval(edge, vertex_order=[1])


def test_product_with_interval_glues_across_faces():
    # global vertex order makes the walls of adjacent facets match
    path = Complex([(1, 2), (2, 3)])
    p = product_with_interval(path)
    assert p.is_pure
    bd = p.boundary_complex
    assert Simplex([2, 5]) in p  # the shared wall edge
    assert Simplex([2, 5]) not in bd


def test_fingerprints_are_stable_and_label_sensitive():
    k = Complex([(1, 2, 4), (2, 3, 4)])
    same = closure([(2, 3, 4), (1, 2, 4)])
    assert canonical_facet_text(k) == "1,2,4;2,3,4"
    assert fingerprint(k) == fingerprint(same)
    assert len(fingerprint(k)) == 16
    assert fingerprint(k) != fingerprint(Complex([(1, 2, 4), (2, 3, 5)]))


def test_is_subcomplex_of():
    s2 = boundary_of_simplex(3)
    assert Complex([(1, 2)]).is_subcomplex_of(s2)
    assert s2.boundary_complex.is_subcomplex_of(s2)
    assert not Complex([(1, 5)]).is_subcomplex_of(s2)
