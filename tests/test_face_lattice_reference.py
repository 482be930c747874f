"""The face-lattice code against plain pure-Python loops (kept
in ``support``): the star index, homology's face-index table check, and
the nesting checks of ``Complex`` and ``closure``."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmoves import EMPTY, Complex, Simplex, boundary_of_simplex, closure, join, random_walk
from plmoves.demos import rp2_6, torus7
from plmoves.homology import _check_chain_complex, _face_index
from support import (
    disk_with_interior_triangle,
    reference_check_chain_complex,
    reference_closure,
    reference_complex,
    reference_star_index,
)

_DISK = disk_with_interior_triangle()
WALK_STARTS = {  # start and avoided subcomplex
    "S2": (boundary_of_simplex(3), EMPTY),
    "S3": (boundary_of_simplex(4), EMPTY),
    "S4": (boundary_of_simplex(5), EMPTY),
    "torus7": (torus7(), EMPTY),
    "rp2_6": (rp2_6(), EMPTY),
    "disk": (_DISK, _DISK.boundary_complex),
}


@st.composite
def walked_complexes(draw):
    start, avoid = WALK_STARTS[draw(st.sampled_from(sorted(WALK_STARTS)))]
    steps = draw(st.integers(0, 30))
    return random_walk(start, steps, seed=draw(st.integers(0, 10**6)), avoid=avoid)[0]


# families of mixed sizes, duplicates and nested members included
families = st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=5), max_size=12)

complexes = st.one_of(
    walked_complexes(),
    families.filter(bool).map(closure),
    st.tuples(families.filter(bool), families.filter(bool)).map(
        lambda pair: join(closure(pair[0]), closure([[v + 10 for v in s] for s in pair[1]]))
    ),
)


@settings(max_examples=60)
@given(complexes)
def test_the_star_index_equals_the_reference_and_its_table_passes(k):
    got = Complex(k.facets, _trusted=True)._star_index
    want = reference_star_index(k)
    assert list(got.items()) == list(want.items())  # key order included
    assert all(type(s) is Simplex for s in got)
    bases, faces = _face_index(k)
    _check_chain_complex(bases, faces)
    reference_check_chain_complex(bases, faces)


def _failure(check, bases, table):
    """Where a table check fails, as (dimension, column), or None."""
    try:
        check(bases, table)
    except AssertionError as e:
        text = re.fullmatch(
            r"(?:boundary of boundary nonzero|simplicial identity .*) at \((.*)\)", str(e)
        ).group(1)
        s = tuple(int(v) for v in text.strip(",").split(","))
        return len(s) - 1, bases[len(s) - 1].index(s)
    return None


# complexes of dimension two and up, every dimension of table corrupted
two_dimensional = st.one_of(
    walked_complexes(),
    st.tuples(st.sets(st.integers(0, 9), min_size=3, max_size=5), families).map(
        lambda pair: closure([pair[0], *pair[1]])
    ),
)


@st.composite
def corrupted_tables(draw):
    """A real face-index table with one wrong row or one swapped pair."""
    k = draw(two_dimensional)
    bases, faces = _face_index(k)
    d = draw(st.integers(1, k.dim))
    col = draw(st.integers(0, len(faces[d]) - 1))
    rows = list(faces[d][col])
    i = draw(st.integers(0, d))
    if draw(st.booleans()):
        rows[i] = draw(st.integers(0, len(bases[d - 1]) - 1).filter(lambda r: r != rows[i]))
    else:
        j = draw(st.integers(0, d).filter(lambda j: j != i))
        rows[i], rows[j] = rows[j], rows[i]
    table = [list(t) for t in faces]
    table[d][col] = tuple(rows)
    return bases, faces, table


@settings(max_examples=150)
@given(corrupted_tables())
def test_the_table_check_fails_on_every_corruption_the_reference_sees(case):
    bases, faces, table = case
    want = _failure(reference_check_chain_complex, bases, table)
    got = _failure(_check_chain_complex, bases, table)
    if want is not None:
        # the identities fail wherever boundary of boundary does, so the
        # lowest failing column is at or below the reference's
        assert got is not None and got <= want


def test_the_table_check_names_the_lowest_failing_column():
    k, _ = random_walk(boundary_of_simplex(4), 10, seed=3)
    bases, faces = _face_index(k)
    table = [list(t) for t in faces]
    for col in (5, 2):  # two tetrahedra with two faces traded
        rows = list(table[3][col])
        rows[0], rows[1] = rows[1], rows[0]
        table[3][col] = tuple(rows)
    # d_0 d_1 = d_0 d_0 survives the swap; d_0 d_2 = d_1 d_0 is the first
    # identity it breaks
    messages = {
        _check_chain_complex: "simplicial identity d_0 d_2 = d_1 d_0 fails at %s",
        reference_check_chain_complex: "boundary of boundary nonzero at %s",
    }
    for check, message in messages.items():
        with pytest.raises(AssertionError, match=re.escape(message % (bases[3][2],))):
            check(bases, table)


def test_the_table_check_names_a_wrong_layout_with_no_boundary_of_boundary():
    bases, faces = _face_index(Complex([(0, 1, 2)]))
    table = [list(t) for t in faces]
    # the triangle's faces listed in ascending order, where the layout
    # lists face i (the one without vertex i) at position i
    table[2][0] = tuple(reversed(table[2][0]))
    reference_check_chain_complex(bases, table)  # the signs still cancel
    message = "simplicial identity d_0 d_1 = d_0 d_0 fails at (0, 1, 2)"
    with pytest.raises(AssertionError, match=re.escape(message)):
        _check_chain_complex(bases, table)


def _outcome(build, family):
    try:
        return sorted(build(family).facets)
    except ValueError as e:
        return str(e)


@settings(max_examples=200)
@given(families)
def test_closure_and_complex_agree_with_the_pairwise_reference(family):
    assert _outcome(closure, family) == _outcome(reference_closure, family)
    assert _outcome(Complex, family) == _outcome(reference_complex, family)


def test_a_nested_family_names_the_same_pair():
    family = [(1, 2), (3,), (1, 2, 3), (1, 2, 4), (5, 6), (5, 6, 7, 8)]
    with pytest.raises(ValueError) as got:
        Complex(family)
    with pytest.raises(ValueError) as want:
        reference_complex(family)
    assert str(got.value) == str(want.value)
    assert "use closure()" in str(got.value)
