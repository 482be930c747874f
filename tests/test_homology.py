"""Exact integral invariants against published values.

The expected homology groups below are the textbook ones for the standard
spaces (spheres, the 7-vertex torus, the 6-vertex projective plane), which
keeps the checker honest without a second matrix algorithm in the loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmoves import (
    EMPTY,
    Complex,
    HomologyGroup,
    _kernel,
    boundary_of_simplex,
    closure,
    euler_characteristic,
    f_vector,
    homology,
    homology_summary,
    join,
    random_walk,
)
from plmoves.demos import bipyramid, rp2_6, torus7
from plmoves.homology import (
    _check_chain_complex,
    _check_morse_complex,
    _check_snf,
    _collapse,
    _face_index,
    _morse_boundaries,
)
from support import disk_with_interior_triangle


def groups(k):
    return [(g.betti, g.torsion) for g in homology(k)]


def test_f_vector_and_euler():
    assert f_vector(bipyramid()) == (5, 9, 6)
    assert f_vector(torus7()) == (7, 21, 14)
    assert f_vector(rp2_6()) == (6, 15, 10)
    assert f_vector(boundary_of_simplex(4)) == (5, 10, 10, 5)
    assert euler_characteristic(bipyramid()) == 2
    assert euler_characteristic(torus7()) == 0
    assert euler_characteristic(rp2_6()) == 1
    assert euler_characteristic(boundary_of_simplex(4)) == 0
    assert f_vector(Complex([(1,), (2,)])) == (2,)


def test_spheres():
    for n in range(1, 5):
        hs = groups(boundary_of_simplex(n + 1))
        expected = [(1, ())] + [(0, ())] * (n - 1) + [(1, ())]
        assert hs == expected, n


def test_bipyramid_is_a_2_sphere():
    assert groups(bipyramid()) == [(1, ()), (0, ()), (1, ())]


def test_torus():
    assert groups(torus7()) == [(1, ()), (2, ()), (1, ())]


def test_projective_plane_torsion():
    assert groups(rp2_6()) == [(1, ()), (0, (2,)), (0, ())]


def test_disconnected_and_contractible():
    assert homology(EMPTY) == []
    two_points = Complex([(1,), (2,)])
    assert groups(two_points) == [(2, ())]
    solid = Complex([(1, 2, 3, 4)])
    assert groups(solid) == [(1, ()), (0, ()), (0, ()), (0, ())]


def test_nonpure_complex():
    # a triangle with a whisker is still contractible
    k = Complex([(1, 2, 3), (3, 4)])
    assert groups(k) == [(1, ()), (0, ()), (0, ())]


def test_join_with_two_points_suspends_homology():
    t = torus7()
    sus = join(t, Complex([(30,), (31,)]))
    assert groups(sus) == [(1, ()), (0, ()), (2, ()), (1, ())]


def test_homology_group_rendering():
    assert str(HomologyGroup(0, ())) == "0"
    assert str(HomologyGroup(1, ())) == "Z"
    assert str(HomologyGroup(2, (2,))) == "Z^2 + Z/2"
    summary = homology_summary(rp2_6())
    assert "Z/2" in summary
    assert summary.startswith("H_0")


def test_homology_group_refuses_what_no_group_is():
    with pytest.raises(ValueError, match="^negative rank$"):
        HomologyGroup(-1)
    with pytest.raises(ValueError, match="^torsion coefficients must divide successively$"):
        HomologyGroup(0, (2, 3))
    with pytest.raises(ValueError, match="^torsion coefficients must exceed 1$"):
        HomologyGroup(0, (1,))


def test_boundary_of_boundary_check_fires_on_a_corrupted_table():
    k, _ = random_walk(boundary_of_simplex(4), 10, seed=3)
    bases, faces = _face_index(k)
    _check_chain_complex(bases, faces)  # the real table passes
    # a wrong face: the first triangle's first face points at another edge
    wrong_face = [list(table) for table in faces]
    rows = list(wrong_face[2][0])
    rows[0] = next(r for r in range(len(bases[1])) if r not in rows)
    wrong_face[2][0] = tuple(rows)
    # a wrong sign: two faces of the first tetrahedron trade places
    wrong_sign = [list(table) for table in faces]
    rows = list(wrong_sign[3][0])
    rows[0], rows[1] = rows[1], rows[0]
    wrong_sign[3][0] = tuple(rows)
    for table in (wrong_face, wrong_sign):
        with pytest.raises(AssertionError, match=r"simplicial identity d_\d d_\d = d_\d d_\d"):
            _check_chain_complex(bases, table)
    # the Morse complex of RP^2 is Z --2--> Z --0--> Z; a first map of 1
    # makes the composite 2
    bases, faces = _face_index(rp2_6())
    morse = _morse_boundaries(faces, *_collapse(bases, faces))
    assert morse[1:] == [[{}], [{0: 2}]]
    _check_morse_complex(morse)
    morse[1][0] = {0: 1}
    with pytest.raises(AssertionError, match="boundary of boundary"):
        _check_morse_complex(morse)


_SNF = _kernel.snf_summary


def _patched_snf(change):
    """A Smith normal form whose i-th call (from 0) returns
    ``change(i, rank, torsion)`` in place of its true (rank, torsion)."""
    calls = []

    def patched(entries, nrows, ncols):
        calls.append(None)
        return change(len(calls) - 1, *_SNF(entries, nrows, ncols))

    return patched


def test_rank_checks_fire_on_a_wrong_rank_or_lost_torsion(monkeypatch):
    # The Euler relation holds whatever the ranks, and the component count
    # sees only the first boundary map; the rank checks see every map.
    cases = [torus7(), rp2_6(), random_walk(boundary_of_simplex(4), 12, seed=1)[0]]
    for k in cases:
        summaries = []

        def recording(i, rank, torsion):
            summaries.append((rank, torsion))
            return rank, torsion

        monkeypatch.setattr(_kernel, "snf_summary", _patched_snf(recording))
        homology(k)
        assert len(summaries) == k.dim  # one call per boundary map
        for target, (rank, torsion) in enumerate(summaries):
            # a map of rank 0 cannot be under-reported
            for wrong in [rank + 1] + ([rank - 1] if rank else []):
                monkeypatch.setattr(
                    _kernel,
                    "snf_summary",
                    _patched_snf(lambda i, r, t: (wrong if i == target else r, t)),
                )
                with pytest.raises(AssertionError, match="rank over Q"):
                    homology(k)
    monkeypatch.setattr(_kernel, "snf_summary", _patched_snf(lambda i, r, t: (r, ())))
    with pytest.raises(AssertionError, match=r"over Z/4 the factors are \[2\]"):
        homology(rp2_6())


def test_snf_check_sees_every_invariant_factor():
    # the rank over F_p for p = 2 and the primes of the reported factors
    # saw neither of these: a dropped Z/3, and Z/4 reported for Z/2
    with pytest.raises(AssertionError, match=r"over Z/6 the factors are \[3\]"):
        _check_snf([(0, 0, 3)], 1, 1, 1, ())
    with pytest.raises(AssertionError, match=r"over Z/4 the factors are \[2\]"):
        _check_snf([(0, 0, 2)], 1, 1, 1, (4,))
    _check_snf([(0, 0, 3)], 1, 1, 1, (3,))
    _check_snf([(0, 0, 2)], 1, 1, 1, (2,))
    # diag(4, 6) has invariant factors 2 and 12
    entries = [(0, 0, 4), (1, 1, 6)]
    _check_snf(entries, 2, 2, 2, (2, 12))
    for wrong in [(4, 6), (2, 6), (12,), (2, 24), (2, 4, 12)]:
        with pytest.raises(AssertionError, match="invariant factors"):
            _check_snf(entries, 2, 2, 2, wrong)


def test_snf_check_of_a_matrix_with_no_entry():
    # checked in closed form: rank 0 and no invariant factor, in the
    # messages the elimination gives
    with pytest.raises(AssertionError, match=r"rank 1 of a 1x0 Morse matrix, rank over Q 0"):
        _check_snf([], 1, 0, 1, ())
    lost = r"invariant factors \[2\] .* over Z/2 the factors are \[\]"
    with pytest.raises(AssertionError, match=lost):
        _check_snf([], 0, 1, 0, (2,))
    for nrows, ncols in [(0, 0), (1, 0), (0, 1), (2, 3)]:
        _check_snf([], nrows, ncols, 0, ())


# The full-matrix implementation, kept as the reference: it slices every
# face (and every face of a face) from sorted bases, runs the Smith normal
# form on every boundary matrix, and counts the Euler characteristic in a
# second walk.
def _reference_homology(k):
    n = k.dim
    bases = [tuple(tuple(s) for s in k.simplices_of_dim(d)) for d in range(n + 1)]
    for d in range(2, len(bases)):
        lower_index = {s: i for i, s in enumerate(bases[d - 2])}
        for s in bases[d]:
            acc = {}
            outer_sign = 1
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                inner_sign = 1
                for j in range(len(face)):
                    key = lower_index[face[:j] + face[j + 1 :]]
                    acc[key] = acc.get(key, 0) + outer_sign * inner_sign
                    inner_sign = -inner_sign
                outer_sign = -outer_sign
            assert not any(acc.values())
    ranks = [0] * (n + 2)
    torsions = [()] * (n + 2)
    for d in range(1, n + 1):
        lower_index = {s: i for i, s in enumerate(bases[d - 1])}
        entries = []
        for col, s in enumerate(bases[d]):
            sign = 1
            for i in range(len(s)):
                entries.append((lower_index[s[:i] + s[i + 1 :]], col, sign))
                sign = -sign
        ranks[d], torsions[d] = _kernel.snf_summary(
            entries, len(bases[d - 1]), len(bases[d])
        )
    out = [
        HomologyGroup(len(bases[d]) - ranks[d] - ranks[d + 1], tuple(torsions[d + 1]))
        for d in range(n + 1)
    ]
    alternating = sum((h.betti if d % 2 == 0 else -h.betti) for d, h in enumerate(out))
    assert alternating == euler_characteristic(k)
    return out


def test_homology_matches_the_reference_and_feeds_the_snf_only_morse_matrices(monkeypatch):
    cases = [
        random_walk(boundary_of_simplex(3), 12, seed=1)[0],
        random_walk(boundary_of_simplex(4), 12, seed=2)[0],
        random_walk(boundary_of_simplex(5), 10, seed=3)[0],
        torus7(),
        rp2_6(),
        Complex([(1, 2, 3), (3, 4), (4, 5, 6, 7)]),  # not pure
        Complex([(1, 2, 3), (2, 3, 4), (5, 6), (6, 7), (5, 7), (8,)]),  # 3 parts
        join(rp2_6(), Complex([(30,), (31,)])),
    ]
    real = _kernel.snf_summary
    calls = []

    def recording(entries, nrows, ncols):
        calls.append((list(entries), nrows, ncols))
        return real(entries, nrows, ncols)

    monkeypatch.setattr(_kernel, "snf_summary", recording)
    for k in cases:
        got = homology(k)
        new_calls, calls[:] = calls[:], []
        want = _reference_homology(k)
        assert got == want, sorted(k.facets)
        # the reference hands the SNF every boundary matrix, homology one
        # Morse matrix per map, over the critical cells of the collapse
        f = f_vector(k)
        maps = range(1, k.dim + 1)
        assert [(nr, nc) for _, nr, nc in calls] == [(f[d - 1], f[d]) for d in maps]
        critical, _, _ = _collapse(*_face_index(k))
        assert [(nr, nc) for _, nr, nc in new_calls] == [
            (len(critical[d - 1]), len(critical[d])) for d in maps
        ]
        for d, (entries, nr, nc) in zip(maps, new_calls):
            assert nr <= f[d - 1] and nc <= f[d] and len(entries) <= nr * nc
        calls.clear()


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


def _families(max_vertices, max_size):
    # closures of these cover 0- and 1-dimensional, non-pure and
    # disconnected complexes
    simplices = st.sets(st.integers(0, 7), min_size=1, max_size=max_vertices)
    return st.lists(simplices, min_size=1, max_size=max_size).map(closure)


def _shifted(k, by):
    return Complex([tuple(v + by for v in f) for f in k.facets])


joined_complexes = st.tuples(_families(3, 3), _families(3, 3)).map(
    lambda pair: join(pair[0], _shifted(pair[1], 10))
)


@settings(max_examples=200)
@given(st.one_of(walked_complexes(), _families(4, 8), joined_complexes))
def test_homology_equals_the_reference_on_random_complexes(k):
    assert homology(k) == _reference_homology(k), sorted(k.facets)
