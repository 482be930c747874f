"""Reference checks of the Smith normal form kernel.

Ranks are checked against Gaussian elimination over the rationals, and
invariant factors against determinantal divisors: the product of the first
k invariant factors is the gcd of all k x k minors.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from plmoves import _kernel


def random_entries(rng, nrows, ncols, density=0.3, magnitude=4):
    out = []
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = rng.randint(-magnitude, magnitude)
                if v:
                    out.append((i, j, v))
    return out


def dense(entries, nrows, ncols):
    mat = [[0] * ncols for _ in range(nrows)]
    for i, j, v in entries:
        mat[i][j] = v
    return mat


def rank_over_q(entries, nrows, ncols):
    mat = [[Fraction(v) for v in row] for row in dense(entries, nrows, ncols)]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def determinant(mat):
    """Exact determinant by cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    total = 0
    for j, v in enumerate(mat[0]):
        if v:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * v * determinant(minor)
    return total


def invariant_factors(entries, nrows, ncols):
    """(rank, factors > 1) from the gcds of the k x k minors."""
    mat = dense(entries, nrows, ncols)
    divisors = [1]  # d_0
    for k in range(1, min(nrows, ncols) + 1):
        d = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                d = gcd(d, determinant([[mat[i][j] for j in cols] for i in rows]))
        if d == 0:
            break
        divisors.append(d)
    factors = [b // a for a, b in zip(divisors, divisors[1:])]
    return len(factors), tuple(f for f in factors if f > 1)


def test_snf_rank_matches_rational_rank_on_random_matrices():
    rng = random.Random(1234)
    for trial in range(200):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        entries = random_entries(rng, nrows, ncols)
        rank, _ = _kernel.snf_summary(entries, nrows, ncols)
        assert rank == rank_over_q(entries, nrows, ncols), (trial, entries, nrows, ncols)


def test_snf_rank_with_large_values():
    rng = random.Random(77)
    big = 1 << 40
    for trial in range(20):
        entries = random_entries(rng, 8, 8, density=0.6, magnitude=big)
        rank, _ = _kernel.snf_summary(entries, 8, 8)
        assert rank == rank_over_q(entries, 8, 8), trial


# (entries, nrows, ncols) -> (rank, torsion)
KNOWN_VALUES = [
    # diag(2, 6) has invariant factors 2 and 6
    (([(0, 0, 2), (1, 1, 6)], 2, 2), (2, (2, 6))),
    (([], 3, 4), (0, ())),
    (([(0, 0, 1)], 1, 1), (1, ())),
    # the RP^2 relation matrix shape: torsion without unit-free residue
    (([(0, 0, 2)], 1, 1), (1, (2,))),
]


def test_snf_known_values():
    for args, want in KNOWN_VALUES:
        assert _kernel.snf_summary(*args) == want, args


@pytest.mark.parametrize(
    "entries, message",
    [
        ([(5, 0, 1)], "entry (5, 0) outside a 2x2 matrix"),
        ([(0, 9, 1)], "entry (0, 9) outside a 2x2 matrix"),
        ([(0, 0, 1), (0, 0, 2)], "duplicate entry at (0, 0)"),
        ([(-1, 0, 3)], "entry (-1, 0) outside a 2x2 matrix"),
    ],
)
def test_snf_rejects_entries_outside_the_matrix_or_repeated(entries, message):
    with pytest.raises(ValueError) as err:
        _kernel.snf_summary(entries, 2, 2)
    assert str(err.value) == message


def test_snf_torsion_matches_determinantal_divisors():
    rng = random.Random(4321)
    with_torsion = 0
    for trial in range(150):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        entries = random_entries(rng, nrows, ncols, density=0.6, magnitude=6)
        want = invariant_factors(entries, nrows, ncols)
        assert _kernel.snf_summary(entries, nrows, ncols) == want, (trial, entries, nrows, ncols)
        with_torsion += bool(want[1])
    assert with_torsion >= 20  # the draw exercises the residue path


def test_homology_rank_helper_matches_rational_and_modular_ranks():
    # homology checks every Smith normal form result against _bareiss and
    # _smith_mod.  Over Q the rank must equal the rank by elimination over
    # fractions, and the minor the elimination ends on is a nonzero multiple
    # of the product of the invariant factors.  Over Z/m, for m twice that
    # minor, the factors are the invariant factors themselves; over F_p their
    # count is the number of invariant factors (units included) that p does
    # not divide.
    from math import prod

    from plmoves.homology import _bareiss, _smith_mod

    rng = random.Random(2718)
    for trial in range(150):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(0, 6)
        entries = random_entries(rng, nrows, ncols, density=0.5, magnitude=6)
        matrix = dense(entries, nrows, ncols)
        rank, torsion = invariant_factors(entries, nrows, ncols) if entries else (0, ())
        got, minor = _bareiss(matrix)
        assert got == rank == rank_over_q(entries, nrows, ncols), trial
        assert minor and minor % prod(torsion) == 0, (trial, minor, torsion)
        want = [1] * (rank - len(torsion)) + list(torsion)
        assert _smith_mod(matrix, 2 * abs(minor)) == want, (trial, entries)
        for p in (2, 3, 5):
            want = rank - sum(1 for t in torsion if t % p == 0)
            assert len(_smith_mod(matrix, p)) == want, (trial, p, entries)
