"""f-vectors, Euler characteristics, and exact integral simplicial homology.

Homology is unreduced and computed over Z from Smith normal form summaries
of the boundary matrices, so torsion comes out exactly (the Z/2 of the
projective plane in particular).  Internal cross-checks run on every
complex processed: the composite of consecutive boundary maps must vanish,
the alternating sum of Betti numbers must equal the Euler characteristic,
and the rank of H_0 must equal the number of connected components.  Given
the face counts, the Euler relation holds whatever ranks the Smith normal
form reports, so it cannot see a wrong rank; the component count sees one
in the first boundary map.

Every face is enumerated once per call: the star index is bucketed by
dimension and sorted, and one face-index table per dimension holds the row
numbers of each simplex's faces.  The boundary-of-boundary check, the
sparse matrices handed to the Smith normal form, the Euler characteristic
and the component count all read that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import _kernel
from .complexes import Complex


def f_vector(k: Complex) -> tuple[int, ...]:
    """Simplex counts by dimension, () for the empty complex.

    >>> from .complexes import boundary_of_simplex
    >>> f_vector(boundary_of_simplex(3))
    (4, 6, 4)
    """
    if not k:
        return ()
    counts = [0] * (k.dim + 1)
    for s in k._star_index:
        counts[len(s) - 1] += 1
    return tuple(counts)


def minimal_sphere_f_vector(n: int) -> tuple[int, ...]:
    """f-vector of the boundary of the (n+1)-simplex, the minimal
    triangulation of the n-sphere.

    >>> minimal_sphere_f_vector(2)
    (4, 6, 4)
    """
    return tuple(comb(n + 2, d + 1) for d in range(n + 1))


def euler_characteristic(k: Complex) -> int:
    total = 0
    for d, c in enumerate(f_vector(k)):
        total += c if d % 2 == 0 else -c
    return total


@dataclass(frozen=True)
class HomologyGroup:
    """Z^betti plus one finite cyclic factor per listed invariant factor;
    the factors exceed 1 and divide successively."""

    betti: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.betti < 0:
            raise ValueError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must divide successively")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append("Z^%d" % self.betti)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _face_index(k: Complex):
    """(bases, faces) for a nonempty complex, read from its star index once.

    ``bases[d]`` lists the d-simplices in sorted order, so row and column
    numbers follow it.  For d >= 1, ``faces[d][col]`` holds the rows in
    ``bases[d - 1]`` of the faces of ``bases[d][col]``, the i-th entry being
    the face without the i-th vertex, whose boundary sign is (-1)^i.
    """
    bases = [[] for _ in range(k.dim + 1)]
    for s in k._star_index:
        bases[len(s) - 1].append(s)
    for basis in bases:
        basis.sort()
    faces = [()]
    for d in range(1, len(bases)):
        row = {s: i for i, s in enumerate(bases[d - 1])}.__getitem__
        # combinations omit the last vertex first, hence the reversal
        faces.append([tuple(map(row, combinations(s, d)))[::-1] for s in bases[d]])
    return bases, faces


def _boundary_entries(faces_d):
    """Sparse (row, column, sign) entries of one boundary matrix, from its
    face-index table ``faces[d]``."""
    signs = (1, -1) * len(faces_d[0])
    return [
        (r, col, sign)
        for col, rows in enumerate(faces_d)
        for r, sign in zip(rows, signs)
    ]


def _check_chain_complex(bases, faces):
    """Assert boundary-of-boundary vanishes, composing consecutive tables
    column by column over the sparse sign structure."""
    for d in range(2, len(faces)):
        lower = faces[d - 1]
        for col, rows in enumerate(faces[d]):
            acc = {}
            outer_sign = 1
            for r in rows:
                inner_sign = outer_sign
                for q in lower[r]:
                    acc[q] = acc.get(q, 0) + inner_sign
                    inner_sign = -inner_sign
                outer_sign = -outer_sign
            if any(acc.values()):
                raise AssertionError("boundary of boundary nonzero at %s" % (bases[d][col],))


def _component_count(bases, faces) -> int:
    """Connected components, by union-find over the edge rows."""
    parent = list(range(len(bases[0])))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    count = len(parent)
    for a, b in (faces[1] if len(faces) > 1 else ()):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def homology(k: Complex, check: bool = True) -> list[HomologyGroup]:
    """Unreduced integral homology in dimensions 0..dim(k).

    H_0 has rank the number of connected components; torsion of H_d comes
    from the (d+1)-st boundary matrix.  Returns [] for the empty complex.

    >>> from .complexes import boundary_of_simplex
    >>> [str(h) for h in homology(boundary_of_simplex(3))]
    ['Z', '0', 'Z']
    """
    if not k:
        return []
    n = k.dim
    bases, faces = _face_index(k)
    if check:
        _check_chain_complex(bases, faces)
    ranks = [0] * (n + 2)  # rank of boundary_d, d = 0..n+1
    torsions = [()] * (n + 2)
    for d in range(1, n + 1):
        ranks[d], torsions[d] = _kernel.snf_summary(
            _boundary_entries(faces[d]), len(bases[d - 1]), len(bases[d])
        )
    out = []
    for d in range(n + 1):
        betti = len(bases[d]) - ranks[d] - ranks[d + 1]
        out.append(HomologyGroup(betti, tuple(torsions[d + 1])))
    if check:
        alternating = sum(
            (h.betti if d % 2 == 0 else -h.betti) for d, h in enumerate(out)
        )
        chi = sum((len(b) if d % 2 == 0 else -len(b)) for d, b in enumerate(bases))
        if alternating != chi:
            raise AssertionError("Betti numbers disagree with Euler characteristic")
        if out[0].betti != _component_count(bases, faces):
            raise AssertionError("H_0 disagrees with the number of connected components")
    return out


def homology_summary(k: Complex) -> str:
    return "; ".join("H_%d = %s" % (d, h) for d, h in enumerate(homology(k)))
