"""f-vectors, Euler characteristics, and exact integral simplicial homology.

Homology is unreduced and computed over Z from Smith normal form summaries
of the boundary matrices, so torsion comes out exactly (the Z/2 of the
projective plane in particular).  Two internal cross-checks run on every
complex processed: the composite of consecutive boundary maps must vanish,
and the alternating sum of Betti numbers must equal the Euler
characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    for s in k.simplices:
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


def _boundary_entries(k: Complex, d: int, lower_index: dict, upper: list):
    """Sparse entries of the d-th boundary matrix: rows are (d-1)-simplices,
    columns are d-simplices, signs alternate along sorted vertex order."""
    entries = []
    for col, s in enumerate(upper):
        sign = 1
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            entries.append((lower_index[face], col, sign))
            sign = -sign
    return entries


def _check_chain_complex(k: Complex, bases):
    """Assert boundary-of-boundary vanishes, composing consecutive matrices
    column by column over the sparse sign structure."""
    for d in range(2, len(bases)):
        lower_index = {s: i for i, s in enumerate(bases[d - 2])}
        for s in bases[d]:
            acc = {}
            outer_sign = 1
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                inner_sign = 1
                for j in range(len(face)):
                    sub = face[:j] + face[j + 1 :]
                    key = lower_index[sub]
                    acc[key] = acc.get(key, 0) + outer_sign * inner_sign
                    inner_sign = -inner_sign
                outer_sign = -outer_sign
            if any(acc.values()):
                raise AssertionError("boundary of boundary nonzero at %s" % (s,))


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
    bases = [tuple(tuple(s) for s in k.simplices_of_dim(d)) for d in range(n + 1)]
    if check:
        _check_chain_complex(k, bases)
    ranks = [0] * (n + 2)  # rank of boundary_d, d = 0..n+1
    torsions = [()] * (n + 2)
    for d in range(1, n + 1):
        lower_index = {s: i for i, s in enumerate(bases[d - 1])}
        entries = _boundary_entries(k, d, lower_index, list(bases[d]))
        ranks[d], torsions[d] = _kernel.snf_summary(
            entries, len(bases[d - 1]), len(bases[d])
        )
    out = []
    for d in range(n + 1):
        betti = len(bases[d]) - ranks[d] - ranks[d + 1]
        out.append(HomologyGroup(betti, tuple(torsions[d + 1])))
    if check:
        alternating = sum(
            (h.betti if d % 2 == 0 else -h.betti) for d, h in enumerate(out)
        )
        if alternating != euler_characteristic(k):
            raise AssertionError("Betti numbers disagree with Euler characteristic")
    return out


def homology_summary(k: Complex) -> str:
    return "; ".join("H_%d = %s" % (d, h) for d, h in enumerate(homology(k)))
