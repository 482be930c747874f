"""f-vectors, Euler characteristics, and exact integral simplicial homology.

Homology is unreduced and computed over Z, so torsion comes out exactly
(the Z/2 of the projective plane in particular).  One call runs four steps.

1. Face-index table.  The star index is bucketed by dimension and
   sorted, and one table per dimension holds the row numbers of each
   simplex's faces.  Every later step reads it; no face is enumerated twice.
2. Collapses.  A greedy acyclic matching (Forman's discrete Morse
   theory, built greedily as in Benedetti and Lutz's random discrete Morse
   theory) keeps, for each cell, the count of its live cofaces.  A free
   face, a live cell with exactly one live coface, is paired with that
   coface and both are removed.  When no face is free, the lowest-index
   live cell of the highest live dimension becomes critical and is removed
   alone.  A cell is removed only once no coface of it is live (a free
   face's one coface has none: a live coface of it would give the free
   face a second one), so the live cells always form a subcomplex, and a
   gradient path runs from earlier removals to later ones: the matching is
   acyclic.
3. Morse complex.  Its cells are the critical cells.  The boundary of a
   critical cell follows gradient paths: start from its simplicial
   boundary; in the order the pairs were removed, replace each face matched
   upward, of coefficient c and of sign e in its partner's boundary, by
   -c * e times the rest of that boundary.  Every matched incidence is
   +-1, so the coefficients stay integers; faces matched downward drop
   out.  The Morse complex has the integral homology of the simplicial
   one.
4. Smith normal form.  ``_kernel.snf_summary`` runs on the Morse
   matrices only, a few rows and columns where the boundary matrices have
   thousands, so one dense elimination serves, at no more cost than the
   dense check below.  The Betti numbers come from the critical-cell
   counts.

With ``check=True`` (the default) these cross-checks run, each named with
the failure it sees:

- the simplicial identities d_i d_j = d_(j-1) d_i (i < j) hold on the
  face-index table, compared for all columns of a dimension at once; they
  imply that boundary of boundary vanishes: a wrong face row or sign in the
  table;
- boundary of boundary vanishes on the Morse complex: a wrong gradient
  path, coefficient or sign;
- every rank the Smith normal form reports equals the rank over Q, found
  here by fraction-free elimination: an over- or under-reported rank of
  any boundary map;
- every invariant factor it reports is found again over Z/m, for m twice
  the nonzero rank x rank minor that the elimination ends on.  Each factor
  divides that minor, so over Z/m it keeps its value, and elimination mod
  m by extended-gcd steps needs no factoring and keeps the numbers small:
  a dropped, spurious or misreported factor, such as a lost Z/2 of the
  projective plane, a lost Z/3, or Z/4 reported for Z/2.  A Morse matrix
  with no entry is checked in closed form, rank 0 and no factor, with the
  same messages;
- b_d <= c_d, the weak Morse inequality, c_d being the number of critical
  d-cells: a Betti number above what the Morse complex can carry;
- the alternating sum of the Betti numbers equals the Euler characteristic
  of the face counts: cells lost or miscounted between the table and the
  Morse complex (for any ranks the relation is an identity, so it cannot
  see a wrong rank);
- the rank of H_0 equals the number of connected components, found by
  union-find over the edge rows of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, combinations, groupby, repeat
from math import comb, gcd

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
    # a nonempty complex has simplices of every dimension up to its own
    by_size = groupby(sorted(k._star_index, key=len), len)
    bases = [sorted(group) for _, group in by_size]
    faces = [()]
    for d in range(1, len(bases)):
        row = dict(zip(bases[d - 1], range(len(bases[d - 1])))).__getitem__
        # combinations omit the last vertex first; read backwards, the faces
        # of each simplex come out omitting its first vertex first
        backwards = chain.from_iterable(map(combinations, reversed(bases[d]), repeat(d)))
        rows = list(map(row, backwards))
        rows.reverse()
        faces.append(list(zip(*[iter(rows)] * (d + 1))))
    return bases, faces


def _check_chain_complex(bases, faces):
    """Assert the simplicial identities d_i d_j = d_(j-1) d_i (i < j) on the
    table: face i of face j of a simplex, and face j - 1 of its face i, are
    both the simplex without its i-th and j-th vertices.  Summed with the
    signs (-1)^(i+j), the two sides cancel, so boundary of boundary
    vanishes wherever the identities hold.  Each identity is compared on
    all columns of a dimension at once, as two strided slices of one list."""
    for d in range(2, len(faces)):
        # the rows of the faces of the faces: face k of face i of column
        # col sits at col * stride + i * d + k
        stride = (d + 1) * d
        lower = faces[d - 1].__getitem__
        rows = list(chain.from_iterable(map(lower, chain.from_iterable(faces[d]))))
        pairs = [(i, j) for j in range(1, d + 1) for i in range(j)]
        if any(rows[j * d + i :: stride] != rows[i * d + j - 1 :: stride] for i, j in pairs):
            col, i, j = next(
                (col, i, j)
                for col, at in enumerate(range(0, len(rows), stride))
                for i, j in pairs
                if rows[at + j * d + i] != rows[at + i * d + j - 1]
            )
            raise AssertionError(
                "simplicial identity d_%d d_%d = d_%d d_%d fails at %s"
                % (i, j, j - 1, i, bases[d][col])
            )


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


_ALIVE = -3  # the mark of a cell not yet removed by ``_collapse``


def _collapse(bases, faces):
    """A greedy acyclic matching on the complex of a face-index table.

    Returns (critical, up, when).  ``critical[d]`` lists the critical
    d-cells in the order they were taken.  ``up[d][i]`` is the column in
    dimension d + 1 that d-cell i is paired with, -1 for a critical cell
    and -2 for a cell paired with a face; ``when[d][i]`` numbers the pairs
    of cells paired upward in the order they were removed.
    """
    n = len(bases) - 1
    # per cell, the count of its live cofaces and the sum of their columns:
    # for a free face that sum is the column of its one live coface
    live = [[0] * len(basis) for basis in bases]
    column_sum = [[0] * len(basis) for basis in bases]
    for d in range(1, n + 1):
        counts, sums = live[d - 1], column_sum[d - 1]
        for col, rows in enumerate(faces[d]):
            for r in rows:
                counts[r] += 1
                sums[r] += col
    up = [[_ALIVE] * len(basis) for basis in bases]
    when = [[0] * len(basis) for basis in bases]
    left = [len(basis) for basis in bases]
    critical = [[] for _ in bases]
    free = [(d, i) for d in range(n) for i, c in enumerate(live[d]) if c == 1]
    # a removed d-cell is marked in up and leaves the live counts and column
    # sums of its faces, any of which may become free
    top, lowest, pairs = n, 0, 0
    while True:
        if free:
            d, i = free.pop()
            counts, sums = live[d], column_sum[d]
            if up[d][i] != _ALIVE or counts[i] != 1:
                continue
            col = sums[i]
            when[d][i] = pairs
            pairs += 1
            # the coface col goes first, and i with it loses its last coface
            up[d + 1][col], up[d][i] = -2, col
            left[d + 1] -= 1
            for r in faces[d + 1][col]:
                counts[r] -= 1
                sums[r] -= col
                if counts[r] == 1:
                    free.append((d, r))
        else:
            # no face is free: the lowest live cell of the highest live
            # dimension becomes critical
            while top >= 0 and not left[top]:
                top -= 1
                lowest = 0
            if top < 0:
                return critical, up, when
            cells = up[top]
            while cells[lowest] != _ALIVE:
                lowest += 1
            critical[top].append(lowest)
            d, i = top, lowest
            cells[i] = -1
        left[d] -= 1
        if d:
            counts, sums = live[d - 1], column_sum[d - 1]
            for r in faces[d][i]:
                counts[r] -= 1
                sums[r] -= i
                if counts[r] == 1:
                    free.append((d - 1, r))


def _morse_boundaries(faces, critical, up, when):
    """Boundary maps of the Morse complex over Z.

    ``morse[d][j]`` (d >= 1) is the boundary of the j-th critical d-cell,
    as a {row: coefficient} dict over the positions in ``critical[d - 1]``.
    """
    morse = [[]]
    for d in range(1, len(faces)):
        if not critical[d - 1]:
            morse.append([{} for _ in critical[d]])
            continue
        table, mate, order = faces[d], up[d - 1], when[d - 1]
        position = {r: j for j, r in enumerate(critical[d - 1])}
        columns = []
        for cell in critical[d]:
            chain, heap = {}, []
            rows, coeff, done = table[cell], 1, -1
            while True:
                # add coeff * (the boundary of the cell with these rows),
                # leaving out the face ``done`` that it replaces
                for r in rows:
                    if r != done and mate[r] != -2:
                        if r in chain:
                            chain[r] += coeff
                        else:
                            chain[r] = coeff
                            if mate[r] >= 0:
                                heappush(heap, (order[r], r))
                    coeff = -coeff
                a = 0
                while heap and not a:
                    done = heappop(heap)[1]
                    a = chain.pop(done)
                if not a:
                    break
                # done has sign (-1)^j in its partner's boundary; subtracting
                # a * (-1)^j times that boundary cancels it
                rows = table[mate[done]]
                coeff = a if rows.index(done) % 2 else -a
            columns.append({position[r]: v for r, v in chain.items() if v})
        morse.append(columns)
    return morse


def _check_morse_complex(morse):
    """Assert boundary-of-boundary vanishes on the Morse complex."""
    for d in range(2, len(morse)):
        lower = morse[d - 1]
        for col, column in enumerate(morse[d]):
            acc = {}
            for r, v in column.items():
                for q, w in lower[r].items():
                    acc[q] = acc.get(q, 0) + v * w
            if any(acc.values()):
                raise AssertionError(
                    "boundary of boundary nonzero on critical %d-cell %d of the Morse "
                    "complex" % (d, col)
                )


def _bareiss(matrix):
    """(rank, minor) of a dense integer matrix over Q.

    Fraction-free (Bareiss) elimination: each row below the pivot becomes
    (pivot * row - entry * pivot_row) / previous pivot, and the division is
    exact.  Every pivot is a minor of the matrix, so the last one is a
    nonzero rank x rank minor (1 for rank 0), which the product of the
    invariant factors divides.
    """
    rows = [list(row) for row in matrix]
    rank, previous = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        lead = top[col]
        for i in range(rank + 1, len(rows)):
            a = rows[i][col]
            rows[i] = [(lead * x - a * y) // previous for x, y in zip(rows[i], top)]
        previous = lead
        rank += 1
    return rank, previous


def _smith_mod(matrix, m):
    """The nonzero invariant factors of an integer matrix over Z/m, each as
    its gcd with m, in divisibility order.

    Elimination by unimodular steps: a row (or column) is combined with the
    pivot row (or column) through the extended gcd of their leading entries,
    so entries stay below m and the pivot shrinks to a gcd.  Once its row
    and column are clear, an entry outside the ideal of the pivot is added
    to the pivot row and clearing starts again, so each pivot divides all
    that is left.  When an invariant factor over Z divides m and is below
    it, its gcd with m is the factor itself.
    """
    rows = [[v % m for v in row] for row in matrix]
    factors = []
    while True:
        pivot = next(((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v), None)
        if pivot is None:
            return factors
        i, j = pivot
        rows[0], rows[i] = rows[i], rows[0]
        for row in rows:
            row[0], row[j] = row[j], row[0]
        while True:
            for i in range(1, len(rows)):
                _combine(rows, i, m)
            columns = [list(c) for c in zip(*rows)]
            for j in range(1, len(columns)):
                _combine(columns, j, m)
            rows = [list(r) for r in zip(*columns)]
            if any(row[0] for row in rows[1:]):
                continue  # a column step shrank the pivot and refilled its column
            unit = gcd(rows[0][0], m)
            stray = next((row for row in rows[1:] if any(v % unit for v in row)), None)
            if stray is None:
                break
            rows[0] = [(x + y) % m for x, y in zip(rows[0], stray)]
        factors.append(gcd(rows[0][0], m))
        rows = [row[1:] for row in rows[1:]]


def _combine(lines, i, m):
    """Clear lines[i][0] against lines[0][0] by a unimodular step mod m;
    lines[0][0] becomes the gcd of the two, or stays when it divides."""
    a, b = lines[0][0], lines[i][0]
    if not b:
        return
    x, y = lines[0], lines[i]
    if b % a == 0:
        q = b // a
        lines[i] = [(w - q * v) % m for v, w in zip(x, y)]
        return
    g, s, t = _xgcd(a, b)
    u, w = b // g, a // g  # [[s, t], [u, -w]] has determinant -1
    lines[0] = [(s * v + t * z) % m for v, z in zip(x, y)]
    lines[i] = [(u * v - w * z) % m for v, z in zip(x, y)]


def _xgcd(a, b):
    """(g, s, t) with s * a + t * b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _check_snf(entries, nrows, ncols, rank, torsion):
    """Assert a Smith normal form summary against what is computed here: the
    rank over Q, and every invariant factor, found over Z/m for m twice the
    nonzero rank x rank minor of the elimination.  Each factor divides that
    minor and is below m, so over Z/m it keeps its value.  A matrix with no
    entry is checked in closed form: rank 0 and no factor."""
    if entries:
        matrix = [[0] * ncols for _ in range(nrows)]
        for i, j, v in entries:
            matrix[i][j] = v
        exact, minor = _bareiss(matrix)
        m = 2 * abs(minor)
        found = _smith_mod(matrix, m)
    else:
        exact, m, found = 0, 2, []  # the zero matrix: rank 0, minor 1, no factor
    if rank != exact:
        raise AssertionError(
            "Smith normal form rank %d of a %dx%d Morse matrix, rank over Q %d"
            % (rank, nrows, ncols, exact)
        )
    if found != [1] * (rank - len(torsion)) + list(torsion):
        raise AssertionError(
            "invariant factors %s of a %dx%d Morse matrix of rank %d, over Z/%d the "
            "factors are %s" % (list(torsion), nrows, ncols, rank, m, found)
        )


def homology(k: Complex, check: bool = True) -> list[HomologyGroup]:
    """Unreduced integral homology in dimensions 0..dim(k).

    H_0 has rank the number of connected components; torsion of H_d comes
    from the (d+1)-st boundary map.  Returns [] for the empty complex.

    >>> from .complexes import boundary_of_simplex
    >>> [str(h) for h in homology(boundary_of_simplex(3))]
    ['Z', '0', 'Z']
    >>> from .demos import rp2_6
    >>> [str(h) for h in homology(rp2_6())]
    ['Z', 'Z/2', '0']
    """
    if not k:
        return []
    n = k.dim
    bases, faces = _face_index(k)
    if check:
        _check_chain_complex(bases, faces)
    critical, up, when = _collapse(bases, faces)
    morse = _morse_boundaries(faces, critical, up, when)
    if check:
        _check_morse_complex(morse)
    ranks = [0] * (n + 2)  # rank of the Morse boundary_d, d = 0..n+1
    torsions = [()] * (n + 2)
    for d in range(1, n + 1):
        entries = [
            (r, col, v) for col, column in enumerate(morse[d]) for r, v in column.items()
        ]
        nrows, ncols = len(critical[d - 1]), len(critical[d])
        ranks[d], torsions[d] = _kernel.snf_summary(entries, nrows, ncols)
        if check:
            _check_snf(entries, nrows, ncols, ranks[d], torsions[d])
    out = []
    for d in range(n + 1):
        betti = len(critical[d]) - ranks[d] - ranks[d + 1]
        out.append(HomologyGroup(betti, tuple(torsions[d + 1])))
    if check:
        for d, h in enumerate(out):
            if h.betti > len(critical[d]):
                raise AssertionError(
                    "b_%d = %d exceeds the %d critical %d-cells"
                    % (d, h.betti, len(critical[d]), d)
                )
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
