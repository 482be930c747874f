"""Exact integer Smith normal form summaries and the bistellar move scan.

There is one backend, this pure-Python module, and no build step:

    snf_summary(entries, nrows, ncols) -> (rank, torsion-factor tuple)
    scan_moves(facets)                 -> [(a, b-or-None), ...]

``snf_summary`` is one dense elimination.  ``homology`` calls it only on
the boundary matrices of a Morse complex, left by greedy collapses: a few
rows and columns where the full boundary matrices have thousands.  And
``homology`` checks every result by a dense elimination of its own, so a
sparse pass before this one would save nothing end to end.

``homology`` calls ``snf_summary`` through this module's attribute, so a
test or a tracer that replaces the attribute sees every call.  The package
itself no longer calls ``scan_moves``: move sets are read from the star
index of a complex and kept up to date by ``moves.MoveSet``.  The scan stays
as an independent reference for ``MoveSet`` (tests/test_moves.py), and it
and ``BACKEND`` stay under this module's name because the benchmark tracer
(plmbench/) wraps ``_kernel.scan_moves`` and ``_kernel.snf_summary`` and
records ``_kernel.BACKEND`` by name.
"""

from __future__ import annotations

from itertools import combinations

BACKEND = "pure"


def _dense_snf_factors(mat):
    """Diagonalize a dense integer matrix in place.

    Returns (rank, factors) where factors are the diagonal entries > 1 in
    divisibility order d1 | d2 | ...  Textbook algorithm with arbitrary
    precision integers, and no attempt to be clever about fill-in: the
    Morse matrices ``homology`` passes have a few rows and columns.  After a
    pivot of absolute value 1 the divisibility scan is skipped: 1 divides
    every entry, so the skip is exact, and on full boundary matrices, where
    almost every pivot is a unit, it saves a scan of the whole remaining
    submatrix per pivot.
    """
    rank = 0
    factors = []
    top = 0
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    while True:
        # locate a minimal nonzero entry in the submatrix at (top, top)
        best = None
        for i in range(top, nrows):
            row = mat[i]
            for j in range(top, ncols):
                v = row[j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
                    if abs(v) == 1:
                        break
            if best is not None and abs(best[2]) == 1:
                break
        if best is None:
            break
        i, j, _ = best
        if i != top:
            mat[i], mat[top] = mat[top], mat[i]
        if j != top:
            for row in mat:
                row[j], row[top] = row[top], row[j]
        # reduce the pivot row and column; a nonzero remainder becomes the
        # new, strictly smaller pivot, so this terminates
        while True:
            p = mat[top][top]
            restart = False
            for i in range(top + 1, nrows):
                v = mat[i][top]
                if v:
                    q = v // p
                    for j in range(top, ncols):
                        mat[i][j] -= q * mat[top][j]
                    if mat[i][top]:
                        mat[i], mat[top] = mat[top], mat[i]
                        restart = True
                        break
            if restart:
                continue
            # the pivot column is now zero below the pivot, so a column step
            # changes the pivot row alone
            pivot_row = mat[top]
            for j in range(top + 1, ncols):
                pivot_row[j] %= p
                if pivot_row[j]:
                    for row in mat:
                        row[j], row[top] = row[top], row[j]
                    restart = True
                    break
            if not restart:
                break
        # pivot now clears its row and column; enforce divisibility, which
        # a unit pivot has already
        p = abs(mat[top][top])
        offender = None
        if p > 1:
            for i in range(top + 1, nrows):
                row = mat[i]
                for j in range(top + 1, ncols):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            for j in range(top, ncols):
                mat[top][j] += mat[offender][j]
            continue
        rank += 1
        if p > 1:
            factors.append(p)
        top += 1
        if top >= nrows or top >= ncols:
            break
    return rank, factors


def snf_summary(entries, nrows, ncols):
    """Smith normal form summary of a sparse integer matrix.

    ``entries`` is an iterable of (row, col, value) with no repeated
    positions; an entry of value 0 is skipped.  Returns (rank, torsion)
    where torsion is the tuple of invariant factors exceeding 1, in
    divisibility order.

    >>> snf_summary([(0, 0, 2)], 1, 1)  # the relation of the projective plane
    (1, (2,))
    """
    mat = [[0] * ncols for _ in range(nrows)]
    for i, j, v in entries:
        if v == 0:
            continue
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError("entry (%d, %d) outside a %dx%d matrix" % (i, j, nrows, ncols))
        if mat[i][j]:
            raise ValueError("duplicate entry at (%d, %d)" % (i, j))
        mat[i][j] = v
    rank, factors = _dense_snf_factors(mat)
    return rank, tuple(factors)


def scan_moves(facets):
    """All bistellar move candidates on a pure complex given by its facets.

    Returns a lexicographically A-ordered list of (A, B) vertex tuples where
    link(A) is the boundary of the simplex B not present in the complex, plus
    (A, None) for every facet A (the fresh-vertex case).  A is never allowed
    to lie in the boundary subcomplex.  Facets must all have the same length;
    the caller guarantees that.
    """
    if not facets:
        return []
    size = len(facets[0])
    star = {}
    for f in facets:
        if len(f) != size:
            raise ValueError("scan_moves needs a pure complex")
        for r in range(1, size + 1):
            for s in combinations(f, r):
                star.setdefault(s, []).append(f)

    # no boundary pass: a face a of a ridge r in one facet never passes the
    # link test below, which asks for every facet of the boundary of B, where
    # r - a (empty when a = r) would lie in two link facets, so r in two facets
    out = []
    for a in sorted(star):
        fs = star[a]
        if len(a) == size:
            out.append((a, None))
            continue
        aset = set(a)
        link_facets = set()
        vertex_union = set()
        for f in fs:
            rest = tuple(v for v in f if v not in aset)
            link_facets.add(rest)
            vertex_union.update(rest)
        m = size - len(a)  # link facets have this many vertices
        if len(vertex_union) != m + 1 or len(link_facets) != m + 1:
            continue
        b = tuple(sorted(vertex_union))
        if b in star:
            continue
        out.append((a, b))
    return out
