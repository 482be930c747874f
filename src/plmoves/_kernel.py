"""Exact integer Smith normal form summaries and the bistellar move scan.

There is one backend, this pure-Python module, and no build step:

    snf_summary(entries, nrows, ncols) -> (rank, torsion-factor tuple)
    scan_moves(facets)                 -> [(a, b-or-None), ...]

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

import heapq
from itertools import combinations

BACKEND = "pure"


def _dense_snf_factors(mat):
    """Diagonalize a small dense integer matrix in place.

    Returns (rank, factors) where factors are the diagonal entries > 1 in
    divisibility order d1 | d2 | ...  Textbook algorithm with arbitrary
    precision integers; meant for the small residue left after unit-pivot
    elimination, so no attempt is made to be clever about fill-in.
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
            for j in range(top + 1, ncols):
                v = mat[top][j]
                if v:
                    q = v // p
                    for i in range(top, nrows):
                        mat[i][j] -= q * mat[i][top]
                    if mat[top][j]:
                        for i in range(nrows):
                            mat[i][j], mat[i][top] = mat[i][top], mat[i][j]
                        restart = True
                        break
            if not restart:
                break
        # pivot now clears its row and column; enforce divisibility
        p = abs(mat[top][top])
        offender = None
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

    ``entries`` is an iterable of (row, col, value) with value != 0 and no
    repeated positions.  Returns (rank, torsion) where torsion is the tuple
    of invariant factors exceeding 1, in divisibility order.

    The interesting case is boundary matrices: almost every pivot is a unit,
    so elimination runs with unit pivots chosen by Markowitz cost (no
    coefficient growth, no gcd work), and whatever small residue remains is
    finished by the dense routine above.
    """
    rows = {}
    cols = {}
    for i, j, v in entries:
        if v == 0:
            continue
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError("entry (%d, %d) outside a %dx%d matrix" % (i, j, nrows, ncols))
        row = rows.setdefault(i, {})
        if j in row:
            raise ValueError("duplicate entry at (%d, %d)" % (i, j))
        row[j] = v
        cols.setdefault(j, set()).add(i)

    rank = 0
    heap = []
    for i, row in rows.items():
        for j, v in row.items():
            if v == 1 or v == -1:
                heapq.heappush(heap, ((len(row) - 1) * (len(cols[j]) - 1), i, j))

    while heap:
        cost, i, j = heapq.heappop(heap)
        row = rows.get(i)
        if row is None:
            continue
        v = row.get(j)
        if v is None or (v != 1 and v != -1):
            continue
        actual = (len(row) - 1) * (len(cols[j]) - 1)
        if actual > cost:
            heapq.heappush(heap, (actual, i, j))
            continue
        # pivot at (i, j): clear column j, then drop row i and column j
        for i2 in list(cols[j]):
            if i2 == i:
                continue
            row2 = rows[i2]
            f = row2[j] * v  # multiplier, since 1/v == v for v = +-1
            for j2, v2 in row.items():
                cur = row2.get(j2, 0) - f * v2
                if cur:
                    had = j2 in row2
                    row2[j2] = cur
                    if not had:
                        cols[j2].add(i2)
                    if cur == 1 or cur == -1:
                        heapq.heappush(
                            heap, ((len(row2) - 1) * (len(cols[j2]) - 1), i2, j2)
                        )
                elif j2 in row2:
                    del row2[j2]
                    cols[j2].discard(i2)
            if not row2:
                del rows[i2]
        for j2 in row:
            cols[j2].discard(i)
            if not cols[j2]:
                del cols[j2]
        del rows[i]
        rank += 1

    if not rows:
        return rank, ()

    # residue without unit entries: finish densely with exact arithmetic
    live_rows = sorted(rows)
    live_cols = sorted({j for row in rows.values() for j in row})
    col_pos = {j: a for a, j in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for a, i in enumerate(live_rows):
        for j, v in rows[i].items():
            dense[a][col_pos[j]] = v
    extra_rank, factors = _dense_snf_factors(dense)
    return rank + extra_rank, tuple(factors)


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
