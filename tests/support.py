"""Shared builders for the test suite."""

from plmoves import EMPTY, Complex, join, stellar_subdivide


def hexagon_disk() -> Complex:
    """Cone over a 6-cycle from vertex 7; every triangle meets the rim."""
    return Complex([(i, i % 6 + 1, 7) for i in range(1, 7)])


def disk_with_interior_triangle() -> Complex:
    """Hexagon disk with one sector subdivided.  The triangle (1, 7, 8) has
    all three of its edges interior, so its subdivision touches nothing on
    the rim."""
    return stellar_subdivide(hexagon_disk(), (1, 2, 7), new_vertex=8)


def pair_complex_through(suspension, level: int) -> Complex:
    """P_level of a ``SuspensionData``: the join of the two-point complexes
    of levels start+1 through level (EMPTY when level == start)."""
    out = EMPTY
    for plus, minus in suspension.apexes[: level - suspension.start]:
        out = join(out, Complex([(plus,), (minus,)]))
    return out


def run_cli(argv, stdin=None):
    """Run the command line entry point in process; returns (code, stdout,
    stderr).  Avoids subprocess startup cost for the many small CLI tests."""
    import contextlib
    import io
    import sys

    from plmoves import cli

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()
