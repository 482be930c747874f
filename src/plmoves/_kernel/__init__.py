"""Kernel backend selection.

The compiled extension is preferred when it imported cleanly; setting
PLMOVES_PURE=1 in the environment forces the pure-Python fallback.  Both
backends expose the same two entry points with identical outputs:

    snf_summary(entries, nrows, ncols) -> (rank, torsion-factor tuple)
    scan_moves(facets)                 -> [(a, b-or-None), ...]

The package itself no longer calls ``scan_moves``: move sets are read from
the star index of a complex and kept up to date by ``moves.MoveSet``.  The
scan stays while the backend parity tests and the benchmark tracer name it.
"""

import os

from . import pure

if os.environ.get("PLMOVES_PURE"):
    _impl = pure
else:
    try:
        from . import _speed as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = pure

snf_summary = _impl.snf_summary
scan_moves = _impl.scan_moves
BACKEND = _impl.BACKEND
