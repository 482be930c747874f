"""Compare the pure-Python and compiled kernels on representative work.

Runs both backends in-process on the same inputs and reports per-call wall
time.  Inputs are full boundary matrices (for snf_summary), built from the
face-index table of ``homology``, which itself hands the SNF only the small
matrices of its Morse complex; and facet lists of random-walk states (for
scan_moves) across the demo complexes.  Without a compiled kernel it times
the pure backend alone.

    PYTHONPATH=src python3 benchmarks/bench_backends.py [--repeat N] [--walk STEPS]
"""

from __future__ import annotations

import argparse
import time

from plmoves import boundary_of_simplex, random_walk
from plmoves._kernel import pure
from plmoves.demos import rp2_6, torus7
from plmoves.homology import _face_index

try:
    from plmoves._kernel import _speed
except ImportError:
    _speed = None


def _time(fn, args, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=20, help="timing repetitions, best-of")
    parser.add_argument("--walk", type=int, default=60, help="random-walk length for scan states")
    args = parser.parse_args()

    cases = []
    for name, k in (
        ("torus7", torus7()),
        ("rp2-6", rp2_6()),
        ("S3 walk end", random_walk(boundary_of_simplex(4), args.walk, seed=0)[0]),
        ("S4 walk end", random_walk(boundary_of_simplex(5), args.walk, seed=0)[0]),
    ):
        bases, faces = _face_index(k)
        for d in range(1, k.dim + 1):
            nr, nc = len(bases[d - 1]), len(bases[d])
            # the i-th face, the one without vertex i, has sign (-1)^i
            entries = [
                (r, col, (-1) ** i)
                for col, rows in enumerate(faces[d])
                for i, r in enumerate(rows)
            ]
            payload = (entries, nr, nc)
            cases.append(("snf %s d=%d (%dx%d)" % (name, d, nr, nc), "snf", payload))
        facets = sorted(tuple(f) for f in k.facets)
        cases.append(("scan %s (%d facets)" % (name, len(facets)), "scan", (facets,)))

    kernels = {"snf": pure.snf_summary, "scan": pure.scan_moves}
    if _speed is None:
        print("compiled kernel not importable; timing the pure backend alone")
        print("%-34s %12s" % ("case", "pure"))
        for label, kind, payload in cases:
            a = _time(kernels[kind], payload, args.repeat)
            print("%-34s %9.3f ms" % (label, a * 1e3))
        return 0
    compiled = {"snf": _speed.snf_summary, "scan": _speed.scan_moves}
    print("%-34s %12s %12s %8s" % ("case", "pure", "compiled", "ratio"))
    for label, kind, payload in cases:
        a = _time(kernels[kind], payload, args.repeat)
        b = _time(compiled[kind], payload, args.repeat)
        check = kernels[kind](*payload) == compiled[kind](*payload)
        flag = "" if check else "  MISMATCH"
        print("%-34s %9.3f ms %9.3f ms %7.1fx%s" % (label, a * 1e3, b * 1e3, a / b, flag))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
