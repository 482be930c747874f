"""Backend parity: the compiled kernel must be indistinguishable from pure.

The pure backend is the reference; its own reference checks (a
Fraction-based rank, determinantal divisors, known values) live in
test_snf_reference.py, which runs without the compiled kernel.
"""

import os
import random
import subprocess
import sys

import pytest

from plmoves import _kernel
from plmoves._kernel import pure
from test_snf_reference import KNOWN_VALUES, random_entries

speed = pytest.importorskip(
    "plmoves._kernel._speed", reason="compiled kernel not built"
)


def test_backend_names():
    assert pure.BACKEND == "pure"
    assert speed.BACKEND == "speed"
    assert _kernel.BACKEND in ("pure", "speed")


def test_env_forces_pure_backend():
    code = "import plmoves._kernel as k; print(k.BACKEND)"
    env = dict(os.environ, PLMOVES_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "pure"


def test_snf_parity_on_random_matrices():
    rng = random.Random(1234)
    for trial in range(200):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        entries = random_entries(rng, nrows, ncols)
        a = pure.snf_summary(entries, nrows, ncols)
        b = speed.snf_summary(entries, nrows, ncols)
        assert a == b, (trial, entries, nrows, ncols)


def test_snf_parity_with_large_values():
    rng = random.Random(77)
    big = 1 << 40
    for trial in range(20):
        entries = random_entries(rng, 8, 8, density=0.6, magnitude=big)
        a = pure.snf_summary(entries, 8, 8)
        b = speed.snf_summary(entries, 8, 8)
        assert a == b, trial


def test_snf_known_values():
    for args, want in KNOWN_VALUES:
        assert speed.snf_summary(*args) == want, args


def test_snf_error_parity():
    bad_cases = [
        ([(5, 0, 1)], 2, 2),
        ([(0, 9, 1)], 2, 2),
        ([(0, 0, 1), (0, 0, 2)], 2, 2),
        ([(-1, 0, 3)], 2, 2),
    ]
    for entries, nrows, ncols in bad_cases:
        with pytest.raises(ValueError) as pure_err:
            pure.snf_summary(entries, nrows, ncols)
        with pytest.raises(ValueError) as speed_err:
            speed.snf_summary(entries, nrows, ncols)
        assert str(pure_err.value) == str(speed_err.value)


def test_snf_parity_on_boundary_matrices():
    from plmoves import boundary_of_simplex, random_walk
    from plmoves.homology import _face_index

    state, _ = random_walk(boundary_of_simplex(4), 30, seed=8)
    bases, faces = _face_index(state)
    for d in range(1, state.dim + 1):
        # the i-th face of a simplex, the one without vertex i, has sign (-1)^i
        entries = [
            (r, col, (-1) ** i)
            for col, rows in enumerate(faces[d])
            for i, r in enumerate(rows)
        ]
        nrows, ncols = len(bases[d - 1]), len(bases[d])
        assert pure.snf_summary(entries, nrows, ncols) == speed.snf_summary(
            entries, nrows, ncols
        )


def test_scan_parity_on_walk_states():
    from plmoves import boundary_of_simplex, random_walk
    from plmoves.demos import rp2_6, torus7

    states = [torus7(), rp2_6()]
    for seed in range(4):
        state, _ = random_walk(boundary_of_simplex(4), 25, seed=seed)
        states.append(state)
    for state in states:
        facets = sorted(tuple(f) for f in state.facets)
        assert pure.scan_moves(facets) == speed.scan_moves(facets)


def test_scan_parity_with_boundary():
    # a disk: moves at boundary simplices must not be offered
    disk = sorted(tuple(sorted((i, i % 6 + 1, 7))) for i in range(1, 7))
    assert pure.scan_moves(disk) == speed.scan_moves(disk)
    a_values = {a for a, _ in speed.scan_moves(disk)}
    assert (1, 2) not in a_values


def test_scan_parity_beyond_the_bitmask_width():
    # more than 64 vertices forces the compiled path to delegate
    path = sorted((i, i + 1) for i in range(1, 80))
    assert speed.scan_moves(path) == pure.scan_moves(path)


def test_scan_error_parity():
    mixed = [(1, 2), (1, 2, 3)]
    with pytest.raises(ValueError) as pure_err:
        pure.scan_moves(sorted(mixed))
    with pytest.raises(ValueError) as speed_err:
        speed.scan_moves(sorted(mixed))
    assert str(pure_err.value) == str(speed_err.value)
    assert pure.scan_moves([]) == speed.scan_moves([]) == []


def test_dispatch_exports_match_selected_backend():
    impl = speed if _kernel.BACKEND == "speed" else pure
    assert _kernel.snf_summary is impl.snf_summary
    assert _kernel.scan_moves is impl.scan_moves
