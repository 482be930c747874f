"""End-to-end acceptance checks, one test per criterion.

Every test prints a single PASS line on success (visible with -rA or -s) and
enforces its tolerance exactly; the time-limited criteria also assert their
wall-clock budget.  Expected invariants are the published values for the
standard spaces involved, not recomputed ones.
"""

import random
import time

from plmoves import (
    BistellarMove,
    Complex,
    Verdict,
    apply_bistellar,
    apply_extended_bistellar,
    apply_stark_extended_bistellar,
    ball_times_interval,
    boundary_of_simplex,
    check_combinatorial_manifold,
    count_move_schemas,
    enumerate_extended_moves,
    enumerate_moves,
    euler_characteristic,
    f_vector,
    find_isomorphism,
    flip_search,
    homology,
    neighborhood_from_suspension,
    random_extended_walk,
    random_walk,
    reduce,
    replay,
    star,
    stark_schema_census,
    stellar_subdivide,
    stratified_align,
    validate_filtration,
    validate_stark_complex,
    validate_stark_neighborhood,
)
from plmoves.demos import (
    bipyramid,
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    join_fan,
    rp2_6,
    torus7,
)
from plmoves.moves import replaced_ball
from support import disk_with_interior_triangle


def groups(k):
    return [(g.betti, g.torsion) for g in homology(k)]


def test_criterion_01_apply_then_inverse_is_exact():
    t0 = time.monotonic()
    checked = 0
    for n, quota in ((2, 170), (3, 170), (4, 170)):
        rng = random.Random(100 + n)
        state = boundary_of_simplex(n + 1)
        done = 0
        while done < quota:
            moves = enumerate_moves(state)
            assert moves
            for m in moves:
                once = apply_bistellar(state, m)
                back = apply_bistellar(once, m.inverse())
                assert back.facets == state.facets, (n, m)
                done += 1
            state = apply_bistellar(state, rng.choice(moves))
        checked += done
    elapsed = time.monotonic() - t0
    assert checked >= 500
    assert elapsed < 30.0
    print(
        "PASS criterion 1: %d apply-then-inverse round trips exact in %.1fs"
        % (checked, elapsed)
    )


def test_criterion_02_walks_preserve_chi_and_homology():
    t0 = time.monotonic()
    cases = [
        ("S2", boundary_of_simplex(3)),
        ("S3", boundary_of_simplex(4)),
        ("torus7", torus7()),
        ("rp2-6", rp2_6()),
    ]
    for name, start in cases:
        chi0 = euler_characteristic(start)
        h0 = groups(start)
        rng = random.Random(hash(name) & 0xFFFF)
        state = start
        for step in range(100):
            moves = enumerate_moves(state)
            state = apply_bistellar(state, rng.choice(moves))
            assert euler_characteristic(state) == chi0, (name, step)
            assert groups(state) == h0, (name, step)
    # the torsion subgroup is part of h0, so RP^2 keeps its Z/2 throughout
    assert groups(rp2_6())[1] == (0, (2,))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print("PASS criterion 2: 4 x 100-move walks invariant-exact in %.1fs" % elapsed)


def test_criterion_03_constrained_walks_and_certificate():
    disk = disk_with_interior_triangle()
    rim = disk.boundary_complex
    rng = random.Random(31)
    state = disk
    for step in range(100):
        moves = enumerate_moves(state, avoid=rim)
        assert moves, step
        state = apply_bistellar(state, rng.choice(moves))
        assert state.boundary_complex == rim, step
        assert rim.is_subcomplex_of(state), step
    target = stellar_subdivide(disk, (1, 7, 8))
    seq = flip_search(disk, target, avoid=rim)
    assert seq is not None
    assert len(seq) <= 6
    assert replay(disk, seq) == target
    print(
        "PASS criterion 3: 100 constrained moves fixed the boundary;"
        " subdivision certificate of length %d replayed" % len(seq)
    )


def test_criterion_04_ball_times_interval():
    balls = [
        ("edge", Complex([(1, 2)])),
        ("triangle", Complex([(1, 2, 3)])),
        ("subdivided edge", stellar_subdivide(Complex([(1, 2)]), (1, 2))),
    ]
    for name, b in balls:
        bi = ball_times_interval(b)
        report = check_combinatorial_manifold(bi.complex)
        assert report.verdict is Verdict.YES, name
        assert report.boundary, name  # a thickened ball has boundary
        assert euler_characteristic(bi.complex) == euler_characteristic(b), name
        assert bi.suspension_part().is_subcomplex_of(bi.complex), name
        plus_copy = Complex([tuple(bi.plus_map[v] for v in f) for f in b.facets])
        minus_copy = Complex([tuple(bi.minus_map[v] for v in f) for f in b.facets])
        plus_star = star((bi.apex_plus,), bi.complex)
        minus_star = star((bi.apex_minus,), bi.complex)
        assert plus_copy.is_subcomplex_of(plus_star), name
        assert minus_copy.is_subcomplex_of(minus_star), name
        assert not plus_star.vertices & set(minus_copy.vertices), name
        assert not minus_star.vertices & set(plus_copy.vertices), name
    print("PASS criterion 4: ball x interval correct for all three test balls")


def test_criterion_05_extended_walks_preserve_stratified_invariants():
    demos = [
        ("filtered-s2-equator", filtered_s2_equator()),
        ("filtered-s3-equatorial-s2", filtered_s3_equatorial_s2()),
    ]
    for name, start in demos:
        base = {
            k: (euler_characteristic(m), groups(m))
            for k, m in enumerate(start.strata)
            if m
        }
        rng = random.Random(len(name))
        fc = start
        for step in range(50):
            moves = enumerate_extended_moves(fc)
            assert moves, (name, step)
            move = rng.choice(moves)
            after = apply_extended_bistellar(fc, move)
            assert validate_filtration(after).ok, (name, step)
            k = move.stratum
            assert after.strata[k] == apply_bistellar(fc.strata[k], move.inner)
            for level, (chi0, h0) in base.items():
                assert euler_characteristic(after.strata[level]) == chi0, (name, step)
                assert groups(after.strata[level]) == h0, (name, step)
            fc = after
    print("PASS criterion 5: 2 x 50 extended moves preserved all stratified invariants")


def test_criterion_06_stratified_alignment_over_recorded_walks():
    t0 = time.monotonic()
    start = filtered_s2_equator()
    found = 0
    for seed in range(20):
        length = seed % 4 + 1
        end, _ = random_extended_walk(start, length, seed=seed)
        seq = stratified_align(start, end)
        assert seq is not None, seed
        assert replay(start, seq) == end, seed
        found += 1
    elapsed = time.monotonic() - t0
    assert found == 20
    assert elapsed < 120.0
    print("PASS criterion 6: stratified alignment 20/20 in %.1fs" % elapsed)


def test_criterion_07_stark_apply_equals_filtered_apply():
    cases = 0
    for name, start in (
        ("s2", filtered_s2_equator()),
        ("s3", filtered_s3_equatorial_s2()),
    ):
        for seed in range(6):
            fc, _ = random_extended_walk(start, seed % 3, seed=seed)
            for em in enumerate_extended_moves(fc):
                nbhd = neighborhood_from_suspension(
                    replaced_ball(em.inner), em.suspension
                )
                via_stark = apply_stark_extended_bistellar(fc, nbhd, em.inner)
                via_filtered = apply_extended_bistellar(fc, em)
                assert via_stark.strata == via_filtered.strata, (name, seed, em)
                cases += 1
    assert cases >= 100
    print(
        "PASS criterion 7: stark and filtered application identical on %d cases"
        % cases
    )


def test_criterion_08_knot_pattern_census_is_five_pairs():
    census = count_move_schemas(3, present_dims=(1, 2, 3))
    assert census.pair_count == 5
    print("PASS criterion 8: knot-pattern census reports exactly 5 inverse pairs")


def test_criterion_09_reduction_oracle():
    red, seq = reduce(bipyramid())
    assert len(seq) == 1
    assert find_isomorphism(red, boundary_of_simplex(3)) is not None
    assert replay(bipyramid(), seq) == red

    s3 = boundary_of_simplex(4)
    minimal = f_vector(s3)
    successes = 0
    for seed in range(20):
        walked, _ = random_walk(s3, 20, seed=seed)
        red, seq = reduce(walked)
        # a failure may only ever be budget exhaustion, never a bad replay
        assert replay(walked, seq) == red, seed
        if f_vector(red) == minimal:
            successes += 1
    assert successes >= 18, successes
    print(
        "PASS criterion 9: bipyramid reduced in 1 move; S3 walks reduced %d/20"
        % successes
    )


def test_criterion_10_join_fan_census_grows_without_bound():
    sizes = []
    for n in range(1, 6):
        x, nbhds = join_fan(n)
        assert validate_stark_complex(x).ok, n
        for nbhd in nbhds:
            report = validate_stark_neighborhood(x, nbhd)
            assert report.ok, (n, report.findings)
        sizes.append(stark_schema_census(nbhds).size)
    assert all(b > a for a, b in zip(sizes, sizes[1:])), sizes
    print(
        "PASS criterion 10: join-fan family validates; census sizes %s strictly grow"
        % (sizes,)
    )
