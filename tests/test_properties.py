"""Properties over random walks of the demos: move involution, invariants,
canonical round trips, and a fuzz of the command line over documents."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmoves import (
    apply_bistellar,
    document_for_complex,
    document_for_filtered,
    emit_document,
    emit_sequence,
    enumerate_moves,
    euler_characteristic,
    homology,
    parse_document,
    parse_sequence,
    random_extended_walk,
    random_walk,
    replay,
    to_complex,
    to_filtered,
)
from plmoves.demos import (
    bipyramid,
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    rp2_6,
    sphere_boundary,
    torus7,
)
from support import run_cli

PLAIN = {
    "s2": lambda: sphere_boundary(2),
    "s3": lambda: sphere_boundary(3),
    "s4": lambda: sphere_boundary(4),
    "bipyramid": bipyramid,
    "torus7": torus7,
    "rp2_6": rp2_6,
}

FILTERED = {
    "filtered-s2-equator": filtered_s2_equator,
    "filtered-s3-equatorial-s2": filtered_s3_equatorial_s2,
}

walks = settings(max_examples=8)
seeds = st.integers(min_value=0, max_value=2**16)


def _groups(k):
    return [(g.betti, g.torsion) for g in homology(k)]


@pytest.mark.parametrize("name", sorted(PLAIN))
@walks
@given(seed=seeds, steps=st.integers(min_value=0, max_value=12))
def test_a_move_then_its_inverse_restores_the_facets(name, seed, steps):
    state, _ = random_walk(PLAIN[name](), steps, seed=seed)
    moves = enumerate_moves(state)
    for m in random.Random(seed).sample(moves, min(len(moves), 6)):
        back = apply_bistellar(apply_bistellar(state, m), m.inverse())
        assert back.facets == state.facets, m


@pytest.mark.parametrize("name", sorted(PLAIN))
@walks
@given(seed=seeds, steps=st.integers(min_value=1, max_value=12))
def test_walks_keep_euler_characteristic_and_homology(name, seed, steps):
    start = PLAIN[name]()
    chi, groups = euler_characteristic(start), _groups(start)
    _, walk = random_walk(start, steps, seed=seed)
    state = start
    for record in walk:
        state = apply_bistellar(state, record.move)
        assert euler_characteristic(state) == chi
        assert _groups(state) == groups


@pytest.mark.parametrize("name", sorted(PLAIN))
@walks
@given(seed=seeds, steps=st.integers(min_value=0, max_value=12))
def test_walked_documents_and_certificates_round_trip(name, seed, steps):
    start = PLAIN[name]()
    end, seq = random_walk(start, steps, seed=seed)
    text = emit_document(document_for_complex(end))
    assert emit_document(parse_document(text)) == text
    assert to_complex(parse_document(text)) == end
    cert = emit_sequence(seq)
    parsed = parse_sequence(cert)
    assert parsed == seq
    assert emit_sequence(parsed) == cert
    assert replay(start, parsed) == end


@pytest.mark.parametrize("name", sorted(FILTERED))
@settings(max_examples=4)
@given(seed=seeds, steps=st.integers(min_value=0, max_value=3))
def test_walked_filtered_documents_and_certificates_round_trip(name, seed, steps):
    start = FILTERED[name]()
    end, seq = random_extended_walk(start, steps, seed=seed)
    text = emit_document(document_for_filtered(end))
    assert emit_document(parse_document(text)) == text
    assert to_filtered(parse_document(text)) == end
    cert = emit_sequence(seq)
    parsed = parse_sequence(cert)
    assert parsed == seq
    assert emit_sequence(parsed) == cert


# ------------------------------------------------------ command line fuzz


def _fuzz_inputs():
    """Documents to mutate, each with a certificate recorded from it."""
    s2 = sphere_boundary(2)
    fc = filtered_s2_equator()
    return [
        (document_for_complex(s2), random_walk(s2, 3, seed=1)[1]),
        (document_for_filtered(fc), random_extended_walk(fc, 2, seed=1)[1]),
    ]


FUZZ_INPUTS = _fuzz_inputs()

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=12),
    st.just(2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(min_value=-1, max_value=9), max_size=4),
    st.just({}),
)


@pytest.fixture(scope="module")
def sequence_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, (_, seq) in enumerate(FUZZ_INPUTS):
        path = folder / ("sequence-%d.json" % i)
        path.write_text(emit_sequence(seq))
        paths.append(str(path))
    return paths


def _slots(value, path=()):
    """Paths to every value inside a parsed JSON document."""
    yield path
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _slots(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _slots(item, path + (i,))


def _mutate(data, path, how, value):
    if not path:
        return value if how == "replace" else [data]
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    key = path[-1]
    if how == "replace":
        holder[key] = value
    elif how == "delete":
        del holder[key]
    elif how == "duplicate" and isinstance(holder, list):
        holder.insert(key, holder[key])
    else:  # wrap, which also stands in for duplicating a member of an object
        holder[key] = [holder[key]]
    return data


@settings(max_examples=120)
@given(
    which=st.integers(min_value=0, max_value=len(FUZZ_INPUTS) - 1),
    slot=st.integers(min_value=0, max_value=10**6),
    how=st.sampled_from(["replace", "delete", "duplicate", "wrap", "truncate"]),
    value=json_values,
)
def test_the_command_line_reports_every_mutated_document_by_exit_code(
    sequence_files, which, slot, how, value
):
    doc, _ = FUZZ_INPUTS[which]
    text = emit_document(doc)
    if how == "truncate":
        mutated = text[: slot % len(text)]
    else:
        data = json.loads(text)
        paths = list(_slots(data))
        mutated = json.dumps(_mutate(data, paths[slot % len(paths)], how, value))
    for argv in (
        ["validate"],
        ["invariants", "--format", "structured"],
        ["moves", "list"],
        ["moves", "list", "--extended"],
        ["moves", "apply", "--sequence", sequence_files[which]],
    ):
        code, _, err = run_cli(argv + ["--input", "-"], stdin=mutated)
        assert code in (0, 1, 2), (argv, mutated, err)
        assert "Traceback" not in err, (argv, mutated, err)
