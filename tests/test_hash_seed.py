"""Outputs do not depend on the hash seed.

One child process per seed computes a fixed set of outputs and prints one
SHA-256 over them: walk certificates and their ends, a reduction, three
flip searches, stratified alignments of two short extended walks,
sphere-or-ball verdicts and manifold reports, the CLI ``demo`` of every
demo, and the CLI ``moves apply`` of a 1,000-step certificate of the
3-sphere, which replays it on one mutable star index.  A set iterated in hash order on an output
path gives the two children different digests.  flip_search numbers the
facets of its states in the order it meets them, which follows frozenset
iteration, so the searches include one on a disk with its rim avoided and
one on the 3-sphere with a label floor.
"""

import os
import subprocess
import sys

import plmoves

SEEDS = ("0", "12345")

CHILD = r'''
import contextlib
import hashlib
import io
import os
import sys

from plmoves import (
    Complex,
    boundary_of_simplex,
    canonical_facet_text,
    check_combinatorial_manifold,
    cli,
    document_for_complex,
    emit_document,
    emit_sequence,
    flip_search,
    random_extended_walk,
    random_walk,
    reduce,
    sphere_or_ball_verdict,
    stratified_align,
)
from plmoves.demos import (
    _PARAMETRIC,
    DEMO_NAMES,
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    torus7,
)

folder = sys.argv[1]
outputs = []


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outputs.append("%d\n%s" % (code, out.getvalue()))


s2, s3, s4 = (boundary_of_simplex(n) for n in (3, 4, 5))
disk = Complex([(i, i % 6 + 1, 7) for i in range(1, 7)])
walks = [
    random_walk(s3, 40, seed=11),
    random_walk(s4, 30, seed=2),
    random_walk(torus7(), 30, seed=12),
    random_walk(disk, 30, seed=13, avoid=disk.boundary_complex),
]
for end, seq in walks:
    outputs += [emit_sequence(seq), canonical_facet_text(end)]
    outputs.append(str(check_combinatorial_manifold(end)))
    outputs += [repr(sphere_or_ball_verdict(end, d)) for d in range(1, 5)]
end, seq = reduce(walks[0][0])
outputs += [emit_sequence(seq), canonical_facet_text(end)]
outputs.append(emit_sequence(flip_search(s2, random_walk(s2, 5, seed=14)[0])))
rim = disk.boundary_complex
outputs.append(emit_sequence(flip_search(disk, random_walk(disk, 4, seed=20, avoid=rim)[0], rim)))
floored, _ = random_walk(s3, 4, seed=3, label_floor=30)
outputs.append(emit_sequence(flip_search(s3, floored, label_floor=30)))
for start, seed in ((filtered_s2_equator(), 3), (filtered_s3_equatorial_s2(), 1)):
    end, _ = random_extended_walk(start, 3, seed=seed)
    outputs.append(emit_sequence(stratified_align(start, end)))
for name in DEMO_NAMES:
    run_cli(["demo", name] + (["3"] if name in _PARAMETRIC else []))
_, seq = random_walk(s3, 1000, seed=1)
paths = [os.path.join(folder, name) for name in ("s3.json", "walk.json")]
for path, text in zip(paths, (emit_document(document_for_complex(s3)), emit_sequence(seq))):
    with open(path, "w") as f:
        f.write(text)
run_cli(["moves", "apply", "--input", paths[0], "--sequence", paths[1]])
print(hashlib.sha256("\x00".join(outputs).encode()).hexdigest())
'''


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    src = os.path.dirname(os.path.dirname(plmoves.__file__))
    children = []
    for seed in SEEDS:
        folder = tmp_path / seed
        folder.mkdir()
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        children.append(
            subprocess.Popen(
                [sys.executable, "-c", CHILD, str(folder)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        )
    digests = []
    for child in children:
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            for c in children:
                c.kill()
            raise
        assert child.returncode == 0, err
        digests.append(out.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
