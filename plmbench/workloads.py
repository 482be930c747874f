"""The benchmark's workloads: how each makes its inputs from the seed, what
one task runs, and how its output is checked.

Every task input is plain data (seeds, facet tuples, document text).  The
task itself builds fresh ``Complex`` objects from it, because derived
structure is cached on instances and a reused input would hide the
construction cost every user pays.  Checks run outside the timed task.

A wrong answer raises ``WrongAnswer`` and fails the run; an unsolved task
(a search that returns None, a reduction that stalls above the minimal
f-vector, a manifold verdict other than yes) only lowers ``solved_frac``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

import plmoves as P
from plmoves import cli
from plmoves.demos import (
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    rp2_6,
    sphere_boundary,
    torus7,
)


class WrongAnswer(AssertionError):
    """An output of the program is not correct."""


@dataclass(frozen=True)
class Outcome:
    solved: int  # parts that reached their goal
    parts: int
    cert_moves: int
    digest: str


def _require(cond, what):
    if not cond:
        raise WrongAnswer(what)


def digest(*parts) -> str:
    """Hex SHA-256 of the text parts, kept apart by NUL bytes."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _groups(k):
    return [(g.betti, tuple(g.torsion)) for g in P.homology(k)]


# Published integral homology H_0..H_n of the spaces the workloads use.
def _sphere(n):
    return [(1, ())] + [(0, ())] * (n - 1) + [(1, ())]


PUBLISHED = {
    "s1": _sphere(1),
    "s2": _sphere(2),
    "s3": _sphere(3),
    "s4": _sphere(4),
    "torus": [(1, ()), (2, ()), (1, ())],
    "rp2": [(1, ()), (0, (2,)), (0, ())],
    "disk": [(1, ()), (0, ()), (0, ())],
}


def _facets(k):
    return tuple(sorted(tuple(f) for f in k.facets))


def _task_rng(workload, seed, i):
    return random.Random("%s:%d:%d" % (workload, seed, i))


def _disk():
    """A hexagon disk with one sector subdivided, so some moves miss the rim."""
    hexagon = P.Complex([(i, i % 6 + 1, 7) for i in range(1, 7)])
    return P.stellar_subdivide(hexagon, (1, 2, 7), new_vertex=8)


# ------------------------------------------------------------- reduce-s3


class ReduceS3:
    """Walk the minimal 3-sphere for WALK steps, then reduce back.

    The walk that makes the input runs inside the task: generating a
    long walk costs about as much as reducing it, so generating every
    task's input in set-up would cost as much as the run."""

    name = "reduce-s3"
    CLASSES = ("s3",)
    WALK = 40
    MINIMAL = (5, 10, 10, 5)

    def make_part(self, kind, walk_seed):
        return walk_seed

    def run_part(self, walk_seed):
        walked, _ = P.random_walk(P.boundary_of_simplex(4), self.WALK, seed=walk_seed)
        reduced, cert = P.reduce(walked)
        return walked, reduced, cert

    def check_part(self, walk_seed, out):
        walked, reduced, cert = out
        _require(P.replay(walked, cert) == reduced, "reduce certificate does not replay")
        state = walked
        for record in cert:
            state = P.apply_bistellar(state, record.move)
            _require(P.euler_characteristic(state) == 0, "chi changed along reduce")
        _require(_groups(walked) == PUBLISHED["s3"], "walked S3 homology")
        _require(_groups(reduced) == PUBLISHED["s3"], "reduced S3 homology")
        solved = P.f_vector(reduced) == self.MINIMAL
        return solved, len(cert), digest(P.emit_sequence(cert), P.canonical_facet_text(reduced))


# ----------------------------------------------------------- search-flip


def _plain_start(kind):
    if kind == "s2":
        return sphere_boundary(2), P.EMPTY
    if kind == "s3":
        return sphere_boundary(3), P.EMPTY
    if kind == "torus":
        return torus7(), P.EMPTY
    disk = _disk()
    return disk, disk.boundary_complex


class SearchFlip:
    """flip_search from a start complex to its own seeded walk endpoint;
    the disk keeps its rim fixed through ``avoid``."""

    name = "search-flip"
    # (start, walk length).  Longer walks are left out because their rare
    # hard cases decide a whole run: a 4-step walk on the torus took 4-8 s
    # to search back for about one seed in twenty; over 500 seeds each, a
    # 5-step walk took 2.3 s on S2, 32 s on S3 and 43 s on the disk; a
    # 6-step walk on S3 held over 1 GB for more than a minute.
    CLASSES = (("s2", 4), ("s3", 4), ("torus", 3), ("disk", 4))
    # Searches per class in one task.  A single search's time is heavy
    # tailed (S3: median 25 ms, 99th percentile 2.3 s), so with one search
    # per class a run's tail rests on a handful of searches and its spread
    # over ten seeds is about 0.17 from sampling alone; with three, 0.10.
    PER_CLASS = 3

    def make_part(self, cls, walk_seed):
        kind, length = cls
        start, avoid = _plain_start(kind)
        end, _ = P.random_walk(start, length, seed=walk_seed, avoid=avoid)
        return kind, _facets(end)

    def run_part(self, part):
        kind, end_facets = part
        start, avoid = _plain_start(kind)
        end = P.Complex(end_facets)
        return end, P.flip_search(start, end, avoid=avoid)

    def check_part(self, part, out):
        kind, end_facets = part
        end, seq = out
        if seq is None:
            return False, 0, digest(kind, repr(end_facets), "none")
        start, avoid = _plain_start(kind)
        _require(P.replay(start, seq) == end, "search certificate does not replay")
        want = PUBLISHED[kind]
        state = start
        _require(_groups(state) == want, "search start homology")
        for record in seq:
            state = P.apply_bistellar(state, record.move)
            _require(_groups(state) == want, "homology changed along the certificate")
            if avoid:
                _require(avoid.is_subcomplex_of(state), "a move touched the avoided rim")
        return True, len(seq), digest(kind, P.emit_sequence(seq))


# ----------------------------------------------------------- certify-cli


def _certify_start(kind):
    return {
        "s3": lambda: sphere_boundary(3),
        "s4": lambda: sphere_boundary(4),
        "torus": torus7,
        "rp2": rp2_6,
        "f-s2": filtered_s2_equator,
        "f-s3": filtered_s3_equatorial_s2,
    }[kind]()


# Published homology per block of ``plmoves invariants``: M_d for the
# nonempty lower strata, then X.
CERTIFY_GROUPS = {
    "s3": {"X": PUBLISHED["s3"]},
    "s4": {"X": PUBLISHED["s4"]},
    "torus": {"X": PUBLISHED["torus"]},
    "rp2": {"X": PUBLISHED["rp2"]},
    "f-s2": {"M_1": PUBLISHED["s1"], "X": PUBLISHED["s2"]},
    "f-s3": {"M_2": PUBLISHED["s2"], "X": PUBLISHED["s3"]},
}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class CertifyCli:
    """The independent verifier: ``plmoves moves apply``, ``invariants`` and
    ``validate`` on the document and certificate of a seeded walk, run
    through the in-process ``cli.main``, then an invariance audit of chi and
    homology at every state along the certificate."""

    name = "certify-cli"
    CLASSES = ("s3", "s4", "torus", "rp2", "f-s2", "f-s3")
    WALK = {"s3": 12, "s4": 10, "torus": 12, "rp2": 12, "f-s2": 4, "f-s3": 4}

    def __init__(self, workdir):
        self.workdir = workdir

    def make_part(self, kind, walk_seed):
        start = _certify_start(kind)
        if isinstance(start, P.FilteredComplex):
            end, seq = P.random_extended_walk(start, self.WALK[kind], seed=walk_seed)
            doc, end_doc = P.document_for_filtered(start), P.document_for_filtered(end)
        else:
            end, seq = P.random_walk(start, self.WALK[kind], seed=walk_seed)
            doc, end_doc = P.document_for_complex(start), P.document_for_complex(end)
        return kind, P.emit_document(doc), P.emit_sequence(seq), P.emit_document(end_doc)

    def prepare_part(self, part, j):
        """Write the part's files before the task is timed."""
        names = ("start-%d.json" % j, "cert-%d.json" % j, "end-%d.json" % j)
        paths = [os.path.join(self.workdir, n) for n in names]
        for path, text in zip(paths, part[1:]):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return part, paths

    def run_part(self, part, paths):
        kind, doc_text, cert_text, _ = part
        start_path, cert_path, end_path = paths
        filtered = kind.startswith("f-")
        applied = _run_cli(["moves", "apply", "--input", start_path, "--sequence", cert_path])
        invariants = _run_cli(["invariants", "--input", start_path, "--format", "structured"])
        validated = _run_cli(["validate", "--input", end_path])
        listed = _run_cli(["moves", "list", "--extended", "--input", end_path]) if filtered else None
        # invariance audit: chi and homology of every block at every state
        doc = P.parse_document(doc_text)
        state = P.to_filtered(doc) if filtered else P.to_complex(doc)
        audit = [_blocks(state)]
        apply = P.apply_extended_bistellar if filtered else P.apply_bistellar
        for record in P.parse_sequence(cert_text):
            state = apply(state, record.move)
            audit.append(_blocks(state))
        return applied, invariants, validated, listed, audit

    def check_part(self, part, out):
        kind, _, cert_text, end_text = part
        applied, invariants, validated, listed, audit = out
        want = CERTIFY_GROUPS[kind]
        _require(applied == (0, end_text), "moves apply did not reach the walk's end")
        code, text = invariants
        _require(code == 0, "invariants failed")
        blocks = json.loads(text)
        got = {
            name: [(g["betti"], tuple(g["torsion"])) for g in block["homology"]]
            for name, block in blocks.items()
        }
        _require(got == want, "invariants disagree with the published groups")
        for state_blocks in audit:
            _require(
                {n: h for n, (_, h) in state_blocks.items()} == want,
                "homology changed along the certificate",
            )
            _require(
                [c for c, _ in state_blocks.values()] == [c for c, _ in audit[0].values()],
                "chi changed along the certificate",
            )
        code, text = validated
        if kind.startswith("f-"):
            _require(listed is not None and listed[0] == 0, "moves list failed")
            solved = code == 0 and text.splitlines()[-1] == "valid"
        else:
            _require(code == 0, "validate failed")
            solved = "manifold verdict yes" in text
        outputs = (kind, applied[1], invariants[1], validated[1], listed[1] if listed else "")
        return solved, len(json.loads(cert_text)["moves"]), digest(*outputs)


def _blocks(state):
    if isinstance(state, P.FilteredComplex):
        named = [("M_%d" % d, state.strata[d]) for d in range(state.n) if state.strata[d]]
        named.append(("X", state.complex))
    else:
        named = [("X", state)]
    return {n: (P.euler_characteristic(k), _groups(k)) for n, k in named}


# ------------------------------------------------------------- workloads


class Bundled:
    """Makes each task PER_CLASS parts (default one) per class of the
    workload, so that every task carries the same mix of work and task
    times are not a mixture of far-apart class costs."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.name = workload.name
        self.seed = seed

    def make_input(self, i):
        rng = _task_rng(self.name, self.seed, i)
        per_class = getattr(self.workload, "PER_CLASS", 1)
        classes = [c for c in self.workload.CLASSES for _ in range(per_class)]
        return [self.workload.make_part(c, rng.randrange(1 << 30)) for c in classes]

    def prepare(self, parts):
        prepare = getattr(self.workload, "prepare_part", lambda part, j: (part,))
        return [prepare(part, j) for j, part in enumerate(parts)]

    def task(self, prepared):
        return [self.workload.run_part(*args) for args in prepared]

    def check(self, parts, outs):
        checked = [self.workload.check_part(p, o) for p, o in zip(parts, outs)]
        return Outcome(
            sum(solved for solved, _, _ in checked),
            len(checked),
            sum(moves for _, moves, _ in checked),
            digest(*(d for _, _, d in checked)),
        )


def make(name, seed, workdir):
    """The workload called ``name``, with task inputs drawn from ``seed``."""
    if name == ReduceS3.name:
        return Bundled(ReduceS3(), seed)
    if name == SearchFlip.name:
        return Bundled(SearchFlip(), seed)
    if name == CertifyCli.name:
        return Bundled(CertifyCli(workdir), seed)
    raise ValueError("unknown workload %r" % name)
