"""Command-line interface: validation, invariants, move listing and replay,
search, alignment, reduction, demo generators, and the ball-extension
construction.

Commands read the document named by --input (default "-", standard input)
and write results to standard output.  Commands whose output is a document
or a certificate always emit canonical JSON so they compose in pipelines;
only validate, invariants, "moves list", and reduce take --format.

Exit codes: 0 success/valid, 1 invalid or not found, 2 usage or schema
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import EMPTY, Complex
from .demos import DEMO_NAMES, demo_document
from .documents import (
    ComplexDocument,
    DocumentError,
    _move_json,
    document_for_complex,
    document_for_filtered,
    document_to_json,
    emit_document,
    emit_sequence,
    parse_document,
    parse_sequence,
    sequence_to_json,
    to_complex,
    to_filtered,
    to_stark,
)
from .filtration import (
    FilteredComplex,
    FiltrationError,
    ball_times_interval,
    enumerate_extended_moves,
    validate_filtration,
)
from .homology import (
    euler_characteristic,
    f_vector,
    homology,
    homology_summary,
    minimal_sphere_f_vector,
)
from .manifold import check_combinatorial_manifold
from .moves import MoveError, enumerate_moves
from .search import (
    MoveRecord,
    SearchBudget,
    SearchError,
    flip_search,
    replay,
    stratified_align,
)
from .search import reduce as reduce_complex
from .stark import (
    StarkError,
    validate_stark_complex,
    validate_stark_neighborhood,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_document(path: str) -> ComplexDocument:
    return parse_document(_read_text(path))


def _state_for(doc: ComplexDocument):
    """The richest state a document describes: filtered (neighborhoods
    validated) or plain."""
    if doc.stark_neighborhoods is not None:
        return to_stark(doc)[0]
    if doc.strata is not None:
        return to_filtered(doc)
    return to_complex(doc)


def _emit_json(obj) -> int:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 0


def _move_line(record: MoveRecord) -> str:
    m = record.move
    if record.kind == "bistellar":
        return "bistellar %s %s" % (list(m.a), list(m.b))
    if record.kind == "extended":
        return "extended %s %s stratum=%d apexes=%s" % (
            list(m.inner.a),
            list(m.inner.b),
            m.stratum,
            [tuple(p) for p in m.suspension.apexes],
        )
    return "stark %s %s apexes=%s" % (
        list(m.inner.a),
        list(m.inner.b),
        list(m.neighborhood.apexes),
    )


# ---------------------------------------------------------------- commands


def _cmd_validate(args) -> int:
    doc = _load_document(args.input)
    reports = []
    if doc.stark_neighborhoods is not None:
        x, neighborhoods = to_stark(doc)
        reports.append(validate_stark_complex(x))
        reports.extend(validate_stark_neighborhood(x, nb) for nb in neighborhoods)
        label = "stark %d-complex, %d neighborhoods" % (x.n, len(neighborhoods))
    elif doc.strata is not None:
        fc = to_filtered(doc)
        reports.append(validate_filtration(fc))
        label = "filtered %d-complex" % fc.n
    else:
        k = to_complex(doc)
        verdict = check_combinatorial_manifold(k).verdict
        label = "%d-complex, manifold verdict %s" % (k.dim, verdict.value)
    ok = all(r.ok for r in reports)
    findings = [f for r in reports for f in r.findings]
    notes = [n for r in reports for n in r.notes]
    if args.format == "structured":
        _emit_json({"ok": ok, "subject": label, "findings": findings, "notes": notes})
    else:
        print(label)
        for f in findings:
            print("finding: %s" % f)
        for n in notes:
            print("note: %s" % n)
        print("valid" if ok else "invalid")
    return 0 if ok else 1


def _invariant_block(k: Complex):
    return {
        "f": list(f_vector(k)),
        "chi": euler_characteristic(k),
        "homology": [
            {"betti": g.betti, "torsion": list(g.torsion)} for g in homology(k)
        ],
    }


def _cmd_invariants(args) -> int:
    doc = _load_document(args.input)
    if doc.strata is not None:
        fc = to_filtered(doc)
        blocks = [
            ("M_%d" % d, fc.strata[d]) for d in range(fc.n) if fc.strata[d]
        ] + [("X", fc.complex)]
    else:
        blocks = [("X", to_complex(doc))]
    if args.format == "structured":
        return _emit_json({name: _invariant_block(k) for name, k in blocks})
    for name, k in blocks:
        prefix = "" if len(blocks) == 1 else "%s: " % name
        print("%sf = %s" % (prefix, f_vector(k)))
        print("%schi = %d" % (prefix, euler_characteristic(k)))
        print("%s%s" % (prefix, homology_summary(k)))
    return 0


def _require_avoid(args, *complexes):
    """Refuse a pure complex with boundary when --avoid is not given, in
    words that name the option; the API's error speaks of an avoided
    subcomplex that the command line never named."""
    if not args.avoid and any(k.is_pure and k.boundary_complex for k in complexes):
        raise MoveError(
            "the complex has boundary; --avoid must name a subcomplex that contains it"
        )


def _cmd_moves_list(args) -> int:
    doc = _load_document(args.input)
    if args.extended:
        if doc.strata is None:
            print("error: --extended needs a document with strata", file=sys.stderr)
            return 2
        fc = to_filtered(doc)
        records = [MoveRecord("extended", m) for m in enumerate_extended_moves(fc)]
    else:
        avoid = to_complex(_load_document(args.avoid)) if args.avoid else EMPTY
        k = to_complex(doc)
        _require_avoid(args, k)
        records = [MoveRecord("bistellar", m) for m in enumerate_moves(k, avoid=avoid)]
    records.sort(key=_move_line)
    if args.format == "structured":
        return _emit_json([_move_json(r) for r in records])
    for record in records:
        print(_move_line(record))
    return 0


def _cmd_moves_apply(args) -> int:
    doc = _load_document(args.input)
    state = _state_for(doc)
    seq = parse_sequence(_read_text(args.sequence))
    result = replay(state, seq)
    if isinstance(result, FilteredComplex):
        out = document_for_filtered(result)
    else:
        out = document_for_complex(result)
    sys.stdout.write(emit_document(out))
    return 0


def _budget(args) -> SearchBudget:
    return SearchBudget(depth=args.depth, nodes=args.nodes)


def _cmd_search(args) -> int:
    k1 = to_complex(_load_document(args.input))
    k2 = to_complex(_load_document(args.target))
    avoid = to_complex(_load_document(args.avoid)) if args.avoid else EMPTY
    # bistellar moves keep both, so a mismatch proves that no sequence exists
    if k1.dim != k2.dim:
        print("no sequence exists: the ends differ in dimension")
        return 1
    if euler_characteristic(k1) != euler_characteristic(k2):
        print("no sequence exists: the ends differ in Euler characteristic")
        return 1
    _require_avoid(args, k1, k2)
    seq = flip_search(k1, k2, avoid=avoid, budget=_budget(args))
    if seq is None:
        print("not found within budget")
        return 1
    sys.stdout.write(emit_sequence(seq))
    return 0


def _cmd_align(args) -> int:
    fc1 = to_filtered(_load_document(args.input))
    fc2 = to_filtered(_load_document(args.target))
    seq = stratified_align(fc1, fc2, budget=_budget(args))
    if seq is None:
        print("not found within budget")
        return 1
    sys.stdout.write(emit_sequence(seq))
    return 0


def _cmd_reduce(args) -> int:
    k = to_complex(_load_document(args.input))
    reduced, seq = reduce_complex(k, move_budget=args.moves, seed=args.seed)
    reached = f_vector(reduced) == minimal_sphere_f_vector(k.dim)
    if args.format == "structured":
        return _emit_json(
            {
                "result": document_to_json(document_for_complex(reduced)),
                "certificate": sequence_to_json(seq),
                "reached_boundary_simplex_f_vector": reached,
            }
        )
    print("reduced from f = %s to f = %s in %d moves" % (f_vector(k), f_vector(reduced), len(seq)))
    if reached:
        print("boundary-simplex f-vector reached")
    elif len(seq) == args.moves:
        print("move budget of %d used up before the boundary-simplex f-vector" % args.moves)
    else:
        print(
            "stalled after %d moves before the boundary-simplex f-vector: "
            "no move within the plateau allowance" % len(seq)
        )
    for record in seq:
        print(_move_line(record))
    return 0


def _cmd_demo(args) -> int:
    if args.name not in DEMO_NAMES:
        print(
            "error: unknown demo %r (available: %s)" % (args.name, ", ".join(DEMO_NAMES)),
            file=sys.stderr,
        )
        return 1
    try:
        doc = demo_document(args.name, args.n)
    except DocumentError as e:
        print("usage: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.write(emit_document(doc))
    return 0


def _cmd_extend(args) -> int:
    ball = to_complex(_load_document(args.input))
    product = ball_times_interval(ball)
    metadata = {
        "apex_plus": product.apex_plus,
        "apex_minus": product.apex_minus,
        "suspension_facets": [
            list(f) for f in sorted(tuple(f) for f in product.suspension_part().facets)
        ],
    }
    sys.stdout.write(emit_document(document_for_complex(product.complex, metadata)))
    return 0


# ------------------------------------------------------------- the parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later ``main`` in the process; parsing keeps no state between calls,
    since each returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="plmoves",
        description="bistellar moves, filtered and stark variants, search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def count(text):
        # a --depth, --nodes or --moves value; argparse names it in "invalid count value"
        if int(text) < 0:
            raise argparse.ArgumentTypeError("a budget cannot be negative, got %s" % text)
        return int(text)

    def add_common(p, target=False, search_flags=False, report=False):
        p.add_argument("--input", default="-", help="document file, - for stdin")
        if report:
            p.add_argument(
                "--format",
                choices=("text", "structured"),
                default="text",
                help="report as text or as JSON",
            )
        if target:
            p.add_argument("--target", required=True, help="goal document file")
        if search_flags:
            p.add_argument("--depth", type=count, default=8, help="certificate length cap")
            p.add_argument("--nodes", type=count, default=2_000_000, help="search state cap")

    add_common(sub.add_parser("validate", help="structural validation report"), report=True)
    add_common(
        sub.add_parser("invariants", help="f-vector, Euler characteristic, homology"),
        report=True,
    )

    moves = sub.add_parser("moves", help="list applicable moves or replay a certificate")
    moves_sub = moves.add_subparsers(dest="moves_command", required=True)
    listing = moves_sub.add_parser("list", help="applicable moves, one per line")
    add_common(listing, report=True)
    listing.add_argument("--extended", action="store_true", help="extended moves of a filtered document")
    listing.add_argument("--avoid", help="subcomplex document whose simplices moves must not touch")
    apply_parser = moves_sub.add_parser("apply", help="replay a certificate against the input")
    add_common(apply_parser)
    apply_parser.add_argument("--sequence", required=True, help="certificate file")

    search_parser = sub.add_parser("search", help="bistellar certificate between two complexes")
    add_common(search_parser, target=True, search_flags=True)
    search_parser.add_argument("--avoid", help="subcomplex document both ends share and moves must fix")

    align_parser = sub.add_parser("align", help="extended-move certificate between filtered complexes")
    add_common(align_parser, target=True, search_flags=True)

    reduce_parser = sub.add_parser("reduce", help="drive a complex toward the boundary-simplex form")
    add_common(reduce_parser, report=True)
    reduce_parser.add_argument("--moves", type=count, default=600, help="move budget")
    reduce_parser.add_argument("--seed", type=int, default=0, help="tie-breaking seed")

    demo_parser = sub.add_parser("demo", help="emit a named example document")
    demo_parser.add_argument("name", help="one of: %s" % ", ".join(DEMO_NAMES))
    demo_parser.add_argument("n", nargs="?", type=int, default=None, help="size for parametric families")

    extend_parser = sub.add_parser("extend", help="triangulate ball x interval with its suspension inside")
    add_common(extend_parser)

    return parser


_DISPATCH = {
    "validate": _cmd_validate,
    "invariants": _cmd_invariants,
    "search": _cmd_search,
    "align": _cmd_align,
    "reduce": _cmd_reduce,
    "demo": _cmd_demo,
    "extend": _cmd_extend,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "moves":
            handler = _cmd_moves_list if args.moves_command == "list" else _cmd_moves_apply
        else:
            handler = _DISPATCH[args.command]
        return handler(args)
    except DocumentError as e:
        print("document error: %s" % e, file=sys.stderr)
        return 2
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (MoveError, SearchError, FiltrationError, StarkError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory in %s" % args.command, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
