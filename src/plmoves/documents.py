"""JSON documents for complexes, filtrations, stark data, and certificates.

Two document shapes share one canonical JSON dialect (two-space indent,
sorted keys, trailing newline):

* a complex document: ``dimension``, ``facets``, optional ``strata``
  (ascending ``{dim, facets}`` entries below the top dimension; missing
  dimensions are filled in, empty below the first entry and carried up
  between entries), optional ``stark_neighborhoods`` (each ``base_facets``
  plus ``levels``, a list of coning levels, each a list of
  ``{apex, L_facets}`` entries), and free-form ``metadata``;
* a move-sequence document: ``start_fingerprint`` plus a tagged ``moves``
  list, one entry per move in replay order.

Parsing is strict about structure (unknown fields, wrong types, duplicate
vertices are errors with field paths) but lenient about order: facet lists
are sorted into canonical form, so emit(parse(text)) is byte-identical
once the text is canonical.  Facet order inside ``L_facets`` is not
semantically load-bearing: a neighborhood level complex is reduced to its
vertex support on conversion and re-derived by cell resolution on emit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .complexes import Complex
from .filtration import ExtendedMove, FilteredComplex, SuspensionData
from .moves import BistellarMove
from .search import MoveRecord, MoveSequence
from .stark import StarkMove, StarkNeighborhood, _cell_cones, _resolve_cells


class DocumentError(ValueError):
    """A document failed schema checks; the message carries the field path."""


Facets = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class NeighborhoodDocument:
    """Serialized stark neighborhood: base facets plus per-level
    (apex, L facets) entries, apexes ascending within each level."""

    base_facets: Facets
    levels: tuple[tuple[tuple[int, Facets], ...], ...]


@dataclass(frozen=True)
class ComplexDocument:
    """Canonical in-memory form of a complex document."""

    dimension: int
    facets: Facets
    strata: tuple[tuple[int, Facets], ...] | None = None
    stark_neighborhoods: tuple[NeighborhoodDocument, ...] | None = None
    metadata: dict | None = None


# ---------------------------------------------------------------- parsing


def _path_text(path):
    """A field path as an error names it.  A path is a field name or a
    (parent path, part) pair, the part a list index or a ".field" suffix,
    and is formatted only here, when a check fails."""
    if isinstance(path, tuple):
        parent, part = path
        return _path_text(parent) + ("[%d]" % part if isinstance(part, int) else part)
    return path


def _err(path, msg):
    path = _path_text(path)
    raise DocumentError("%s: %s" % (path, msg) if path else msg)


def _as_object(value, path, allowed):
    if not isinstance(value, dict):
        _err(path or "document", "expected an object")
    for key in value:
        if key not in allowed:
            _err(path or "document", "unknown field %r" % key)
    return value


def _require(obj, key, path):
    if key not in obj:
        _err((path, "." + key) if path else key, "required field is missing")
    return obj[key]


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _err(path, "expected an integer")
    if minimum is not None and value < minimum:
        _err(path, "must be at least %d" % minimum)
    return value


def _as_list(value, path, allow_empty=True):
    if not isinstance(value, list):
        _err(path, "expected a list")
    if not value and not allow_empty:
        _err(path, "must not be empty")
    return value


def _facet(value, path):
    items = _as_list(value, path, allow_empty=False)
    for i, v in enumerate(items):
        # JSON gives plain ints; anything else goes to _as_int, which words
        # the error (and passes an int subclass, as it always has)
        if v.__class__ is not int or v < 0:
            _as_int(v, (path, i), minimum=0)
    verts = sorted(items)
    for x, y in zip(verts, verts[1:]):
        if x == y:
            _err(path, "duplicate vertex %d" % x)
    return tuple(verts)


def _facet_list(value, path, allow_empty) -> Facets:
    items = _as_list(value, path, allow_empty)
    return tuple(sorted({_facet(f, (path, i)) for i, f in enumerate(items)}))


def _parse_strata(value, dimension):
    items = _as_list(value, "strata")
    listed = []
    last = -1
    for i, entry in enumerate(items):
        path = ("strata", i)
        obj = _as_object(entry, path, ("dim", "facets"))
        d = _as_int(_require(obj, "dim", path), (path, ".dim"), minimum=0)
        if d <= last:
            _err((path, ".dim"), "stratum dimensions must be strictly ascending")
        if d >= dimension:
            _err(
                (path, ".dim"),
                "must be below the top dimension %d"
                " (the top stratum is the facets field)" % dimension,
            )
        listed.append((d, _facet_list(_require(obj, "facets", path), (path, ".facets"), True)))
        last = d
    filled = []
    carried: Facets = ()
    j = 0
    for d in range(dimension):
        if j < len(listed) and listed[j][0] == d:
            carried = listed[j][1]
            j += 1
        filled.append((d, carried))
    return tuple(filled)


def _parse_neighborhood(value, path) -> NeighborhoodDocument:
    obj = _as_object(value, path, ("base_facets", "levels"))
    base = _facet_list(_require(obj, "base_facets", path), (path, ".base_facets"), False)
    levels = []
    for i, lvl in enumerate(_as_list(_require(obj, "levels", path), (path, ".levels"))):
        lpath = ((path, ".levels"), i)
        entries = []
        for j, e in enumerate(_as_list(lvl, lpath, allow_empty=False)):
            epath = (lpath, j)
            eobj = _as_object(e, epath, ("apex", "L_facets"))
            apex = _as_int(_require(eobj, "apex", epath), (epath, ".apex"), minimum=0)
            lf = _facet_list(_require(eobj, "L_facets", epath), (epath, ".L_facets"), False)
            entries.append((apex, lf))
        entries.sort(key=lambda t: t[0])
        levels.append(tuple(entries))
    return NeighborhoodDocument(base, tuple(levels))


def _loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError("line %d column %d: %s" % (e.lineno, e.colno, e.msg)) from e
    except RecursionError:
        raise DocumentError("JSON nested too deeply") from None


def parse_document(text: str) -> ComplexDocument:
    top = _as_object(
        _loads(text), "", ("dimension", "facets", "strata", "stark_neighborhoods", "metadata")
    )
    dimension = _as_int(_require(top, "dimension", ""), "dimension", minimum=0)
    facets = _facet_list(_require(top, "facets", ""), "facets", allow_empty=False)
    spanned = max(len(f) for f in facets) - 1
    if spanned != dimension:
        _err("dimension", "stated %d but the facets span dimension %d" % (dimension, spanned))
    strata = None
    if top.get("strata") is not None:
        strata = _parse_strata(top["strata"], dimension)
    neighborhoods = None
    if top.get("stark_neighborhoods") is not None:
        if strata is None:
            _err("stark_neighborhoods", "requires the strata field")
        items = _as_list(top["stark_neighborhoods"], "stark_neighborhoods")
        neighborhoods = tuple(
            _parse_neighborhood(e, ("stark_neighborhoods", i)) for i, e in enumerate(items)
        )
    metadata = top.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        _err("metadata", "expected an object")
    return ComplexDocument(dimension, facets, strata, neighborhoods, metadata)


# ---------------------------------------------------------------- emission


def _facets_json(facets: Facets):
    return [list(f) for f in facets]


def _neighborhood_json(nb: NeighborhoodDocument) -> dict:
    return {
        "base_facets": _facets_json(nb.base_facets),
        "levels": [
            [{"apex": apex, "L_facets": _facets_json(lf)} for apex, lf in lvl]
            for lvl in nb.levels
        ],
    }


def document_to_json(doc: ComplexDocument) -> dict:
    out = {"dimension": doc.dimension, "facets": _facets_json(doc.facets)}
    if doc.strata is not None:
        out["strata"] = [{"dim": d, "facets": _facets_json(fs)} for d, fs in doc.strata]
    if doc.stark_neighborhoods is not None:
        out["stark_neighborhoods"] = [_neighborhood_json(nb) for nb in doc.stark_neighborhoods]
    if doc.metadata is not None:
        out["metadata"] = doc.metadata
    return out


def emit_document(doc: ComplexDocument) -> str:
    return json.dumps(document_to_json(doc), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------- object conversions


def _facet_complex(facets: Facets, path: str) -> Complex:
    """The complex on a parsed facet list; a facet that is a face of another
    is a schema error."""
    try:
        return Complex(facets)
    except ValueError as e:
        raise DocumentError("%s: %s" % (path, e)) from e


def to_complex(doc: ComplexDocument) -> Complex:
    return _facet_complex(doc.facets, "facets")


def to_filtered(doc: ComplexDocument) -> FilteredComplex:
    """Build the filtration; structural violations (nesting, dimension
    bounds) surface as FiltrationError, not DocumentError."""
    if doc.strata is None:
        raise DocumentError("strata: required to build a filtration")
    strata = tuple(
        _facet_complex(fs, "strata (dim %d).facets" % d) for d, fs in doc.strata
    )
    return FilteredComplex(strata + (to_complex(doc),))


def neighborhood_from_document(nb: NeighborhoodDocument) -> StarkNeighborhood:
    levels = tuple(
        tuple((apex, frozenset(v for f in lf for v in f)) for apex, lf in lvl)
        for lvl in nb.levels
    )
    return StarkNeighborhood(_facet_complex(nb.base_facets, "base_facets"), levels)


def to_stark(doc: ComplexDocument) -> tuple[FilteredComplex, tuple[StarkNeighborhood, ...]]:
    neighborhoods = tuple(
        neighborhood_from_document(nb) for nb in doc.stark_neighborhoods or ()
    )
    return to_filtered(doc), neighborhoods


def _complex_facets(k: Complex) -> Facets:
    return tuple(sorted(tuple(f) for f in k.facets))


def neighborhood_document(nbhd: StarkNeighborhood) -> NeighborhoodDocument:
    """Serialize by resolving each level complex over the base cell complex;
    the level entries come back as honest facet lists, not bare supports."""
    cells = _resolve_cells(nbhd)
    rebuilt = _cell_cones(nbhd.base, nbhd, cells)
    levels = []
    i = 1
    for level in nbhd.levels:
        entries = []
        for apex, _ in level:
            entries.append((apex, _complex_facets(rebuilt[i][0])))
            i += 1
        levels.append(tuple(entries))
    return NeighborhoodDocument(_complex_facets(nbhd.base), tuple(levels))


def document_for_complex(k: Complex, metadata: dict | None = None) -> ComplexDocument:
    return ComplexDocument(k.dim, _complex_facets(k), metadata=metadata)


def document_for_filtered(fc: FilteredComplex, metadata: dict | None = None) -> ComplexDocument:
    strata = tuple((d, _complex_facets(fc.strata[d])) for d in range(fc.n))
    return ComplexDocument(
        fc.n, _complex_facets(fc.complex), strata=strata, metadata=metadata
    )


def document_for_stark(
    x: FilteredComplex,
    neighborhoods: tuple[StarkNeighborhood, ...] = (),
    metadata: dict | None = None,
) -> ComplexDocument:
    base = document_for_filtered(x, metadata)
    docs = tuple(neighborhood_document(nb) for nb in neighborhoods)
    return ComplexDocument(
        base.dimension, base.facets, base.strata, docs or None, metadata
    )


# ------------------------------------------------------------ sequences


def _move_json(record: MoveRecord) -> dict:
    m = record.move
    if record.kind == "bistellar":
        return {"kind": "bistellar", "a": list(m.a), "b": list(m.b)}
    if record.kind == "extended":
        return {
            "kind": "extended",
            "stratum": m.stratum,
            "a": list(m.inner.a),
            "b": list(m.inner.b),
            "suspension": {
                "start": m.suspension.start,
                "apexes": [list(p) for p in m.suspension.apexes],
            },
        }
    return {
        "kind": "stark",
        "a": list(m.inner.a),
        "b": list(m.inner.b),
        "neighborhood": _neighborhood_json(neighborhood_document(m.neighborhood)),
    }


def sequence_to_json(seq: MoveSequence) -> dict:
    return {
        "start_fingerprint": seq.start_fingerprint,
        "moves": [_move_json(r) for r in seq.moves],
    }


def emit_sequence(seq: MoveSequence) -> str:
    return json.dumps(sequence_to_json(seq), indent=2, sort_keys=True) + "\n"


def _parse_move(value, path) -> MoveRecord:
    if not isinstance(value, dict):
        _err(path, "expected an object")
    kind = _require(value, "kind", path)
    if kind not in ("bistellar", "extended", "stark"):
        _err((path, ".kind"), "unknown move kind %r" % (kind,))
    fields = {
        "bistellar": ("kind", "a", "b"),
        "extended": ("kind", "a", "b", "stratum", "suspension"),
        "stark": ("kind", "a", "b", "neighborhood"),
    }[kind]
    obj = _as_object(value, path, fields)
    a = _facet(_require(obj, "a", path), (path, ".a"))
    b = _facet(_require(obj, "b", path), (path, ".b"))
    try:
        inner = BistellarMove(a, b)
        if kind == "bistellar":
            return MoveRecord("bistellar", inner)
        if kind == "extended":
            spath = (path, ".suspension")
            sobj = _as_object(_require(obj, "suspension", path), spath, ("start", "apexes"))
            start = _as_int(_require(sobj, "start", spath), (spath, ".start"), minimum=0)
            apexes = []
            for i, pair in enumerate(_as_list(_require(sobj, "apexes", spath), (spath, ".apexes"))):
                ppath = ((spath, ".apexes"), i)
                items = _as_list(pair, ppath, allow_empty=False)
                if len(items) != 2:
                    _err(ppath, "expected a [plus, minus] apex pair")
                apexes.append(
                    (
                        _as_int(items[0], (ppath, 0), minimum=0),
                        _as_int(items[1], (ppath, 1), minimum=0),
                    )
                )
            move = ExtendedMove(
                stratum=_as_int(_require(obj, "stratum", path), (path, ".stratum"), minimum=0),
                inner=inner,
                suspension=SuspensionData(start, tuple(apexes)),
            )
            return MoveRecord("extended", move)
        nb = _parse_neighborhood(_require(obj, "neighborhood", path), (path, ".neighborhood"))
        return MoveRecord("stark", StarkMove(neighborhood_from_document(nb), inner))
    except DocumentError:
        raise
    except ValueError as e:
        raise DocumentError("%s: %s" % (_path_text(path), e)) from e


def parse_sequence(text: str) -> MoveSequence:
    top = _as_object(_loads(text), "", ("start_fingerprint", "moves"))
    fingerprint = _require(top, "start_fingerprint", "")
    if not isinstance(fingerprint, str) or not fingerprint:
        _err("start_fingerprint", "expected a nonempty string")
    moves = tuple(
        _parse_move(m, ("moves", i))
        for i, m in enumerate(_as_list(_require(top, "moves", ""), "moves"))
    )
    return MoveSequence(fingerprint, moves)
