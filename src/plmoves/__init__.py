"""Bistellar moves on simplicial complexes, their extensions to filtered
manifolds and starkly stratified spaces, exact invariants, and a flip-graph
search engine with replayable certificates."""

from .complexes import (
    EMPTY,
    Complex,
    Simplex,
    boundary_of_simplex,
    canonical_facet_text,
    closure,
    cone,
    fingerprint,
    fresh_vertex,
    join,
    link,
    product_with_interval,
    simplex_boundary,
    simplex_complex,
    star,
    stellar_subdivide,
    suspension,
)
from .demos import (
    DEMO_NAMES,
    bipyramid,
    demo_document,
    filtered_s2_equator,
    filtered_s3_equatorial_s2,
    join_fan,
    knot_model,
    rp2_6,
    sphere_boundary,
    torus7,
)
from .documents import (
    ComplexDocument,
    DocumentError,
    NeighborhoodDocument,
    document_for_complex,
    document_for_filtered,
    document_for_stark,
    emit_document,
    emit_sequence,
    parse_document,
    parse_sequence,
    to_complex,
    to_filtered,
    to_stark,
)
from .filtration import (
    BallInterval,
    ExtendedMove,
    FilteredComplex,
    FiltrationError,
    SuspensionData,
    apply_extended_bistellar,
    ball_times_interval,
    count_move_schemas,
    enumerate_extended_moves,
    extended_applicable,
    suspension_from_links,
    validate_filtration,
)
from .homology import (
    HomologyGroup,
    euler_characteristic,
    f_vector,
    homology,
    homology_summary,
)
from .manifold import (
    ManifoldReport,
    Verdict,
    check_combinatorial_manifold,
    sphere_or_ball_verdict,
)
from .moves import (
    BistellarMove,
    MoveError,
    applicability_obstruction,
    apply_bistellar,
    bistellar_applicable,
    enumerate_moves,
    inserted_ball,
    replaced_ball,
)
from .search import (
    MoveRecord,
    MoveSequence,
    SearchBudget,
    SearchError,
    find_isomorphism,
    flip_search,
    random_extended_walk,
    random_walk,
    reduce,
    replay,
    state_fingerprint,
    stratified_align,
)
from .stark import (
    StarkError,
    StarkMove,
    StarkNeighborhood,
    apply_stark_extended_bistellar,
    apply_stark_move,
    cone_extend,
    inverse_neighborhood,
    neighborhood_from_suspension,
    schema_of,
    stark_obstruction,
    stark_schema_census,
    validate_stark_complex,
    validate_stark_neighborhood,
)

__version__ = "0.1.0"
