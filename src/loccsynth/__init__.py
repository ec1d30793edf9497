"""loccsynth: decide LOCC implementability of separable quantum measurements.

Given a finite set of product positive operators completing to the identity,
the synthesis engine either constructs a finite-round LOCC protocol (tree,
exact coefficients, and a floating-point Kraus realization) or certifies
that none exists within, or regardless of, the allowed number of rounds.
"""

from .exact_algebra import (
    ExactComplex,
    HermitianOp,
    is_psd,
    op_linear_combine,
    rank_one,
    vectorize,
)
from .cone_geometry import (
    Cone,
    IntersectionWitness,
    LPProblem,
    cones_intersect,
    lp_feasible,
    mutually_intersecting_families,
    proportional,
)
from .protocol_tree import (
    LeafRef,
    OpConstraint,
    Tree,
    TreeNode,
    collapse_congruent,
    congruent,
    covered_outcomes,
    equivalence_signature,
    merge_and_extend,
    seed_trees,
    tree_to_text,
)
from .synthesis_engine import (
    INCONCLUSIVE_CAPPED,
    NO_LOCC_ANY_ROUNDS,
    NO_LOCC_WITHIN_L,
    LOCCProtocol,
    MeasurementError,
    NoLoccCertificate,
    NotASeparableMeasurement,
    SearchConfig,
    SeparableMeasurement,
    solve_tree,
    synthesize,
    validate_measurement,
    verify_protocol_exact,
)
from .kraus_realization import (
    InstrumentReport,
    KrausProtocol,
    psd_sqrt,
    realize,
    verify_instrument,
)
from .frontend_cli import parse_measurement, write_measurement

__version__ = "0.1.0"
