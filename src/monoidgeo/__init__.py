"""Coarse geometry of finitely generated monoids, in exact rational arithmetic.

Word semimetrics, continuous Cayley graphs, quasi-isometry and action
property checkers, and a constructive generating-set extraction with
verified constants.
"""

__version__ = "0.1.0"

from .errors import (
    FactorizationFailed,
    HorizonTooSmall,
    HypothesisFailed,
    InvalidElement,
    InvalidLetter,
    MonoidGeoError,
    NonTerminating,
    NoPath,
    SpecParseError,
    SpecValidationError,
    UndefinedProduct,
)
from .extnum import (
    INF,
    ZERO,
    ExtNonNeg,
    TruncatedDistance,
    ext_max,
    ext_min,
    truncated_min,
)
from .monoids import (
    BicyclicMonoid,
    FiniteGroup,
    FreeMonoid,
    FreeProductMonoid,
    MonoidOracle,
    PropertyReport,
    RewritingMonoid,
    SubmonoidOracle,
    TableMonoid,
    Word,
    ZeroMonoid,
    check_cancellative,
    check_finite_geometric_type,
    check_left_unitary,
    format_word,
    from_spec_dict,
)
from .cayley import (
    CayleyPoint,
    CellSet,
    EdgePoint,
    GammaOracle,
    Segment,
    Vertex,
    check_inclusion_qi,
    gamma_distance,
    gamma_set_distance,
    shortest_word,
    word_distance,
)
from .spaces import (
    SemimetricSpace,
    Violation,
    ViolationReport,
    WordMetricSpace,
    check_axioms,
    check_quasi_metric,
)
from .actions import (
    check_action_laws,
    check_cobounded,
    check_idealistic,
    check_isometric_embedding_action,
    compute_contact_set,
)
from .svarcmilnor import (
    SmInput,
    SmReport,
    extract_generators,
    run_free_product,
    run_pipeline,
    run_submonoid_theorem,
    verify_generation_bound,
    verify_qi_bounds,
)
