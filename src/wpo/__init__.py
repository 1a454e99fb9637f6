"""Order theory of lower sets of N^m, with a verifiable ordinal toolkit.

The pieces: exact ordinal arithmetic in Cantor normal form below
epsilon_0 (ordinal), lower sets as box unions, a finite one also as
the closure of its generators (lowerset), monomial ideals as their
complements (monomial), ordinal ranking of finite lower sets
(linearize), long bad sequences driven by fundamental-sequence descent
(badseq), and brute-force cross-checks for all of it (oracles).
"""

from .ordinal import (
    Ordinal,
    ZERO,
    ONE,
    OMEGA,
    OrdinalParseError,
    NotALimitError,
    HardyOutcome,
    DescentTrace,
    add,
    bounded_type,
    compare,
    descend,
    format_ordinal,
    from_int,
    fundamental,
    general_type,
    hardy,
    is_limit,
    is_successor,
    natural_product,
    natural_sum,
    omega_pow,
    parse_ordinal,
    pow2,
    predecessor,
)
from .lowerset import (
    UNBOUNDED,
    GeneralLowerSet,
    PartialSpecification,
    UnboundedError,
    closure,
    compose_parts,
    decompose_parts,
    enumerate_fls,
    enumerate_gls,
    format_fls,
    format_gls,
    from_finite,
    generators,
    full_space,
    full_specification,
    intersection_image,
    is_compatible,
    parse_fls,
    parse_gls,
    preimage,
    project,
    to_finite,
    trivial_specification,
    validate_specification,
)
from .monomial import (
    MonomialIdeal,
    complement_ideal,
    complement_lowerset,
    format_ideal,
    parse_ideal,
    pretty_ideal,
    unit_ideal,
    zero_ideal,
)
from .linearize import (
    MonotoneReport,
    RankAssignment,
    check_monotone,
    lex_ordinal,
    ordinal_rank,
)
from .badseq import (
    BadnessReport,
    BadSequenceRecord,
    DescentRun,
    audit_run,
    descent_start,
    generate,
    lower_set_of,
    read_run,
    shape_from_ordinal,
    symbolic_length_bound,
    verify_bad,
    write_run,
)

__version__ = "0.1.0"
