"""lprl: certified finite-scale numerics for sequence-space constructions."""

from .errors import PreconditionError, ResourceLimitError
from .seqspace import (
    DEFAULT_MARGIN,
    EMPTY,
    ExpLadder,
    Margin,
    PowerWindow,
    certified_less,
    concat,
    difference,
    finseq,
    frechet_metric,
    pnorm_pow,
    scale,
    sup_norm,
    window_seq,
)
from .grid import depth, extend_laws_check, level, pair, unpair
from .witness import ClaimRequest, ClaimWitness, extend, verify_witness
from .construction import (
    ConstructionCache,
    build_node,
    build_tree,
    cache_stats,
    check_properties,
    export_cache,
    import_cache,
    least_natural_above,
)
from .reduction import (
    AlphaSpec,
    EventuallyOne,
    FiniteOnes,
    PeriodicOnes,
    alpha_bit,
    bad_row,
    continuity_check,
    divergence_witness,
    f_blocks,
    in_p3,
    path_bits,
    stabilization_check,
    standard_corpus,
    unit_ball_check,
)
from .hierarchy import (
    build_pi4_certificate,
    embedding_inequality_check,
    extract_row,
    interleave,
)

__version__ = "0.1.0"
