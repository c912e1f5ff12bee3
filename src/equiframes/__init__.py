"""Equiangular tight frames from triple systems and Hadamard matrices.

Exact construction of Steiner and Tremain equiangular tight frames, with
certified strongly regular graphs and distance-regular antipodal covers
of the complete graph derived from them.  All certification is exact:
matrix entries live in a cyclotomic ring extended by sqrt(2) and sqrt(3),
and graph parameters are established by exhaustive counting.
"""

from equiframes.designs import (
    EmbeddingAssignment,
    SteinerTripleSystem,
    bose,
    find_parallel_class,
    make_sts,
    skolem,
    standard_embedding,
    verify_sts,
)
from equiframes.frames import (
    ETFReport,
    FrameMatrix,
    UnimodularSimplex,
    simplex_from_hadamard,
    steiner_etf,
    tremain_etf,
    tremain_params,
    verify_etf,
    welch_bound,
)
from equiframes.graphs import (
    CertificationError,
    CertifiedGraph,
    Graph,
    SRGParams,
    drackn_check,
    drackn_cover,
    drackn_params,
    gs_srg,
    srg_check,
    srg_params_gs,
    srg_params_waldron,
    tremain_flat_functional,
    waldron_srg,
)
from equiframes.hadamard import (
    ButsonMatrix,
    fourier,
    kronecker,
    load_butson,
    normalize,
    paley,
    real_hadamard,
    search_butson,
    store_butson,
    sylvester,
    verify_hadamard,
)
from equiframes.pipelines import (
    build_steiner,
    build_tremain,
    drackn_pipeline,
    gs_pipeline,
    waldron_pipeline,
)
from equiframes.scalar import CycInt, ExtScalar, cyclotomic_poly

__all__ = [
    "ButsonMatrix", "CertificationError", "CertifiedGraph", "CycInt",
    "ETFReport", "EmbeddingAssignment", "ExtScalar", "FrameMatrix",
    "Graph", "SRGParams", "SteinerTripleSystem", "UnimodularSimplex",
    "bose", "build_steiner", "build_tremain", "cyclotomic_poly",
    "drackn_check", "drackn_cover", "drackn_params", "drackn_pipeline",
    "find_parallel_class", "fourier", "gs_pipeline", "gs_srg", "kronecker",
    "load_butson", "make_sts", "normalize", "paley", "real_hadamard",
    "search_butson", "simplex_from_hadamard", "skolem", "srg_check",
    "srg_params_gs", "srg_params_waldron", "standard_embedding",
    "steiner_etf", "store_butson", "sylvester", "tremain_etf",
    "tremain_flat_functional", "tremain_params", "verify_etf",
    "verify_hadamard", "verify_sts", "waldron_pipeline", "waldron_srg",
    "welch_bound",
]
__version__ = "0.1.0"
