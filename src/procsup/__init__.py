"""Suprema of canonical Bernoulli and Gaussian processes over finite sets.

Exact oracles, moment proxies, chaining bounds through admissible partition
trees, trimmed-distance contraction checks, threshold decompositions, and a
weak-vs-strong moment comparison harness — all deterministic under seeded,
counter-based randomness.
"""

from .core import (
    EXACT_ENUMERATION_MAX_DIM,
    FiniteSet,
    ProcessKind,
    Seed,
    SetKind,
    center_at_zero,
    generate_set,
    has_disjoint_supports,
    load_set,
    save_set,
)
from .errors import CapacityError, ParameterError, ParseError, ProcsupError, ValidationError
from .moments import (
    MomentModel,
    bernoulli_exact_norms,
    gaussian_moment_constant,
    gaussian_norms,
    mc_norms,
    proxy_norms,
)
from .suprema import EstimateMethod, SupEstimate, brute_force_bernoulli_sup, mc_sup
from .chaining import (
    Block,
    ChainBound,
    PartitionTree,
    SUP_BOUND_FACTOR,
    build_partition_greedy,
    chain_bound,
    combine_sum_set,
    exhaustive_gamma,
    level_budget,
    verify_sup_bound,
)
from .contraction import (
    CoordinateMap,
    ContractionReport,
    MappedPair,
    apply_map,
    check_condition,
    compare_suprema,
    fit_min_C,
)
from .decomposition import (
    DecompositionResult,
    SplitRule,
    choose_p,
    decompose_by_sweep,
    split_rows,
    sweep_objectives,
    verify_two_sided,
)
from .oleszkiewicz import (
    FunctionalSample,
    NormKind,
    VectorSystem,
    WeakMomentResult,
    check_weak_contraction,
    generate_functionals,
    load_vector_system,
    save_vector_system,
    strong_moment_ratio,
    weak_moment_constant,
)
from .reports import ComparisonReport

__version__ = "0.3.0"

__all__ = [name for name in dir() if not name.startswith("_")]
