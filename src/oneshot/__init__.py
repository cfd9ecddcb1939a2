"""Finite-alphabet one-shot coding bounds and their verification machinery.

The package evaluates one-shot mutual covering, packing, and
resolvability bounds, an end-to-end two-receiver broadcast bound with a
random-coding simulator, and the induced achievable rate region -- all
over finite alphabets, validated against exact codebook-ensemble oracles
and seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .errors import (
    AlphabetMismatchError,
    EnumerationCapError,
    InputFormatError,
    OneshotError,
    OutsideSupportError,
    UndefinedRowError,
)
from .probability import (
    Dist,
    Joint,
    Kernel,
    cond_info_density,
    cond_mutual_info,
    conditional,
    info_density,
    marginal,
    merge_axes,
    mutual_info,
    product_extend,
    rel_info,
)
from .bounds import (
    BoundParams,
    BoundReport,
    conditional_covering_bound,
    event_from_points,
    full_event,
    mutual_covering_bound,
    optimal_delta,
    optimize_gamma,
    packing_bound,
    resolvability_covering_bound,
    resolvability_excess_bound,
    simple_covering_bound,
)
from .oracle import (
    EnsembleSpec,
    exact_conditional_miss_prob,
    exact_miss_prob,
    exact_miss_prob_bruteforce,
    exact_packing_prob,
    mc_miss_prob,
    mc_resolvability_excess,
    resolvability_excess_exact,
)
from .rng import McEstimate
from .broadcast import (
    BroadcastSystem,
    Codebook,
    SchemeSizes,
    SimOutcome,
    broadcast_bound,
    decode,
    encode,
    product_extend_system,
    sample_codebook,
    simulate,
)
from .regions import (
    InfoVector,
    LinearSystem,
    RateTriple,
    build_system,
    fme_project,
    info_vector,
    region_contains,
)
