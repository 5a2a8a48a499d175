"""Finite-blocklength channel resolvability and intrinsic randomness toolkit.

The package measures closeness with f-divergences, trades mass for
entropy through smooth max and min entropies, and turns those entropies
into explicit constructions: maps from small uniform seeds that imitate
a source, and bin maps that distill near-uniform output from one.  Exact
rational arithmetic is kept wherever the inputs allow it so that the
certificates the constructions emit can be checked, not just trusted.
"""

from __future__ import annotations

from .distributions import (
    FiniteDistribution,
    ProductSourceView,
    TypeClass,
    bernoulli,
    expand,
    from_json_obj,
    iid_power,
    make_distribution,
    parse_source,
    uniform_distribution,
)
from .errors import (
    AllZeroError,
    AlphabetMismatchError,
    BadParamError,
    C2PrimeViolatedError,
    DegenerateSupportError,
    InexactCarryError,
    MTooSmallError,
    NegativeMassError,
    OutOfRangeError,
    OverflowGuardError,
    SmoothgenError,
    TargetInfeasibleError,
    TooFewPointsError,
    TooLargeError,
)
from .fdiv import (
    ConditionReport,
    DivergenceValue,
    FFunction,
    OffsetFunction,
    alpha_divergence,
    check_conditions,
    e_gamma,
    f_divergence,
    half_variational,
    hellinger,
    inverse,
    kl,
    offset,
    parse_generator,
    registry,
    reverse_kl,
    sq_hellinger,
    variational,
)
from .intrinsic import (
    ExtractorMap,
    ExtractorParams,
    ModifiedDistribution,
    achieved_uniformity,
    build_extractor,
    intrinsic_converse_check,
    ir_rate_formula,
)
from .resolvability import (
    RateEvaluation,
    ResolvabilityMap,
    ResolvabilityParams,
    achieved_divergence,
    build_resolvability_map,
    converse_check,
    rate_formula,
)
from .smooth_entropy import (
    MaxEntropyWitness,
    MinEntropyWitness,
    SmoothEntropyResult,
    smooth_max_entropy,
    smooth_min_entropy,
)
from .spectrum import (
    EquivalenceReport,
    EquivalenceRow,
    SpectrumRate,
    SweepStatistics,
    equivalence_report,
    spectrum_rate,
    sweep_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "FiniteDistribution",
    "ProductSourceView",
    "TypeClass",
    "bernoulli",
    "expand",
    "from_json_obj",
    "iid_power",
    "make_distribution",
    "parse_source",
    "uniform_distribution",
    # errors
    "SmoothgenError",
    "AllZeroError",
    "AlphabetMismatchError",
    "BadParamError",
    "C2PrimeViolatedError",
    "DegenerateSupportError",
    "InexactCarryError",
    "MTooSmallError",
    "NegativeMassError",
    "OutOfRangeError",
    "OverflowGuardError",
    "TargetInfeasibleError",
    "TooFewPointsError",
    "TooLargeError",
    # fdiv
    "ConditionReport",
    "DivergenceValue",
    "FFunction",
    "OffsetFunction",
    "alpha_divergence",
    "check_conditions",
    "e_gamma",
    "f_divergence",
    "half_variational",
    "hellinger",
    "inverse",
    "kl",
    "offset",
    "parse_generator",
    "registry",
    "reverse_kl",
    "sq_hellinger",
    "variational",
    # smooth entropy
    "MaxEntropyWitness",
    "MinEntropyWitness",
    "SmoothEntropyResult",
    "smooth_max_entropy",
    "smooth_min_entropy",
    # resolvability
    "RateEvaluation",
    "ResolvabilityMap",
    "ResolvabilityParams",
    "achieved_divergence",
    "build_resolvability_map",
    "converse_check",
    "rate_formula",
    # intrinsic randomness
    "ExtractorMap",
    "ExtractorParams",
    "ModifiedDistribution",
    "achieved_uniformity",
    "build_extractor",
    "intrinsic_converse_check",
    "ir_rate_formula",
    # spectrum
    "EquivalenceReport",
    "EquivalenceRow",
    "SpectrumRate",
    "SweepStatistics",
    "equivalence_report",
    "spectrum_rate",
    "sweep_statistics",
]
