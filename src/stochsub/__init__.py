"""Primitive random substitutions: exact kernels, induced mean matrices,
frequency measures, Monte-Carlo validation and entropy partial sums."""

from .entropy import (
    MaxEntropyReport,
    max_entropy_class_check,
    metric_entropy_partial,
    topological_entropy_partial,
)
from .guards import GuardExceeded
from .induced import induced_mean_matrix
from .language import LanguageTable, legal_words
from .measure import (
    ErgodicityProbe,
    FrequencyMeasure,
    IllegalWordWarning,
    unique_ergodicity_probe,
)
from .sampler import (
    DEFAULT_SEED,
    DirectionStats,
    SampleStats,
    empirical_frequency,
    gw_direction_estimate,
    length_tail,
    sample_iterate,
    sample_iterate_law,
)
from .spectral import NonConvergence, PFEigenpair, pf_eigenpair
from .substitution import (
    IterateDistribution,
    RationalMatrix,
    RuleValidationError,
    SubstitutionRule,
)
from .words import Alphabet, abelianise, count_occurrences

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "DEFAULT_SEED",
    "DirectionStats",
    "ErgodicityProbe",
    "FrequencyMeasure",
    "GuardExceeded",
    "IllegalWordWarning",
    "IterateDistribution",
    "LanguageTable",
    "MaxEntropyReport",
    "NonConvergence",
    "PFEigenpair",
    "RationalMatrix",
    "RuleValidationError",
    "SampleStats",
    "SubstitutionRule",
    "abelianise",
    "count_occurrences",
    "empirical_frequency",
    "gw_direction_estimate",
    "induced_mean_matrix",
    "legal_words",
    "length_tail",
    "max_entropy_class_check",
    "metric_entropy_partial",
    "pf_eigenpair",
    "sample_iterate",
    "sample_iterate_law",
    "topological_entropy_partial",
    "unique_ergodicity_probe",
]
