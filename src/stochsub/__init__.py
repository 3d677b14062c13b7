"""Primitive random substitutions: exact kernels, induced mean matrices,
frequency measures, Monte-Carlo validation and entropy partial sums.

The namespace is lazy (PEP 562): `import stochsub` loads none of the
modules below, and a public name or module is imported from its module on
first access, then kept here, so a process loads only the modules it uses."""

import importlib

__version__ = "0.1.0"

# each module of the namespace and the public names it defines
_MODULES = {
    "entropy": ("MaxEntropyReport", "max_entropy_class_check", "metric_entropy_partial",
                "topological_entropy_partial"),
    "guards": ("GuardExceeded",),
    "induced": ("induced_mean_matrix",),
    "language": ("LanguageTable", "legal_words"),
    "measure": ("ErgodicityProbe", "FrequencyMeasure", "IllegalWordWarning",
                "unique_ergodicity_probe"),
    "sampler": ("DEFAULT_SEED", "DirectionStats", "SampleStats", "empirical_frequency",
                "gw_direction_estimate", "length_tail", "sample_iterate",
                "sample_iterate_law"),
    "spectral": ("NonConvergence", "PFEigenpair", "pf_eigenpair"),
    "substitution": ("IterateDistribution", "RationalMatrix", "RuleValidationError",
                     "SubstitutionRule"),
    "words": ("Alphabet", "abelianise", "count_occurrences"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME and name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")
    value = globals()[name] = module if name in _MODULES else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
