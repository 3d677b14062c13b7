"""Span collector for the traced benchmark run.

The collector wraps the public callables of stochsub at the attributes where
callers look them up (``stochsub.cli.induced_mean_matrix`` and
``stochsub.measure.induced_mean_matrix`` are separate sites of one
function).  Each call records a span: name, start, end and the index of the
enclosing span.  Spans stay in memory and are written once, when the job
ends.  Counters are derived from the retained arguments and results at that
point, so their cost never lands inside a timed span.

The parent process turns the spans of one pass into per-layer metrics with
``layer_metrics``; a layer's self time is its span duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# span name -> attribute sites "module:attribute" that are patched with the
# same wrapper.  Functions imported by name into another module are looked up
# there, so every importing module is a site of its own.
SITES = {
    "cli.run": ("stochsub.cli:run",),
    "substitution.parse": ("stochsub.substitution:SubstitutionRule.from_file",),
    "substitution.iterate_law": (
        "stochsub.substitution:SubstitutionRule.iterate_distribution",),
    "substitution.kernel": ("stochsub.substitution:SubstitutionRule.kernel",),
    "language.legal_words": ("stochsub.language:legal_words",),
    "induced.matrix": ("stochsub.cli:induced_mean_matrix",
                       "stochsub.measure:induced_mean_matrix"),
    "spectral.to_float": ("stochsub.substitution:RationalMatrix.to_float",),
    "spectral.pf": ("stochsub.cli:pf_eigenpair", "stochsub.measure:pf_eigenpair",
                    "stochsub.sampler:pf_eigenpair"),
    "measure.frequency_vector": (
        "stochsub.measure:FrequencyMeasure.frequency_vector",),
    "measure.consistency": (
        "stochsub.measure:FrequencyMeasure.consistency_residual",),
    "entropy.metric": ("stochsub.cli:metric_entropy_partial",
                       "stochsub.entropy:metric_entropy_partial"),
    "entropy.topological": ("stochsub.cli:topological_entropy_partial",
                            "stochsub.entropy:topological_entropy_partial"),
    "sampler.sample_iterate": ("stochsub.cli:sample_iterate",
                               "stochsub.sampler:sample_iterate"),
    "sampler.empirical_frequency": ("stochsub.cli:empirical_frequency",
                                    "stochsub.sampler:empirical_frequency"),
    "sampler.length_tail": ("stochsub.cli:length_tail",
                            "stochsub.sampler:length_tail"),
    "sampler.sample_iterate_law": ("stochsub.sampler:sample_iterate_law",),
    "sampler.gw_direction_estimate": ("stochsub.sampler:gw_direction_estimate",),
    "words.count_occurrences": ("stochsub.sampler:count_occurrences",),
}

SAMPLER_SPANS = tuple(name for name in SITES if name.startswith("sampler."))
_COUNTED = {"language.legal_words", "induced.matrix", "spectral.pf",
            "substitution.iterate_law", *SAMPLER_SPANS}


def _nnz(matrix) -> int:
    return sum(1 for row in matrix.rows for x in row if x)


def _trials(name, args, result) -> int:
    if name == "sampler.sample_iterate":
        return 1
    if name == "sampler.sample_iterate_law":
        return sum(result.values())
    if name == "sampler.length_tail":
        return args["trials"]
    return result.trials


class _Span:
    __slots__ = ("name", "fn", "parent", "args", "kwargs", "result", "ok",
                 "start", "end")

    def __init__(self, name, fn, parent, args, kwargs):
        self.name, self.fn, self.parent = name, fn, parent
        self.args, self.kwargs = args, kwargs
        self.result, self.ok = None, False
        self.start = self.end = 0.0


class Collector:
    """Spans of one process, in call order."""

    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _Span(name, fn, self._stack[-1] if self._stack else -1,
                         args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                span.ok = True
                return span.result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        for name, sites in SITES.items():
            originals = {}
            for site in sites:
                module_name, attr = site.split(":")
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
                if isinstance(raw, classmethod):
                    fn = raw.__func__
                    key = id(fn)
                    wrapped = originals.setdefault(key, self.wrap(name, fn))
                    setattr(owner, leaf, classmethod(wrapped))
                else:
                    key = id(raw)
                    wrapped = originals.setdefault(key, self.wrap(name, raw))
                    setattr(owner, leaf, wrapped)

    def _counters(self, span, seen_languages) -> dict:
        if not span.ok or span.name not in _COUNTED:
            return {}
        bound = inspect.signature(span.fn).bind(*span.args, **span.kwargs)
        bound.apply_defaults()
        args, result, name = bound.arguments, span.result, span.name
        if name == "language.legal_words":
            key = (repr(args["rule"]), args["ell"])
            repeat = int(key in seen_languages)
            seen_languages.add(key)
            return {"words": len(result), "repeat": repeat}
        if name == "induced.matrix":
            return {"dim": result.size, "nnz": _nnz(result)}
        if name == "spectral.pf":
            return {"iterations": result.iterations, "residual": result.residual}
        if name == "substitution.iterate_law":
            return {"support": len(result.entries)}
        if name in SAMPLER_SPANS:
            counters = {"trials": _trials(name, args, result)}
            if name == "sampler.sample_iterate":
                counters["letters"] = len(result)
            return counters
        return {}

    def dump(self, path) -> None:
        seen_languages: set = set()
        records = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "ok": s.ok, "counters": self._counters(s, seen_languages)}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(records, fh)


# -- aggregation in the parent -------------------------------------------

SELF_TIME_METRICS = {
    "language.s": ("language.legal_words",),
    "induced.s": ("induced.matrix",),
    "spectral.to_float_s": ("spectral.to_float",),
    "spectral.pf_s": ("spectral.pf",),
    "measure.freq_vector_self_s": ("measure.frequency_vector",),
    "measure.consistency_s": ("measure.consistency",),
    "entropy.self_s": ("entropy.metric", "entropy.topological"),
    "substitution.parse_s": ("substitution.parse",),
    "substitution.iterate_law_s": ("substitution.iterate_law",),
    "substitution.kernel_s": ("substitution.kernel",),
    "sampler.s": SAMPLER_SPANS,
    "words.count_occurrences_s": ("words.count_occurrences",),
    "cli.self_s": ("cli.run",),
}

# metrics that must repeat exactly between runs of the same code
DETERMINISTIC_COUNTERS = (
    "language.calls", "language.repeat_calls", "language.words",
    "induced.dim", "induced.nnz", "spectral.iterations",
    "measure.freq_vector_calls", "substitution.iterate_support",
    "sampler.trials",
)


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def top_level_time(spans: list[dict]) -> float:
    """Wall time covered by spans with no enclosing span."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)


def layer_metrics(job_spans: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the span lists of its jobs."""
    own: dict[str, float] = {}
    counts: dict[str, float] = {}
    residual_max = 0.0
    letters = trials = 0
    letters_s = trials_s = 0.0
    for spans in job_spans:
        for s, t in zip(spans, self_times(spans)):
            name, c = s["name"], s["counters"]
            own[name] = own.get(name, 0.0) + t
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            for key, value in c.items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            if name == "spectral.pf" and s["ok"]:
                residual_max = max(residual_max, c["residual"])
            if name in SAMPLER_SPANS and s["ok"]:
                trials += c["trials"]
                trials_s += t
                if "letters" in c:
                    letters += c["letters"]
                    letters_s += t
    out = {metric: sum(own.get(n, 0.0) for n in names)
           for metric, names in SELF_TIME_METRICS.items()}
    out.update({
        "language.calls": counts.get("language.legal_words.calls", 0),
        "language.repeat_calls": counts.get("language.legal_words.repeat", 0),
        "language.words": counts.get("language.legal_words.words", 0),
        "induced.dim": counts.get("induced.matrix.dim", 0),
        "induced.nnz": counts.get("induced.matrix.nnz", 0),
        "spectral.iterations": counts.get("spectral.pf.iterations", 0),
        "spectral.residual_max": residual_max,
        "measure.freq_vector_calls":
            counts.get("measure.frequency_vector.calls", 0),
        "substitution.iterate_support":
            counts.get("substitution.iterate_law.support", 0),
        "sampler.trials": trials,
        "sampler.trials_per_s": trials / trials_s if trials_s else 0.0,
        "sampler.letters_per_s": letters / letters_s if letters_s else 0.0,
    })
    return out
