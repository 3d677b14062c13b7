"""Command line front end.

Subcommands: language, matrix, freqs, entropy, sample, check.  Each reads a
rule from a JSON config (--config) and writes TSV (default, 12 significant
digits) or JSON (full double precision) to standard output.  Its handler
returns (report, rows, ok): rows are lists of str that the handler formats, ok
is false only for a failing `check`.  Exit codes: 0 success, 1 validation or
usage error or a failed check, 2 guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain

from .entropy import metric_entropy_partial, topological_entropy_partial
from .guards import GuardExceeded, guard_limit
from .induced import induced_mean_matrix
from .measure import FrequencyMeasure
# iterate mode reads _trials; sample_iterate stays bound here because
# bench/tracer.py lists stochsub.cli:sample_iterate among the sites it wraps
from .sampler import (DEFAULT_SEED, _trials, empirical_frequency, length_tail,
                      sample_iterate)
from .spectral import NonConvergence, pf_eigenpair
from .substitution import SubstitutionRule


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; here 2 is reserved for guards
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return "%.12g" % x


def _write_json(doc: dict) -> None:
    """json.dump(doc, indent=2) and a newline, byte for byte; a last value
    that is an iterator is written one item at a time, never held as a list."""
    *head, (key, last) = doc.items()
    if not isinstance(last, Iterator):
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    text = json.dumps({**dict(head), key: []}, indent=2)
    sys.stdout.write(text[: -len("]\n}")])  # up to the list's opening bracket
    empty = True
    for item in last:  # one level deeper: 4 more spaces after each newline
        sys.stdout.write(("\n    " if empty else ",\n    ")
                         + json.dumps(item, indent=2).replace("\n", "\n    "))
        empty = False
    sys.stdout.write("]\n}\n" if empty else "\n  ]\n}\n")


def _emit(report, rows, fmt: str) -> None:
    """rows (lists of str, or a function that yields the text) drive the TSV
    output; report() builds the JSON document, so that TSV never holds it."""
    if fmt == "json":
        _write_json(report())
    elif callable(rows):
        sys.stdout.writelines(rows())
    else:
        sys.stdout.writelines("\t".join(row) + "\n" for row in rows)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stochsub", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="rule config (JSON)")
        p.add_argument("--format", choices=("json", "tsv"), default="tsv")

    p = sub.add_parser("language", help="list the legal words of a length")
    common(p, _cmd_language)
    p.add_argument("--ell", type=int, required=True)

    p = sub.add_parser("matrix", help="mean or induced mean matrix, exact")
    common(p, _cmd_matrix)
    p.add_argument("--ell", type=int, default=1)

    p = sub.add_parser("freqs", help="cylinder frequencies of legal words")
    common(p, _cmd_freqs)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--word", help="restrict to one word")

    p = sub.add_parser("entropy", help="entropy partial sums")
    common(p, _cmd_entropy)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument(
        "--flavor", choices=("metric", "topological", "both"), default="both"
    )

    p = sub.add_parser("sample", help="Monte-Carlo iterate sampling")
    common(p, _cmd_sample)
    p.add_argument("--letter", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1,
                   help="trials of the frequency and tail modes; iterate mode "
                        "draws one trial and only checks --trials >= 1")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--word", help="estimate the frequency of this word")
    mode.add_argument("--tail-K", type=float, dest="tail_k", metavar="K",
                      help="estimate P[length < K*n]; exact, drawing no trial, "
                           "where the image lengths decide it")

    p = sub.add_parser("check", help="run the invariant suite on a config")
    common(p, _cmd_check)

    return parser


def _cmd_language(rule, args):
    words = rule.language().words_of_length(args.ell)
    decode = rule.alphabet.decode
    return (lambda: {"ell": args.ell, "count": len(words),
                     "words": list(map(decode, words))},
            ([decode(w)] for w in words), True)


def _matrix_entries(mat):
    """The entries of `mat` as strings, one row at a time, from its columns."""
    text = {}  # numerator -> its entry as a string
    entries = [[] for _ in mat.labels]  # row i: (column, entry) pairs
    for j, col in enumerate(mat.columns):
        for i, x in col.items():
            if x not in text:
                text[x] = str(Fraction(x, mat.denominator))
            entries[i].append((j, text[x]))
    for row in entries:
        cells = ["0"] * mat.size
        for j, entry in row:
            cells[j] = entry
        yield cells


def _cmd_matrix(rule, args):
    mat = rule.mean_matrix() if args.ell == 1 else induced_mean_matrix(rule, args.ell)
    if args.ell == 1:
        labels = [rule.alphabet.symbol(c) for c in mat.labels]
    else:
        labels = [rule.alphabet.decode(w) for w in mat.labels]
    lines = zip(["", *labels], chain([labels], _matrix_entries(mat)))  # header first
    return (lambda: {"ell": args.ell, "labels": labels,
                     "rows": _matrix_entries(mat)},
            ([lab, *line] for lab, line in lines), True)


def _cmd_freqs(rule, args):
    if args.ell < 1:  # else --word "" would print the empty cylinder's measure, 1
        raise ValueError("--ell must be >= 1")
    fm = FrequencyMeasure(rule)
    if args.word is not None:
        if len(rule.encode(args.word)) != args.ell:
            raise ValueError(f"--word {args.word!r} is not of length --ell {args.ell}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = fm.cylinder_measure(args.word)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return lambda: {"word": args.word, "measure": value}, [[args.word, _fmt(value)]], True
    words, vec = fm.frequency_vector(args.ell)
    decode = rule.alphabet.decode
    return (lambda: {"ell": args.ell, "measures": dict(zip(map(decode, words), vec))},
            ([decode(w), _fmt(v)] for w, v in zip(words, vec)), True)


def _cmd_entropy(rule, args):
    if args.max_n < 1:  # the loop below would print an empty series and exit 0
        raise ValueError("--max-n must be >= 1")
    fm = FrequencyMeasure(rule) if args.flavor in ("metric", "both") else None
    entries = []
    for n in range(1, args.max_n + 1):
        entry = {"n": n}
        if fm is not None:
            entry["metric"] = metric_entropy_partial(fm, n)
        if args.flavor in ("topological", "both"):
            entry["topological"] = topological_entropy_partial(rule, n)
        entries.append(entry)
    rows = ([str(n), *map(_fmt, sums)] for n, *sums in map(dict.values, entries))
    return lambda: {"flavor": args.flavor, "series": entries}, rows, True


def _cmd_sample(rule, args):
    if args.word is not None:
        stats = empirical_frequency(
            rule, args.letter, args.word, args.n, args.trials, seed=args.seed
        )
        report = {"mode": "frequency", "word": args.word,
                  "estimate": stats.estimate, "stderr": stats.stderr,
                  "trials": stats.trials, "n": stats.depth, "seed": stats.seed}
        rows = [["estimate", _fmt(stats.estimate)], ["stderr", _fmt(stats.stderr)],
                *([k, str(report[k])] for k in ("trials", "n", "seed"))]
        return lambda: report, rows, True
    if args.tail_k is not None:
        frac = length_tail(rule, args.letter, args.n, args.tail_k, args.trials,
                           seed=args.seed)
        report = {"mode": "tail", "K": args.tail_k, "fraction": frac,
                  "trials": args.trials, "n": args.n, "seed": args.seed}
        return lambda: report, [["fraction", _fmt(frac)]], True
    if args.trials < 1:
        raise ValueError("need trials >= 1")
    # sample_iterate's realisation, kept as the engine's bytes: its tuple
    # would hold 8 bytes a letter
    word = next(_trials(rule, args.letter, args.n, 1, args.seed))
    report = {"mode": "iterate", "n": args.n, "seed": args.seed, "length": len(word)}
    if args.format == "json":  # the document holds the word, and not its bytes
        report["word"] = rule.alphabet.decode(word)
        return lambda: report, None, True
    decode, sep, step = rule.alphabet.decode, rule.alphabet._sep, 2**20
    # TSV decodes the word a slice at a time, never holding it whole as a str
    return None, lambda: chain((sep * (i > 0) + decode(word[i : i + step])
                                for i in range(0, len(word), step)),
                               [f"\nlength\t{len(word)}\n"]), True


def _cmd_check(rule, args):
    """Classification plus the cheap structural identities; each check is a
    (name, ok, detail) row and the overall verdict drives the exit code."""
    checks = []
    primitive, witness = rule.is_primitive()
    checks.append(("primitive", primitive,
                   f"witness power {witness}" if primitive else "no positive power"))
    expanding = rule.is_expanding()
    checks.append(("expanding", True, str(expanding)))
    mat = rule.mean_matrix()
    if primitive:
        pair = pf_eigenpair(mat)
        checks.append(("pf-eigenvalue", True, _fmt(pair.value)))
        checks.append(("expanding-iff-lambda",
                       expanding == (pair.value > 1 + 1e-9),
                       "lambda > 1 matches expanding"))
        sums = mat.column_sums()
        ok = all(sums[c] == rule.expected_image_length(c)
                 for c in range(rule.alphabet.size))
        checks.append(("mean-column-sums", ok, "match expected image lengths"))
        if expanding:
            fm = FrequencyMeasure(rule)
            ind = induced_mean_matrix(rule, 2)
            pair2 = pf_eigenpair(ind)
            for ell in (1, 2, 3):  # the vectors `freqs` prints
                _, vec = fm.frequency_vector(ell)
                total = sum(vec)
                checks.append((f"normalization-ell-{ell}", abs(total - 1.0) <= 1e-9,
                               _fmt(total)))
            res = fm.consistency_residual(1, 3)
            checks.append(("consistency-1-3", res <= 1e-9, _fmt(res)))
            checks.append(("induced-eigenvalue-2",
                           abs(pair2.value - pair.value) <= 1e-9, _fmt(pair2.value)))
            ok = all(s == rule.expected_image_length(w[0])
                     for w, s in zip(ind.labels, ind.column_sums()))
            checks.append(("induced-column-sums", ok, "match E|image(u1)|"))
    ok_all = all(ok for _, ok, _ in checks)
    report = {"checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
              "ok": ok_all}
    rows = [[n, "pass" if ok else "FAIL", d] for n, ok, d in checks]
    return lambda: report, rows, ok_all


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        guard_limit(0)  # refuses a malformed guard variable on every subcommand
        rule = SubstitutionRule.from_file(args.config)
        report, rows, ok = args.handler(rule, args)
        _emit(report, rows, args.format)
        return 0 if ok else 1
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, OSError, ValueError, KeyError) as exc:  # config errors too
        # str() of a KeyError is the repr of its message, quotes and all
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
