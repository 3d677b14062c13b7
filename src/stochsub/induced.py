"""Exact mean matrix of the window-induced substitution.

The induced substitution acts on the alphabet of legal length-ell words: the
image of a word u is the sequence of ell-windows of the inflation of
u[1..ell], one window for every start position inside the image of the
first letter.  Its mean matrix therefore has column sums equal to the
expected image length of the first letter of the column word, and shares its
PF eigenvalue with the letter-level mean matrix.

The columns are the exact weights of the realisation kernel that the
language and the frequency recursion use too (`language._window_counts`,
called once per column on its word), run on the rule's integer image
weights q = p * D; each column spends its own state budget of
INDUCED_COLUMN_LIMIT.  A column
depends only on the first m = 1 + ceil((ell - 1) / minlen) letters of its
word (each later letter multiplies every kernel state by D), so the words
sharing them, which sort together, share one column, with the values and
state spend of each.  Each column is kept as the kernel's sparse dict of
integer numerators, keyed by row index, over the one denominator D^ell;
Fractions are built only where they are read.  The kernel yields its windows
as `bytes`, looked up in a `bytes` index of the words.
"""

from __future__ import annotations

from itertools import groupby

from .guards import INDUCED_CELL_LIMIT, INDUCED_COLUMN_LIMIT, guard_limit
from .language import _StateBudget, _window_counts
from .substitution import RationalMatrix, SubstitutionRule


def induced_mean_matrix(rule: SubstitutionRule, ell: int) -> RationalMatrix:
    """Exact mean matrix of the ell-induced substitution, indexed by the
    legal ell-words of `rule.language()` in lexicographic order.

    For ell = 1 this is the plain mean substitution matrix; ell > 1 needs an
    expanding rule, the standing hypothesis of the induced construction.  The
    language refuses ell < 1 and a non-primitive rule.
    """
    if ell > 1 and not rule.is_expanding():
        raise ValueError("induced matrices with ell > 1 require an expanding rule")
    table = rule.language()
    words = table.words_of_length(ell)
    cells = _StateBudget(guard_limit(INDUCED_CELL_LIMIT),
                         f"induced matrix of {len(words)} words", " cells")
    cells.spend(len(words) ** 2)  # the cells of the printed table and of `to_float`
    index = {bytes(w): i for i, w in enumerate(words)}
    limit = guard_limit(INDUCED_COLUMN_LIMIT)
    denominator, images = rule._integer_form
    m = (ell - 2) // rule.min_image_length() + 2
    columns = []
    for _, group in groupby(words, lambda u: u[:m]):
        u, *rest = group  # words that share a column
        budget = _StateBudget(limit, "induced-matrix column enumeration")
        counts = _window_counts(images, [u], ell, budget, mass=denominator)
        if not counts.keys() <= index.keys():
            raise RuntimeError(f"window of the legal word {u} is not legal")
        column = {index[w]: x for w, x in counts.items()}
        columns += [column] * (1 + len(rest))
    return RationalMatrix(words, tuple(columns), denominator**ell)
