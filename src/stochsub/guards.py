"""Resource guards for operations whose cost can explode combinatorially.

Every guard is a `Budget`, refused exactly when its count exceeds its limit,
so 0 refuses each computation that counts a state, cell or letter.  All
default limits can be overridden at once through STOCHSUB_GUARD_LIMIT, a
non-negative integer in ASCII digits read when a budget is made; for any
other value ("-5", "1e6", "") `guard_limit` raises a ValueError naming it.
"""

from __future__ import annotations

import os

ENV_VAR = "STOCHSUB_GUARD_LIMIT"

# ITERATE_SUPPORT_LIMIT counts the words of an iterate law's support, not their
# letters (SAMPLE_LETTER_LIMIT guards those), and trips exactly when the support
# exceeds it; the words are held as bytes, so on fibonacci theta^7(a) it trips
# after about 1 s at a peak RSS of about 175 MB (Python 3.11)
ITERATE_SUPPORT_LIMIT = 10**6
# INDUCED_COLUMN_LIMIT counts the kernel states of one induced_mean_matrix
# column; the largest column at the deepest length the cell and language guards
# admit spends 575 (period_doubling ell 15), 22 527 (zeta 22), 975 (fibonacci 16),
# 100 (dyck 7), ell - 1 (deterministic_fibonacci): a net for other rules only
INDUCED_COLUMN_LIMIT = 10**7
# INDUCED_CELL_LIMIT counts the n * n cells of an induced matrix on n legal
# words, built only by `matrix` (which prints it) and `check`, before any column:
#   period_doubling ell 15: 5 686^2 = 32.3 M   ell 16: 9 816^2 = 96.4 M (refused)
#   dyck            ell 7:  5 568^2 = 31.0 M   (ell 8 trips the language guard)
INDUCED_CELL_LIMIT = 5 * 10**7
# SAMPLE_LETTER_LIMIT counts the letters of one sampled realisation, and of the
# longest word of an exact iterate law.  The deepest `sample --n` it admits and
# the first it refuses, before any round where the image lengths fix it:
#
#   period_doubling, zeta   26 (2^26 letters; 229 MB on period_doubling), 27:
#                           every realisation has 2^27 letters (15 MB)
#   fibonacci,              37, 38: |theta^n(a)| = F(n + 2) and F(40) =
#   deterministic_fibonacci 102 334 155 (15 MB)
#   non_expanding           never: the word stays one letter (--n 100000: 1.8 s)
#   dyck                    images of 1 or 3 letters are drawn at random, so it
#                           depends on the seed: any n <= 16 is admitted
#                           (3^16 < 10^8), and the mean (7/3)^n passes 10^8 at 22
SAMPLE_LETTER_LIMIT = 10**8

# LANGUAGE_STATE_LIMIT counts the states of the realisation kernel
# (`language._window_counts`), summed over the letters after the first of
# every word it inflates for one word length; a frequency vector spends it in
# one pass (the recursion's also yields the words) and any self part.  Counts:
#
#   period_doubling  ell 23:   332 190   ell 24:   889 767
#   zeta             ell 23:   388 930   ell 24: 1 040 130 (refused)
#   fibonacci        ell 19:   617 523   ell 20: 1 841 053 (refused)
#   dyck (closure)   ell 7:    425 182   ell 8:  2 598 934 (refused)
#
# 10**6 lies between every admitted and every refused count: zeta 24 by 4 %.
LANGUAGE_STATE_LIMIT = 10**6


class GuardExceeded(RuntimeError):
    """Raised when a computation would exceed its resource guard."""


def guard_limit(default: int) -> int:
    """Effective guard limit: the env var if set, else default."""
    env = os.environ.get(ENV_VAR)
    if env is None:
        return default
    if not (env.isascii() and env.isdigit()):
        raise ValueError(f"{ENV_VAR} must be a non-negative integer, got {env!r}")
    return int(env)


class Budget:
    """One resource guard.  Its limit is `limit` if given, else
    `guard_limit(default)`; `message`, the GuardExceeded text, gets the
    limit in its one `{}`.  `spend` adds to the running total `used`,
    `check` tests one peak count on its own."""

    def __init__(self, default: int, message: str, limit: int | None = None):
        self.limit = guard_limit(default) if limit is None else limit
        self.message = message.format(self.limit)
        self.used = 0

    def spend(self, count: int) -> None:
        self.used += count
        self.check(self.used)

    def check(self, count: int) -> None:
        if count > self.limit:
            raise GuardExceeded(self.message)
