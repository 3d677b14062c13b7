"""Resource guards for operations whose cost can explode combinatorially.

All default limits can be overridden at once through the environment
variable STOCHSUB_GUARD_LIMIT.
"""

from __future__ import annotations

import os

ENV_VAR = "STOCHSUB_GUARD_LIMIT"

# ITERATE_SUPPORT_LIMIT counts the words of an iterate law's support, not their
# letters, and trips exactly when the support exceeds it; the words are held as
# bytes, so on fibonacci theta^7(a) it trips after about 1 s at a peak RSS of
# about 175 MB (Python 3.11)
ITERATE_SUPPORT_LIMIT = 10**6
INDUCED_COLUMN_LIMIT = 10**7    # kernel states per column of induced_mean_matrix
# INDUCED_CELL_LIMIT counts the n * n cells of an induced matrix on n legal
# words, the size of the table `stochsub matrix` prints and of the PF float form:
#   period_doubling ell 15: 5 686^2 = 32.3 M   ell 16: 9 816^2 = 96.4 M (refused)
#   dyck            ell 7:  5 568^2 = 31.0 M   (ell 8 trips the language guard)
INDUCED_CELL_LIMIT = 5 * 10**7
SAMPLE_LETTER_LIMIT = 10**8     # letters in a single sampled realisation

# LANGUAGE_STATE_LIMIT counts the states of the realisation kernel
# (`language._column_weights`), summed over the letters of every word it
# inflates for one word length; the frequency recursion spends it in the one
# pass that yields both words and vector.  Measured counts on the bundled configs:
#
#   period_doubling  ell 23:   507 607   ell 24: 1 369 124
#   zeta             ell 23:   778 050   ell 24: 2 080 514 (refused)
#   fibonacci        ell 19: 1 568 443   ell 20: 4 681 187 (refused)
#   dyck (closure)   ell 7:  1 281 752   ell 8:  7 816 592 (refused)
#
# 2 * 10**6 is the smallest round limit that admits the first column.
LANGUAGE_STATE_LIMIT = 2 * 10**6


class GuardExceeded(RuntimeError):
    """Raised when a computation would exceed its resource guard."""


def guard_limit(default: int, override: int | None = None) -> int:
    """Effective guard limit: explicit override, else env var, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(ENV_VAR)
    if env is not None:
        return int(env)
    return default
