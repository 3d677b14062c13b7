"""Resource guards for operations whose cost can explode combinatorially.

All default limits can be overridden at once through the environment
variable STOCHSUB_GUARD_LIMIT, a non-negative integer in ASCII digits; for
any other value ("-5", "1e6", "") `guard_limit` raises a ValueError naming it.
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
# words, the size of the table `stochsub matrix` prints and of `to_float`:
#   period_doubling ell 15: 5 686^2 = 32.3 M   ell 16: 9 816^2 = 96.4 M (refused)
#   dyck            ell 7:  5 568^2 = 31.0 M   (ell 8 trips the language guard)
INDUCED_CELL_LIMIT = 5 * 10**7
SAMPLE_LETTER_LIMIT = 10**8     # letters in a single sampled realisation

# LANGUAGE_STATE_LIMIT counts the states of the realisation kernel
# (`language._window_counts`), summed over the letters after the first of
# every word it inflates for one word length; the frequency recursion spends
# it in the one pass that yields both words and vector.  Measured counts:
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


def guard_limit(default: int, override: int | None = None) -> int:
    """Effective guard limit: explicit override, else env var, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(ENV_VAR)
    if env is None:
        return default
    if not (env.isascii() and env.isdigit()):
        raise ValueError(f"{ENV_VAR} must be a non-negative integer, got {env!r}")
    return int(env)
