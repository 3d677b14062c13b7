"""Resource guards for operations whose cost can explode combinatorially.

All default limits can be overridden at once through the environment
variable STOCHSUB_GUARD_LIMIT.
"""

from __future__ import annotations

import os

ENV_VAR = "STOCHSUB_GUARD_LIMIT"

ITERATE_SUPPORT_LIMIT = 10**6   # words in the support of an iterate law
INDUCED_COLUMN_LIMIT = 10**7    # enumeration states per induced-matrix column
SAMPLE_LETTER_LIMIT = 10**8     # letters in a single sampled realisation
LANGUAGE_STATE_LIMIT = 10**6    # automaton states expanded for one word length


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
