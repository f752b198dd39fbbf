"""Log-domain arithmetic for nonnegative quantities.

A nonnegative number x is represented by the float log(x), with -inf
standing for an exact zero.  Products become sums (where -inf absorbs, as
IEEE addition already guarantees for finite partners) and sums become
max-shifted log-sum-exp, which never produces a NaN as long as no operand
is +inf.
"""

from __future__ import annotations

import math

LOG_ZERO = float("-inf")


_LOG_FACTORIALS = [0.0]


def log_factorial(n: int) -> float:
    """log(n!) by cumulative summation of log(k).

    Deliberately not a lgamma call: the running sum is extended one term at
    a time and cached, so every caller sees bit-identical values within and
    across runs.
    """
    if n < 0:
        raise ValueError(f"negative factorial argument: {n}")
    while len(_LOG_FACTORIALS) <= n:
        _LOG_FACTORIALS.append(_LOG_FACTORIALS[-1] + math.log(len(_LOG_FACTORIALS)))
    return _LOG_FACTORIALS[n]
