import math

import pytest

from sgtree.logdomain import LOG_ZERO, log_factorial


def test_multiplication_is_addition_with_absorbing_zero():
    # products of underlying quantities: -inf + finite = -inf under IEEE
    assert LOG_ZERO + 3.0 == LOG_ZERO
    assert LOG_ZERO + LOG_ZERO == LOG_ZERO


def test_log_factorial_cumulative():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    # against exact big-integer logs, loose enough for the running sum
    for n in (5, 50, 500):
        assert abs(log_factorial(n) - math.log(math.factorial(n))) < 1e-9
    # deterministic across repeated calls
    assert log_factorial(300) == log_factorial(300)


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)
