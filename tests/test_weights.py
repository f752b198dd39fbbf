import math
from fractions import Fraction

import numpy as np
import pytest

from sgtree import (
    WeightSequence,
    custom_weights,
    factorial_alpha_weights,
    lambda_factorial_weights,
    uniform_weights,
)
from sgtree.weights import LOG_ZERO


def test_multiplication_is_addition_with_absorbing_zero():
    # products of underlying quantities: -inf + finite = -inf under IEEE
    assert LOG_ZERO + 3.0 == LOG_ZERO
    assert LOG_ZERO + LOG_ZERO == LOG_ZERO


def test_log_factorial_cumulative():
    """lam=1 weights are log(d!) for every d: the in-order running sum of
    log k bit for bit, and within 1e-9 of the exact big-integer logs."""
    running = [0.0]
    for k in range(1, 20_001):
        running.append(running[-1] + math.log(k))
    ws = lambda_factorial_weights(1)
    log_w = ws.log_weights_upto(20_000)
    assert log_w[0] == 0.0 and log_w[1] == 0.0
    assert log_w.tobytes() == np.array(running).tobytes()
    for d in (0, 1, 2, 5, 999):
        assert ws.log_weights_upto(d).tobytes() == log_w[: d + 1].tobytes()
    for n in (5, 50, 500):
        assert abs(log_w[n] - math.log(math.factorial(n))) < 1e-9


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        lambda_factorial_weights(1).log_weights_upto(-1)


def test_log_weight_examples():
    """log_weights_upto(d_max)[d] = log w_{d+1}."""
    assert factorial_alpha_weights(0.5).log_weights_upto(0)[0] == 0.0  # 0!^0.5 = 1
    assert lambda_factorial_weights(2).log_weights_upto(1)[1] == pytest.approx(math.log(2), rel=1e-15)
    assert factorial_alpha_weights(0.5).log_weights_upto(3)[3] == pytest.approx(0.5 * math.log(6), rel=1e-14)


def test_negative_d_max_rejected():
    """One error naming d_max, for every family."""
    families = (
        uniform_weights(),
        lambda_factorial_weights(2),
        factorial_alpha_weights(0.5),
        custom_weights(["1", "0", "1"]),
    )
    for ws in families:
        with pytest.raises(ValueError, match=r"d_max must be >= 0, got -1"):
            ws.log_weights_upto(-1)


def test_exact_weight_needs_rational_weights():
    with pytest.raises(ValueError, match="rational weight family.*factorial_alpha.*0.5"):
        factorial_alpha_weights(0.5).exact_weight(3)


def test_degree_zero_rejected():
    for ws in (uniform_weights(), factorial_alpha_weights(1.5), custom_weights(["1", "0", "1"])):
        with pytest.raises(ValueError, match="degree"):
            ws.exact_weight(0)


def test_log_weight_deterministic():
    """The same bits on every call, whatever d_max: a longer array extends a shorter one."""
    ws = factorial_alpha_weights(0.37)
    full = ws.log_weights_upto(198).tolist()
    assert full == ws.log_weights_upto(198).tolist()
    assert all(ws.log_weights_upto(d).tolist() == full[: d + 1] for d in range(199))


def test_lambda_family_matches_factorial_at_lam_one():
    # alpha = 1 factorial powers coincide with the pinned family at lam = 1
    fa = factorial_alpha_weights(1.0)
    lf = lambda_factorial_weights(1)
    assert fa.log_weights_upto(58).tolist() == lf.log_weights_upto(58).tolist()
    for n in range(1, 60):
        assert fa.exact_weight(n) == lf.exact_weight(n)


def test_exact_view_matches_log_view():
    """exp(log w_n) vs the exact rational w_n.

    Values above ~170! overflow floats, so large degrees are compared in
    the log domain; there the inherent float64 spacing of log w_n itself is
    ~1e-11 absolute at n = 10^4, and the cumulative sum stays well inside
    1e-12 relative to the magnitude of the log.
    """
    for ws in (uniform_weights(), lambda_factorial_weights("2.5"), factorial_alpha_weights(2.0)):
        log_w = ws.log_weights_upto(10_000 - 1)
        for n in list(range(1, 120)) + [500, 2000, 10_000]:
            exact = ws.exact_weight(n)
            got = float(log_w[n - 1])
            if exact == 0:
                assert got == LOG_ZERO
                continue
            log_exact = math.log(exact.numerator) - math.log(exact.denominator)
            if abs(log_exact) < 500:
                assert math.exp(got) == pytest.approx(float(exact), rel=1e-12)
            assert got == pytest.approx(log_exact, rel=1e-12, abs=1e-12)


def test_custom_weights_validity():
    ws = custom_weights(["1", "0.5", "2"])
    assert ws.exact_weight(2) == Fraction(1, 2)
    assert ws.exact_weight(9) == 0
    assert ws.log_weights_upto(8)[8] == LOG_ZERO
    with pytest.raises(ValueError):
        custom_weights(["0", "1", "1"])  # w_1 = 0
    with pytest.raises(ValueError):
        custom_weights(["1", "5"])  # no support above degree 2
    with pytest.raises(ValueError):
        custom_weights(["1", "-1", "1"])


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        lambda_factorial_weights(0)
    with pytest.raises(ValueError):
        factorial_alpha_weights(-0.5)


def test_config_round_trip():
    for ws in (
        uniform_weights(),
        lambda_factorial_weights("2"),
        factorial_alpha_weights(0.4),
        custom_weights(["1", "2", "0.25"]),
    ):
        again = WeightSequence.from_config(ws.to_config())
        assert again == ws


@pytest.mark.parametrize(
    "config, names",
    [
        ([1, 2], "object"),
        ({"family": "factorial_alpha"}, "`alpha`"),
        ({"family": "factorial_alpha", "alpha": None}, "`alpha`"),
        ({"family": "factorial_alpha", "alpha": "nan"}, "alpha"),
        ({"family": "factorial_alpha", "alpha": float("inf")}, "alpha"),
        ({"family": "lambda_factorial"}, "`lam`"),
        ({"family": "custom"}, "`weights`"),
        ({"family": "custom", "weights": "111"}, "`weights`"),
        ({"family": "factorial_alpha", "alpha": True}, "`alpha`"),
        ({"family": "lambda_factorial", "lam": True}, "`lam`"),
        ({"family": "custom", "weights": ["1", True, "1"]}, "`weights`"),
    ],
    ids=[
        "not_an_object", "no_alpha", "alpha_null", "alpha_nan", "alpha_inf", "no_lam", "no_weights", "weights_string",
        "alpha_bool", "lam_bool", "weight_entry_bool",
    ],
)
def test_from_config_rejects_malformed(config, names):
    """Spec and CLI weights arrive here; each malformed config is a
    ValueError that names what is wrong."""
    with pytest.raises(ValueError, match=names):
        WeightSequence.from_config(config)
