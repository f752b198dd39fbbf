"""Branching-weight families and their log-domain evaluation.

A weight sequence assigns a nonnegative weight w_n to each vertex degree
n >= 1.  The families of interest here grow superexponentially: the
factorial powers w_n = ((n-1)!)^alpha and the variant with w_2 pinned to a
parameter lam while every other weight stays at (n-1)!; uniform weights are
the power alpha = 0.  Values are huge (w_n ~ n!^alpha), so the canonical
representation is log w_n; families with rational weights also expose an
exact Fraction view for cross-validation.
A weight of zero has the log LOG_ZERO = -inf, which IEEE addition keeps
absorbing in products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

LOG_ZERO = float("-inf")

UNIFORM = "uniform"
LAMBDA_FACTORIAL = "lambda_factorial"
FACTORIAL_ALPHA = "factorial_alpha"
CUSTOM = "custom"

_EXPONENTS = {UNIFORM: 0.0, LAMBDA_FACTORIAL: 1.0}  # factorial_alpha's exponent is its alpha


class WeightDecayError(ValueError):
    """Weight ratios never fall below the requested epsilon on the checked range."""


def _fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    """An exact weight from a number or a decimal/fraction string."""
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValueError(f"weight {value!r} has a zero denominator") from None


def _log_fraction(x: Fraction) -> float:
    if x == 0:
        return LOG_ZERO
    if x < 0:
        raise ValueError(f"negative weight: {x}")
    return math.log(x.numerator) - math.log(x.denominator)


@dataclass(frozen=True)
class WeightSequence:
    """Immutable branching-weight family.

    Every valid sequence has w_1 > 0 and w_n > 0 for at least one n >= 3;
    anything else cannot carry a tree measure at all sizes and is rejected
    at construction.
    """

    family: str
    alpha: Optional[float] = None
    lam: Optional[Fraction] = None
    table: Optional[tuple[Fraction, ...]] = field(default=None)

    def __post_init__(self) -> None:
        if self.family == UNIFORM:
            pass
        elif self.family == LAMBDA_FACTORIAL:
            if self.lam is None or self.lam <= 0:
                raise ValueError("lambda_factorial requires lam > 0")
        elif self.family == FACTORIAL_ALPHA:
            if self.alpha is None or not 0 < self.alpha < math.inf:
                raise ValueError(f"factorial_alpha requires a finite alpha > 0, got {self.alpha}")
        elif self.family == CUSTOM:
            if not self.table:
                raise ValueError("custom family requires a weight table")
            if any(w < 0 for w in self.table):
                raise ValueError("weights must be nonnegative")
            if self.table[0] == 0:
                raise ValueError("w_1 must be positive")
            if not any(w > 0 for w in self.table[2:]):
                raise ValueError("need w_n > 0 for some n > 2")
        else:
            raise ValueError(f"unknown weight family: {self.family}")

    # -- evaluation ---------------------------------------------------------

    def log_weights_upto(self, d_max: int) -> np.ndarray:
        """Array lw with lw[d] = log w_{d+1} for d = 0..d_max: the exponent
        times log(d!), with w_2 pinned to lam for lambda_factorial; a custom
        table is read as given and is zero past its end.

        log(d!) is the running sum of math.log(k), k = 1..d, added in order
        by np.cumsum: not lgamma and not np.log, so a shorter call is a bit
        for bit prefix of a longer one.  Nothing is kept between calls.
        """
        if d_max < 0:
            raise ValueError(f"d_max must be >= 0, got {d_max}")
        if self.family == CUSTOM:
            known = [_log_fraction(w) for w in self.table[: d_max + 1]]
            return np.array(known + [LOG_ZERO] * (d_max + 1 - len(known)))
        log_fact = np.zeros(d_max + 1)
        np.cumsum(np.fromiter(map(math.log, range(1, d_max + 1)), float, d_max), out=log_fact[1:])
        lw = self._exponent * log_fact
        if d_max >= 1 and self.family == LAMBDA_FACTORIAL:
            lw[1] = _log_fraction(self.lam)
        return lw

    @property
    def _exponent(self) -> float:
        """a in w_n = ((n-1)!)^a, w_2 aside for lambda_factorial."""
        return _EXPONENTS.get(self.family, self.alpha)

    @property
    def is_exact(self) -> bool:
        """True when every weight is rational and exposable as a Fraction."""
        return self.family == CUSTOM or float(self._exponent).is_integer()

    def exact_weight(self, n: int) -> Fraction:
        """w_n as an exact Fraction; rational weight families only."""
        if n < 1:
            raise ValueError(f"degree must be >= 1, got {n}")
        if not self.is_exact:
            raise ValueError(f"exact weights need a rational weight family, not {self.to_config()}")
        if self.family == CUSTOM:
            return self.table[n - 1] if n <= len(self.table) else Fraction(0)
        if n == 2 and self.family == LAMBDA_FACTORIAL:
            return self.lam
        return Fraction(math.factorial(n - 1)) ** int(self._exponent)

    def shift_index(self, eps: float, d_max: int) -> tuple[int, float]:
        """(A_eps, log C_eps): least A with w_i/w_{i+1} < eps for every
        i = A..d_max, and the log of C_eps = sum_{i<=A} w_{i+1}; a
        WeightDecayError when no such A <= d_max exists."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        log_w = self.log_weights_upto(d_max)  # log_w[d] = log w_{d+1}
        with np.errstate(invalid="ignore"):  # -inf - -inf where weights vanish
            (big,) = np.nonzero(log_w[:-1] - log_w[1:] >= math.log(eps))
        a_eps = int(big[-1]) + 2 if big.size else 1  # one past the last failing i = big[-1] + 1
        if a_eps > d_max:
            raise WeightDecayError(f"no index below {d_max} with all later ratios w_i/w_(i+1) < {eps}")
        return a_eps, float(np.logaddexp.reduce(log_w[: a_eps + 1]))

    # -- configuration round trip ------------------------------------------

    def to_config(self) -> dict:
        if self.family == UNIFORM:
            return {"family": UNIFORM}
        if self.family == LAMBDA_FACTORIAL:
            return {"family": LAMBDA_FACTORIAL, "lam": str(self.lam)}
        if self.family == FACTORIAL_ALPHA:
            return {"family": FACTORIAL_ALPHA, "alpha": self.alpha}
        return {"family": CUSTOM, "weights": [str(w) for w in self.table]}

    @staticmethod
    def from_config(config: dict) -> "WeightSequence":
        """Inverse of to_config; a malformed config raises ValueError."""
        if not isinstance(config, dict):
            raise ValueError(f"weight config must be an object, got {config!r}")
        family = config.get("family")
        if family == UNIFORM:
            return uniform_weights()
        key = {LAMBDA_FACTORIAL: "lam", FACTORIAL_ALPHA: "alpha", CUSTOM: "weights"}.get(family)
        if key is None:
            raise ValueError(f"unknown weight family in config: {family!r}")
        value = config.get(key)
        if family == CUSTOM:
            if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
                raise ValueError(f"custom weights need a list `weights` of numbers, got {value!r}")
            return custom_weights(value)
        if not _is_number(value):
            raise ValueError(f"{family} weights need a number `{key}`, got {value!r}")
        if family == LAMBDA_FACTORIAL:
            return lambda_factorial_weights(value)
        return factorial_alpha_weights(value)


def _is_number(value) -> bool:
    """A number or a decimal string; a bool is neither, though Python counts it an int."""
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


def uniform_weights() -> WeightSequence:
    """w_n = 1 for every n (not superexponential; useful as a test bed)."""
    return WeightSequence(UNIFORM)


def lambda_factorial_weights(lam: Union[int, float, str, Fraction]) -> WeightSequence:
    """w_2 = lam and w_n = (n-1)! for every n != 2."""
    return WeightSequence(LAMBDA_FACTORIAL, lam=_fraction(lam))


def factorial_alpha_weights(alpha: float) -> WeightSequence:
    """w_n = ((n-1)!)^alpha with alpha > 0."""
    return WeightSequence(FACTORIAL_ALPHA, alpha=float(alpha))


def custom_weights(weights: Sequence[Union[int, str, Fraction]]) -> WeightSequence:
    """Finitely supported table: w_n = weights[n-1], zero beyond the end.

    Entries are parsed as exact decimals/fractions ("0.5", "1/3", 2, ...).
    """
    table = tuple(map(_fraction, weights))
    return WeightSequence(CUSTOM, table=table)
