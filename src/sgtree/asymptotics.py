"""Large-N predictions for factorial-power branching weights.

For w_n = ((n-1)!)^alpha with 0 < alpha < 1, almost all edges condense
onto the root's child s and the leftover degrees follow sharp laws.  The
count of degree-(i+1) vertices lives on the scale

    scale_i = i!^alpha * N^(1 - i*alpha),      1 <= i <= K = floor(1/alpha),

diverges for i < 1/alpha (Gaussian fluctuations around a center found by
maximizing a concave profile objective), and is Poisson with constant mean
K!^alpha in the boundary case where 1/alpha is an integer.  Expansions of
log Z_N are read off the weights' growth regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .weights import ALPHA_ABOVE_1, ALPHA_BELOW_1, LAMBDA_FAMILY, WeightSequence, factorial_alpha_weights

_BOX_HALF_WIDTH = 0.5  # centers must lie within this fraction of their scales
_INTEGER_TOL = 1e-9
_CENTER_TOL = 1e-10  # max |gradient| at a solved center
_MAX_NEWTON_STEPS = 100
_MAX_CUTOFF = 170  # the largest K whose K! (in the scale K!^alpha) a float holds
_SHOWN_COORDINATES = 4  # coordinates of m an overflow error prints


class BoundaryHitError(RuntimeError):
    """The center solve found no stationary point inside the search box:
    N too small."""


def reciprocal_is_integer(alpha: float) -> bool:
    """Whether 1/alpha is within _INTEGER_TOL of an integer; alpha must be a
    finite number > 0 whose reciprocal a float holds."""
    if not 0 < alpha < math.inf or 1.0 / alpha == math.inf:
        raise ValueError(f"alpha must be a finite number > 0 with a finite 1/alpha, got {alpha}")
    recip = 1.0 / alpha
    return abs(recip - round(recip)) < _INTEGER_TOL


def degree_cutoff(alpha: float) -> int:
    """K = floor(1/alpha): the largest observable small-degree index, at
    most _MAX_CUTOFF."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be a finite number > 0, got {alpha}")
    if 1.0 / alpha > _MAX_CUTOFF + 1 - _INTEGER_TOL:  # K > _MAX_CUTOFF, or 1/alpha = inf
        raise ValueError(f"alpha must exceed 1/{_MAX_CUTOFF + 1} (K = floor(1/alpha) <= {_MAX_CUTOFF}), got {alpha}")
    return round(1.0 / alpha) if reciprocal_is_integer(alpha) else math.floor(1.0 / alpha)


def gaussian_indices(alpha: float) -> list[int]:
    """Indices i with i < 1/alpha: the diverging, Gaussian coordinates."""
    k = degree_cutoff(alpha)
    return list(range(1, k)) if reciprocal_is_integer(alpha) else list(range(1, k + 1))


def degree_count_scale(alpha: float, n_edges: int, i: int) -> float:
    """scale_i = i!^alpha N^(1-i*alpha), the typical count of degree-(i+1)
    vertices."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if n_edges < 1:
        raise ValueError(f"n_edges must be >= 1, got {n_edges}")
    if not 1 <= i <= degree_cutoff(alpha):
        raise ValueError(f"i={i} outside 1..{degree_cutoff(alpha)}")
    return math.factorial(i) ** alpha * n_edges ** (1.0 - i * alpha)


def center_first_order(alpha: float, n_edges: int, i: int) -> float:
    """First-order corrected center scale_i * (1 - (1-i*alpha) N^-alpha)."""
    if i * alpha >= 1.0 - _INTEGER_TOL:
        raise ValueError(f"i={i} is not below 1/alpha")
    scale = degree_count_scale(alpha, n_edges, i)
    return scale * (1.0 - (1.0 - i * alpha) * n_edges ** (-alpha))


def profile(alpha: float, n_edges: int, m: Sequence[float]) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of the log-weight of a degree profile m
    (m[i-1] counts degree-(i+1) vertices), with A = sum m_i, B = sum i m_i
    and j = 2..floor(1/alpha) however many coordinates are passed:

      value   = sum_i [(1-alpha*i) m_i log N + alpha m_i log(i!) - m_i log m_i + m_i
                - log(2 pi m_i)/2] + sum_j (alpha B^j - A^j) / (j (j-1) N^(j-1)),
      grad_i  = (1-alpha*i) log N + alpha log(i!) - log m_i - 1/(2 m_i)
                + sum_j (alpha i B^(j-1) - A^(j-1)) / ((j-1) N^(j-1)),
      hess_ik = [i == k] (1/(2 m_i^2) - 1/m_i) + sum_j (alpha i k B^(j-2) - A^(j-2)) / N^(j-1).
    """
    m = np.asarray(m, dtype=float)
    if np.any(m <= 0):
        raise ValueError("all coordinates must be positive")
    j_max = degree_cutoff(alpha)
    n = float(n_edges)
    idx = np.arange(1, len(m) + 1)
    log_fact = np.array([math.lgamma(i + 1) for i in idx])
    log_m = np.log(m)
    value = float(
        np.sum(
            (1.0 - alpha * idx) * m * math.log(n)
            + alpha * m * log_fact
            - m * log_m
            + m
            - 0.5 * np.log(2.0 * math.pi * m)
        )
    )
    grad = (1.0 - alpha * idx) * math.log(n) + alpha * log_fact - log_m - 0.5 / m
    hess = np.diag(-1.0 / m + 0.5 / m**2)
    a, b = float(m.sum()), float((idx * m).sum())
    pair = alpha * np.outer(idx, idx)
    try:
        for j in range(2, j_max + 1):
            value += (alpha * b**j - a**j) / (j * (j - 1) * n ** (j - 1))
            grad += (alpha * idx * b ** (j - 1) - a ** (j - 1)) / ((j - 1) * n ** (j - 1))
            hess += (pair * b ** (j - 2) - a ** (j - 2)) / n ** (j - 1)
    except OverflowError:
        shown = ", ".join(map(repr, m[:_SHOWN_COORDINATES].tolist()))
        rest = f", ... {len(m) - _SHOWN_COORDINATES} more" if len(m) > _SHOWN_COORDINATES else ""
        raise ValueError(f"profile overflows a float at alpha={alpha}, N={n_edges}, m=[{shown}{rest}]") from None
    return value, grad, hess


def solve_centers(alpha: float, n_edges: int) -> np.ndarray:
    """Stationary point of the profile objective over the Gaussian
    coordinates i < 1/alpha, inside the box [scale_i / 2, 3 scale_i / 2].

    Damped Newton from m_i = scale_i, to a gradient below _CENTER_TOL in at
    most _MAX_NEWTON_STEPS steps.  A singular Hessian, a line search that
    cannot reduce the gradient, a solve that runs out of steps and a
    stationary point outside the box all mean that the box holds no
    reachable stationary point, and raise BoundaryHitError.  In the boundary
    case 1/alpha integral, the Poisson coordinate i = K is excluded (its
    stationary value would sit outside any thin box around the constant
    scale K!^alpha) but the correction sum keeps j_max = K.
    """
    indices = gaussian_indices(alpha)
    if not indices:
        raise ValueError(f"no diverging degree coordinates for alpha={alpha}")
    scales = np.array([degree_count_scale(alpha, n_edges, i) for i in indices])
    if scales.min() < 1.0:
        raise ValueError("n_edges too small: some scale_i below 1")
    lo, hi = (1.0 - _BOX_HALF_WIDTH) * scales, (1.0 + _BOX_HALF_WIDTH) * scales

    m = scales.copy()
    _, g, h = profile(alpha, n_edges, m)
    for _ in range(_MAX_NEWTON_STEPS):
        if np.abs(g).max() < _CENTER_TOL:
            break
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            raise BoundaryHitError("singular Hessian in the center solve; increase n_edges") from None
        t = 1.0
        for _ in range(40):
            trial = m + t * step
            if np.all(trial > 0):
                _, g_trial, h_trial = profile(alpha, n_edges, trial)
                if np.abs(g_trial).max() < np.abs(g).max():
                    m, g, h = trial, g_trial, h_trial
                    break
            t *= 0.5
        else:
            raise BoundaryHitError(
                f"damped Newton stalled at gradient norm {np.abs(g).max():.3e} "
                f"inside box [{lo.tolist()}, {hi.tolist()}]; increase n_edges"
            )
    if np.abs(g).max() >= _CENTER_TOL:
        raise BoundaryHitError(
            f"damped Newton at gradient norm {np.abs(g).max():.3e} "
            f"did not converge in {_MAX_NEWTON_STEPS} steps; increase n_edges"
        )
    if np.any(m <= lo) or np.any(m >= hi):
        raise BoundaryHitError(
            f"stationary point {m.tolist()} outside box [{lo.tolist()}, {hi.tolist()}]; increase n_edges"
        )
    return m


def predict_log_zn(ws: WeightSequence, n_edges: int) -> float:
    """Closed-form log Z_N expansion (error terms dropped) in the weights'
    growth regime; weights with none (uniform, custom) raise ValueError:

      lambda_factorial (alpha = 1 is lam = 1): lam + log((N-1)!)
      factorial_alpha, alpha < 1: alpha log((N-1)!) + N^(1-a) + (2^a - (1-a)/2) N^(1-2a)
      factorial_alpha, alpha > 1: alpha log((N-1)!)
    """
    lg, a = math.lgamma(n_edges), ws.alpha
    if ws.regime == LAMBDA_FAMILY:
        return float(ws.lam) + lg
    if ws.regime == ALPHA_BELOW_1:
        return a * lg + n_edges ** (1 - a) + (2**a - (1 - a) / 2) * n_edges ** (1 - 2 * a)
    if ws.regime == ALPHA_ABOVE_1:
        return a * lg
    raise ValueError(f"no log Z_N expansion for {ws.to_config()}")


@dataclass(frozen=True)
class DegreeLaw:
    """Predicted limit law for the count of vertices of one degree."""

    degree: int  # = i + 1
    kind: str  # "gaussian" or "poisson"
    center: float  # Gaussian center, or the Poisson mean
    scale: float  # Gaussian scale sqrt(scale_i); sqrt(mean) for Poisson

    def standardize(self, counts: np.ndarray) -> np.ndarray:
        return (np.asarray(counts, dtype=float) - self.center) / self.scale


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Bundle of per-degree laws and the log Z_N expansion at one (alpha, N).

    The standardized Gaussian coordinates and the Poisson coordinate are
    predicted jointly independent.  Centers are defined only up to the
    stated expansion orders, so downstream checks compare distributions,
    not the centers themselves.
    """

    alpha: float
    n_edges: int
    k_cutoff: int
    scales: tuple[float, ...]  # scale_i for i = 1..K
    centers: tuple[float, ...]  # solved centers for i < 1/alpha
    poisson_mean: Optional[float]  # K!^alpha when 1/alpha is an integer
    objective_max: float
    log_zn: float

    @property
    def laws(self) -> tuple[DegreeLaw, ...]:
        out = [
            DegreeLaw(i + 1, "gaussian", self.centers[j], math.sqrt(self.scales[i - 1]))
            for j, i in enumerate(gaussian_indices(self.alpha))
        ]
        if self.poisson_mean is not None:
            out.append(
                DegreeLaw(
                    self.k_cutoff + 1,
                    "poisson",
                    self.poisson_mean,
                    math.sqrt(self.poisson_mean),
                )
            )
        return tuple(out)


def predict(alpha: float, n_edges: int) -> AsymptoticPrediction:
    """Solve the centers and assemble every prediction at one (alpha, N)."""
    k = degree_cutoff(alpha)
    scales = tuple(degree_count_scale(alpha, n_edges, i) for i in range(1, k + 1))
    centers = solve_centers(alpha, n_edges)
    poisson_mean = scales[k - 1] if reciprocal_is_integer(alpha) else None
    return AsymptoticPrediction(
        alpha=alpha,
        n_edges=n_edges,
        k_cutoff=k,
        scales=scales,
        centers=tuple(float(c) for c in centers),
        poisson_mean=poisson_mean,
        objective_max=profile(alpha, n_edges, centers)[0],
        log_zn=predict_log_zn(factorial_alpha_weights(alpha), n_edges),
    )
