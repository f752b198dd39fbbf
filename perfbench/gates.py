"""Independent references and correctness gates for the benchmark.

Nothing here calls into sgtree: every reference is rebuilt from the weight
family's definition with a different algorithm or a different arithmetic
than the library uses, so a gate only passes when two independent
computations agree.

- exact Python-integer tables (uniform closed form, pinned-w_2 family);
- mpmath tables at 40 digits (irrational factorial powers);
- a float64 table built in the linear domain, scaled by the weights
  (v_N[n] = Z(N, n) / w_{n+1}, one mat-vec per row), where the library
  works with per-entry log-sum-exp shifts;
- the size-bias identity sum_l l w_{l+1} Z(N-1, n-l) = (n/N) Z(N, n),
  evaluated for every entry as one matrix product.

A `Gates` object counts every gate it evaluates and records each failure,
so the caller can report `attempted`, `failed` and the reasons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TABLE_REL_TOL = 1e-9  # log-domain difference allowed against a reference
IDENTITY_TOL = 1e-9  # relative size-bias residual, the harness default
PMF_REL_TOL = 1e-8
Z_SCORE_LIMIT = 4.5  # sampled mean vs exact mean, in standard errors
CHI2_MIN_P = 1e-6  # false-alarm rate of one chi-square gate under an exact sampler
MP_DIGITS = 40


@dataclass
class Gates:
    """Counts gates and keeps a line for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- weights, computed from their definitions -----------------------------------


def family_label(config: dict) -> str:
    fam = config["family"]
    if fam == "uniform":
        return "uniform"
    if fam == "lambda_factorial":
        return f"lam{config['lam']}"
    if fam == "factorial_alpha":
        return f"alpha{config['alpha']}"
    raise ValueError(f"no reference for weight family {fam!r}")


def ref_log_weights(config: dict, n_max: int) -> np.ndarray:
    """lw[d] = log w_{d+1}, d = 0..n_max, by lgamma (the library sums logs)."""
    d = np.arange(n_max + 1)
    fam = config["family"]
    if fam == "uniform":
        return np.zeros(n_max + 1)
    if fam == "factorial_alpha":
        return float(config["alpha"]) * np.array([math.lgamma(k + 1.0) for k in d])
    if fam == "lambda_factorial":
        lw = np.array([math.lgamma(k + 1.0) for k in d])
        if n_max >= 1:
            lw[1] = math.log(float(config["lam"]))
        return lw
    raise ValueError(f"no reference for weight family {fam!r}")


def exact_int_weights(config: dict, n: int) -> list[int]:
    """w_{d+1} for d = 0..n as Python ints (integer families only)."""
    fam = config["family"]
    if fam == "uniform":
        return [1] * (n + 1)
    if fam == "lambda_factorial" and float(config["lam"]).is_integer():
        w = [math.factorial(d) for d in range(n + 1)]
        if n >= 1:
            w[1] = int(float(config["lam"]))
        return w
    raise ValueError(f"no integer weights for {config!r}")


# -- reference tables ---------------------------------------------------------------


def uniform_log_table(n_max: int) -> np.ndarray:
    """log C(n+N-1, N-1) for N >= 1 from exact Pascal integers; row 0 is Z(0, n)."""
    w = n_max + 1
    out = np.full((w, w), -np.inf)
    out[0, 0] = 0.0
    row = [1] * w  # N = 1: C(n, 0) = 1
    for n_vertices in range(1, w):
        if n_vertices > 1:
            acc = 0
            for n in range(w):  # Z(N, n) = Z(N-1, n) + Z(N, n-1)
                acc += row[n]
                row[n] = acc
        out[n_vertices] = [math.log(v) for v in row]
    return out


def exact_int_corner(config: dict, n: int) -> list[list[int]]:
    """Exact Z(N, m) for N, m <= n by the integer convolution DP."""
    ew = exact_int_weights(config, n)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for r in range(1, n + 1):
        prev = table[r - 1]
        table[r] = [sum(ew[d] * prev[m - d] for d in range(m + 1)) for m in range(n + 1)]
    return table


def mpmath_corner_logs(config: dict, n: int) -> np.ndarray:
    """log Z(N, m) for N, m <= n by an mpmath DP at MP_DIGITS digits."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = MP_DIGITS
    fam = config["family"]
    if fam == "factorial_alpha":
        alpha = ctx.mpf(config["alpha"])
        ew = [ctx.factorial(d) ** alpha for d in range(n + 1)]
    elif fam == "lambda_factorial":
        ew = [ctx.factorial(d) for d in range(n + 1)]
        ew[1] = ctx.mpf(config["lam"])
    else:
        ew = [ctx.mpf(1)] * (n + 1)
    prev = [ctx.mpf(1)] + [ctx.mpf(0)] * n
    out = np.full((n + 1, n + 1), -np.inf)
    out[0, 0] = 0.0
    for r in range(1, n + 1):
        prev = [ctx.fdot(ew[: m + 1], prev[m::-1]) for m in range(n + 1)]
        out[r] = [float(ctx.log(v)) for v in prev]
    return out


def scaled_linear_log_table(lw: np.ndarray) -> np.ndarray:
    """Float64 reference table built in the linear domain.

    With v_N[n] = Z(N, n)/w_{n+1}, v_N = M v_{N-1} for the lower-triangular
    M[n, m] = w_{n-m+1} w_{m+1} / w_{n+1}; each row is rescaled by its max
    and the scale is carried in the log.  Suitable for families whose
    scaled rows span well under float64's range (factorial powers and
    the pinned-w_2 family at these sizes); uniform weights use the closed
    form instead.
    """
    w = lw.shape[0]
    m = _scaled_kernel(lw)
    out = np.full((w, w), -np.inf)
    out[0, 0] = 0.0
    v = np.zeros(w)
    v[0] = math.exp(-lw[0])
    log_scale = 0.0
    with np.errstate(divide="ignore"):
        for r in range(1, w):
            v = m @ v
            top = v.max()
            v /= top
            log_scale += math.log(top)
            out[r] = np.log(v) + lw + log_scale
    return out


def _scaled_kernel(lw: np.ndarray, size_biased: bool = False) -> np.ndarray:
    """M[n, m] = w_{n-m+1} w_{m+1} / w_{n+1} (times (n-m) when size-biased)."""
    w = lw.shape[0]
    n = np.arange(w)[:, None]
    mm = np.arange(w)[None, :]
    lower = mm <= n
    d = np.where(lower, n - mm, 0)
    log_k = np.where(lower, lw[d] + lw[mm] - lw[n], -np.inf)
    if size_biased:
        with np.errstate(divide="ignore"):
            log_k = log_k + np.log(d.astype(float))
    return np.exp(log_k)


# -- table gates ----------------------------------------------------------------------


def max_log_diff(table: np.ndarray, ref: np.ndarray) -> float:
    """Largest |log Z - log Z_ref| over the reference's entries; inf when the
    two disagree on which entries are zero."""
    t = table[: ref.shape[0], : ref.shape[1]]
    zero_t, zero_r = np.isneginf(t), np.isneginf(ref)
    if not np.array_equal(zero_t, zero_r):
        return math.inf
    finite = ~zero_r
    if not finite.any():
        return 0.0
    return float(np.abs(t[finite] - ref[finite]).max())


def size_bias_residuals(table: np.ndarray, lw: np.ndarray) -> float:
    """Worst relative residual of the size-bias identity over every entry
    with N >= 1 and n >= 1, plus the boundary row and column.

    The left side of row N is K u_{N-1}, with u the weight-scaled row N-1
    (rescaled by its max) and K the size-biased scaled kernel: one matrix
    product for the whole table.  Entries whose scaled sum is too small to
    trust (below 1e-250, where underflowed terms could matter) are redone
    by a log-sum-exp over their terms.
    """
    w = table.shape[0]
    lw = lw[:w]
    if table[0, 0] != 0.0 or not np.isneginf(table[0, 1:]).all():
        return math.inf
    col0 = np.arange(w) * lw[0]
    if not np.allclose(table[:, 0], col0, rtol=1e-12, atol=1e-12):
        return math.inf
    if w < 2:
        return 0.0
    prev = table[:-1] - lw[None, :]  # rows N-1 = 0..n_max-1, scaled by weights
    row_max = prev.max(axis=1)
    u = np.exp(prev - row_max[:, None])
    lhs_lin = u @ _scaled_kernel(lw, size_biased=True).T  # [N-1, n]
    n_idx = np.arange(1, w)
    rows = np.arange(1, w)
    with np.errstate(divide="ignore"):
        lhs = np.log(lhs_lin[:, 1:]) + lw[None, 1:] + row_max[:, None]
    rhs = np.log(n_idx)[None, :] - np.log(rows)[:, None] + table[1:, 1:]
    redo = ~(lhs_lin[:, 1:] > 1e-250)
    with np.errstate(divide="ignore"):
        log_l = np.log(np.arange(w, dtype=float))
    for r_i, n_i in zip(*np.nonzero(redo)):
        n = n_i + 1
        el = np.arange(1, n + 1)
        terms = log_l[el] + lw[el] + table[r_i, n - el]
        top = terms.max()
        lhs[r_i, n_i] = top + math.log(np.exp(terms - top).sum()) if top > -np.inf else -np.inf
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        return math.inf
    return float(np.abs(np.expm1(lhs - rhs)).max())


def check_table(
    gates: Gates, label: str, config: dict, table: np.ndarray, corner: int
) -> tuple[float, float]:
    """The ztable gates for one family; returns (reference error, identity residual).

    uniform: closed form over the whole table.  Integer pinned-w_2: exact
    integers on the corner.  Factorial powers: mpmath on the corner.  Every
    table: the size-bias identity over every entry.
    """
    n_max = table.shape[0] - 1
    lw = ref_log_weights(config, n_max)
    fam = config["family"]
    if fam == "uniform":
        err = max_log_diff(table, uniform_log_table(n_max))
        what = "closed form C(n+N-1, N-1)"
    elif fam == "lambda_factorial" and float(config["lam"]).is_integer():
        c = min(corner, n_max)
        exact = exact_int_corner(config, c)
        ref = np.array([[math.log(v) if v else -math.inf for v in row] for row in exact])
        err = max_log_diff(table, ref)
        what = f"exact integers on the {c} corner"
    else:
        c = min(corner, n_max)
        err = max_log_diff(table, mpmath_corner_logs(config, c))
        what = f"mpmath on the {c} corner"
    gates.check(err <= TABLE_REL_TOL, f"{label}: max log error {err:.3g} vs {what}")
    resid = size_bias_residuals(table, lw)
    gates.check(resid <= IDENTITY_TOL, f"{label}: size-bias residual {resid:.3g}")
    return err, resid


# -- laws derived from a reference table ------------------------------------------


def root_degree_pmf(ref: np.ndarray, lw: np.ndarray, n: int) -> np.ndarray:
    """p[k] = P(sigma(s) = k+1), k = 1..n-1, by the pendant-forest formula."""
    ks = np.arange(1, n)
    t = (
        math.log(n) - math.log(n - 1) + np.log(ks) + lw[1:n]
        + ref[n - 1, n - 1 - ks] - ref[n, n - 1]
    )
    p = np.zeros(n)
    p[1:] = np.exp(t)
    return p


def outdegree_count_moments(ref: np.ndarray, lw: np.ndarray, n: int, k: int) -> tuple[float, float]:
    """Mean and variance of #{vertices with outdegree k} in an n-edge tree.

    Rotation permutes the composition, so these are the counts of slots
    equal to k in an exchangeable weighted composition of n-1 into n parts.
    """
    log_zn = ref[n, n - 1]
    mean = n * math.exp(lw[k] + ref[n - 1, n - 1 - k] - log_zn) if n - 1 - k >= 0 else 0.0
    rest = n - 1 - 2 * k
    pair = (
        n * (n - 1) * math.exp(2 * lw[k] + ref[n - 2, rest] - log_zn)
        if rest >= 0 and n >= 2
        else 0.0
    )
    return mean, pair + mean - mean * mean


def pmf_moments(p: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    mean = float((p * values).sum())
    return mean, float((p * (values - mean) ** 2).sum())


def mean_within_se(gates: Gates, what: str, sample_mean: float, mean: float, var: float, count: int) -> float:
    """Gate |sample mean - exact mean| <= Z_SCORE_LIMIT standard errors."""
    se = math.sqrt(max(var, 0.0) / count)
    z = abs(sample_mean - mean) / se if se > 0 else (0.0 if sample_mean == mean else math.inf)
    gates.check(z <= Z_SCORE_LIMIT, f"{what}: sample mean {sample_mean:.6g} vs exact {mean:.6g} ({z:.2f} SE)")
    return z


def chi_square_gate(gates: Gates, what: str, counts: np.ndarray, p: np.ndarray) -> float:
    """Chi-square of observed category counts against probabilities p.

    Categories with expected count >= 5 stand alone; the rest are pooled
    into one category, which joins the smallest standalone one when its
    own expectation is below 5.
    """
    expected = p * counts.sum()
    big = expected >= 5.0
    obs = [float(v) for v in counts[big]]
    exp = [float(v) for v in expected[big]]
    rest_o, rest_e = float(counts[~big].sum()), float(expected[~big].sum())
    if rest_e >= 5.0 or not obs:
        obs.append(rest_o)
        exp.append(rest_e)
    else:
        j = int(np.argmin(exp))
        obs[j] += rest_o
        exp[j] += rest_e
    if len(obs) < 2:
        return 1.0 if gates.check(obs[0] == counts.sum(), what) else 0.0
    from scipy import stats as sps  # loaded here so it stays out of the timed RSS

    obs_a, exp_a = np.array(obs), np.array(exp)
    stat = float(((obs_a - exp_a) ** 2 / exp_a).sum())
    pval = float(sps.chi2.sf(stat, len(obs) - 1))
    gates.check(pval >= CHI2_MIN_P, f"{what}: chi-square p = {pval:.3g} over {len(obs)} bins")
    return pval


def lukasiewicz_ok(word: list[int], n: int) -> bool:
    """Valid depth-first outdegree word of a tree with n edges."""
    a = np.asarray(word, dtype=np.int64)
    if a.shape != (n,) or a.min() < 0:
        return False
    ps = np.cumsum(a - 1)
    return ps[-1] == -1 and bool((ps[:-1] >= 0).all())
