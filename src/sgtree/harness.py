"""Experiment runner: ties table, sampler and predictions together.

Each experiment builds the Z-table it needs (or, if it reads only a few
rows, computes those by the row recurrence), draws seeded samples, compares
empirical statistics against the closed-form or variational predictions,
and emits a self-contained report: the echoed spec plus the RNG identifier
is enough to reproduce every number bit for bit.  Verdicts are pure
functions of the recorded statistics and the spec tolerances.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, TextIO

import numpy as np

from . import asymptotics
from .partition import ZTable, build_ztable, log_z_n, worst_exact_sum_residual
from .sampler import RNG_ALGORITHM, SAMPLER_ALGORITHM, RandomSource, sample_composition
from .trees import PlaneTree, branch_sizes, degree_profile, left_ball, rotate_word, star_left_ball
from .weights import ALPHA_ABOVE_1, ALPHA_BELOW_1, LAMBDA_FAMILY, WeightSequence

STAR_CONVERGENCE = "star_convergence"
POISSON_SURPLUS = "poisson_surplus"
DEGREE_BOUNDS = "degree_bounds"
GAUSSIAN_FLUCTUATIONS = "gaussian_fluctuations"
LOGZ_EXPANSION = "logz_expansion"
STAR_DOMINANCE = "star_dominance"
IDENTITIES = "identities"


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment run."""

    experiment: str
    weights: dict
    n_list: tuple[int, ...]
    samples: int = 1000
    seed: int = 0
    stream: int = 0
    radius: int = 3  # star_convergence only
    eps_list: tuple[float, ...] = (0.1, 0.5)  # identities only
    exact_upto: int = 0  # identities only
    allow_large: bool = False
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in _KINDS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choose from {tuple(_KINDS)}")
        kind = _KINDS[self.experiment]
        for name in ("samples", "seed", "stream", "radius", "exact_upto"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name, ok, what in (("n_list", _is_int, "integers"), ("eps_list", _is_real, "numbers")):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not all(map(ok, values)):
                raise ValueError(f"{name} must be a list of {what}, got {values!r}")
        if not isinstance(self.allow_large, bool):
            raise ValueError(f"allow_large must be true or false, got {self.allow_large!r}")
        if not isinstance(self.tolerances, dict) or not all(_is_real(v) and v > 0 for v in self.tolerances.values()):
            raise ValueError(f"tolerances must map names to positive numbers, got {self.tolerances!r}")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))
        if not self.n_list or min(self.n_list) < 1:
            raise ValueError("n_list must contain positive sizes")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if not all(eps > 0 for eps in self.eps_list):
            raise ValueError("every eps in eps_list must be positive")
        if len(self.n_list) > 1 and not kind.multi_size:
            raise ValueError(f"{self.experiment} runs at one size; got n_list {list(self.n_list)}")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError(f"n_list must be strictly increasing; got {list(self.n_list)}")
        if self.experiment == IDENTITIES and not self.eps_list:
            raise ValueError("identities needs a non-empty eps_list")
        unknown = sorted(set(self.tolerances) - set(kind.tolerances))
        if unknown:
            known = sorted(kind.tolerances)
            raise ValueError(f"unknown tolerances {unknown} for {self.experiment}; choose from {known}")
        if self.exact_upto < 0:
            raise ValueError("exact_upto must be >= 0")
        if self.allow_large and not kind.reads_table:
            raise ValueError(f"{self.experiment} builds no table, so it does not read allow_large")
        for reader, other in _KINDS.items():  # a field only one kind reads keeps its default elsewhere
            for name in other.own_fields:
                if reader != self.experiment and getattr(self, name) != getattr(ExperimentSpec, name):
                    raise ValueError(f"{self.experiment} does not read {name}; only {reader} does")
        # validate early, and spell equal families alike ("lam": 2 and "2")
        ws = WeightSequence.from_config(self.weights)
        if kind.regime not in (None, ws.regime):
            raise ValueError(f"{self.experiment} runs on {kind.regime}")
        if self.exact_upto > 0 and not ws.is_exact:
            raise ValueError(f"exact_upto > 0 needs a rational weight family, not {self.weights}")
        if self.experiment == IDENTITIES and max(self.n_list) > 1:  # the shift inequality needs A_eps in the table
            ws.shift_index(min(self.eps_list), max(self.n_list))  # the least eps has the largest A_eps
        if self.experiment == GAUSSIAN_FLUCTUATIONS:
            asymptotics.predict(ws.alpha, max(self.n_list))  # the centers must solve at this N
        if self.experiment == DEGREE_BOUNDS:
            asymptotics.degree_cutoff(ws.alpha)  # K! must be a float
        if self.experiment == POISSON_SURPLUS and not (ws.lam <= sys.float_info.max and float(ws.lam) > 0):
            raise ValueError(f"poisson_surplus needs a lam that a float holds above 0, not {self.weights}")
        object.__setattr__(self, "weights", ws.to_config())

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, _KINDS[self.experiment].tolerances[name]))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["n_list"] = list(self.n_list)
        d["eps_list"] = list(self.eps_list)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentSpec":
        if not isinstance(d, dict):
            raise ValueError(f"a spec must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(ExperimentSpec)})
        if unknown:
            raise ValueError(f"unknown spec keys: {unknown}")
        missing = sorted({"experiment", "weights", "n_list"} - set(d))
        if missing:
            raise ValueError(f"missing spec keys: {missing}")
        return ExperimentSpec(**d)

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        return ExperimentSpec.from_dict(json.loads(text))


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    op: str  # "<=" or ">="

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return bool(self.value <= self.threshold)
        if self.op == ">=":
            return bool(self.value >= self.threshold)
        raise ValueError(f"unknown op {self.op!r}")

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    stats: dict
    predictions: dict
    checks: tuple[CheckResult, ...]
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "experiment": self.spec.experiment,
            "spec": self.spec.to_dict(),
            "rng_algorithm": RNG_ALGORITHM,
            "sampler_algorithm": SAMPLER_ALGORITHM,
            "stats": self.stats,
            "predictions": self.predictions,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# -- sampling statistics -------------------------------------------------------


@dataclass
class SampleBatch:
    """Per-sample statistics of one batch of exact tree draws.

    Degree counts follow the handshake convention: every vertex of the
    degree is counted, s included, and the implicit root r contributes to
    degree 1.
    """

    n_edges: int
    sigma_s: np.ndarray
    degree_counts: dict[int, np.ndarray]  # degree -> count per sample
    max_other_degree: np.ndarray  # largest degree over vertices != s
    max_branch_size: np.ndarray
    branch_size2_count: np.ndarray

    def emit_csv(self, out: TextIO) -> None:
        """One row per sample, to an open text stream."""
        degrees = sorted(self.degree_counts)
        cols = ["sigma_s"] + [f"x{d}" for d in degrees] + ["max_other_degree", "max_branch_size"]
        out.write(",".join(cols) + "\n")
        for row in range(len(self.sigma_s)):
            vals = [str(int(self.sigma_s[row]))]
            vals += [str(int(self.degree_counts[d][row])) for d in degrees]
            vals += [str(int(self.max_other_degree[row])), str(int(self.max_branch_size[row]))]
            out.write(",".join(vals) + "\n")


def sample_tree(table: ZTable, n_edges: int, rng: np.random.Generator) -> PlaneTree:
    """One exact draw from the N-edge tree measure: a composition against
    the table, then its cycle-lemma rotation.  Every tree the harness and
    the CLI draw comes from here, through this module's names for the two
    steps, so wrapping those names sees every draw."""
    return PlaneTree(rotate_word(sample_composition(table, n_edges, n_edges - 1, rng)))


def collect_samples(
    table: ZTable,
    n_edges: int,
    count: int,
    gen: np.random.Generator,
    track_degrees: tuple[int, ...] = (2, 3, 4),
) -> SampleBatch:
    """Draw `count` trees and record the statistics every runner consumes."""
    sigma = np.empty(count, dtype=np.int64)
    max_other = np.empty(count, dtype=np.int64)
    max_branch = np.empty(count, dtype=np.int64)
    size2 = np.empty(count, dtype=np.int64)
    counts = {d: np.zeros(count, dtype=np.int64) for d in track_degrees}
    for j in range(count):
        tree = sample_tree(table, n_edges, gen)
        profile = degree_profile(tree)
        s = sigma[j] = tree.sigma_s
        # the largest degree of a vertex other than s; r has degree 1
        max_other[j] = max((d for d, c in profile.counts.items() if c > (d == s)), default=1)
        sizes = branch_sizes(tree)
        max_branch[j] = max(sizes) if sizes else 0
        size2[j] = sizes.count(2)
        for d in track_degrees:
            counts[d][j] = profile.count(d)
    return SampleBatch(n_edges, sigma, counts, max_other, max_branch, size2)


def _tv_against_poisson(values: np.ndarray, mean: float) -> float:
    """Total variation between an empirical integer sample and Poisson(mean)."""
    n = len(values)
    top = int(values.max()) if n else 0
    emp = np.bincount(values.astype(int), minlength=top + 1) / n
    ks = np.arange(top + 1)
    log_pmf = ks * math.log(mean) - mean - np.array([math.lgamma(k + 1.0) for k in ks])
    pmf = np.exp(log_pmf)
    tail = max(0.0, 1.0 - pmf.sum())
    return float(0.5 * (np.abs(emp - pmf).sum() + tail))


def _ks_to_standard_normal(z: np.ndarray) -> float:
    """sup-distance between the empirical cdf of z and the N(0,1) cdf."""
    z = np.sort(np.asarray(z, dtype=float))
    n = len(z)
    cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in z]))
    upper = np.abs(cdf - np.arange(1, n + 1) / n).max()
    lower = np.abs(cdf - np.arange(0, n) / n).max()
    return float(max(upper, lower))


# -- runner ---------------------------------------------------------------------


def run_experiment(
    spec: ExperimentSpec,
    emit_csv_dir: Optional[str] = None,
    table: Optional[ZTable] = None,
) -> ExperimentReport:
    """The one runner: build (or reuse) the table if the kind reads one, key
    the generator, and time the experiment's body into a report; the spec
    checked its weights.  A kind that reads no table takes none."""
    t0 = time.perf_counter()
    kind = _KINDS[spec.experiment]
    if kind.reads_table:
        table = _build_table(spec, table)
    elif table is not None:
        raise ValueError(f"{spec.experiment} computes the rows it reads and takes no shared table")
    gen = RandomSource(spec.seed, spec.stream).generator()
    stats, predictions, checks = kind.body(spec, table, gen, emit_csv_dir)
    return ExperimentReport(spec, stats, predictions, tuple(checks), time.perf_counter() - t0)


def _build_table(spec: ExperimentSpec, table: Optional[ZTable] = None) -> ZTable:
    """Build per spec, or validate and reuse a shared prebuilt table of
    exactly the spec's size, so the report matches a re-run of its spec."""
    if table is not None:
        if table.ws.to_config() != spec.weights:
            raise ValueError("shared table was built for a different weight family")
        if table.n_max != max(spec.n_list):
            raise ValueError(f"shared table has n_max {table.n_max}; this spec needs exactly {max(spec.n_list)}")
        return table
    return build_ztable(WeightSequence.from_config(spec.weights), max(spec.n_list), allow_large=spec.allow_large)


def _sample_batch(
    spec: ExperimentSpec,
    table: ZTable,
    gen: np.random.Generator,
    emit_csv_dir: Optional[str],
    track_degrees: tuple[int, ...] = (2, 3, 4),
) -> SampleBatch:
    """spec.samples trees at the largest N, written out as CSV on request."""
    batch = collect_samples(table, max(spec.n_list), spec.samples, gen, track_degrees)
    if emit_csv_dir:
        os.makedirs(emit_csv_dir, exist_ok=True)
        with open(os.path.join(emit_csv_dir, f"{spec.experiment}_n{batch.n_edges}.csv"), "w", encoding="ascii") as fh:
            batch.emit_csv(fh)
    return batch


# -- experiment bodies: (spec, table, gen, emit_csv_dir) -> (stats, predictions, checks)


def _star_convergence(spec, table, gen, emit_csv_dir):
    """Fraction of samples whose left ball already matches the limiting
    star's; must trend upward in N and clear a threshold at the largest N."""
    target = star_left_ball(spec.radius).word
    fractions = []
    for n_edges in spec.n_list:
        hits = sum(
            left_ball(sample_tree(table, n_edges, gen), spec.radius).word == target for _ in range(spec.samples)
        )
        fractions.append(hits / spec.samples)
    worst_drop = max(
        (fractions[i] - fractions[i + 1] for i in range(len(fractions) - 1)),
        default=0.0,
    )
    checks = (
        CheckResult("left_ball_fraction_final", fractions[-1], spec.tolerance("min_final_fraction"), ">="),
        CheckResult("left_ball_fraction_worst_drop", worst_drop, spec.tolerance("trend_slack"), "<="),
        CheckResult("left_ball_fraction_endpoint_trend", fractions[-1] - fractions[0], 0.0, ">="),
    )
    stats = {"radius": spec.radius, "n_list": list(spec.n_list), "fractions": fractions}
    return stats, {}, checks


def _poisson_surplus(spec, table, gen, emit_csv_dir):
    """Pinned-w_2 family: Z_N against e^lam (N-1)!, the surplus N - sigma(s)
    against Poisson(lam), and the all-branches-in-{1,2} event."""
    lam = float(table.ws.lam)
    n_edges = max(spec.n_list)
    log_zn, log_pred = log_z_n(table.ws, n_edges), asymptotics.predict_log_zn(table.ws, n_edges)
    zn_rel_error = abs(math.expm1(log_zn - log_pred))

    batch = _sample_batch(spec, table, gen, emit_csv_dir)
    surplus = n_edges - batch.sigma_s
    tv = _tv_against_poisson(surplus, lam)
    # sizes in {1,2} forces exactly N - sigma(s) twos, but check it literally
    consistent = (batch.max_branch_size <= 2) & (batch.branch_size2_count == surplus)
    branch_freq = float(consistent.mean())

    checks = (
        CheckResult("zn_rel_error", zn_rel_error, spec.tolerance("zn_rel_error"), "<="),
        CheckResult("tv_surplus_poisson", tv, spec.tolerance("tv_poisson"), "<="),
        CheckResult("branch_structure_frequency", branch_freq, spec.tolerance("min_branch_frequency"), ">="),
    )
    stats = {
        "n_edges": n_edges,
        "lam": lam,
        "log_zn": log_zn,
        "zn_rel_error": zn_rel_error,
        "tv_surplus_poisson": tv,
        "branch_structure_frequency": branch_freq,
        "surplus_histogram": np.bincount(surplus).tolist(),
    }
    return stats, {"log_zn": log_pred}, checks


def _degree_bounds(spec, table, gen, emit_csv_dir):
    """Factorial-power family: degree and branch-size cutoffs at K+1, the
    X_2 concentration ratio, and the boundary Poisson law when 1/alpha is
    an integer."""
    alpha = table.ws.alpha
    k = asymptotics.degree_cutoff(alpha)
    n_edges = max(spec.n_list)
    batch = _sample_batch(spec, table, gen, emit_csv_dir, track_degrees=(2, 3, 4, k + 1))

    deg_freq = float((batch.max_other_degree <= k + 1).mean())
    branch_freq = float((batch.max_branch_size <= k + 1).mean())
    scale_1 = asymptotics.degree_count_scale(alpha, n_edges, 1)
    ratio = batch.degree_counts[2] / scale_1
    lo, hi = spec.tolerance("ratio_lo"), spec.tolerance("ratio_hi")
    ratio_freq = float(((ratio >= lo) & (ratio <= hi)).mean())
    surplus_scaled = (n_edges - batch.sigma_s) / n_edges ** (1.0 - alpha)

    stats = {
        "n_edges": n_edges,
        "alpha": alpha,
        "k_cutoff": k,
        "degree_bound_frequency": deg_freq,
        "branch_bound_frequency": branch_freq,
        "x2_ratio_frequency": ratio_freq,
        "x2_ratio_mean": float(ratio.mean()),
        "surplus_scaled_mean": float(surplus_scaled.mean()),
        "surplus_scaled_q95": float(np.quantile(surplus_scaled, 0.95)),
    }
    predictions = {"scale_1": scale_1}
    checks = [
        CheckResult("degree_bound_frequency", deg_freq, spec.tolerance("min_degree_bound_frequency"), ">="),
        CheckResult("branch_bound_frequency", branch_freq, spec.tolerance("min_branch_bound_frequency"), ">="),
        CheckResult("x2_ratio_frequency", ratio_freq, spec.tolerance("min_ratio_frequency"), ">="),
    ]
    if asymptotics.reciprocal_is_integer(alpha):
        mean = asymptotics.degree_count_scale(alpha, n_edges, k)
        tv = _tv_against_poisson(batch.degree_counts[k + 1], mean)
        stats["tv_boundary_poisson"] = tv
        predictions["poisson_mean"] = mean
        checks.append(CheckResult("tv_boundary_poisson", tv, spec.tolerance("tv_poisson"), "<="))
    return stats, predictions, checks


def _gaussian_fluctuations(spec, table, gen, emit_csv_dir):
    """Standardized degree counts against N(0,1) plus pairwise decorrelation."""
    alpha = table.ws.alpha
    n_edges = max(spec.n_list)
    prediction = asymptotics.predict(alpha, n_edges)
    tracked = tuple(law.degree for law in prediction.laws)
    batch = _sample_batch(spec, table, gen, emit_csv_dir, track_degrees=tracked)

    ks_by_degree: dict[str, float] = {}
    ks_simple_by_degree: dict[str, float] = {}
    standardized = []
    for law in prediction.laws:
        x = batch.degree_counts[law.degree]
        z = law.standardize(x)
        standardized.append(z)
        ks_by_degree[str(law.degree)] = _ks_to_standard_normal(z)
        if law.kind == "gaussian":
            i = law.degree - 1
            simple_center = asymptotics.degree_count_scale(alpha, n_edges, i)
            z_simple = (x - simple_center) / math.sqrt(simple_center)
            ks_simple_by_degree[str(law.degree)] = _ks_to_standard_normal(z_simple)

    max_corr = 0.0
    if len(standardized) > 1:
        c = np.corrcoef(np.vstack(standardized))
        off = c[~np.eye(len(standardized), dtype=bool)]
        max_corr = float(np.abs(off).max())

    stats = {
        "n_edges": n_edges,
        "alpha": alpha,
        "ks_by_degree": ks_by_degree,
        "ks_simple_center_by_degree": ks_simple_by_degree,
        "max_abs_corr": max_corr,
    }
    predictions = {
        "centers": list(prediction.centers),
        "scales": list(prediction.scales),
        "poisson_mean": prediction.poisson_mean,
    }
    checks = (
        CheckResult("ks_x2", ks_by_degree["2"], spec.tolerance("ks"), "<="),
        CheckResult("max_abs_corr", max_corr, spec.tolerance("max_abs_corr"), "<="),
    )
    return stats, predictions, checks


def _logz_expansion(spec, table, gen, emit_csv_dir):
    """Partition-function expansion residuals on a size grid (no sampling,
    no table): log Z_N comes from row N alone, so the sizes have no table
    cap."""
    ws = WeightSequence.from_config(spec.weights)
    alpha = ws.alpha
    n_last = max(spec.n_list)
    log_zn = {n: log_z_n(ws, n) for n in spec.n_list}
    residuals = {str(n): log_zn[n] - asymptotics.predict_log_zn(ws, n) for n in spec.n_list}
    scaled = {str(n): abs(residuals[str(n)]) / n ** (1.0 - 3.0 * alpha) for n in spec.n_list}
    coarse = (log_zn[n_last] - alpha * math.lgamma(n_last)) / n_last ** (1.0 - alpha)

    checks = (
        CheckResult("expansion_residual_scaled", max(scaled.values()), spec.tolerance("residual_coeff"), "<="),
        CheckResult("coarse_ratio_lo", coarse, spec.tolerance("coarse_lo"), ">="),
        CheckResult("coarse_ratio_hi", coarse, spec.tolerance("coarse_hi"), "<="),
    )
    stats = {
        "alpha": alpha,
        "residuals": residuals,
        "residuals_scaled": scaled,
        "coarse_ratio": coarse,
    }
    return stats, {}, checks


def _star_dominance(spec, table, gen, emit_csv_dir):
    """alpha > 1: Z_N collapses onto the star weight and samples are stars."""
    alpha = table.ws.alpha
    n_edges = max(spec.n_list)
    log_pred = asymptotics.predict_log_zn(table.ws, n_edges)
    zn_rel_error = abs(math.expm1(log_z_n(table.ws, n_edges) - log_pred))
    star_freq = float((_sample_batch(spec, table, gen, emit_csv_dir).sigma_s == n_edges).mean())

    checks = (
        CheckResult("zn_rel_error", zn_rel_error, spec.tolerance("zn_rel_error"), "<="),
        CheckResult("star_frequency", star_freq, spec.tolerance("min_star_frequency"), ">="),
    )
    stats = {
        "n_edges": n_edges,
        "alpha": alpha,
        "zn_rel_error": zn_rel_error,
        "star_frequency": star_freq,
    }
    return stats, {"log_zn": log_pred}, checks


def _identities(spec, table, gen, emit_csv_dir):
    """Sweep the size-bias identity and the shift inequality over the table."""
    n_max = table.n_max
    worst = max(float(table.sum_identity_residuals(nv).max()) for nv in range(1, n_max + 1))

    exact_worst = None
    if spec.exact_upto > 0:
        exact_worst = worst_exact_sum_residual(table.ws, min(spec.exact_upto, n_max))

    holds = [table.shift_inequality_holds(eps, min(50, n_max - 1)) for eps in spec.eps_list]
    ineq_all_hold = all(h.all() for h in holds)

    checks = [
        CheckResult("worst_sum_residual", worst, spec.tolerance("max_sum_residual"), "<="),
        CheckResult("shift_inequality_violations", 0.0 if ineq_all_hold else 1.0, 0.0, "<="),
    ]
    if exact_worst is not None:
        checks.append(CheckResult("worst_exact_residual", float(exact_worst), 0.0, "<="))
    stats = {
        "n_max": n_max,
        "worst_sum_residual": worst,
        "exact_sum_residual_is_zero": None if exact_worst is None else exact_worst == 0,
        "shift_inequality_checked": sum(h.size for h in holds),
        "shift_inequality_all_hold": ineq_all_hold,
        "eps_list": list(spec.eps_list),
    }
    return stats, {}, checks


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: its body, the growth regime of the weights it
    runs on (None: any weights), its default tolerances, the spec fields
    only it reads, whether it runs on more than one size, and whether it
    reads the square table (a kind that does not gets table=None)."""

    body: Callable
    regime: Optional[str]
    tolerances: dict[str, float]
    own_fields: tuple[str, ...] = ()
    multi_size: bool = False
    reads_table: bool = True


_KINDS: dict[str, _Kind] = {
    STAR_CONVERGENCE: _Kind(
        _star_convergence, None, {"min_final_fraction": 0.85, "trend_slack": 0.05}, ("radius",), multi_size=True
    ),
    POISSON_SURPLUS: _Kind(
        _poisson_surplus, LAMBDA_FAMILY, {"zn_rel_error": 0.01, "tv_poisson": 0.05, "min_branch_frequency": 0.95}
    ),
    DEGREE_BOUNDS: _Kind(_degree_bounds, ALPHA_BELOW_1, {
        "min_degree_bound_frequency": 0.99, "min_branch_bound_frequency": 0.99, "ratio_lo": 0.8,
        "ratio_hi": 1.2, "min_ratio_frequency": 0.95, "tv_poisson": 0.05,
    }),
    GAUSSIAN_FLUCTUATIONS: _Kind(_gaussian_fluctuations, ALPHA_BELOW_1, {"ks": 0.03, "max_abs_corr": 0.05}),
    LOGZ_EXPANSION: _Kind(
        _logz_expansion, ALPHA_BELOW_1, {"residual_coeff": 5.0, "coarse_lo": 0.5, "coarse_hi": 1.5},
        multi_size=True, reads_table=False,
    ),
    STAR_DOMINANCE: _Kind(_star_dominance, ALPHA_ABOVE_1, {"zn_rel_error": 0.01, "min_star_frequency": 0.99}),
    IDENTITIES: _Kind(_identities, None, {"max_sum_residual": 1e-9}, ("eps_list", "exact_upto")),
}
