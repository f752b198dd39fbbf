"""The benchmark's workloads.

Each workload runs in one process with one caller (closed loop): a set-up
in a fresh child interpreter, then a timed phase of whole passes until the
passes have taken the requested seconds (the repeated set-ups run between
passes, off the clock), then the correctness gates.  A pass is the
workload's fixed job; an operation (op) is its unit of checked work:

- ztable_build      op = one family's table built, saved as SGTZ, reloaded;
                    a pass builds all four families at n_max = 800.
- sample_condensed  op = one tree drawn, rotated and fully measured;
                    a pass loads the SGTZ table, evaluates the sigma(s)
                    law and draws 500 trees at alpha = 0.5, N = 1000.
- experiment_specs  op = one experiment spec run through `sgtree experiment`;
                    a pass runs all eight specs.

Every call into sgtree goes through a public function.  In the traced run
the same calls are wrapped in spans (see spans.py); for experiment_specs
the functions that `sgtree.harness` imports are wrapped in place for the
run and restored afterwards, so build, draw and prediction spans nest
under each experiment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

import gates as G
from spans import span_cost_s

_now = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))


def _alpha(a: float) -> dict:
    return {"family": "factorial_alpha", "alpha": a}


def _lam(lam: str) -> dict:
    return {"family": "lambda_factorial", "lam": lam}


UNIFORM = {"family": "uniform"}
ZTABLE_FAMILIES = (_alpha(0.3), _alpha(1.5), _lam("2"), UNIFORM)
CONDENSED_WEIGHTS = _alpha(0.5)
ALL_FAMILIES = ("uniform", "lam1", "lam2", "alpha0.3", "alpha0.5", "alpha0.6", "alpha1.5")
SPEC_LABELS = (
    "star_dominance",
    "poisson_surplus",
    "identities",
    "identities_exact",
    "logz_expansion",
    "gaussian_fluctuations",
    "degree_bounds",
    "star_convergence",
)
BALL_RADIUS = 3


def _specs(n_star: int, n_id: int, n_exact: int, logz: list, n_gauss: int, conv: list,
           samples: int, conv_samples: int) -> tuple:
    """The acceptance-suite families at reduced sizes, in SPEC_LABELS order."""
    return (
        ("star_dominance", dict(experiment="star_dominance", weights=_alpha(1.5),
                                n_list=[n_star], samples=samples)),
        ("poisson_surplus", dict(experiment="poisson_surplus", weights=_lam("2"),
                                 n_list=[n_star], samples=2 * samples)),
        ("identities", dict(experiment="identities", weights=_alpha(0.5),
                            n_list=[n_id], eps_list=[0.1, 0.5])),
        ("identities_exact", dict(experiment="identities", weights=_lam("1"),
                                  n_list=[n_exact], exact_upto=min(12, n_exact), eps_list=[0.5])),
        ("logz_expansion", dict(experiment="logz_expansion", weights=_alpha(0.6), n_list=logz)),
        ("gaussian_fluctuations", dict(experiment="gaussian_fluctuations", weights=_alpha(0.5),
                                       n_list=[n_gauss], samples=samples)),
        ("degree_bounds", dict(experiment="degree_bounds", weights=_alpha(0.5),
                               n_list=[n_gauss], samples=samples)),
        ("star_convergence", dict(experiment="star_convergence", weights=_alpha(0.5),
                                  n_list=conv, samples=conv_samples, radius=BALL_RADIUS)),
    )


@dataclass(frozen=True)
class Sizes:
    ztable_n_max: int
    int_corner: int  # exact-integer reference corner (pinned-w_2 family)
    mp_corner: int  # mpmath reference corner (irrational factorial powers)
    condensed_n: int
    trees_per_pass: int
    specs: tuple
    build_setups: int  # set-ups that build a table (several seconds each)
    import_setups: int  # set-ups that only import (a few tenths of a second each)


FULL = Sizes(800, 160, 100, 1000, 500,
             _specs(400, 300, 20, [100, 200, 400, 800], 600, [150, 300, 600], 1000, 500), 3, 9)
TOY = Sizes(40, 30, 20, 60, 60, _specs(30, 120, 10, [10, 20, 40], 40, [10, 20, 40], 60, 30), 1, 1)


def build_terms(n_max: int) -> int:
    """Log-sum-exp terms of one build: rows 1..n_max, (n+1) terms per entry n."""
    w = n_max + 1
    return n_max * w * (w + 1) // 2


def table_mb(n_max: int) -> float:
    return (n_max + 1) ** 2 * 8 / 1e6


def median(xs: list[float]) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


@dataclass
class Run:
    """Inputs and everything one workload run measured."""

    root: str
    work: str
    seed: int
    seconds: float
    tracer: object
    sizes: Sizes
    gates: G.Gates = field(default_factory=G.Gates)
    ops: list = field(default_factory=list)  # op latencies, s
    op_failures: list = field(default_factory=list)
    pass_walls: list = field(default_factory=list)
    pass_ends: list = field(default_factory=list)  # len(ops) at the end of each pass
    setups: list = field(default_factory=list)  # one dict per set-up child
    layer: dict = field(default_factory=dict)  # per-layer values not taken from spans
    info: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    setup_cmd: list = field(default_factory=list)
    paused_s: float = 0.0  # time spent in set-ups between passes
    setup_repeats: int = 1

    def op_done(self, latency: float, ok: bool, what: str) -> None:
        self.ops.append(latency)
        if not ok:
            self.op_failures.append(what)

    def set_up(self, table_job: Optional[tuple] = None) -> None:
        """The first set-up, before the timed phase.  The other repeats run
        between passes, so the timed passes are spread over a longer stretch
        of the host's fluctuating speed."""
        self.setup_cmd = [sys.executable, os.path.join(HERE, "setup_step.py"), os.path.join(self.root, "src")]
        self.setup_repeats = self.sizes.import_setups
        if table_job is not None:
            weights, n_max, path = table_job
            self.setup_cmd += [json.dumps(weights), str(n_max), path]
            self.setup_repeats = self.sizes.build_setups
        self._set_up_once()

    def _set_up_once(self) -> None:
        t0 = _now()
        proc = subprocess.run(self.setup_cmd, cwd=self.root, capture_output=True, text=True, timeout=150)
        wall = _now() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["wall_s"] = wall
        self.setups.append(report)

    def pass_done(self, t_start: float, wall: float) -> bool:
        """Records a pass's wall time.  True once the passes have had their
        seconds; otherwise runs one pending set-up (off the clock)."""
        self.pass_walls.append(wall)
        self.pass_ends.append(len(self.ops))
        if len(self.pass_walls) == 1:
            # The first pass holds all the job needs.  Later passes repeat it;
            # on sample_condensed each reload of the 8 MB table can leave the
            # heap one table larger, by allocator luck and the number of passes.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if _now() - t_start - self.paused_s >= self.seconds:
            return True
        if len(self.setups) < self.setup_repeats:
            t0 = _now()
            self._set_up_once()
            self.paused_s += _now() - t0
        return False

    def end_timed_phase(self) -> None:
        while len(self.setups) < self.setup_repeats:
            self._set_up_once()


@contextlib.contextmanager
def wrapped_in_place(tr, targets: list) -> Iterator[None]:
    """Replace attributes (obj, name, wrapper_factory) for the traced run only."""
    if not tr.enabled:
        yield
        return
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in targets]
    try:
        for obj, name, factory in targets:
            setattr(obj, name, factory(getattr(obj, name)))
        yield
    finally:
        for obj, name, original in saved:
            setattr(obj, name, original)


def weights_span(tr) -> tuple:
    import sgtree

    return (sgtree.WeightSequence, "log_weights_upto",
            lambda fn: tr.wrap("weights.log_weights_upto", fn))


# -- ztable_build ----------------------------------------------------------------------


class ZtableBuild:
    """Build, save and reload the four families' tables; the sampler never runs."""

    def __init__(self, run: Run):
        self.run = run
        self.last: dict[str, np.ndarray] = {}  # latest reloaded table per family, gated afterwards
        self.digests: dict[str, str] = {}  # pass 0's tables, which every later pass must repeat

    def setup(self) -> None:
        self.run.set_up()
        self.run.layer["partition.build_terms"] = len(ZTABLE_FAMILIES) * build_terms(self.run.sizes.ztable_n_max)
        self.run.layer["partition.table_mb"] = table_mb(self.run.sizes.ztable_n_max)

    def timed(self) -> None:
        import sgtree as sg

        run, tr, n_max = self.run, self.run.tracer, self.run.sizes.ztable_n_max
        save = tr.wrap("partition.save_ztable", sg.save_ztable)
        load = tr.wrap("partition.load_ztable", sg.load_ztable)
        with wrapped_in_place(tr, [weights_span(tr)]):
            t_start = _now()
            while True:
                t_pass = _now()
                sgtz_bytes = 0
                checking = 0.0
                for cfg in ZTABLE_FAMILIES:
                    label = G.family_label(cfg)
                    build = tr.wrap("partition.build_ztable." + label, sg.build_ztable)
                    path = os.path.join(run.work, label + ".sgtz")
                    self.last.pop(label, None)  # same tables alive in every pass, so RSS does not depend on passes
                    idx = tr.begin("op." + label)
                    t0 = _now()
                    table = build(sg.WeightSequence.from_config(cfg), n_max)
                    save(table, path)
                    loaded = load(path)
                    latency = _now() - t0
                    tr.end(idx)
                    sgtz_bytes += os.path.getsize(path)
                    digest = hashlib.sha256(loaded.log_table).hexdigest()
                    ok = np.array_equal(table.log_table, loaded.log_table)
                    ok = ok and self.digests.setdefault(label, digest) == digest
                    run.op_done(latency, ok, f"{label}: reload or rebuild differs bitwise")
                    self.last[label] = loaded.log_table
                    del table, loaded
                    checking += _now() - t0 - latency
                wall = _now() - t_pass - checking
                tr.count("partition.sgtz_bytes", sgtz_bytes)
                tr.pass_index += 1
                if run.pass_done(t_start, wall):
                    break
        run.end_timed_phase()

    def check(self) -> None:
        run, worst_err, worst_id = self.run, 0.0, 0.0
        for cfg in ZTABLE_FAMILIES:
            label = G.family_label(cfg)
            corner = run.sizes.mp_corner if cfg["family"] == "factorial_alpha" else run.sizes.int_corner
            err, resid = G.check_table(run.gates, label, cfg, self.last[label], corner)
            worst_err, worst_id = max(worst_err, err), max(worst_id, resid)
        run.layer["partition.exact_rel_err"] = worst_err
        run.layer["partition.identity_resid_max"] = worst_id


# -- sample_condensed ------------------------------------------------------------------


def tree_stats(word: list, prof, sizes: list, ball, n: int, star_ball: tuple) -> tuple:
    """What collect_samples records for one tree, plus the left-ball hit."""
    rest = word[1:]
    return (
        word[0] + 1,
        prof.count(2),
        prof.count(3),
        prof.count(4),
        (max(rest) + 1) if rest else 1,
        max(sizes) if sizes else 0,
        sizes.count(2),
        word[0] == n - 1,
        ball.word == star_ball,
    )


class SampleCondensed:
    """Load the alpha = 0.5 SGTZ table, then draw and measure trees one by one."""

    def __init__(self, run: Run):
        self.run = run
        self.n = run.sizes.condensed_n
        self.path = os.path.join(run.work, "condensed.sgtz")
        self.sigma_counts = np.zeros(self.n + 1, dtype=np.int64)
        self.x2: list[int] = []
        self.nonleaf = 0
        self.pmf: Optional[np.ndarray] = None
        self.log_table: Optional[np.ndarray] = None

    def setup(self) -> None:
        run = self.run
        run.set_up((CONDENSED_WEIGHTS, self.n, self.path))
        run.layer["partition.build_terms"] = build_terms(self.n)
        run.layer["partition.table_mb"] = table_mb(self.n)

    def timed(self) -> None:
        import sgtree as sg

        run, tr, n = self.run, self.run.tracer, self.n
        load = tr.wrap("partition.load_ztable", sg.load_ztable)
        draw = tr.wrap("sampler.sample_composition", sg.sample_composition)
        rotate = tr.wrap("sampler.rotate_word", sg.rotate_word)
        plane = tr.wrap("trees.PlaneTree", sg.PlaneTree)
        profile = tr.wrap("trees.degree_profile", sg.degree_profile)
        branches = tr.wrap("trees.branch_sizes", sg.branch_sizes)
        left_ball = tr.wrap("trees.left_ball", sg.left_ball)
        stats = tr.wrap("bench.tree_stats", tree_stats)
        star_ball = sg.star_left_ball(BALL_RADIUS).word
        with wrapped_in_place(tr, [weights_span(tr)]):
            t_start = _now()
            while True:
                t_pass = _now()
                table = load(self.path)
                with tr.span("partition.root_degree_pmf"):
                    pmf = table.root_degree_pmf(n)
                gen = sg.RandomSource(run.seed, tr.pass_index).generator()
                digest = hashlib.sha256() if tr.pass_index == 0 else None
                checking = 0.0
                for _ in range(run.sizes.trees_per_pass):
                    idx = tr.begin("tree")
                    t0 = _now()
                    word = rotate(draw(table, n, n - 1, gen))
                    tree = plane(tuple(word))
                    prof = profile(tree)
                    sizes = branches(tree)
                    ball = left_ball(tree, BALL_RADIUS)
                    rec = stats(word, prof, sizes, ball, n, star_ball)
                    latency = _now() - t0
                    tr.end(idx)
                    self._check_tree(latency, word, prof, sizes, ball, rec, digest)
                    checking += _now() - t0 - latency
                wall = _now() - t_pass - checking
                if digest is not None:
                    run.info["sampler.words_sha256"] = digest.hexdigest()
                    run.info["sampler.words_digest_of"] = (
                        f"first {run.sizes.trees_per_pass} trees, seed {run.seed} stream 0, "
                        "one outdegree word per line as `sgtree sample` writes them"
                    )
                self.pmf, self.log_table = pmf, table.log_table
                del table  # drop the row-list mirror before the next load
                tr.pass_index += 1
                if run.pass_done(t_start, wall):
                    break
        run.end_timed_phase()

    def _check_tree(self, latency: float, word: list, prof, sizes: list, ball, rec: tuple, digest) -> None:
        """Per-tree checks, kept off the per-tree and per-pass clocks."""
        n = self.n
        ok = (
            G.lukasiewicz_ok(word, n)
            and sum(prof.counts.values()) == n + 1
            and sum(d * c for d, c in prof.counts.items()) == 2 * n
            and sum(sizes) == n - 1
            and len(sizes) == word[0]
            and rec[0] == word[0] + 1
            and rec[1] == word.count(1)
            and len(ball.word) <= 1 + (BALL_RADIUS - 1) + (BALL_RADIUS - 1) ** 2
        )
        self.run.op_done(latency, ok, f"invalid tree or statistics: {word[:8]}...")
        self.sigma_counts[min(rec[0], n)] += 1
        self.x2.append(rec[1])
        self.nonleaf += n - word.count(0)
        if digest is not None:
            digest.update((" ".join(map(str, word)) + "\n").encode("ascii"))

    def check(self) -> None:
        run, n, g = self.run, self.n, self.run.gates
        run.layer["partition.build_s.alpha0.5"] = median([s["build_s"] for s in run.setups])
        run.layer["partition.save_s"] = median([s["save_s"] for s in run.setups])
        run.layer["partition.sgtz_bytes"] = run.setups[-1]["sgtz_bytes"]
        trees = len(run.ops)
        run.layer["sampler.nonleaf_frac"] = self.nonleaf / (trees * n)
        if run.tracer.enabled:
            # The per-tree path's self times add up to the traced tree time.
            # Both come from the quiet passes, like the untraced ops_per_s.
            quiet = quiet_passes(run)
            run.info["tree_ms_mean"] = 1e3 * float(np.mean(ops_of(run, quiet)))
            run.info["tree_self_ms_mean"] = {
                name: 1e3 * float(np.mean(xs)) for name, xs in run.tracer.self_by_name(set(quiet)).items()
                if name == "tree" or name.split(".")[0] in ("sampler", "trees", "bench")
            }
        lw = G.ref_log_weights(CONDENSED_WEIGHTS, n)
        ref = G.scaled_linear_log_table(lw)
        table = self.log_table
        err = G.max_log_diff(table, ref)
        g.check(err <= G.TABLE_REL_TOL, f"alpha0.5 table: max log error {err:.3g} vs linear-domain reference")
        corner = G.max_log_diff(table, G.mpmath_corner_logs(CONDENSED_WEIGHTS, min(run.sizes.mp_corner, n)))
        g.check(corner <= G.TABLE_REL_TOL, f"alpha0.5 table: max log error {corner:.3g} vs mpmath corner")
        resid = G.size_bias_residuals(table, lw)
        g.check(resid <= G.IDENTITY_TOL, f"alpha0.5 table: size-bias residual {resid:.3g}")
        run.layer["partition.exact_rel_err"] = corner
        run.layer["partition.identity_resid_max"] = resid

        p = G.root_degree_pmf(ref, lw, n)
        pos = p > 1e-250
        rel = float(np.abs(self.pmf[pos] / p[pos] - 1.0).max())
        g.check(rel <= G.PMF_REL_TOL and np.all(self.pmf[~pos] < 1e-200),
                f"root_degree_pmf: max relative error {rel:.3g}")
        # sigma(s) = k + 1 has probability p[k]
        G.chi_square_gate(g, "sigma(s) vs the exact law", self.sigma_counts[2:], p[1:])
        mean, var = G.outdegree_count_moments(ref, lw, n, 1)
        G.mean_within_se(g, "X_2 per tree", float(np.mean(self.x2)), mean, var, trees)


# -- experiment_specs ------------------------------------------------------------------


class ExperimentSpecs:
    """Every experiment kind once, through `sgtree experiment` (cli.main)."""

    def __init__(self, run: Run):
        self.run = run
        self.paths: dict[str, tuple[str, str]] = {}
        self.csv_dir = os.path.join(run.work, "csv")
        self.reports: dict[str, dict] = {}
        self.walls: dict[str, list[float]] = {label: [] for label, _ in run.sizes.specs}
        self.wall_in_pass: dict[tuple[str, int], float] = {}
        self.cli_overhead: list[float] = []

    def setup(self) -> None:
        run = self.run
        run.set_up()
        n_maxes = []
        for i, (label, spec) in enumerate(run.sizes.specs):
            spec = dict(spec, seed=run.seed * 16 + i)
            path = os.path.join(run.work, label + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            self.paths[label] = (path, os.path.join(run.work, label + ".report.json"))
            n_maxes.append(max(spec["n_list"]))
        run.layer["partition.build_terms"] = sum(build_terms(n) for n in n_maxes)
        run.layer["partition.table_mb"] = table_mb(max(n_maxes))

    def timed(self) -> None:
        import sgtree.asymptotics
        import sgtree.harness as harness
        from sgtree import cli

        run, tr = self.run, self.run.tracer

        def family_build(fn: Callable) -> Callable:
            def traced(ws, n_max, *args, **kwargs):
                idx = tr.begin("partition.build_ztable." + G.family_label(ws.to_config()))
                try:
                    return fn(ws, n_max, *args, **kwargs)
                finally:
                    tr.end(idx)

            return traced

        def counted_draw(fn: Callable) -> Callable:
            def traced(table, n_slots, total, rng):
                idx = tr.begin("sampler.sample_composition")
                try:
                    comp = fn(table, n_slots, total, rng)
                finally:
                    tr.end(idx)
                tr.count("sampler.slots", n_slots)
                tr.count("sampler.nonleaf_slots", n_slots - comp.count(0))
                return comp

            return traced

        targets = [
            (harness, "build_ztable", family_build),
            (harness, "sample_composition", counted_draw),
            (harness, "rotate_word", lambda fn: tr.wrap("sampler.rotate_word", fn)),
            (sgtree.asymptotics, "predict", lambda fn: tr.wrap("asymptotics.predict", fn)),
            weights_span(tr),
        ]
        with wrapped_in_place(tr, targets):
            t_start = _now()
            while True:
                t_pass = _now()
                overhead = 0.0
                for label, _ in run.sizes.specs:
                    spec_path, out_path = self.paths[label]
                    argv = ["experiment", "--spec", spec_path, "--out", out_path, "--emit-csv", self.csv_dir]
                    idx = tr.begin("experiment." + label)
                    t0 = _now()
                    try:
                        with contextlib.redirect_stderr(io.StringIO()):
                            rc = cli.main(argv)
                        error = None
                    except Exception as exc:  # an op that raises is a failed op; keep measuring
                        rc, error = None, f"{type(exc).__name__}: {exc}"
                    latency = _now() - t0
                    tr.end(idx)
                    overhead += self._record(label, rc, error, latency, out_path)
                wall = _now() - t_pass
                self.cli_overhead.append(overhead)
                tr.pass_index += 1
                if run.pass_done(t_start, wall):
                    break
        run.end_timed_phase()

    def _record(self, label: str, rc, error, latency: float, out_path: str) -> float:
        """Check one experiment run; returns its CLI time outside the harness."""
        if error is None and rc in (0, 1):  # 1 is a red verdict, not a failure
            with open(out_path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            first = self.reports.setdefault(label, report)
            same = first["stats"] == report["stats"] and first["checks"] == report["checks"]
            self.walls[label].append(report["wall_seconds"])
            self.wall_in_pass[(label, self.run.tracer.pass_index)] = report["wall_seconds"]
            self.run.op_done(latency, same, f"{label}: same spec gave different statistics")
            return latency - report["wall_seconds"]
        self.run.op_done(latency, False, f"{label}: exit code {rc} {error or ''}")
        return 0.0

    def layer_times(self) -> None:
        run = self.run
        for label, _ in run.sizes.specs:
            run.layer["harness.run_s." + label] = median(self.walls[label])
        run.layer["cli.overhead_ms"] = 1e3 * median(self.cli_overhead)
        if run.tracer.enabled:
            run.layer["harness.identities_s"] = self._identities_sweep_s()

    def _identities_sweep_s(self) -> float:
        """Harness time of the identity experiments outside their table
        builds (the sum-identity and shift-inequality sweeps), per pass."""
        tr = self.run.tracer
        per_pass: dict[int, float] = {}
        for s, own in zip(tr.spans, tr.self_times()):
            wall = self.wall_in_pass.get((s[0].removeprefix("experiment."), s[4]))
            if s[0] in ("experiment.identities", "experiment.identities_exact") and wall is not None:
                children = (s[2] - s[1]) - own
                per_pass[s[4]] = per_pass.get(s[4], 0.0) + wall - children
        return median(list(per_pass.values()))

    def _csv(self, label: str) -> dict[str, np.ndarray]:
        spec = dict(self.run.sizes.specs)[label]
        path = os.path.join(self.csv_dir, f"{spec['experiment']}_n{max(spec['n_list'])}.csv")
        data = np.genfromtxt(path, delimiter=",", names=True, dtype=np.int64)
        return {name: data[name] for name in data.dtype.names}

    def check(self) -> None:
        self.layer_times()
        run, g = self.run, self.run.gates
        specs = dict(run.sizes.specs)
        if set(self.reports) != set(specs):
            g.check(False, f"no report for {sorted(set(specs) - set(self.reports))}")
            return
        refs: dict[tuple, tuple] = {}

        def ref_for(label: str) -> tuple:
            spec = specs[label]
            key = (json.dumps(spec["weights"], sort_keys=True), max(spec["n_list"]))
            if key not in refs:
                lw = G.ref_log_weights(spec["weights"], key[1])
                refs[key] = (G.scaled_linear_log_table(lw), lw)
            return refs[key]

        def log_zn(ref: np.ndarray, n: int) -> float:
            return float(ref[n, n - 1]) - math.log(n)

        def close(what: str, value: float, expected: float, tol: float) -> float:
            err = abs(value - expected)
            g.check(err <= tol * max(1.0, abs(expected)), f"{what}: report {value!r} vs reference {expected!r}")
            return err

        errs = []
        for label in ("star_dominance", "poisson_surplus"):
            spec, stats = specs[label], self.reports[label]["stats"]
            n = max(spec["n_list"])
            ref, lw = ref_for(label)
            if label == "star_dominance":
                pred = float(spec["weights"]["alpha"]) * math.lgamma(n)
            else:
                pred = float(spec["weights"]["lam"]) + math.lgamma(n)
                errs.append(close(f"{label} log_zn", stats["log_zn"], log_zn(ref, n), G.TABLE_REL_TOL))
            errs.append(close(f"{label} zn_rel_error", stats["zn_rel_error"],
                              abs(math.expm1(log_zn(ref, n) - pred)), 1e-8))
            p = G.root_degree_pmf(ref, lw, n)
            sigma = self._csv(label)["sigma_s"]
            counts = np.bincount(sigma, minlength=n + 1)[: n + 1]
            G.chi_square_gate(g, f"{label} sigma(s) vs the exact law", counts[2:], p[1:])
            if label == "star_dominance":
                ps = p[n - 1]
                G.mean_within_se(g, f"{label} star_frequency", stats["star_frequency"], ps, ps * (1 - ps), len(sigma))

        stats = self.reports["identities"]["stats"]
        g.check(stats["worst_sum_residual"] <= G.IDENTITY_TOL, f"identities: residual {stats['worst_sum_residual']}")
        g.check(stats["shift_inequality_all_hold"] is True, "identities: shift inequality violated")
        stats = self.reports["identities_exact"]["stats"]
        g.check(stats["exact_sum_residual_is_zero"] is True, "identities_exact: exact residual is not zero")
        g.check(stats["worst_sum_residual"] <= G.IDENTITY_TOL, f"identities_exact: residual {stats['worst_sum_residual']}")
        run.layer["partition.identity_resid_max"] = max(
            self.reports[k]["stats"]["worst_sum_residual"] for k in ("identities", "identities_exact")
        )

        spec, stats = specs["logz_expansion"], self.reports["logz_expansion"]["stats"]
        a = float(spec["weights"]["alpha"])
        ref, _ = ref_for("logz_expansion")
        for n in spec["n_list"]:
            expansion = a * math.lgamma(n) + n ** (1 - a) + (2**a - (1 - a) / 2) * n ** (1 - 2 * a)
            errs.append(close(f"logz_expansion residual N={n}", stats["residuals"][str(n)],
                              log_zn(ref, n) - expansion, 1e-8))
        n = max(spec["n_list"])
        errs.append(close("logz_expansion coarse_ratio", stats["coarse_ratio"],
                          (log_zn(ref, n) - a * math.lgamma(n)) / n ** (1 - a), 1e-9))
        run.layer["partition.exact_rel_err"] = max(errs)

        for label in ("gaussian_fluctuations", "degree_bounds"):
            spec = specs[label]
            n, a = max(spec["n_list"]), float(spec["weights"]["alpha"])
            ref, lw = ref_for(label)
            cols = self._csv(label)
            for k in (1, 2):  # X_2 and X_3: vertices of outdegree 1 and 2
                mean, var = G.outdegree_count_moments(ref, lw, n, k)
                G.mean_within_se(g, f"{label} X_{k + 1}", float(cols[f"x{k + 1}"].mean()), mean, var, len(cols["x2"]))
            if label == "degree_bounds":
                stats = self.reports[label]["stats"]
                scale = n ** (1 - a)
                mean, var = G.outdegree_count_moments(ref, lw, n, 1)
                G.mean_within_se(g, "degree_bounds x2_ratio_mean", stats["x2_ratio_mean"],
                                 mean / scale, var / scale**2, len(cols["x2"]))
                p = G.root_degree_pmf(ref, lw, n)
                m, v = G.pmf_moments(p, n - (np.arange(n) + 1.0))
                G.mean_within_se(g, "degree_bounds surplus_scaled_mean", stats["surplus_scaled_mean"],
                                 m / scale, v / scale**2, len(cols["x2"]))

        stats = self.reports["star_convergence"]["stats"]
        fr = stats["fractions"]
        g.check(len(fr) == len(specs["star_convergence"]["n_list"]) and all(0 <= f <= 1 for f in fr),
                f"star_convergence: fractions {fr}")


WORKLOADS = {
    "ztable_build": ZtableBuild,
    "sample_condensed": SampleCondensed,
    "experiment_specs": ExperimentSpecs,
}


# -- metrics ------------------------------------------------------------------------------


QUIET_SHARE = 0.1  # share of a run's passes that the time metrics are taken from
TAIL_Q = 99.5  # in the middle of sample_condensed's collection pauses (~1.1% of trees)


def quiet_passes(run: Run) -> list[int]:
    """The passes least slowed by the host: the tenth (at least one) with the
    lowest median op latency.  Other tenants on a shared host only ever add
    time, in stretches from under a second to minutes, so whole-run medians
    measure the neighbours as much as the program.  Ranking by the median
    op, not by the pass wall, does not favour passes that happen to hold
    fewer of the rare slow ops (collection pauses)."""
    order = sorted(range(len(run.pass_ends)), key=lambda i: median(ops_of(run, [i])))
    keep = order[: max(1, math.ceil(QUIET_SHARE * len(order)))]
    return sorted(keep)


def ops_of(run: Run, passes: list[int]) -> list[float]:
    """Op latencies of the given passes."""
    starts = [0] + run.pass_ends[:-1]
    return [x for i in passes for x in run.ops[starts[i]:run.pass_ends[i]]]


def end_to_end(run: Run) -> dict[str, float]:
    """Time metrics come from the quiet passes."""
    quiet = quiet_passes(run)
    ops = ops_of(run, quiet)
    return {
        "setup_s": median([s["wall_s"] for s in run.setups]),
        "wall_s": median([run.pass_walls[i] for i in quiet]),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": 1e3 * median(ops),
        "op_p99.5_ms": 1e3 * percentile(ops, TAIL_Q),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    """Per-layer values from the traced run's spans plus the workload's own
    records; a layer the workload does not exercise reads 0."""
    tr = run.tracer
    by_name = tr.self_by_name()
    passes = max(1, len(run.pass_walls))

    def per_pass(name: str) -> float:
        return median(tr.self_per_pass(name)) if name in by_name else 0.0

    def each(name: str, scale: float, q: Optional[float] = None) -> float:
        xs = by_name.get(name, [])
        return scale * (percentile(xs, q) if q else median(xs))

    out = {"weights.log_weights_ms": 1e3 * per_pass("weights.log_weights_upto")}
    build_total = 0.0
    for fam in ALL_FAMILIES:
        key = "partition.build_s." + fam
        out[key] = run.layer.get(key, per_pass("partition.build_ztable." + fam))
        build_total += out[key]
    out["partition.build_terms"] = run.layer["partition.build_terms"]
    out["partition.build_terms_per_s"] = out["partition.build_terms"] / build_total
    out["partition.table_mb"] = run.layer["partition.table_mb"]
    out["partition.save_s"] = run.layer.get("partition.save_s", per_pass("partition.save_ztable"))
    out["partition.load_s"] = per_pass("partition.load_ztable")
    out["partition.sgtz_bytes"] = run.layer.get(
        "partition.sgtz_bytes", tr.counts.get("partition.sgtz_bytes", 0.0) / passes
    )
    out["partition.pmf_ms"] = 1e3 * per_pass("partition.root_degree_pmf")
    out["partition.exact_rel_err"] = run.layer["partition.exact_rel_err"]
    out["partition.identity_resid_max"] = run.layer["partition.identity_resid_max"]
    out["sampler.draw_us"] = each("sampler.sample_composition", 1e6)
    out["sampler.draw_us_p99"] = each("sampler.sample_composition", 1e6, 99)
    out["sampler.rotate_us"] = each("sampler.rotate_word", 1e6)
    slots = tr.counts.get("sampler.slots", 0.0)
    out["sampler.nonleaf_frac"] = run.layer.get(
        "sampler.nonleaf_frac", tr.counts.get("sampler.nonleaf_slots", 0.0) / slots if slots else 0.0
    )
    out["trees.plane_tree_us"] = each("trees.PlaneTree", 1e6)
    out["trees.profile_us"] = each("trees.degree_profile", 1e6)
    out["trees.branch_us"] = each("trees.branch_sizes", 1e6)
    out["trees.left_ball_us"] = each("trees.left_ball", 1e6)
    out["asymptotics.predict_ms"] = each("asymptotics.predict", 1e3)
    for label in SPEC_LABELS:
        out["harness.run_s." + label] = run.layer.get("harness.run_s." + label, 0.0)
    out["harness.identities_s"] = run.layer.get("harness.identities_s", 0.0)
    out["cli.overhead_ms"] = run.layer.get("cli.overhead_ms", 0.0)
    out["trace_overhead_frac"] = len(tr.spans) * span_cost_s() / sum(run.pass_walls)
    attempted = len(run.ops) + run.gates.attempted
    out["failed_frac"] = (len(run.op_failures) + run.gates.failed) / attempted
    return out
