"""sgtree command line: tables, sampling, distances, predictions, experiments."""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
from typing import Optional

from . import asymptotics, oracle
from .harness import ExperimentSpec, collect_samples, run_experiment, sample_tree
from .partition import build_ztable, exact_corner, load_ztable, log_z_n, save_ztable, write_ztable_csv
from .sampler import RandomSource
from .trees import read_trees, tree_distance
from .weights import WeightSequence


def _load_weights(arg: str) -> WeightSequence:
    """Inline JSON, or a path to a JSON file."""
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return WeightSequence.from_config(json.load(fh))
    return WeightSequence.from_config(json.loads(arg))


def _check_writable(*paths: Optional[str]) -> None:
    """Fail before any work if an output is an existing directory, or its
    directory is missing or not writable; nothing is created or truncated
    here."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        folder = os.path.dirname(path) or "."
        if not os.access(folder, os.W_OK):
            code = errno.EACCES if os.path.isdir(folder) else errno.ENOENT
            raise OSError(code, os.strerror(code), folder)


def _cmd_ztable(args: argparse.Namespace) -> int:
    ws = _load_weights(args.weights)
    _check_writable(args.out, args.dump_csv)
    table = build_ztable(ws, args.nmax, allow_large=args.allow_large)
    save_ztable(table, args.out)
    if args.dump_csv:
        write_ztable_csv(table, args.dump_csv)
    print(f"wrote {args.out}: n_max={args.nmax}, logZ_N(n_max)={log_z_n(ws, args.nmax):.6f}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    ws = _load_weights(args.weights)
    _check_writable(args.out)
    if args.table:
        table = load_ztable(args.table)
        if table.ws.to_config() != ws.to_config():
            raise ValueError("table weight family does not match --weights")
        if table.n_max < args.n:
            raise ValueError(f"table bound {table.n_max} below requested size {args.n}")
    else:
        table = build_ztable(ws, args.n, allow_large=args.allow_large)
    gen = RandomSource(args.seed, args.stream).generator()
    out = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
    try:
        if args.stats_only:
            collect_samples(table, args.n, args.count, gen).emit_csv(out)
        else:
            for _ in range(args.count):
                out.write(f"{sample_tree(table, args.n, gen)}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    left = read_trees(args.file_a)
    right = read_trees(args.file_b)
    if not left or not right:
        raise ValueError("both files must contain at least one tree")
    d = tree_distance(left[0], right[0])
    print(str(d))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    print(json.dumps(dataclasses.asdict(asymptotics.predict(args.alpha, args.n)), indent=2))
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    ws = _load_weights(args.weights)
    measure = oracle.exact_nu(args.n, ws)
    table = build_ztable(ws, args.n)
    log_dp = float(table.log_table[args.n, args.n - 1]) - math.log(args.n)  # the table's own entry
    rel = abs(math.expm1(measure.log_total - log_dp))
    payload = {
        "n_edges": args.n,
        "tree_count": len(measure.entries),
        "log_zn_oracle": measure.log_total,
        "log_zn_table": log_dp,
        "rel_error": rel,
        "exact_mode": measure.exact,
    }
    if measure.exact:
        payload["exact_equal"] = measure.total == exact_corner(ws, args.n)[args.n][args.n - 1] / args.n
    print(json.dumps(payload, indent=2))
    return 0 if rel < 1e-9 else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = ExperimentSpec.from_json(fh.read())
    report = run_experiment(spec, emit_csv_dir=args.emit_csv)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name}: {check.value:.6g} {check.op} {check.threshold:.6g}",
            file=sys.stderr,
        )
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgtree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ztable", help="build and persist a Z(N,n) table")
    p.add_argument("--weights", required=True, help="weight family JSON (inline or path)")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--allow-large", action="store_true", dest="allow_large")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-csv", default=None, dest="dump_csv")
    p.set_defaults(func=_cmd_ztable)

    p = sub.add_parser("sample", help="draw exact samples from the tree measure")
    p.add_argument("--weights", required=True)
    p.add_argument("--n", type=int, required=True, help="number of edges")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--table", default=None, help="load this saved table instead of building one")
    p.add_argument("--out", default=None)
    p.add_argument("--stats-only", action="store_true", dest="stats_only")
    p.add_argument("--allow-large", action="store_true", dest="allow_large")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("distance", help="local-topology distance between two trees")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("predict", help="asymptotic predictions for factorial-power weights")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("oracle-check", help="compare the table against full enumeration")
    p.add_argument("--weights", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("experiment", help="run a JSON experiment spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--emit-csv", default=None, dest="emit_csv")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand; bad input (a spec, weights, a table file, a size
    the solver or the table cannot take, or a file that cannot be read or
    written) is one line on stderr and exit code 2, so that exit code 1
    keeps meaning a failed check."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, asymptotics.BoundaryHitError) as exc:
        print(f"sgtree: error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
