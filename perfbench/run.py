"""sgtree benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory that holds `src/`
and `BENCHMARK.json`).  Workloads: ztable_build, sample_condensed,
experiment_specs (see workloads.py and README.md).  With --trace 0 the
result carries the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics, and the spans go to .perfbench_run/trace-NAME.jsonl.

Readable lines come first: run facts, every metric with its unit, any
failed check.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

import workloads as W
from spans import NullTracer, Tracer

WORK_ROOT = ".perfbench_run"


def host_facts(root: str) -> dict:
    """Read-only facts about the code and the host, echoed with every run."""
    import numpy
    import scipy

    facts = {
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            facts["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown"
            )
    except OSError:
        facts["cpu_model"] = platform.processor() or "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as lv, open(os.path.join(base, entry, "type")) as ty, \
                    open(os.path.join(base, entry, "size")) as sz:
                caches[f"L{lv.read().strip()}{ty.read().strip()[0].lower()}"] = sz.read().strip()
        except OSError:
            continue
    facts["caches"] = caches
    return facts


def _commit(root: str) -> str:
    """HEAD of a git checkout, read from the files; 'unknown' without .git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> str:
    """OpenBLAS's own thread count when numpy links it, else the env setting."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 sizes: W.Sizes = W.FULL) -> tuple[dict, W.Run]:
    """Set up, time and check one workload; returns (metric values, run)."""
    work = os.path.join(root, WORK_ROOT, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = Tracer() if trace else NullTracer()
    run = W.Run(root=root, work=work, seed=seed, seconds=seconds, tracer=tracer, sizes=sizes)
    try:
        workload = W.WORKLOADS[name](run)
        workload.setup()
        workload.timed()
        workload.check()
        values = W.per_layer(run) if trace else W.end_to_end(run)
        if trace:
            tracer.write(os.path.join(root, WORK_ROOT, f"trace-{name}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return values, run


def result_line(spec: dict, values: dict, run: W.Run, trace: bool) -> dict:
    """The final JSON object, metrics named and united as BENCHMARK.json says."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    attempted = len(run.ops) + run.gates.attempted
    failed = len(run.op_failures) + run.gates.failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sgtree", "__init__.py")):
        print("run from the root of an sgtree checkout: src/sgtree is missing", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    values, run = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_line(spec, values, run, bool(args.trace))

    facts = dict(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                 passes=len(run.pass_walls), ops=len(run.ops), gates=run.gates.attempted, **run.info)
    quiet = W.quiet_passes(run)
    facts.update(quiet_passes=len(quiet), quiet_ops=len(W.ops_of(run, quiet)))
    facts.update(host_facts(root))
    print("run " + json.dumps(facts))
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {result['failed']}/{result['attempted']}")
    for what in run.op_failures[:20] + run.gates.failures:
        print("FAILED " + what)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
