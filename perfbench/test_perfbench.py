"""Toy-size checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root.  Each workload runs at toy size, untraced
and traced, and must emit every metric BENCHMARK.json names with its
unit, with every operation and gate passing.  A Z-table with one entry
perturbed by 1e-6 relative must be counted as a failure.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gates as G  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    values, run = R.run_workload(ROOT, workload, seed=5, seconds=0.2, trace=trace, sizes=W.TOY)
    result = R.result_line(SPEC, values, run, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0, run.op_failures + run.gates.failures
    assert result["correct"] is True


@pytest.mark.parametrize("cfg", W.ZTABLE_FAMILIES, ids=G.family_label)
def test_perturbed_table_is_a_failure(cfg):
    import sgtree

    n_max = W.TOY.ztable_n_max
    table = sgtree.build_ztable(sgtree.WeightSequence.from_config(cfg), n_max).log_table
    corner = W.TOY.mp_corner if cfg["family"] == "factorial_alpha" else W.TOY.int_corner

    clean = G.Gates()
    G.check_table(clean, "clean", cfg, table, corner)
    assert clean.failed == 0, clean.failures

    for n_vertices, n in [(n_max // 2, n_max // 3), (n_max, n_max), (2, 1)]:
        bad = table.copy()
        bad[n_vertices, n] += math.log1p(1e-6)
        gates = G.Gates()
        G.check_table(gates, "perturbed", cfg, bad, corner)
        assert gates.failed >= 1, (n_vertices, n)


def test_sampled_gates_flag_a_wrong_law():
    gates = G.Gates()
    p = np.array([0.5, 0.3, 0.2])
    G.chi_square_gate(gates, "right law", np.array([5000, 3000, 2000]), p)
    G.chi_square_gate(gates, "wrong law", np.array([4000, 3500, 2500]), p)
    G.mean_within_se(gates, "mean off by 10 SE", 1.0 + 10 * math.sqrt(4 / 100), 1.0, 4.0, 100)
    assert gates.attempted == 3
    assert [f.split(":")[0] for f in gates.failures] == ["wrong law", "mean off by 10 SE"]
