import argparse
import dataclasses
import hashlib
import json

import pytest

from sgtree import AsymptoticPrediction, factorial_alpha_weights, predict_log_zn
from sgtree import cli
from sgtree.cli import build_parser, main

CLI_OPTIONS = [
    ("distance", "file_a"),
    ("distance", "file_b"),
    ("experiment", "--emit-csv"),
    ("experiment", "--out"),
    ("experiment", "--spec"),
    ("oracle-check", "--n"),
    ("oracle-check", "--weights"),
    ("predict", "--alpha"),
    ("predict", "--n"),
    ("sample", "--allow-large"),
    ("sample", "--count"),
    ("sample", "--n"),
    ("sample", "--out"),
    ("sample", "--seed"),
    ("sample", "--stats-only"),
    ("sample", "--stream"),
    ("sample", "--table"),
    ("sample", "--weights"),
    ("ztable", "--allow-large"),
    ("ztable", "--dump-csv"),
    ("ztable", "--nmax"),
    ("ztable", "--out"),
    ("ztable", "--weights"),
]


def test_cli_surface_pinned():
    """Adding or removing a subcommand or an option means editing this list."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    pairs = sorted(
        (command, action.option_strings[0] if action.option_strings else action.dest)
        for command, parser in sub.choices.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    )
    assert pairs == CLI_OPTIONS


def test_ztable_build_and_sample_round_trip(tmp_path, capsys):
    table_path = str(tmp_path / "u.sgtz")
    rc = main(
        [
            "ztable",
            "--weights",
            '{"family": "uniform"}',
            "--nmax",
            "12",
            "--out",
            table_path,
            "--dump-csv",
            str(tmp_path / "u.csv"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "u.csv").read_text().startswith("N,n,logZ")

    out = str(tmp_path / "trees.txt")
    rc = main(
        [
            "sample",
            "--weights",
            '{"family": "uniform"}',
            "--n",
            "8",
            "--count",
            "25",
            "--seed",
            "3",
            "--table",
            table_path,
            "--out",
            out,
        ]
    )
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 25
    from sgtree import PlaneTree

    for line in lines:
        t = PlaneTree.from_text(line)
        assert t.n_edges == 8
    # a table of another family, or too small for --n, is one stderr line and exit code 2
    capsys.readouterr()
    for weights, n in (('{"family": "lambda_factorial", "lam": "1"}', "8"), ('{"family": "uniform"}', "20")):
        assert main(["sample", "--weights", weights, "--n", n, "--table", table_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sgtree: error: table ") and err.count("\n") == 1


def test_sample_missing_table_fails(tmp_path, capsys):
    """A --table path that does not exist is an error, not a rebuild."""
    out = tmp_path / "trees.txt"
    args = ["sample", "--weights", '{"family": "uniform"}', "--n", "8", "--table", str(tmp_path / "missing.sgtz")]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgtree: error: ") and "missing.sgtz" in err and err.count("\n") == 1
    assert not out.exists()
    assert not (tmp_path / "missing.sgtz").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--spec", "{d}/missing.json"],
        ["distance", "{d}/missing_a.txt", "{d}/missing_b.txt"],
        ["ztable", "--weights", '{{"family": "uniform"}}', "--nmax", "5", "--out", "{d}/no_dir/u.sgtz"],
        ["ztable", "--weights", '{{"family": "uniform"}}', "--nmax", "5", "--out", "{d}/u.sgtz",
         "--dump-csv", "{d}/no_dir/u.csv"],
    ],
    ids=["experiment-spec", "distance", "ztable-out", "ztable-dump-csv"],
)
def test_file_errors_are_one_line(tmp_path, capsys, argv):
    """A file that cannot be read or written is exit code 2, not 1, which
    means a failed check."""
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgtree: error: [Errno 2] ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "outputs",
    [["--out", "{d}/no_dir/u.sgtz"], ["--out", "{d}/u.sgtz", "--dump-csv", "{d}/no_dir/u.csv"],
     ["--out", "{d}/no_dir/u.sgtz", "--dump-csv", "{d}/u.csv"]],
    ids=["out", "dump-csv", "out-with-good-csv"],
)
def test_ztable_checks_outputs_before_building(tmp_path, capsys, monkeypatch, outputs):
    """An output path in a missing directory is exit 2 before any build,
    with no file made and an existing one left as it was."""
    monkeypatch.setattr(cli, "build_ztable", lambda *args, **kwargs: pytest.fail("table built"))
    (tmp_path / "u.sgtz").write_bytes(b"keep")
    (tmp_path / "u.csv").write_bytes(b"keep")
    argv = ["ztable", "--weights", '{"family": "uniform"}', "--nmax", "700"] + [a.format(d=tmp_path) for a in outputs]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgtree: error: [Errno 2] ") and "no_dir" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["u.csv", "u.sgtz"]
    assert (tmp_path / "u.sgtz").read_bytes() == (tmp_path / "u.csv").read_bytes() == b"keep"


def test_sample_checks_out_before_building(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_ztable", lambda *args, **kwargs: pytest.fail("table built"))
    argv = ["sample", "--weights", '{"family": "uniform"}', "--n", "700", "--out", str(tmp_path / "no_dir" / "t.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("sgtree: error: [Errno 2] ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["ztable", "--weights", '{{"family": "uniform"}}', "--nmax", "300", "--out", "{d}/adir"],
        ["ztable", "--weights", '{{"family": "uniform"}}', "--nmax", "300", "--out", "{d}/u.sgtz",
         "--dump-csv", "{d}/adir"],
        ["sample", "--weights", '{{"family": "uniform"}}', "--n", "300", "--out", "{d}/adir"],
    ],
    ids=["ztable-out", "ztable-dump-csv", "sample-out"],
)
def test_directory_output_fails_before_building(tmp_path, capsys, monkeypatch, argv):
    """An output path that is an existing directory is exit 2 before any
    build or draw, and nothing is written."""
    monkeypatch.setattr(cli, "build_ztable", lambda *args, **kwargs: pytest.fail("table built"))
    (tmp_path / "adir").mkdir()
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgtree: error: [Errno 21] ") and "adir" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_sample_stats_only(tmp_path, capsys):
    rc = main(
        [
            "sample",
            "--weights",
            '{"family": "lambda_factorial", "lam": "2"}',
            "--n",
            "20",
            "--count",
            "10",
            "--seed",
            "1",
            "--stats-only",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "sigma_s,x2,x3,x4,max_other_degree,max_branch_size"
    assert len(out) == 11


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("mode", [[], ["--stats-only"]])
def test_sample_count_below_one_is_an_error(capsys, count, mode):
    """No trees to draw is bad input, not an empty success, in both modes."""
    assert main(["sample", "--weights", '{"family": "uniform"}', "--n", "8", "--count", count] + mode) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"sgtree: error: --count must be >= 1, got {count}\n"


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("mode", [[], ["--table", "missing.sgtz"]])
def test_sample_n_below_one_names_the_flag(capsys, n, mode):
    """--n < 1 is rejected before a table is built or loaded (the table
    named here does not exist), and the error names --n."""
    assert main(["sample", "--weights", '{"family": "uniform"}', "--n", n] + mode) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"sgtree: error: --n must be >= 1, got {n}\n"


@pytest.mark.parametrize(
    "weights",
    ['{"family": "lambda_factorial", "lam": "1/0"}', '{"family": "custom", "weights": ["1", "1/0", "2"]}'],
)
def test_zero_denominator_weight_is_bad_input(capsys, weights):
    """A weight with a zero denominator is exit code 2 with one line that
    names it, not a ZeroDivisionError traceback."""
    assert main(["sample", "--weights", weights, "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "sgtree: error: weight '1/0' has a zero denominator\n"


def test_sample_words_pinned(capsys):
    """Same seed, same trees: pins the words `sgtree sample` prints."""
    weights = '{"family":"factorial_alpha","alpha":0.5}'
    assert main(["sample", "--weights", weights, "--n", "60", "--count", "200", "--seed", "3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
    assert digest == "742ac299030f283d1b372f0a88aac870cab2266a7be8fdfd13280b282909c684"


def test_sample_seed_determinism(tmp_path):
    args = [
        "sample",
        "--weights",
        '{"family": "factorial_alpha", "alpha": 0.5}',
        "--n",
        "30",
        "--count",
        "5",
        "--seed",
        "11",
    ]
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_distance_command(tmp_path, capsys):
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    fa.write_text("1 0\n")
    fb.write_text("1 1 0\n")
    assert main(["distance", str(fa), str(fb)]) == 0
    assert capsys.readouterr().out.strip() == "1/3"
    fb.write_text("1 0\n")
    assert main(["distance", str(fa), str(fb)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_predict_command(capsys):
    assert main(["predict", "--alpha", "0.5", "--n", "400"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_cutoff"] == 2
    assert payload["scales"][0] == pytest.approx(20.0)
    assert payload["poisson_mean"] == pytest.approx(2**0.5)
    assert list(payload) == [f.name for f in dataclasses.fields(AsymptoticPrediction)]
    assert payload["log_zn"] == predict_log_zn(factorial_alpha_weights(0.5), 400)


def test_predict_rejects_non_finite_alpha(capsys):
    for alpha in ("nan", "inf", "0"):
        assert main(["predict", "--alpha", alpha, "--n", "400"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sgtree: error: alpha must be a finite number > 0") and err.count("\n") == 1


def test_predict_bad_sizes_are_one_line_errors(capsys):
    """A size below 1 is named, and a center solve that runs out of steps is
    bad input like any other unsolved center: exit 2, one stderr line."""
    for n, message in (("0", "n_edges must be >= 1, got 0"), ("1000", "did not converge in 100 steps")):
        assert main(["predict", "--alpha", "0.16", "--n", n]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sgtree: error: ") and message in err and err.count("\n") == 1


def test_oracle_check_command(capsys):
    assert main(["oracle-check", "--weights", '{"family": "lambda_factorial", "lam": "1"}', "--n", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tree_count"] == 42
    assert payload["exact_equal"] is True
    assert payload["rel_error"] < 1e-12


def test_experiment_command(tmp_path, capsys):
    spec = {
        "experiment": "logz_expansion",
        "weights": {"family": "factorial_alpha", "alpha": 0.6},
        "n_list": [50, 100],
        "seed": 4,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    report_path = tmp_path / "report.json"
    rc = main(["experiment", "--spec", str(spec_path), "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["rng_algorithm"] == "philox4x64"
    assert report["sampler_algorithm"] == "zero-run-search"
    assert report["spec"]["experiment"] == "logz_expansion"


def test_experiment_failing_exit_code(tmp_path):
    spec = {
        "experiment": "star_dominance",
        "weights": {"family": "factorial_alpha", "alpha": 1.5},
        "n_list": [60],
        "samples": 200,
        "seed": 5,
        "tolerances": {"zn_rel_error": 1e-9},  # unachievable on purpose
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(spec_path)]) == 1


@pytest.mark.parametrize("spec", [[], {"experiment": "identities", "n_list": [10]}])
def test_experiment_bad_spec_is_one_line(tmp_path, capsys, spec):
    """A spec the harness rejects is one stderr line and exit code 2, not a traceback."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sgtree: error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
