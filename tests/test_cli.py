"""End-to-end command tests driven through ``cli.main``.

Configs here shrink the optimizer blocks hard; output correctness and
determinism are what matters, not front quality.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaospi import chaos, cli, pipeline
from chaospi.chaos import AnalyzeOptions, EmbeddingParams, analyze, lyapunov_rosenstein
from chaospi.errors import ConfigError
from chaospi.nsga2 import NsgaParams
from chaospi.pipeline import PipelineConfig
from chaospi.series import TimeSeries, load_series
from helpers import (
    ar2_values,
    exit_in_worker,
    flat_training_values,
    fork_only,
    logistic_map,
    write_series,
)

SMALL_BLOCKS = {
    "stage2": {"pop_size": 16, "generations": 15},
    "stage3": {"pop_size": 16, "generations": 15},
}


@pytest.fixture
def series_csv(tmp_path):
    values = ar2_values(n=70, seed=33)
    labels = [f"2014-{i:03d}" for i in range(len(values))]
    path = tmp_path / "series.csv"
    write_series(TimeSeries(values=values, labels=labels), path)
    return path


def write_config(tmp_path, **extra):
    cfg = {"tau": 1, "m": 2, "test_horizon": 5, **SMALL_BLOCKS, **extra}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_cli(*argv):
    """Run the installed ``chaospi`` script, or ``python -m chaospi.cli``
    where none is on ``PATH``."""
    script = shutil.which("chaospi")
    command = [script] if script else [sys.executable, "-m", "chaospi.cli"]
    return subprocess.run([*command, *argv], capture_output=True, text=True)


def test_analyze_writes_diagnostics(tmp_path, capsys):
    # the logistic map keeps the automatic tau/m selection well inside the
    # data budget; the short AR fixture would pick an embedding it cannot fill
    path = tmp_path / "logistic.csv"
    write_series(TimeSeries(values=logistic_map(300)), path)
    out = tmp_path / "out"
    rc = cli.main(["analyze", "--input", str(path), "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "chaos.json").read_text())
    assert set(payload) == {"lambda", "tau", "m", "chaotic", "e1_curve", "e2_curve", "divergence_curve"}
    assert isinstance(payload["tau"], int) and payload["tau"] >= 1
    rows = read_csv(out / "divergence.csv")
    assert rows[0] == ["k", "mean_log_distance"]
    assert len(rows) > 1
    cao = read_csv(out / "cao.csv")
    assert cao[0] == ["d", "e1", "e2"]
    assert f"tau={payload['tau']}" in capsys.readouterr().out


def test_analyze_with_forced_dimension_skips_cao(tmp_path, series_csv):
    out = tmp_path / "out"
    rc = cli.main(["analyze", "--input", str(series_csv), "--tau", "1", "--m", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "chaos.json").read_text())
    assert payload["e1_curve"] is None
    assert not (out / "cao.csv").exists()
    # json stays strict: no bare NaN/Infinity tokens
    text = (out / "chaos.json").read_text()
    assert "NaN" not in text and "Infinity" not in text


def test_analyze_reports_null_lambda_below_20_state_vectors(tmp_path, capsys):
    # 25 points at tau 1, m 8 hold 18 state vectors
    short_csv = tmp_path / "short.csv"
    write_series(TimeSeries(values=ar2_values(n=25)), short_csv)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="need at least 20 state vectors, got 18"):
        rc = cli.main(["analyze", "--input", str(short_csv), "--tau", "1", "--m", "8",
                       "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "chaos.json").read_text())
    assert payload["lambda"] is None and payload["chaotic"] is False
    assert "lambda=nan (not chaotic)" in capsys.readouterr().out


def test_analyze_fails_when_tau_and_m_leave_no_state_vector(tmp_path, capsys):
    # 7 points at tau 1, m 8 hold no state vector
    short_csv = tmp_path / "short.csv"
    write_series(TimeSeries(values=ar2_values(n=7)), short_csv)
    out = tmp_path / "out"
    rc = cli.main(["analyze", "--input", str(short_csv), "--tau", "1", "--m", "8",
                   "--out", str(out)])
    assert rc == 1
    assert "holds no state vector" in capsys.readouterr().err
    assert not (out / "chaos.json").exists()


def test_intervals_runs_and_reruns_identically(tmp_path, series_csv):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = cli.main([
            "intervals", "--input", str(series_csv), "--config", str(cfg),
            "--model", "three_stage_single", "--seeds", "7", "--out", str(out),
        ])
        assert rc == 0
    report = json.loads((out_a / "report.json").read_text())
    assert report["model"] == "three_stage_single"
    assert report["seed"] == 7
    assert report["r"] == report["r1"] == report["r2"]
    assert set(report["test"]) == {"picp", "piaw"}

    rows = read_csv(out_a / "intervals.csv")
    assert rows[0] == ["index", "date", "actual", "point", "lower", "upper"]
    assert len(rows) == 1 + 5  # header plus one row per held-out step
    assert rows[1][1].startswith("2014-")

    for name in ("report.json", "intervals.csv", "chaos.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_intervals_matches_the_experiment_run_of_its_seed(tmp_path, series_csv):
    # both entry points hand the run seed to the same seeded run
    cfg = write_config(tmp_path, model="three_stage_dual")
    common = ["--input", str(series_csv), "--config", str(cfg)]
    exp = tmp_path / "exp"
    assert cli.main(["experiment", *common, "--seeds", "3,8", "--out", str(exp)]) == 0
    per_seed = json.loads((exp / "report.json").read_text())["per_seed"]
    assert per_seed[0]["coeffs"] != per_seed[1]["coeffs"]
    for entry in per_seed:
        out = tmp_path / f"seed_{entry['seed']}"
        assert cli.main(["intervals", *common, "--seeds", str(entry["seed"]), "--out", str(out)]) == 0
        run = json.loads((out / "report.json").read_text())
        for key in ("coeffs", "r1", "r2", "sigma"):
            assert run[key] == entry[key]
        assert (run["test"]["picp"], run["test"]["piaw"]) == (entry["picp"], entry["piaw"])


def test_intervals_two_stage_has_no_single_r_alias(tmp_path, series_csv):
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    rc = cli.main(["intervals", "--input", str(series_csv), "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["model"] == "two_stage"
    assert "r" not in report
    assert report["front_objectives"] == ["smape", "neg_ds"]


def test_experiment_outputs_full_layout(tmp_path, series_csv, capsys):
    out = tmp_path / "exp"
    cfg = write_config(tmp_path, workers=2)
    rc = cli.main([
        "experiment", "--input", str(series_csv), "--config", str(cfg),
        "--seeds", "0,1", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["seed"] for r in report["per_seed"]] == [0, 1]
    assert report["failures"] == []
    assert (out / "fronts" / "seed_0.csv").exists()
    assert (out / "fronts" / "seed_1.csv").exists()
    for name, level in [("eaf_best.csv", 1), ("eaf_median.csv", 1), ("eaf_worst.csv", 2)]:
        rows = read_csv(out / name)
        assert rows[0] == ["f1", "f2", "level"]
        assert all(int(r[2]) == level for r in rows[1:])
    assert "picp" in capsys.readouterr().out


def test_experiment_reports_seed_failures(tmp_path, capsys):
    flat_csv = tmp_path / "flat.csv"
    write_series(TimeSeries(values=flat_training_values()), flat_csv)
    cfg = write_config(tmp_path, standardize=True)
    out = tmp_path / "exp"
    with pytest.warns(UserWarning, match="divergence tracking failed"):
        rc = cli.main([
            "experiment", "--input", str(flat_csv), "--config", str(cfg),
            "--seeds", "0,1", "--out", str(out),
        ])
    assert rc == 1
    failures = json.loads((out / "failures.json").read_text())["failures"]
    assert [f["seed"] for f in failures] == [0, 1]
    assert "ZeroVarianceError" in failures[0]["error"]
    assert "2 of 2 seeds failed" in capsys.readouterr().err


def test_eaf_command_recomputes_surfaces(tmp_path, series_csv):
    exp = tmp_path / "exp"
    cfg = write_config(tmp_path)
    assert cli.main([
        "experiment", "--input", str(series_csv), "--config", str(cfg),
        "--seeds", "0,1,2", "--out", str(exp),
    ]) == 0
    redo = tmp_path / "redo"
    rc = cli.main(["eaf", "--input", str(exp), "--out", str(redo)])
    assert rc == 0
    for name in ("eaf_best.csv", "eaf_median.csv", "eaf_worst.csv"):
        assert (redo / name).read_bytes() == (exp / name).read_bytes()


def test_eaf_command_needs_front_files(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["eaf", "--input", str(empty), "--out", str(tmp_path / "o")]) == 1
    assert cli.main(["eaf", "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "text, rc",
    [
        ("f1,f2\n0.1,0.9\n0.5,0.4\n\n", 0),
        ("f1,f2\n0.1,0.9\n  \n0.5,0.4\n , \n", 0),
        ("f1,f2\n0.1,0.9\n0.5,x\n\n", 1),
    ],
    ids=["trailing_blank_row", "whitespace_rows", "non_number"],
)
def test_eaf_command_skips_blank_front_rows(tmp_path, capsys, text, rc):
    (tmp_path / "fronts").mkdir()
    (tmp_path / "fronts" / "seed_0.csv").write_text(text)
    out = tmp_path / "out"
    assert cli.main(["eaf", "--input", str(tmp_path), "--out", str(out)]) == rc
    if rc == 0:
        best = (out / "eaf_best.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in best[1:]] == [["0.1", "0.9"], ["0.5", "0.4"]]
    else:
        assert "malformed front rows" in capsys.readouterr().err


def test_reused_out_dir_drops_stale_chaos_curves(tmp_path):
    logistic, constant = tmp_path / "logistic.csv", tmp_path / "constant.csv"
    write_series(TimeSeries(values=logistic_map(300)), logistic)
    write_series(TimeSeries(values=np.ones(60)), constant)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(logistic), "--out", str(out)]) == 0
    assert (out / "cao.csv").exists()
    assert cli.main(["analyze", "--input", str(logistic), "--m", "3", "--out", str(out)]) == 0
    assert json.loads((out / "chaos.json").read_text())["e1_curve"] is None
    assert not (out / "cao.csv").exists()
    assert (out / "divergence.csv").exists()
    with pytest.warns(UserWarning, match="divergence tracking failed"):
        rc = cli.main(["analyze", "--input", str(constant), "--tau", "1", "--m", "2", "--out", str(out)])
    assert rc == 0
    assert not (out / "divergence.csv").exists()


def test_reused_out_dir_holds_only_this_runs_fronts(tmp_path, series_csv, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    for seeds in ("1,2,3", "4,5"):
        assert cli.main([
            "experiment", "--input", str(series_csv), "--config", str(cfg),
            "--seeds", seeds, "--out", str(out),
        ]) == 0
    assert sorted(os.listdir(out / "fronts")) == ["seed_4.csv", "seed_5.csv"]
    capsys.readouterr()
    assert cli.main(["eaf", "--input", str(out), "--out", str(tmp_path / "redo")]) == 0
    assert "attainment surfaces for 2 fronts" in capsys.readouterr().out


def test_reused_out_dir_drops_surfaces_and_failures_of_earlier_runs(tmp_path, series_csv):
    flat_csv = tmp_path / "flat.csv"
    write_series(TimeSeries(values=flat_training_values()), flat_csv)
    flat_cfg = tmp_path / "flat"
    flat_cfg.mkdir()
    out = tmp_path / "exp"
    argv = ["experiment", "--seeds", "0,1", "--out", str(out)]
    ok = argv + ["--input", str(series_csv), "--config", str(write_config(tmp_path))]
    failing = argv + ["--input", str(flat_csv),
                      "--config", str(write_config(flat_cfg, standardize=True))]
    assert cli.main(ok) == 0
    with pytest.warns(UserWarning, match="divergence tracking failed"):
        assert cli.main(failing) == 1  # every seed fails: no fronts, no surfaces
    assert os.listdir(out / "fronts") == []
    assert not any(name.startswith("eaf_") for name in os.listdir(out))
    assert (out / "failures.json").exists()
    assert cli.main(ok) == 0
    assert not (out / "failures.json").exists()
    assert {"eaf_best.csv", "eaf_median.csv", "eaf_worst.csv"} <= set(os.listdir(out))


def _tree(root):
    """Each file under ``root`` by relative path: (bytes, inode). A file
    written again gets a new inode, since writes rename a new file over it."""
    return {
        str(p.relative_to(root)): (p.read_bytes(), p.stat().st_ino)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _contents(root):
    return {name: data for name, (data, _) in _tree(root).items()}


def test_commands_keep_each_others_files_in_a_shared_out_dir(tmp_path, series_csv):
    cfg = write_config(tmp_path)
    common = ["--input", str(series_csv), "--config", str(cfg)]
    out = tmp_path / "shared"
    assert cli.main(["experiment", *common, "--seeds", "0,1", "--out", str(out)]) == 0
    experiment = _tree(out)
    eaf_names = {"eaf_best.csv", "eaf_median.csv", "eaf_worst.csv"}
    assert eaf_names | {"fronts/seed_0.csv", "fronts/seed_1.csv"} <= set(experiment)

    # eaf rewrites its surfaces, to the same bytes, and nothing else
    assert cli.main(["eaf", "--input", str(out), "--out", str(out)]) == 0
    after = _tree(out)
    assert set(after) == set(experiment)
    for name, (data, inode) in after.items():
        assert data == experiment[name][0]
        assert (inode != experiment[name][1]) == (name in eaf_names), name

    # the other commands leave one run: intervals into an experiment directory
    # drops its fronts, surfaces and failure record, and keeps a foreign file
    (out / "failures.json").write_text("{}")
    (out / "notes.txt").write_text("kept")
    assert cli.main(["intervals", *common, "--out", str(out)]) == 0
    run = tmp_path / "run"
    assert cli.main(["intervals", *common, "--out", str(run)]) == 0
    intervals = _contents(run)
    assert set(intervals) == {"chaos.json", "divergence.csv", "report.json", "intervals.csv"}
    assert _contents(out) == {**intervals, "notes.txt": b"kept"}

    # analyze into an intervals directory drops the run's report and rows;
    # the run's chaos files describe its training segment
    training_csv = tmp_path / "training.csv"
    series = load_series(str(series_csv))
    write_series(TimeSeries(values=series.values[:-5], labels=series.labels[:-5]), training_csv)
    assert cli.main(["analyze", "--input", str(training_csv), "--tau", "1", "--m", "2",
                     "--out", str(run)]) == 0
    assert set(_tree(run)) == {"chaos.json", "divergence.csv"}
    assert _contents(run) == {name: intervals[name] for name in ("chaos.json", "divergence.csv")}

    # experiment into an intervals directory drops its rows
    assert cli.main(["intervals", *common, "--out", str(run)]) == 0
    assert cli.main(["experiment", *common, "--seeds", "0,1", "--out", str(run)]) == 0
    assert _contents(run) == {name: data for name, (data, _) in experiment.items()}


def test_intervals_rows_are_the_series_last_positions(tmp_path, series_csv):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tau=2, m=3)
    assert cli.main(["intervals", "--input", str(series_csv), "--config", str(cfg),
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert (report["tau"], report["m"]) == (2, 3)
    rows = read_csv(out / "intervals.csv")[1:]
    values = ar2_values(n=70, seed=33)
    assert [int(r[0]) for r in rows] == list(range(65, 70))
    assert [r[1] for r in rows] == [f"2014-{i:03d}" for i in range(65, 70)]
    assert [float(r[2]) for r in rows] == values[65:].tolist()


def test_flag_overrides_config_file(tmp_path, series_csv):
    cfg = write_config(tmp_path)  # horizon 5 in the file
    out = tmp_path / "out"
    rc = cli.main([
        "intervals", "--input", str(series_csv), "--config", str(cfg),
        "--test-horizon", "4", "--out", str(out),
    ])
    assert rc == 0
    assert len(read_csv(out / "intervals.csv")) == 1 + 4


def test_config_file_validation(tmp_path, series_csv, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert cli.main(["analyze", "--input", str(series_csv), "--config", str(bad)]) == 1
    assert "unknown config keys" in capsys.readouterr().err

    bad.write_text("not json")
    assert cli.main(["analyze", "--input", str(series_csv), "--config", str(bad)]) == 1

    bad.write_text(json.dumps([1, 2]))
    assert cli.main(["analyze", "--input", str(series_csv), "--config", str(bad)]) == 1

    bad.write_text(json.dumps({"stage2": {"population": 10}}))
    assert cli.main(["analyze", "--input", str(series_csv), "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "config",
    [
        {"stage2": {"pop_size": "16"}},
        {"workers": "four"},
        {"seeds": 3},
        {"chaos": {"cao_max_dim": "x"}},
        {"seed_count": "x"},
        {"test_horizon": 2.7},
        {"standardize": "no"},
    ],
)
def test_mistyped_config_values_exit_one(tmp_path, series_csv, capsys, config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    rc = cli.main(["analyze", "--input", str(series_csv), "--tau", "1", "--m", "2",
                   "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_exit_one(tmp_path, series_csv, capsys, workers):
    cfg = write_config(tmp_path, workers=workers)
    rc = cli.main(["experiment", "--input", str(series_csv), "--config", str(cfg),
                   "--seeds", "0,1", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["intervals", "experiment"])
def test_seed_beyond_2_63_exits_one(tmp_path, series_csv, capsys, command):
    rc = cli.main([command, "--input", str(series_csv), "--config", str(write_config(tmp_path)),
                   "--seeds", str(2**63), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: run seeds must be below 2**63, got 9223372036854775808" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@fork_only
def test_dead_worker_exits_one(tmp_path, series_csv, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(pipeline, "_seed_outcome", exit_in_worker)
    cfg = write_config(tmp_path, workers=2)
    rc = cli.main(["experiment", "--input", str(series_csv), "--config", str(cfg),
                   "--seeds", "0,1,2", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: the worker running seeds [0, 2] exited with code 3 before sending their results\n"


def test_removed_seed_key_names_its_replacements(tmp_path, series_csv, capsys):
    cfg = write_config(tmp_path, seed=5)
    rc = cli.main(["intervals", "--input", str(series_csv), "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'seed'" in err and "'seeds'" in err and "'seed_base'" in err


@pytest.mark.parametrize("stage", ["stage2", "stage3"])
def test_stage_block_seed_names_its_replacements(tmp_path, series_csv, capsys, stage):
    # the run seeds each stage itself, so a block seed would be ignored
    cfg = write_config(tmp_path, **{stage: {"pop_size": 16, "generations": 15, "seed": 5}})
    rc = cli.main(["intervals", "--input", str(series_csv), "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"'{stage}.seed'" in err and "'seeds'" in err and "'seed_base'" in err
    assert not (tmp_path / "out").exists()


def test_nan_distribution_index_exits_one(tmp_path, series_csv, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"stage2": {"crossover_eta": NaN}}')  # json.load accepts NaN
    rc = cli.main(["analyze", "--input", str(series_csv), "--tau", "1", "--m", "2",
                   "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "distribution indices must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, message",
    [
        ({"max_lag": 0}, "max_lag must be >= 1, got 0"),
        ({"cao_max_dim": -3}, "cao_max_dim must be >= 1, got -3"),
        ({"cao_threshold": 7}, "cao_threshold must lie in (0, 1), got 7.0"),
        ({"cao_threshold": 0}, "cao_threshold must lie in (0, 1), got 0.0"),
        ({"k_max": 0}, "k_max must be >= 1, got 0"),
        ({"theiler_window": -1}, "theiler_window must be >= 0, got -1"),
        ({"fit_start": -2}, "fit_start must be >= 0, got -2"),
        ({"fit_start": 4, "fit_stop": 4}, "fit_start must be below fit_stop, got 4 and 4"),
    ],
)
def test_chaos_options_are_checked_when_tau_and_m_are_forced(tmp_path, series_csv, capsys,
                                                              block, message):
    # a forced tau/m leaves the delay and Cao options unused, not unchecked
    cfg = write_config(tmp_path, chaos=block)
    rc = cli.main(["analyze", "--input", str(series_csv), "--tau", "1", "--m", "2",
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def resolve(argv):
    return cli._resolve(cli.build_parser().parse_args(argv))


def test_resolve_defaults():
    setup, config = resolve(["analyze"])
    assert config == PipelineConfig()
    assert setup == {"input": None, "column": None, "out": ".", "workers": 1, "preset": None,
                     "seeds": list(range(20)), "seed_base": 0, "seed_count": 20}


def test_resolve_carries_every_config_key(tmp_path, capsys):
    stage2 = {"pop_size": 12, "generations": 7, "crossover_prob": 0.6, "crossover_eta": 11.0,
              "mutation_prob": 0.7, "mutation_prob_per_var": 0.3, "mutation_eta": 13.0}
    stage3 = {"pop_size": 14, "generations": 9, "crossover_prob": 0.5, "crossover_eta": 12.0,
              "mutation_prob": 0.8, "mutation_prob_per_var": None, "mutation_eta": 14.0}
    chaos = {"max_lag": 9, "cao_max_dim": 7, "cao_threshold": 0.07,
             "theiler_window": 3, "k_max": 11, "fit_start": 1, "fit_stop": 5}
    top = {"model": "three_stage_dual", "test_horizon": 4, "grid_step": 0.02,
           "picp_target": 0.9, "point_policy": "knee", "interval_policy": "min_piaw_above",
           "standardize": True}
    embedding = {"tau": 2, "m": 3}  # top-level keys of the chaos analysis
    setup = {"input": "in.csv", "column": "value", "out": "o", "workers": 2,
             "preset": "cpi_headline", "seed_base": 5, "seed_count": 3}
    assert set(top) == {f.name for f in fields(PipelineConfig)} - {"chaos", "stage2", "stage3"}
    assert set(stage2) == {f.name for f in fields(NsgaParams)}
    assert set(chaos) == {f.name for f in fields(AnalyzeOptions)} - {"tau", "m"}
    # the schema accepts these keys and no others ("seeds" is set in place of the seed range)
    assert {key: set(rule) if isinstance(rule, dict) else None
            for key, rule in cli._SCHEMA.items()} == {
        **dict.fromkeys([*top, *embedding, *setup, "seeds"]),
        "stage2": set(stage2), "stage3": set(stage3), "chaos": set(chaos),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**top, **embedding, **setup, "stage2": stage2,
                                "stage3": stage3, "chaos": chaos}))

    got_setup, config = resolve(["experiment", "--config", str(path)])
    # the preset's blocks are overridden field by field, here all of them
    assert config == PipelineConfig(
        **top,
        stage2=NsgaParams(**stage2),
        stage3=NsgaParams(**stage3),
        chaos=AnalyzeOptions(**embedding, **chaos),
    )
    assert got_setup == {**setup, "seeds": [5, 6, 7]}

    # the embedding has no second home in the chaos block, and one coverage
    # target serves both the grid search and min_piaw_above
    for bad in ({"chaos": {"tau": 1}}, {"picp_threshold": 0.9}):
        path.write_text(json.dumps(bad))
        assert cli.main(["analyze", "--config", str(path)]) == 1
        assert "unknown" in capsys.readouterr().err


def test_rosenstein_keys_reach_the_estimate(tmp_path, monkeypatch):
    keys = {"theiler_window": 5, "k_max": 12, "fit_start": 1, "fit_stop": 6}
    values = logistic_map(2000)
    direct = lyapunov_rosenstein(values, EmbeddingParams(tau=1, m=2), **keys)
    estimates = []

    def spy(*args, real=chaos.lyapunov_rosenstein, **kwargs):
        estimates.append(real(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(chaos, "lyapunov_rosenstein", spy)
    report = analyze(TimeSeries(values=values), AnalyzeOptions(tau=1, m=2, **keys))
    assert report.lyapunov == direct.exponent
    np.testing.assert_array_equal(report.divergence_curve, direct.divergence)
    assert [est.n_pairs for est in estimates] == [direct.n_pairs]

    # the same keys as the config's chaos block
    path, cfg, out = tmp_path / "logistic.csv", tmp_path / "config.json", tmp_path / "out"
    write_series(TimeSeries(values=values), path)
    cfg.write_text(json.dumps({"tau": 1, "m": 2, "chaos": keys}))
    assert cli.main(["analyze", "--input", str(path), "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "chaos.json").read_text())["lambda"] == direct.exponent


@pytest.mark.parametrize(
    "config, err",
    [
        ({"chaos": None}, ""),
        ({"stage3": 3}, "error: stage3 must be an object\n"),
        ({"chaos": {"fit_stopp": 1}}, "error: unknown chaos keys: ['fit_stopp']\n"),
        ({"chaos": {"fit_stop": "5"}}, "error: chaos.fit_stop must be an integer or null, got '5'\n"),
    ],
)
def test_config_block_errors_keep_their_messages(tmp_path, series_csv, capsys, config, err):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["analyze", "--input", str(series_csv), "--tau", "1", "--m", "2"]
    rc = cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (1 if err else 0, err)
    if not err:  # a null block runs as an empty one
        assert cli.main([*argv, "--out", str(tmp_path / "plain")]) == 0
        assert _contents(tmp_path / "out") == _contents(tmp_path / "plain")


# a flag or another key that overrides a mistyped entry does not excuse it
@pytest.mark.parametrize(
    "config, flags",
    [
        ({"tau": "1"}, ["--tau", "1"]),
        ({"seeds": 3}, ["--seeds", "1,2"]),
        ({"seed_count": "x"}, ["--seeds", "1,2"]),
        ({"seeds": [1], "seed_base": "y"}, []),
    ],
)
def test_shadowed_mistyped_config_value_exits_one(tmp_path, series_csv, capsys, config, flags):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    rc = cli.main(["analyze", "--input", str(series_csv), "--m", "2", *flags,
                   "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("config, flags", [({}, ["--seeds", "3,3"]), ({"seeds": [3, 3]}, [])])
def test_repeated_seeds_exit_one_and_write_nothing(tmp_path, series_csv, capsys, config, flags):
    cfg = write_config(tmp_path, **config)
    out = tmp_path / "out"
    rc = cli.main(["experiment", "--input", str(series_csv), "--config", str(cfg),
                   *flags, "--out", str(out)])
    assert rc == 1
    assert "seed 3 appears more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, flags", [({}, ["--seeds=-1,2"]), ({"seeds": [-1, 2]}, [])])
def test_negative_seeds_exit_one_and_write_nothing(tmp_path, series_csv, capsys, config, flags):
    cfg = write_config(tmp_path, **config)
    out = tmp_path / "out"
    rc = cli.main(["experiment", "--input", str(series_csv), "--config", str(cfg),
                   *flags, "--out", str(out)])
    assert rc == 1
    assert "run seeds must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["config", "front"])
def test_utf8_byte_order_mark_is_skipped(tmp_path, case):
    bom = b"\xef\xbb\xbf"
    if case == "config":
        path = tmp_path / "config.json"
        path.write_bytes(bom + b'{"tau": 1, "picp_target": 0.9}')
        _, config = resolve(["analyze", "--config", str(path)])
        assert (config.chaos.tau, config.picp_target) == (1, 0.9)
    else:
        path = tmp_path / "seed_0.csv"
        path.write_bytes(bom + b"f1,f2\n-1.0,2.5\n")
        assert cli._read_front(str(path)).tolist() == [[-1.0, 2.5]]


@pytest.mark.parametrize("case", ["config", "series", "front"])
def test_non_utf8_input_exits_one(tmp_path, series_csv, case):
    bad = tmp_path / "bad"
    if case == "config":
        bad = tmp_path / "config.json"
        bad.write_bytes('{"tau": 1}'.encode("utf-16"))  # starts with ff fe
        argv = ["analyze", "--input", str(series_csv), "--config", str(bad)]
    elif case == "series":
        bad = tmp_path / "series.csv"
        bad.write_bytes(series_csv.read_bytes() + b"2014-999,\xff1.0\n")
        argv = ["analyze", "--input", str(bad), "--tau", "1", "--m", "2"]
    else:
        (tmp_path / "fronts").mkdir()
        bad = tmp_path / "fronts" / "seed_2.csv"
        bad.write_bytes(b"\xff")
        argv = ["eaf", "--input", str(tmp_path)]
    out = tmp_path / "out"
    proc = run_cli(*argv, "--out", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert str(bad) in proc.stderr and "UTF-8" in proc.stderr
    assert not out.exists()


def test_domain_errors_exit_one(tmp_path, series_csv, capsys):
    assert cli.main(["analyze", "--input", str(tmp_path / "missing.csv")]) == 1
    assert "error:" in capsys.readouterr().err

    assert cli.main(["analyze", "--input", str(series_csv), "--column", "nope"]) == 1
    assert cli.main(["intervals"]) == 1  # no input anywhere
    assert cli.main(["analyze", "--input", str(series_csv), "--seeds", "a,b"]) == 1


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["analyze", "--no-such-flag"]) == 1
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_io_errors_exit_two(tmp_path, series_csv, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    rc = cli.main(["analyze", "--input", str(series_csv), "--tau", "1", "--m", "2",
                   "--out", str(blocker)])
    assert rc == 2
    assert "i/o error" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path, series_csv):
    out = tmp_path / "out"
    proc = run_cli("analyze", "--input", str(series_csv), "--tau", "1", "--m", "2",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "chaos.json").exists()
    assert "lambda=" in proc.stdout


class _HalfWrite:
    """An ``open`` whose written files take half of the text, then fail."""

    def __init__(self):
        self.real_open = open

    def __call__(self, path, mode="r", **kwargs):
        fh = self.real_open(path, mode, **kwargs)
        if "w" in mode:
            real_write = fh.write

            def write(text):
                real_write(text[: len(text) // 2])
                raise ConfigError("simulated failure in the middle of a write")

            fh.write = write
        return fh


def _failing_replace(src, dst):
    raise ConfigError("simulated failure before the rename")


@pytest.mark.parametrize(
    "patch",
    [("open", _HalfWrite()), ("replace", _failing_replace)],
    ids=["half_write", "rename"],
)
def test_failed_write_leaves_no_partial_file(tmp_path, series_csv, capsys, monkeypatch, patch):
    cfg = write_config(tmp_path)
    kept, fresh = tmp_path / "kept", tmp_path / "fresh"

    def intervals(out):
        return cli.main(["intervals", "--input", str(series_csv), "--config", str(cfg),
                         "--out", str(out)])

    assert intervals(kept) == 0
    before = {p.name: p.read_bytes() for p in kept.iterdir()}
    assert set(before) == {"report.json", "intervals.csv", "chaos.json", "divergence.csv"}
    name, broken = patch
    if name == "open":
        monkeypatch.setattr(cli, "open", broken, raising=False)
    else:
        monkeypatch.setattr(cli.os, "replace", broken)
    assert intervals(kept) == 1
    assert intervals(fresh) == 1
    assert "simulated failure" in capsys.readouterr().err
    # earlier outputs survive whole, and no temporary file is left behind
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before
    assert list(fresh.iterdir()) == []


# Config values drawn from mixed JSON types; integers stay in [-3, 20] and
# the base config keeps the stage blocks small, so valid configs run fast.
_WORDS = sorted(
    {*pipeline.MODEL_KINDS, *pipeline.POINT_POLICIES, *pipeline.INTERVAL_POLICIES,
     *pipeline.PRESETS, "", "x", "value"}
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 20)
    | st.floats(-3.0, 20.0)
    | st.sampled_from(_WORDS)
)
_VALUES = (
    _SCALARS
    | st.lists(_SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2)
)


_TYPED = {
    int: st.integers(-3, 20),
    float: st.integers(-3, 20) | st.floats(-3.0, 20.0),
    bool: st.booleans(),
    str: st.sampled_from(_WORDS),
    list: st.lists(st.integers(-3, 20), max_size=3),
}
# the blocks as a whole take any value here; their keys are drawn below
_BLOCKS = {label: rule for label, rule in cli._SCHEMA.items() if isinstance(rule, dict)}
_TOP_KINDS = {key: None if key in _BLOCKS else rule[0] for key, rule in cli._SCHEMA.items()}


def _entries(kinds, max_size):
    """Up to ``max_size`` entries: known keys (mostly with a value of the
    kind the key takes, so that runs get past the type checks) and an
    unknown one."""

    def entry(key):
        typed = _TYPED.get(kinds.get(key), _VALUES)
        value = st.integers(0, 9).flatmap(lambda i: typed if i else _VALUES)
        return st.tuples(st.just(key), value)

    keys = st.sampled_from(sorted(kinds) + ["bogus"])
    return st.lists(keys.flatmap(entry), max_size=max_size).map(dict)


_CONFIGS = st.tuples(
    _entries(_TOP_KINDS, 3),
    st.fixed_dictionaries(
        {},
        optional={
            label: _entries({k: kind for k, (kind, _) in keys.items()}, 3)
            for label, keys in _BLOCKS.items()
        },
    ),
)


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "series.csv"
    write_series(TimeSeries(values=ar2_values(n=70, seed=33)), path)
    return path


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["analyze", "intervals", "experiment"]), drawn=_CONFIGS)
@example(command="intervals", drawn=({"seed_base": -1}, {}))
@example(command="intervals", drawn=({"grid_step": 6.583805462094533e-61}, {}))
def test_fuzzed_config_exits_cleanly(fuzz_csv, command, drawn):
    top, blocks = drawn
    small = {"pop_size": 8, "generations": 4}
    cfg = {"tau": 1, "m": 2, "test_horizon": 5, "seed_count": 2,
           "stage2": dict(small), "stage3": dict(small), **top}
    for key, block in blocks.items():
        cfg[key] = {**cfg[key], **block} if isinstance(cfg.get(key), dict) else block
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([command, "--input", str(fuzz_csv), "--config", cfg_path,
                           "--out", os.path.join(tmp, "out")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_experiment_does_not_import_numpy_ma(tmp_path, series_csv):
    # np.unique imports numpy.ma on its first call (numpy 2.x), a cost the
    # EAF sweep has no use for
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    if loaded.stdout.strip() != "False":
        pytest.skip("importing numpy alone loads numpy.ma")
    out = tmp_path / "out"
    run = ("import sys; from chaospi import cli; rc = cli.main(sys.argv[1:]); "
           "print('numpy.ma' in sys.modules); sys.exit(rc)")
    proc = subprocess.run(
        [sys.executable, "-c", run, "experiment", "--input", str(series_csv),
         "--config", str(write_config(tmp_path)), "--seeds", "1,2", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.glob("eaf_*.csv"))
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["analyze", "intervals", "experiment"])
def test_commands_do_not_import_numpy_random(tmp_path, command):
    # numpy.random pulls in secrets -> hmac -> OpenSSL, about 6 MB of peak
    # RSS and 14 ms of start-up; the engine's SplitMix64 stream and the
    # stage seeds need only uint64 arithmetic
    probe = "import sys, numpy; print('numpy.random' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    if loaded.stdout.strip() != "False":
        pytest.skip("importing numpy alone loads numpy.random")
    path = tmp_path / "logistic.csv"
    write_series(TimeSeries(values=logistic_map(300)), path)
    argv = [command, "--input", str(path), "--out", str(tmp_path / "out")]
    if command != "analyze":
        argv += ["--config", str(write_config(tmp_path, workers=1)), "--seeds", "1,2"]
    run = ("import sys, chaospi, chaospi.cli; rc = chaospi.cli.main(sys.argv[1:]); "
           "print('numpy.random' in sys.modules); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", run, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    written = {"analyze": "chaos.json", "intervals": "intervals.csv", "experiment": "report.json"}
    assert (tmp_path / "out" / written[command]).exists()
    assert proc.stdout.splitlines()[-1] == "False"


def test_parallel_experiment_does_not_import_concurrent_futures(tmp_path, series_csv):
    # the pool module pulls in queues, a management thread, logging and
    # traceback: about 1.3 MB of peak RSS in the measured process
    probe = "import sys, numpy; print('concurrent.futures' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    if loaded.stdout.strip() != "False":
        pytest.skip("importing numpy alone loads concurrent.futures")
    # two usable CPUs, so the seeds run in worker processes on any machine
    run = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
           "from chaospi import cli; rc = cli.main(sys.argv[1:]); "
           "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules); "
           "sys.exit(rc)")
    proc = subprocess.run(
        [sys.executable, "-c", run, "experiment", "--input", str(series_csv),
         "--config", str(write_config(tmp_path, workers=2)), "--seeds", "1,2",
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True False"


@pytest.mark.parametrize("command", ["analyze", "experiment"])
def test_serial_commands_do_not_import_multiprocessing(tmp_path, command):
    # only an experiment on more than one worker needs worker processes
    probe = "import sys, numpy; print('multiprocessing' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    if loaded.stdout.strip() != "False":
        pytest.skip("importing numpy alone loads multiprocessing")
    path = tmp_path / "logistic.csv"
    write_series(TimeSeries(values=logistic_map(300)), path)
    argv = [command, "--input", str(path), "--out", str(tmp_path / "out")]
    if command == "experiment":
        argv += ["--config", str(write_config(tmp_path, workers=1)), "--seeds", "1,2"]
    run = ("import sys, chaospi, chaospi.cli; rc = chaospi.cli.main(sys.argv[1:]); "
           "print('multiprocessing' in sys.modules); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", run, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / ("chaos.json" if command == "analyze" else "report.json")).exists()
    assert proc.stdout.splitlines()[-1] == "False"
