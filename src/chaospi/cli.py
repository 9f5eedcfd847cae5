"""Command-line interface.

Subcommands:

* ``analyze`` -- chaos diagnostics only; writes ``chaos.json`` plus
  ``divergence.csv`` and (unless the dimension was forced) ``cao.csv``.
* ``intervals`` -- one seeded model run; writes ``report.json`` and
  ``intervals.csv`` (test rows) plus ``chaos.json``.
* ``experiment`` -- the same model across many seeds; writes ``report.json``,
  ``chaos.json``, per-seed fronts under ``fronts/seed_<s>.csv``, and
  best/median/worst attainment surfaces as ``eaf_<level>.csv``.
* ``eaf`` -- recompute attainment surfaces from previously saved front CSVs.

Exit codes: 0 on success, 1 on any domain or configuration error, 2 on an
operating-system I/O failure. Outputs are plain JSON/CSV written with
deterministic formatting, so re-running a command with identical inputs and
configuration reproduces files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import fields, replace
from typing import Any

import numpy as np

from . import eaf as eaf_mod
from . import pipeline
from .chaos import AnalyzeOptions, ChaosReport, RosensteinOptions, analyze
from .errors import ChaospiError, ConfigError, EmptyFrontError
from .nsga2 import NsgaParams
from .pipeline import ExperimentReport, PipelineConfig, RunResult
from .series import TimeSeries, load_series

# Keys of the "chaos" and "stage2"/"stage3" config blocks: (kind, may be null).
_CHAOS_KEYS = {
    "max_lag": (int, True),
    "cao_max_dim": (int, False),
    "cao_threshold": (float, False),
    "theiler_window": (int, True),
    "k_max": (int, True),
    "fit_start": (int, False),
    "fit_stop": (int, True),
}
_NSGA_KEYS = {
    f.name: (float if "float" in str(f.type) else int, "None" in str(f.type))
    for f in fields(NsgaParams)
}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean",
               str: "a string", list: "a list"}
_TOP_KEYS = {
    "input",
    "column",
    "out",
    "model",
    "preset",
    "test_horizon",
    "tau",
    "m",
    "standardize",
    "grid_step",
    "picp_target",
    "point_policy",
    "interval_policy",
    "picp_threshold",
    "seeds",
    "seed_base",
    "seed_count",
    "workers",
    "stage2",
    "stage3",
    "chaos",
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as config errors."""

    def error(self, message):
        raise ConfigError(message)


def _jsonify(value: Any) -> Any:
    """Make a value JSON-safe: arrays become lists, non-finite floats null."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to a temporary file in the target's directory, then
    rename it over the target, so a failed write never leaves a partial file."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonify(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_file(path, text + "\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
        )
    _write_file(path, buf.getvalue())


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    if "seed" in raw:
        raise ConfigError("config key 'seed' was removed; choose seeds with 'seeds' or 'seed_base'")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _typed(value: Any, kind: type, name: str, nullable: bool = False) -> Any:
    """Check one config value against its JSON kind and return it.

    Integers must be JSON integers (a boolean is not one), numbers accept
    integers and come back as floats, booleans must be JSON booleans.
    """
    if value is None and nullable:
        return None
    if kind in (int, float):
        ok = isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        null = " or null" if nullable else ""
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}{null}, got {value!r}")
    return float(value) if kind is float else value


def _block(raw: Any, label: str, keys: dict[str, tuple[type, bool]]) -> dict:
    """Type-check a nested config object against its key table."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be an object")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
    checked = {}
    for key, value in raw.items():
        kind, nullable = keys[key]
        checked[key] = _typed(value, kind, f"{label}.{key}", nullable)
    return checked


def _nsga_params(raw: Any, label: str, default: NsgaParams) -> NsgaParams:
    return replace(default, **_block(raw, label, _NSGA_KEYS))


def _chaos_opts(raw: Any) -> AnalyzeOptions:
    raw = _block(raw, "chaos", _CHAOS_KEYS)
    ros = RosensteinOptions(
        theiler_window=raw.get("theiler_window"),
        k_max=raw.get("k_max"),
        fit_start=raw.get("fit_start", 0),
        fit_stop=raw.get("fit_stop"),
    )
    return AnalyzeOptions(
        max_lag=raw.get("max_lag"),
        cao_max_dim=raw.get("cao_max_dim", 12),
        cao_threshold=raw.get("cao_threshold", 0.05),
        rosenstein=ros,
    )


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None


def _resolve(args: argparse.Namespace) -> tuple[dict, PipelineConfig, list[int]]:
    """Merge defaults, config file, and flags into one run setup."""
    cfg = _load_config_file(getattr(args, "config", None))

    def pick(flag: str | None, key: str, kind: type, default=None, nullable=False):
        # a config entry is checked even when a flag overrides it
        if key in cfg:
            default = _typed(cfg[key], kind, key, nullable)
        v = getattr(args, flag, None) if flag else None
        return _typed(default if v is None else v, kind, key, nullable)

    meta = {
        "input": pick("input", "input", str, nullable=True),
        "column": pick("column", "column", str, nullable=True),
        "out": pick("out", "out", str, "."),
        "workers": pick(None, "workers", int, 1),
    }
    if meta["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {meta['workers']}")

    base = PipelineConfig(
        model=pick("model", "model", str, "two_stage"),
        test_horizon=pick("test_horizon", "test_horizon", int, 6),
        tau=pick("tau", "tau", int, nullable=True),
        m=pick("m", "m", int, nullable=True),
        chaos=_chaos_opts(cfg.get("chaos")),
        grid_step=pick(None, "grid_step", float, 0.01),
        picp_target=pick(None, "picp_target", float, 0.95),
        point_policy=pick(None, "point_policy", str, "min_smape"),
        interval_policy=pick(None, "interval_policy", str, "max_picp"),
        picp_threshold=pick(None, "picp_threshold", float, 0.95),
        standardize=pick(None, "standardize", bool, False),
    )
    preset = pick(None, "preset", str, nullable=True)
    if preset is not None:
        base = pipeline.apply_preset(base, preset)
    base = replace(
        base,
        stage2=_nsga_params(cfg.get("stage2"), "stage2", base.stage2),
        stage3=_nsga_params(cfg.get("stage3"), "stage3", base.stage3),
    )

    # the seed entries are checked even when --seeds or "seeds" overrides them
    seed_base = pick(None, "seed_base", int, 0)
    seed_count = pick(None, "seed_count", int, 20)
    if "seeds" in cfg:
        seeds = [_typed(s, int, "seeds entry") for s in pick(None, "seeds", list)]
    seeds_flag = getattr(args, "seeds", None)
    if seeds_flag is not None:
        seeds = _parse_seeds(seeds_flag)
    elif "seeds" not in cfg:
        if seed_count < 1:
            raise ConfigError("seed_count must be >= 1")
        seeds = list(range(seed_base, seed_base + seed_count))
    if not seeds:
        raise ConfigError("seed list is empty")
    return meta, base, seeds


def _read_input(meta: dict) -> TimeSeries:
    if not meta["input"]:
        raise ConfigError("an input CSV is required (--input or config 'input')")
    return load_series(meta["input"], column=meta["column"])


def _chaos_payload(report: ChaosReport) -> dict:
    return {
        "lambda": report.lyapunov,
        "tau": report.tau,
        "m": report.m,
        "chaotic": report.chaotic,
        "e1_curve": report.e1_curve,
        "e2_curve": report.e2_curve,
        "divergence_curve": report.divergence_curve,
    }


def _write_chaos(out: str, report: ChaosReport) -> None:
    _write_json(os.path.join(out, "chaos.json"), _chaos_payload(report))
    if report.divergence_curve is not None:
        rows = [
            [k, float(v)]
            for k, v in enumerate(report.divergence_curve)
            if math.isfinite(float(v))
        ]
        _write_csv(os.path.join(out, "divergence.csv"), ["k", "mean_log_distance"], rows)
    if report.e1_curve is not None and report.e2_curve is not None:
        rows = [
            [d + 1, float(e1), float(e2)]
            for d, (e1, e2) in enumerate(zip(report.e1_curve, report.e2_curve))
        ]
        _write_csv(os.path.join(out, "cao.csv"), ["d", "e1", "e2"], rows)


def _run_payload(result: RunResult) -> dict:
    payload = {
        "model": result.model_kind,
        "seed": result.seed,
        "tau": result.tau,
        "m": result.m,
        "lambda": result.lyapunov,
        "chaotic": result.chaotic,
        "coeffs": result.point_model.coeffs,
        "r1": result.interval.r1,
        "r2": result.interval.r2,
        "sigma": result.interval.sigma,
        "front_objectives": list(result.front_objectives),
        "train": {
            "picp": result.train.picp,
            "piaw": result.train.piaw,
            "smape": result.train_smape,
            "ds": result.train_ds,
        },
        "test": {"picp": result.test.picp, "piaw": result.test.piaw},
    }
    if result.model_kind == "three_stage_single":
        payload["r"] = result.interval.r1
    return payload


def _write_intervals_csv(out: str, result: RunResult) -> None:
    t = result.test
    labels = t.labels or [""] * t.point.shape[0]
    rows = [list(r) for r in zip(t.indices.tolist(), labels, t.actual, t.point, t.lower, t.upper)]
    header = ["index", "date", "actual", "point", "lower", "upper"]
    _write_csv(os.path.join(out, "intervals.csv"), header, rows)


def _write_fronts(out: str, report: ExperimentReport) -> None:
    front_dir = os.path.join(out, "fronts")
    os.makedirs(front_dir, exist_ok=True)
    for result in report.results:
        rows = [[float(f1), float(f2)] for f1, f2 in result.front]
        _write_csv(os.path.join(front_dir, f"seed_{result.seed}.csv"), ["f1", "f2"], rows)


def _write_eaf(out: str, fronts: list[np.ndarray]) -> None:
    ensemble = eaf_mod.FrontEnsemble(fronts)
    for name, level in eaf_mod.standard_levels(ensemble.n_runs).items():
        surface = eaf_mod.attainment_surface(ensemble, level)
        rows = [[float(f1), float(f2), level] for f1, f2 in surface.vertices]
        _write_csv(os.path.join(out, f"eaf_{name}.csv"), ["f1", "f2", "level"], rows)


def cmd_analyze(args: argparse.Namespace) -> int:
    meta, config, _ = _resolve(args)
    series = _read_input(meta)
    report = analyze(series, pipeline._chaos_options(config))
    os.makedirs(meta["out"], exist_ok=True)
    _write_chaos(meta["out"], report)
    flag = "chaotic" if report.chaotic else "not chaotic"
    print(f"tau={report.tau} m={report.m} lambda={report.lyapunov:.6f} ({flag})")
    return 0


def cmd_intervals(args: argparse.Namespace) -> int:
    meta, config, seeds = _resolve(args)
    series = _read_input(meta)
    config = replace(config, seed=seeds[0])
    result, chaos = pipeline.run_model(series, config)
    os.makedirs(meta["out"], exist_ok=True)
    _write_json(os.path.join(meta["out"], "report.json"), _run_payload(result))
    _write_intervals_csv(meta["out"], result)
    _write_chaos(meta["out"], chaos)
    print(
        f"{result.model_kind} seed={result.seed}: "
        f"test picp={result.test.picp:.4f} piaw={result.test.piaw:.4f}"
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    meta, config, seeds = _resolve(args)
    series = _read_input(meta)
    report = pipeline.run_experiment(series, config, seeds, workers=meta["workers"])
    out = meta["out"]
    os.makedirs(out, exist_ok=True)
    payload = {
        "model": report.model_kind,
        "seeds": report.seeds,
        "tau": report.chaos.tau,
        "m": report.chaos.m,
        "lambda": report.chaos.lyapunov,
        "chaotic": report.chaos.chaotic,
        "picp_mean": report.picp_mean,
        "picp_std": report.picp_std,
        "piaw_mean": report.piaw_mean,
        "piaw_std": report.piaw_std,
        "per_seed": [
            {
                "seed": r.seed,
                "picp": r.test.picp,
                "piaw": r.test.piaw,
                "r1": r.interval.r1,
                "r2": r.interval.r2,
                "sigma": r.interval.sigma,
                "train_smape": r.train_smape,
                "train_ds": r.train_ds,
                "coeffs": r.point_model.coeffs,
            }
            for r in report.results
        ],
        "failures": [{"seed": s, "error": msg} for s, msg in report.failures],
        "front_objectives": (
            list(report.results[0].front_objectives) if report.results else None
        ),
    }
    _write_json(os.path.join(out, "report.json"), payload)
    _write_chaos(out, report.chaos)
    _write_fronts(out, report)
    if report.results:
        _write_eaf(out, [r.front for r in report.results])
    if report.failures:
        _write_json(
            os.path.join(out, "failures.json"),
            {"failures": payload["failures"]},
        )
        print(f"{len(report.failures)} of {len(seeds)} seeds failed", file=sys.stderr)
        return 1
    print(
        f"{report.model_kind} over {len(seeds)} seeds: "
        f"picp {report.picp_mean:.4f} +/- {report.picp_std:.4f}, "
        f"piaw {report.piaw_mean:.4f} +/- {report.piaw_std:.4f}"
    )
    return 0


def cmd_eaf(args: argparse.Namespace) -> int:
    meta, _, _ = _resolve(args)
    if not meta["input"]:
        raise ConfigError("--input must point at a directory of front CSVs")
    front_dir = meta["input"]
    if os.path.isdir(os.path.join(front_dir, "fronts")):
        front_dir = os.path.join(front_dir, "fronts")
    if not os.path.isdir(front_dir):
        raise ConfigError(f"not a directory: {front_dir}")
    paths = []
    for name in os.listdir(front_dir):
        match = re.fullmatch(r"seed_(-?\d+)\.csv", name)
        if match:
            paths.append((int(match.group(1)), os.path.join(front_dir, name)))
    if not paths:
        raise EmptyFrontError(f"no seed_<s>.csv files under {front_dir}")
    fronts = [_read_front(path) for _, path in sorted(paths)]
    os.makedirs(meta["out"], exist_ok=True)
    _write_eaf(meta["out"], fronts)
    print(f"attainment surfaces for {len(fronts)} fronts written to {meta['out']}")
    return 0


def _read_front(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or rows[0][:2] != ["f1", "f2"]:
        raise EmptyFrontError(f"{path} is not a front CSV (expected f1,f2 header)")
    try:
        return np.array([[float(r[0]), float(r[1])] for r in rows[1:]], dtype=float)
    except (ValueError, IndexError):
        raise EmptyFrontError(f"{path} holds malformed front rows") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chaospi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="input CSV (value column, or date,value)")
        p.add_argument("--column", help="value column name for wide CSVs")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--model", choices=pipeline.MODEL_KINDS, help="model kind")
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--tau", type=int, help="force the embedding delay")
        p.add_argument("--m", type=int, help="force the embedding dimension")
        p.add_argument("--test-horizon", dest="test_horizon", type=int,
                       help="held-out observations at the end of the series")
        p.add_argument("--out", help="output directory (default: current)")

    p_analyze = sub.add_parser("analyze", help="chaos diagnostics for a series")
    common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_intervals = sub.add_parser("intervals", help="one seeded interval-model run")
    common(p_intervals)
    p_intervals.set_defaults(func=cmd_intervals)

    p_exp = sub.add_parser("experiment", help="multi-seed run with aggregates and EAF")
    common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_eaf = sub.add_parser("eaf", help="recompute attainment surfaces from saved fronts")
    common(p_eaf)
    p_eaf.set_defaults(func=cmd_eaf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ChaospiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
