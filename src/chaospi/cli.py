"""Command-line interface.

Subcommands and the outputs each writes into its ``--out`` directory:

* ``analyze`` -- chaos diagnostics only: ``chaos.json``, ``divergence.csv``
  (unless divergence tracking failed) and ``cao.csv`` (unless the dimension
  was forced).
* ``intervals`` -- one seeded model run: the ``analyze`` files plus
  ``report.json`` and ``intervals.csv`` (test rows).
* ``experiment`` -- the same model across many seeds: the ``analyze`` files
  plus ``report.json``, ``failures.json`` (when a seed failed), per-seed
  fronts under ``fronts/seed_<s>.csv`` and best/median/worst attainment
  surfaces as ``eaf_{best,median,worst}.csv`` (when a seed succeeded).
* ``eaf`` -- attainment surfaces recomputed from previously saved front
  CSVs: ``eaf_{best,median,worst}.csv``.

The JSON config follows one schema, ``_SCHEMA``, read from the config
dataclasses, which own every default: the scalar fields of
``PipelineConfig``, the embedding ``tau``/``m`` of ``AnalyzeOptions`` and the
run-setup keys in ``_SETUP_KEYS`` at the top level, ``NsgaParams`` in the
``stage2``/``stage3`` blocks and the rest of ``AnalyzeOptions`` in the
``chaos`` block. A flag overrides the key its ``dest`` names.

Exit codes: 0 on success, 1 on any domain or configuration error, 2 on an
operating-system I/O failure. Outputs are plain JSON/CSV written with
deterministic formatting, so re-running a command with identical inputs and
configuration reproduces files byte for byte. An output directory holds one
run: ``analyze``, ``intervals`` and ``experiment`` run into a reused one
delete every output of the four commands there that they did not write this
time, while ``eaf`` deletes only stale surfaces, so it can write into the
experiment directory it reads. Other files are left alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import numbers
import os
import re
import sys
from contextlib import suppress
from dataclasses import fields, replace
from typing import Any

import numpy as np

from . import eaf as eaf_mod
from . import pipeline
from .chaos import AnalyzeOptions, ChaosReport, analyze
from .errors import ChaospiError, ConfigError, EmptyFrontError, is_number
from .nsga2 import NsgaParams
from .pipeline import PipelineConfig
from .series import TimeSeries, load_series

_FRONT_CSV = re.compile(r"seed_(-?\d+)\.csv")
_EAF_CSV = r"eaf_(best|median|worst)\.csv"
# Every output of a run in its --out directory, as a file-name pattern per
# subdirectory ("" is the directory itself).
_OUTPUTS = {
    "": r"chaos\.json|divergence\.csv|cao\.csv|report\.json|intervals\.csv|failures\.json|"
        + _EAF_CSV,
    "fronts": _FRONT_CSV.pattern,
}

_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean",
               str: "a string", list: "a list"}


def _fields(cls: type) -> dict[str, tuple[type, bool]]:
    """(JSON kind, may be null) of each scalar field of a config dataclass,
    read from its annotation text (the config modules postpone annotations);
    nested option blocks are left out."""
    table = {}
    for f in fields(cls):
        kind, *rest = str(f.type).split(" | ")
        if kind in _SCALARS:
            table[f.name] = (_SCALARS[kind], rest == ["None"])
    return table


# Run-setup keys the CLI owns: (kind, may be null, default).
_SETUP_KEYS = {
    "input": (str, True, None),
    "column": (str, True, None),
    "out": (str, False, "."),
    "workers": (int, False, 1),
    "preset": (str, True, None),
    "seeds": (list, False, None),
    "seed_base": (int, False, 0),
    "seed_count": (int, False, 20),
}
# The config file's keys: (kind, may be null), or the schema of a block.
_SCHEMA = {
    **_fields(PipelineConfig),
    **{key: rule[:2] for key, rule in _SETUP_KEYS.items()},
    "stage2": _fields(NsgaParams),
    "stage3": _fields(NsgaParams),
    "chaos": _fields(AnalyzeOptions),
}
# the embedding is set by the top-level tau/m (or --tau/--m), not in the chaos block
_SCHEMA.update((key, _SCHEMA["chaos"].pop(key)) for key in ("tau", "m"))


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
    if isinstance(value, float):
        return value if math.isfinite(value) else None
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


def _publish(out: str, files: dict[str, str], owned: dict[str, str] = _OUTPUTS) -> None:
    """Write ``files`` (path relative to ``out`` -> text) into ``out``, then
    delete the files there that match ``owned`` but were not written."""
    for rel, text in files.items():
        path = os.path.join(out, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_file(path, text)
    for folder, pattern in owned.items():
        path = os.path.join(out, folder)
        if not os.path.isdir(path):
            continue
        for name in os.listdir(path):
            rel = f"{folder}/{name}" if folder else name
            if re.fullmatch(pattern, name) and rel not in files:
                with suppress(FileNotFoundError):
                    os.remove(os.path.join(out, rel))


def _json_text(payload: dict) -> str:
    return json.dumps(_jsonify(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue()


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError:
            raise ConfigError(f"config file {path} is not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    for prefix, block in [("", raw)] + [(f"{k}.", raw.get(k)) for k in ("stage2", "stage3")]:
        if isinstance(block, dict) and "seed" in block:
            raise ConfigError(
                f"config key '{prefix}seed' was removed; choose seeds with 'seeds' or 'seed_base'"
            )
    return raw


def _typed(value: Any, kind: type, name: str, nullable: bool = False) -> Any:
    """Check one config value against its JSON kind and return it.

    Integers must be JSON integers (a boolean is not one), numbers accept
    integers and come back as floats, booleans must be JSON booleans.
    """
    if value is None and nullable:
        return None
    if kind in (int, float):
        ok = is_number(value, numbers.Integral if kind is int else numbers.Real)
    else:
        ok = isinstance(value, kind)
    if not ok:
        null = " or null" if nullable else ""
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}{null}, got {value!r}")
    return float(value) if kind is float else value


def _checked(raw: Any, schema: dict, label: str = "") -> dict:
    """Type-check a config object against ``schema``, blocks included, and
    return its values; ``label`` names a block (a null block is empty)."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be an object")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {label or 'config'} keys: {sorted(unknown)}")
    checked = {}
    for key, value in raw.items():
        name = f"{label}.{key}" if label else key
        if isinstance(schema[key], dict):
            checked[key] = _checked(value, schema[key], name)
        else:
            kind, nullable = schema[key]
            checked[key] = _typed(value, kind, name, nullable)
    return checked


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None


def _resolve(args: argparse.Namespace) -> tuple[dict, PipelineConfig]:
    """Merge defaults, config file, and flags into the run setup (the
    ``_SETUP_KEYS`` with the seed list resolved) and a pipeline config."""
    # every entry is checked, also one that a flag or another key overrides
    values = _checked(_load_config_file(getattr(args, "config", None)), _SCHEMA)
    for seed in values.get("seeds", []):
        _typed(seed, int, "seeds entry")
    values.update(
        (key, getattr(args, key)) for key in _SCHEMA if getattr(args, key, None) is not None
    )

    setup = {key: values.pop(key, default) for key, (_, _, default) in _SETUP_KEYS.items()}
    if setup["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {setup['workers']}")
    stage2, stage3, chaos = (values.pop(key, {}) for key in ("stage2", "stage3", "chaos"))
    embedding = {key: values.pop(key) for key in ("tau", "m") if key in values}
    config = PipelineConfig(**values, chaos=AnalyzeOptions(**embedding, **chaos))
    if setup["preset"] is not None:
        config = pipeline.apply_preset(config, setup["preset"])
    config = replace(
        config,
        stage2=replace(config.stage2, **stage2),
        stage3=replace(config.stage3, **stage3),
    )

    if setup["seeds"] is None:
        if setup["seed_count"] < 1:
            raise ConfigError("seed_count must be >= 1")
        setup["seeds"] = list(range(setup["seed_base"], setup["seed_base"] + setup["seed_count"]))
    if not setup["seeds"]:
        raise ConfigError("seed list is empty")
    return setup, config


def _read_input(meta: dict) -> TimeSeries:
    if not meta["input"]:
        raise ConfigError("an input CSV is required (--input or config 'input')")
    return load_series(meta["input"], column=meta["column"])


def _chaos_summary(report: ChaosReport) -> dict:
    """The embedding and exponent keys of every JSON output."""
    return {"tau": report.tau, "m": report.m, "lambda": report.lyapunov,
            "chaotic": report.chaotic}


def _chaos_files(report: ChaosReport) -> dict[str, str]:
    payload = {
        **_chaos_summary(report),
        "e1_curve": report.e1_curve,
        "e2_curve": report.e2_curve,
        "divergence_curve": report.divergence_curve,
    }
    files = {"chaos.json": _json_text(payload)}
    if report.divergence_curve is not None:
        rows = [[k, v] for k, v in enumerate(report.divergence_curve) if math.isfinite(v)]
        files["divergence.csv"] = _csv_text(["k", "mean_log_distance"], rows)
    if report.e1_curve is not None and report.e2_curve is not None:
        rows = [[d + 1, e1, e2] for d, (e1, e2) in enumerate(zip(report.e1_curve, report.e2_curve))]
        files["cao.csv"] = _csv_text(["d", "e1", "e2"], rows)
    return files


def _eaf_files(fronts: list[np.ndarray]) -> dict[str, str]:
    ensemble = eaf_mod.FrontEnsemble(fronts)
    files = {}
    for name, level in eaf_mod.standard_levels(ensemble.n_runs).items():
        vertices = eaf_mod.attainment_surface(ensemble, level).vertices
        rows = [[f1, f2, level] for f1, f2 in vertices]
        files[f"eaf_{name}.csv"] = _csv_text(["f1", "f2", "level"], rows)
    return files


def cmd_analyze(args: argparse.Namespace) -> int:
    meta, config = _resolve(args)
    series = _read_input(meta)
    report = analyze(series, config.chaos)
    _publish(meta["out"], _chaos_files(report))
    flag = "chaotic" if report.chaotic else "not chaotic"
    print(f"tau={report.tau} m={report.m} lambda={report.lyapunov:.6f} ({flag})")
    return 0


def cmd_intervals(args: argparse.Namespace) -> int:
    meta, config = _resolve(args)
    series = _read_input(meta)
    result, chaos = pipeline.run_model(series, config, meta["seeds"][0])
    report = {
        "model": config.model,
        "seed": result.seed,
        **_chaos_summary(chaos),
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
    if config.model == "three_stage_single":
        report["r"] = result.interval.r1
    # the test rows are the series' last test_horizon positions
    t, n, k = result.test, series.values.size, config.test_horizon
    labels = series.labels[n - k:] if series.labels else [""] * k
    rows = zip(range(n - k, n), labels, t.actual, t.point, t.lower, t.upper)
    files = {
        "report.json": _json_text(report),
        "intervals.csv": _csv_text(["index", "date", "actual", "point", "lower", "upper"], rows),
        **_chaos_files(chaos),
    }
    _publish(meta["out"], files)
    print(
        f"{config.model} seed={result.seed}: "
        f"test picp={result.test.picp:.4f} piaw={result.test.piaw:.4f}"
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    meta, config = _resolve(args)
    series = _read_input(meta)
    seeds = meta["seeds"]
    report = pipeline.run_experiment(series, config, seeds, workers=meta["workers"])
    failures = [{"seed": s, "error": msg} for s, msg in report.failures]
    payload = {
        "model": config.model,
        "seeds": report.seeds,
        **_chaos_summary(report.chaos),
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
        "failures": failures,
        "front_objectives": (
            list(report.results[0].front_objectives) if report.results else None
        ),
    }
    files = {"report.json": _json_text(payload), **_chaos_files(report.chaos)}
    for r in report.results:
        files[f"fronts/seed_{r.seed}.csv"] = _csv_text(["f1", "f2"], r.front)
    if report.results:
        files.update(_eaf_files([r.front for r in report.results]))
    if failures:
        files["failures.json"] = _json_text({"failures": failures})
    _publish(meta["out"], files)
    if failures:
        print(f"{len(failures)} of {len(seeds)} seeds failed", file=sys.stderr)
        return 1
    print(
        f"{config.model} over {len(seeds)} seeds: "
        f"picp {report.picp_mean:.4f} +/- {report.picp_std:.4f}, "
        f"piaw {report.piaw_mean:.4f} +/- {report.piaw_std:.4f}"
    )
    return 0


def cmd_eaf(args: argparse.Namespace) -> int:
    meta, _ = _resolve(args)
    if not meta["input"]:
        raise ConfigError("--input must point at a directory of front CSVs")
    front_dir = meta["input"]
    if os.path.isdir(os.path.join(front_dir, "fronts")):
        front_dir = os.path.join(front_dir, "fronts")
    if not os.path.isdir(front_dir):
        raise ConfigError(f"not a directory: {front_dir}")
    paths = []
    for name in os.listdir(front_dir):
        match = _FRONT_CSV.fullmatch(name)
        if match:
            paths.append((int(match.group(1)), os.path.join(front_dir, name)))
    if not paths:
        raise EmptyFrontError(f"no seed_<s>.csv files under {front_dir}")
    fronts = [_read_front(path) for _, path in sorted(paths)]
    _publish(meta["out"], _eaf_files(fronts), owned={"": _EAF_CSV})
    print(f"attainment surfaces for {len(fronts)} fronts written to {meta['out']}")
    return 0


def _read_front(path: str) -> np.ndarray:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # blank and whitespace-only rows are skipped, as load_series does
            rows = [r for r in csv.reader(fh) if any(cell.strip() for cell in r)]
    except UnicodeDecodeError:
        raise EmptyFrontError(f"{path} is not UTF-8 text") from None
    if len(rows) < 2 or rows[0][:2] != ["f1", "f2"]:
        raise EmptyFrontError(f"{path} is not a front CSV (expected f1,f2 header)")
    try:
        return np.array([[float(r[0]), float(r[1])] for r in rows[1:]], dtype=float)
    except (ValueError, IndexError):
        raise EmptyFrontError(f"{path} holds malformed front rows") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chaospi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "analyze": (cmd_analyze, "chaos diagnostics for a series"),
        "intervals": (cmd_intervals, "one seeded interval-model run"),
        "experiment": (cmd_experiment, "multi-seed run with aggregates and EAF"),
        "eaf": (cmd_eaf, "recompute attainment surfaces from saved fronts"),
    }
    for name, (func, text) in commands.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", help="input CSV (value column, or date,value)")
        p.add_argument("--column", help="value column name for wide CSVs")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--model", choices=pipeline.MODEL_KINDS, help="model kind")
        p.add_argument("--seeds", type=_parse_seeds, help="comma-separated seed list")
        p.add_argument("--tau", type=int, help="force the embedding delay")
        p.add_argument("--m", type=int, help="force the embedding dimension")
        p.add_argument("--test-horizon", dest="test_horizon", type=int,
                       help="held-out observations at the end of the series")
        p.add_argument("--out", help="output directory (default: current)")
        p.set_defaults(func=func)
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
