"""Per-layer metrics from the spans and counters of traced commands.

Each metric belongs to one package module (the layer) and is listed in
``BENCHMARK.json`` under ``per_layer``; a layer that a workload does not
reach reports 0. Times are summed over the calls within one command.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

STAGES = ("stage2", "stage3")


def command_metrics(result: dict) -> tuple[dict[str, float], list[float]]:
    """Per-layer metrics of one traced command, plus its per-seed durations."""
    spans = result["spans"]
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by[name])

    def peak_mb(name):
        return max((s["peak_bytes"] for s in by[name]), default=0) / 2**20

    m: dict[str, float] = {"series.load_s": total("series.load_series")}

    analyze = by["chaos.analyze"]
    m["chaos.acf_s"] = total("chaos.autocorrelation")
    m["chaos.cao_s"] = total("chaos.cao_min_dimension")
    m["chaos.rosenstein_s"] = total("chaos.lyapunov_rosenstein")
    m["chaos.cao_peak_mb"] = peak_mb("chaos.cao_min_dimension")
    m["chaos.rosenstein_peak_mb"] = peak_mb("chaos.lyapunov_rosenstein")
    m["chaos.tau"] = analyze[0]["tau"] if analyze else 0
    m["chaos.m"] = analyze[0]["m"] if analyze else 0
    m["chaos.rosenstein_pairs"] = sum(s["pairs"] for s in by["chaos.lyapunov_rosenstein"])

    for stage in STAGES:
        runs = [s for s in by["nsga2.run"] if s["stage"] == stage]
        run_s = sum(dur(s) for s in runs)
        evals = sum(s["evals"] for s in runs)
        eval_s = sum(s["eval_s"] for s in runs)
        p = f"nsga2.{stage}."
        m[p + "run_s"] = run_s
        m[p + "evals"] = evals
        m[p + "eval_s"] = eval_s
        m[p + "engine_self_s"] = run_s - eval_s
        m[p + "us_per_eval"] = 1e6 * run_s / evals if evals else 0.0
        m[p + "dup_eval_frac"] = sum(s["dup_evals"] for s in runs) / evals if evals else 0.0
        m[p + "front0_size"] = float(np.mean([s["front0_size"] for s in runs])) if runs else 0.0

    counters = result["counters"].values()
    m["metrics.calls"] = sum(c[0] for c in counters)
    m["metrics.s"] = sum(c[1] for c in counters)

    seeds = by["pipeline.seed"]
    experiment = by["pipeline.run_experiment"]
    m["pipeline.stage2_s"] = total("pipeline.fit_stage2")
    m["pipeline.stage3_s"] = total("pipeline.fit_stage3")
    m["pipeline.grid_s"] = total("pipeline.grid_search_r")
    m["pipeline.seed_wait_s"] = sum(dur(s) - s["cpu"] for s in seeds)
    capacity = sum(s["workers"] * dur(s) for s in experiment)
    m["pipeline.parallel_eff"] = sum(s["cpu"] for s in seeds) / capacity if capacity else 0.0
    m["pipeline.experiment_s"] = total("pipeline.run_experiment")

    m["eaf.surface_s"] = total("eaf.attainment_surface")
    m["eaf.vertices"] = sum(s["vertices"] for s in by["eaf.attainment_surface"])

    (cli,) = by["cli.main"]
    work = sum(
        dur(s)
        for s in spans
        if s["parent"] == cli["id"]
        and s["name"] in ("series.load_series", "pipeline.run_experiment", "chaos.analyze")
    )
    m["cli.write_s"] = dur(cli) - work
    m["cli.files_out"] = result["files_out"]
    m["cli.bytes_out"] = result["bytes_out"]
    return m, [dur(s) for s in seeds]


def run_metrics(traced: list[dict], untraced_walls: list[float]) -> dict[str, float]:
    """Median of each metric over the traced commands of a run; per-seed
    percentiles pool the seeds of every traced command."""
    per_command, seed_durations = [], []
    for result in traced:
        m, seeds = command_metrics(result)
        per_command.append(m)
        seed_durations += seeds
    out = {k: statistics.median(c[k] for c in per_command) for k in per_command[0]}
    out["pipeline.seed_s_p50"] = float(np.percentile(seed_durations, 50)) if seed_durations else 0.0
    out["pipeline.seed_s_p90"] = float(np.percentile(seed_durations, 90)) if seed_durations else 0.0
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        untraced_walls
    )
    return out
