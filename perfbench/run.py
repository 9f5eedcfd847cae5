"""chaospi benchmark: one seeded workload through the public CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cpi_dual_serial --seed 1 --seconds 35 --trace 0

Each repetition runs one CLI command in a fresh process (``child.py``) on
inputs generated from ``--seed`` (``inputs.py``); repetitions continue while
the next one would end within ``--seconds`` (at least ``MIN_REPS``), and
each is followed by ``SETUP_PER_REP`` processes that only set up. Every
repetition's output directory is checked (``checks.py``) and must be
byte-identical to the first one.

``--trace 0`` reports the end-to-end metrics of the untraced repetitions
(see ``END_TO_END_UNITS``). ``--trace 1`` alternates untraced and traced
repetitions (``tracer.py`` wraps the package's public functions from
outside) and reports the per-layer metrics (``layers.py``); traced outputs
must match the untraced ones byte for byte.

Human-readable lines come first; the last stdout line is the JSON result.
A full record with machine info is kept under ``perfbench/_work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import hv
import inputs
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

MIN_REPS = 3
# Set-up-only processes started after each repetition (about 0.3 s each).
SETUP_PER_REP = 4
# Start no repetition that might end past RUN_BUDGET_S, and kill any
# process still running at DEADLINE_S, so that a run always ends inside the
# 180 s it may take.
RUN_BUDGET_S = 150.0
DEADLINE_S = 170.0

# Every end-to-end metric printed; the gated ones are those BENCHMARK.json
# lists. The machine's speed drifts, so the gated times are divided by the
# time of a fixed reference workload, a probe (``child.PROBES``), run in the
# same processes. wall_per_probe is the mean command wall time over the mean
# of every probe run in the run, which samples the machine's speed all
# through it. setup_s divides each set-up-only process's set-up time by the
# interpreter probe run right after it in that process, and scales the mean
# of these ratios by PROBE_REFERENCE_S, the interpreter probe's typical time
# on the build machine, so that it reads in seconds at that machine's speed.
PROBE_REFERENCE_S = 0.08
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_per_probe": "ratio",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "test_picp_mean": "ratio",
    "test_piaw_mean": "value",
    "front_hv_mean": "ratio",
    "lambda_abs_err": "1/step",
}


def probe_pool(results: list[dict], probe: str) -> list[float]:
    """Every time of ``probe`` that the given processes measured."""
    return [r["probes"][probe] for r in results]


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Run:
    """Repetitions of one workload command and their checked outputs."""

    def __init__(self, workload: str, seed: int, work: str):
        self.deadline = time.perf_counter() + DEADLINE_S
        self.spec = inputs.WORKLOADS[workload]
        self.work = work
        self.csv, self.config, self.seeds = inputs.write_inputs(workload, seed, work)
        self.reference: dict[str, bytes] | None = None
        self.fingerprints: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.count = 0

    def child(self, traced: bool = False, setup_only: bool = False) -> dict | None:
        """One fresh ``child.py`` process; its record, or None if it failed."""
        self.count += 1
        out = os.path.join(self.work, f"out{self.count}")
        result_path = os.path.join(self.work, f"result{self.count}.json")
        argv = [self.spec["command"], "--input", self.csv, "--config", self.config, "--out", out]
        spec = {"src": SRC, "csv": self.csv, "argv": argv, "out": out, "trace": traced,
                "setup_only": setup_only, "probe": self.spec["probe"], "result": result_path}
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(self.deadline - time.perf_counter(), 1.0),
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            sys.stderr.write("a benchmark process overran the run's deadline\n")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        result["out"] = out
        return result

    def repeat(self, traced: bool) -> dict | None:
        """Run the command once in a fresh process; check and return its record."""
        result = self.child(traced)
        items = len(self.seeds) or 1
        self.attempted += items
        if result is None or result["rc"] != 0:
            self.failed += items
            return None
        out = result.pop("out")

        if self.seeds:
            bad, fingerprints = checks.check_experiment(out, self.seeds, self.spec["config"]["model"])
            failed_items = len(bad)
        else:
            ok, fingerprints = checks.check_analyze(out)
            failed_items = 0 if ok else 1
        tree = checks.read_tree(out)
        if self.reference is None:
            self.reference, self.fingerprints = tree, fingerprints
        elif tree != self.reference:  # equal trees also give equal fingerprints
            kind = "traced" if traced else "untraced"
            self.mismatches.append(f"{kind} command in process {self.count}")
            failed_items = items
        shutil.rmtree(out)
        self.failed += failed_items
        return result


def measure(run: Run, seconds: float, trace: bool) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced (and, with ``trace``, alternating traced) repetitions, and
    set-up times."""
    start = time.perf_counter()
    untraced, traced, setups = [], [], []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        # Once there are MIN_REPS, stop before a repetition of average length
        # would end past --seconds, so a run takes about --seconds in all.
        average = elapsed / len(untraced) if untraced else 0.0
        if (len(untraced) >= MIN_REPS and elapsed + average > seconds) or (
            elapsed + longest > RUN_BUDGET_S
        ):
            break
        t = time.perf_counter()
        for kind, bucket in ((False, untraced), (True, traced))[: 1 + trace]:
            result = run.repeat(kind)
            if result is not None:
                bucket.append(result)
        # Set-up is short and noisy: several set-up-only processes per
        # repetition give its mean enough samples.
        for _ in range(SETUP_PER_REP):
            setup = run.child(setup_only=True)
            if setup is not None:
                setups.append(setup)
        longest = max(longest, time.perf_counter() - t)
        if not untraced or (trace and not traced):
            break  # the command itself is failing; repeating adds nothing
    return untraced, traced, setups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chaospi", "__init__.py")):
        print(f"no chaospi package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    machine = machine_info()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run = Run(args.workload, args.seed, work)
        untraced, traced, setups = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    hv_ok = hv.self_test()
    correct = (
        bool(untraced)
        and (bool(traced) or not args.trace)
        and hv_ok
        and not run.mismatches
        and run.failed == 0
    )

    summary = {"failed_frac": run.failed / max(run.attempted, 1), **run.fingerprints}
    if untraced and setups:
        summary.update(
            setup_s=PROBE_REFERENCE_S * statistics.fmean(
                (r["import_s"] + r["load_s"]) / r["probes"]["interpreter"] for r in setups
            ),
            wall_s=statistics.median(r["wall_s"] for r in untraced),
            wall_per_probe=statistics.fmean(r["wall_s"] for r in untraced)
            / statistics.fmean(probe_pool(setups + untraced + traced, run.spec["probe"])),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in untraced),
        )

    print(f"machine: {json.dumps(machine)}")
    print(
        f"workload {args.workload} seed {args.seed}: `chaospi {run.spec['command']}`, "
        f"{len(untraced)} untraced and {len(traced)} traced repetitions "
        f"and {len(setups)} set-up-only processes (timings from the untraced ones), "
        f"{len(run.seeds) or 1} item(s) each; "
        f"hypervolume self-test {'PASS' if hv_ok else 'FAIL'}"
    )
    for name, unit in END_TO_END_UNITS.items():
        value = f"{summary[name]:>12.6f}" if name in summary else f"{'n/a':>12}"
        print(f"  {name:<16} {value} {unit}")
    for mismatch in run.mismatches:
        print(f"  output mismatch: {mismatch} differs from the first command's output")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    if args.trace:
        per_layer = layers.run_metrics(traced, [r["wall_s"] for r in untraced]) if traced else {}
        metrics = {
            m["name"]: {"value": per_layer[m["name"]] if traced else 0.0, "unit": m["unit"]}
            for m in benchmark["per_layer"]
        }
        for name, metric in metrics.items():
            print(f"  {name:<32} {metric['value']:>14.6f} {metric['unit']}")
    else:
        metrics = {
            m["name"]: {"value": summary[m["name"]], "unit": m["unit"]}
            for m in benchmark["end_to_end"]
            if m["name"] in summary
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {
            "wall_s": [r["wall_s"] for r in untraced],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "probe_s": probe_pool(setups + untraced + traced, run.spec["probe"]),
            "setup_raw_s": [r["import_s"] + r["load_s"] for r in setups],
            "setup_probe_s": probe_pool(setups, "interpreter"),
        },
        "end_to_end": summary,
        "metrics": metrics,
        "spans": [r["spans"] for r in traced],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump(record, fh)

    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
