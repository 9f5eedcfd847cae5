"""Run one ``chaospi`` CLI command in a fresh process and record what it cost.

Usage: ``python3 perfbench/child.py '<json spec>'`` with keys ``src`` (the
checkout's ``src`` directory), ``csv``, ``argv`` (CLI arguments), ``out``,
``trace`` (bool), ``setup_only`` (bool), ``probe`` (a key of ``PROBES``)
and ``result`` (path of the JSON written at the end).

Set-up is timed first, in this fresh interpreter: importing ``chaospi`` and
its CLI module, then loading the input CSV. A set-up-only process then runs
the speed probes and ends. Otherwise the command is timed from
``chaospi.cli.main`` entry (argument parsing) to its return, output writes
included; then the peak resident memory is read and the workload's speed
probe runs. With ``trace`` the outside-in wrappers are installed after
set-up.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import chaospi
    import chaospi.cli

    t1 = time.perf_counter()
    chaospi.load_series(spec["csv"])
    t2 = time.perf_counter()
    if not os.path.realpath(chaospi.__file__).startswith(src + os.sep):
        print(f"chaospi was imported from {chaospi.__file__}, not from {src}", file=sys.stderr)
        return 3
    if spec["setup_only"]:
        # Set-up is gauged by the interpreter probe, whose work resembles
        # importing; the command's own probe runs too, for the run's pool.
        probes = {name: PROBES[name]() for name in dict.fromkeys(("interpreter", spec["probe"]))}
        return _write(spec["result"], {"import_s": t1 - t0, "load_s": t2 - t1, "probes": probes})

    rec = None
    if spec["trace"]:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)

    t = time.perf_counter()
    rc = chaospi.cli.main(spec["argv"])
    wall = time.perf_counter() - t
    # Read the high-water mark before the probe, whose arrays would
    # otherwise set a floor under it.
    peak_rss_mb = _peak_rss_mb()
    probes = {spec["probe"]: PROBES[spec["probe"]]()}

    files = bytes_out = 0
    for dirpath, _, names in os.walk(spec["out"]):
        for name in names:
            files += 1
            bytes_out += os.path.getsize(os.path.join(dirpath, name))

    result = {
        "rc": rc,
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "wall_s": wall,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "files_out": files,
        "bytes_out": bytes_out,
    }
    if rec is not None:
        result.update(rec.dump())
    return _write(spec["result"], result)


def _probe_interpreter() -> float:
    """Small numpy calls in an interpreter loop, like the optimizer loops."""
    import numpy as np

    t = time.perf_counter()
    x = np.zeros(8)
    acc = 0.0
    for i in range(15000):
        acc += float(np.sum(x + i)) * 0.5
    return time.perf_counter() - t


def _probe_arrays() -> float:
    """Whole-array passes over arrays larger than the caches, like the chaos
    distance matrices."""
    import numpy as np

    t = time.perf_counter()
    big = np.arange(2_000_000, dtype=float)
    acc = 0.0
    for _ in range(6):
        acc += float(np.abs(big - acc).min())
    return time.perf_counter() - t


# Machine-speed gauges: fixed reference workloads, timed in every process of
# a run. Each workload names the one whose mix of
# interpreter and memory-bound work resembles its own (inputs.WORKLOADS).
PROBES = {"interpreter": _probe_interpreter, "arrays": _probe_arrays}


def _peak_rss_mb() -> float:
    """High-water resident set of this process image. ``getrusage`` would
    also count the parent's peak, which a spawned child inherits."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
