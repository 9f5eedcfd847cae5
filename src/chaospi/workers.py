"""Worker processes for an experiment's seeds, one per share of them.

Imported only when an experiment runs on more than one worker, so serial
runs load neither this module nor ``multiprocessing``.
"""

from __future__ import annotations

import multiprocessing

from .errors import WorkerExitError


def _run_share(job, seeds: list[int], conn) -> None:
    """Worker body: run ``job`` over one share of the seeds and send the
    outcomes back in one message."""
    conn.send([job(s) for s in seeds])
    conn.close()


def run_shares(job, seeds: list[int], size: int) -> list:
    """``job``'s outcomes over ``seeds``, in seed order, from ``size`` worker
    processes: worker i runs ``seeds[i::size]`` and sends its outcomes back
    once over a one-way pipe.

    Workers come from the default ``multiprocessing`` context, so they start
    under the caller's start method; ``job`` must pickle for spawn and
    forkserver. A worker that ends without sending its share raises
    :class:`WorkerExitError`. On any exit, an interrupt included, every
    worker still running is terminated, and every worker is joined.
    """
    ctx = multiprocessing.get_context()
    workers = []
    try:
        for i in range(size):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_share, args=(job, seeds[i::size], writer))
            try:
                proc.start()
            finally:
                # Only the worker may hold a write end, so its exit ends the
                # pipe and recv() sees EOF instead of waiting forever.
                writer.close()
            workers.append((proc, reader))
        outcomes = [None] * len(seeds)
        for i, (proc, reader) in enumerate(workers):
            try:
                outcomes[i::size] = reader.recv()
            except EOFError:
                proc.join()
                raise WorkerExitError(
                    f"the worker running seeds {seeds[i::size]} exited with code "
                    f"{proc.exitcode} before sending their results"
                ) from None
            proc.join()
    finally:
        for proc, reader in workers:
            reader.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()
    return outcomes
