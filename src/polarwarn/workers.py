"""Forked workers that send their results back over one-way pipes.

The corpus loader parses and checks the later byte ranges of a large file
in them, each sending back its range's columns as arrays, and the early
warning's benchmark fits its later shares of (algorithm, cycle) jobs.  Either cuts its work into at most one share per usable CPU and
computes the first share itself, so on one CPU no process starts.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run(target: Callable, args: tuple, sender) -> None:
    """In a worker: ``target(*args, sender)``, with interrupts left to the parent, which kills the worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    target(*args, sender)


@contextmanager
def forked(tasks: Sequence[tuple[Callable, tuple]]) -> Iterator[list]:
    """One forked worker per ``(target, args)`` of ``tasks``, all started first; yields their receiving ends in order.

    Each worker runs ``target(*args, sender)`` and sends its results on
    ``sender``; a receiver raises ``EOFError`` once its worker has ended or
    died.  However the block ends, each receiver is closed and each worker
    killed, in case it is still running, and reaped.
    """
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for target, args in tasks:
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_run, args=(target, args, sender), daemon=True)
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        yield [receiver for _, receiver in workers]
    finally:
        for worker, receiver in workers:
            receiver.close()
            worker.kill()
            worker.join()
