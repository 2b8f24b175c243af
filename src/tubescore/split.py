"""Independent work split across the usable CPUs in forked workers.

Work that is a run of independent items (Langevin chains, sweep
repetitions, the two runs of the scaled Langevin study) is cut into
contiguous ranges, one per usable CPU.  The calling process runs the
first range and a forked worker runs each other range, every one writing
its items' results straight into one shared output.  The split changes no
result when each item's result depends on the item alone, which every
caller keeps: each item draws from its own stream and is computed row by
row.
"""
from __future__ import annotations

import mmap
import os
import pickle
import signal

import numpy as np


def ranges(n_items: int, least: int) -> list[range]:
    """Contiguous ranges of ``n_items`` items, one per process: at most
    one per usable CPU, and each of at least ``least`` items."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    parts = max(1, min(cpus, n_items // least))
    cuts = [n_items * i // parts for i in range(parts + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def run(task, parts: list[range], shape: tuple):
    """``task(items, out[:, items], stops, i)`` for the first range here
    and for every other range i in a forked worker; returns (out, results),
    one result per range in range order.

    ``out`` lives in one shared anonymous mapping, zero-filled at the
    start, written in place by every process and returned without a copy;
    the ranges cut its second axis.  The mapping ends in ``stops``, one
    float per range (inf at the start) through which ranges can tell each
    other to stop; a worker that raises sets its slot to 0.  Each worker
    sends back its task's result, or the exception it raised, through a
    pipe.  This process's own exception is raised here, or else the
    exception of the first worker, in range order, that sent one.  Every
    worker is reaped before this returns or raises; when this process
    fails, is interrupted or reads a worker's exception, the workers still
    running are killed first.
    """
    size = int(np.prod(shape))
    buffer = mmap.mmap(-1, (size + len(parts)) * np.dtype(float).itemsize)
    out = np.frombuffer(buffer, count=size).reshape(shape)
    stops = np.frombuffer(buffer, offset=size * np.dtype(float).itemsize)
    stops[:] = np.inf
    workers = []  # (pid, read end of its pipe)
    try:
        for slot, items in enumerate(parts[1:], start=1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _worker(task, items, out, stops, slot, w)
            os.close(w)
            workers.append((pid, r))
        first = parts[0]
        results = [task(first, out[:, first.start:first.stop], stops, 0)]
        for pid, r in workers:
            results.append(_receive(pid, r))
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in workers:
            os.close(r)
            os.waitpid(pid, 0)
    return out, results


def _worker(task, items: range, out: np.ndarray, stops: np.ndarray,
            slot: int, fd: int):
    """Body of a forked worker: run range ``slot`` and send the outcome.

    It leaves through ``os._exit`` whatever happens, so it never returns
    into the caller's stack, runs no exit handler and flushes none of the
    stdio buffers it inherited.
    """
    try:
        try:
            message = ("result", task(items, out[:, items.start:items.stop],
                                      stops, slot))
        except BaseException as exc:  # sent to the caller, who re-raises
            stops[slot] = 0.0
            message = ("raise", exc)
        data = pickle.dumps(message)
        with open(fd, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _receive(pid: int, fd: int):
    """The result a worker sent, or the exception it raised, raised here."""
    with open(fd, "rb", closefd=False) as fh:
        data = fh.read()
    if not data:
        raise RuntimeError(
            f"worker {pid} sent no result: it was killed, or raised an"
            " exception that could not be pickled")
    kind, value = pickle.loads(data)
    if kind == "raise":
        raise value
    return value
