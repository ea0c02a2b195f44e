"""Run the blocks of one computation in forked worker processes.

``run_blocks(fn, blocks)`` returns ``[fn(*args) for args in blocks]``. This
process runs block 0 itself and forks one child per other block. A child
inherits its arguments through the fork, so only its result (or its
exception) crosses back, pickled, through a pipe. Every child ends in
``os._exit`` inside a ``finally``, so it never returns into the caller's
stack, runs no ``atexit`` handler and never flushes the stdio buffers it
inherited. Children are reaped on every path; on an error or an interrupt
the unfinished ones are killed first. The error raised is that of the
lowest failing block, so a caller whose blocks split one ordered loop sees
the error the serial loop would have raised first. A child that sends
nothing (killed, or its outcome would not pickle) raises RuntimeError.

Plain ``os.fork`` and a pipe, not ``multiprocessing``: the blocks read
arrays the parent already holds, which a spawned worker would have to
import and unpickle again, and a ``Pool``'s handler threads added about
6 ms to every round trip.

``worker_count`` decides how many blocks are worth forking: never more than
the caller's ``jobs``, its tasks, or the usable cores (capped at
``MAX_WORKERS``), and 1 where ``os.fork`` does not exist.
"""

from __future__ import annotations

import os
import pickle

MAX_WORKERS = 8


def usable_cores() -> int:
    """Cores this process may run on, capped at ``MAX_WORKERS``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(cores, MAX_WORKERS)


def worker_count(jobs: int, tasks: int) -> int:
    """Processes worth using for ``tasks`` independent tasks; starts none."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(jobs, usable_cores(), tasks))


def _child(fn, args, write_fd: int):
    """Run one block and write its outcome, pickled, to the pipe."""
    try:
        outcome = (True, fn(*args))
    except BaseException as exc:  # sent to the parent, which re-raises it
        outcome = (False, exc)
    payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)  # if this fails, nothing is sent
    with open(write_fd, "wb") as pipe:
        pipe.write(payload)


def _receive(read_fd: int):
    with open(read_fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    if not data:
        raise RuntimeError("a worker process ended without sending its result")
    ok, value = pickle.loads(data)  # written by our own child
    if not ok:
        raise value
    return value


def run_blocks(fn, blocks: list[tuple]) -> list:
    """``[fn(*args) for args in blocks]``, blocks 1.. in forked children."""
    if len(blocks) == 1 or not hasattr(os, "fork"):
        return [fn(*args) for args in blocks]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for args in blocks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child never leaves this block
                status = 1
                try:
                    _child(fn, args, write_fd)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [fn(*blocks[0])]
        results.extend(_receive(read_fd) for _, read_fd in children)
        return results
    except BaseException:
        import signal  # here only, so importing driftkit loads nothing new

        for pid, _ in children:  # not yet reaped, so the pid is still ours
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
