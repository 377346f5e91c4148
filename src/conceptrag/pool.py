"""Forked worker processes: the one pool that ``eval`` and ``report`` share."""

from __future__ import annotations

import os
import threading


def usable_cpus() -> int:
    """The CPUs forked workers could run on: 1 where ``sched_getaffinity`` is missing, or
    for a caller with more than one thread (a fork copies only the calling one)."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(jobs: list) -> list:
    """The results of ``jobs``, each called in a forked process of its own and its
    result marshalled back through its own pipe. The job of a worker that failed, died or
    never started (after a failed fork) is called again here, in order, once every worker
    is reaped: its exception, if any, is raised as in process. Ctrl-C stops this process
    alone, and leaves no worker behind."""
    import marshal
    import signal

    done, pids, pipes = {}, {}, []  # pids of workers not yet reaped
    # the workers keep SIGINT blocked from the fork on
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for i, job in enumerate(jobs):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as writer:
                pids[i] = os.fork()
                if pids[i] == 0:  # a worker never returns, runs no atexit, flushes no buffer
                    try:
                        writer.write(marshal.dumps(job()))
                        writer.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        for i, pipe in enumerate(pipes):
            data, (_, status) = pipe.read(), os.waitpid(pids.pop(i), 0)
            if status == 0:
                done[i] = marshal.loads(data)
    except OSError:  # a pipe, fork or wait failed: what is not done is done in process
        pass
    finally:  # after Ctrl-C, a failed fork or an error, no worker is left
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
    return [done[i] if i in done else job() for i, job in enumerate(jobs)]
