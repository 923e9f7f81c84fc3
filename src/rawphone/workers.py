"""An ordered map over forked worker processes.

`ordered_map(work, items)` cuts `items` into one run of consecutive
items per worker and returns what `work` yields for each item, in item
order, whatever the number of workers. The number of workers is the
number of usable cores, capped at the number of items; the calling
process runs the first share itself and forks one child per further
share, each started on a core of its own. With one worker nothing is
forked.

Start method: `fork`. A forked child starts with the parent's loaded
model, closures and monkeypatches in about 1 ms, where `spawn` would
start an interpreter and import numpy and rawphone again (about 0.4 s on
a 2 vCPU VM, twice a whole decode of the benchmark's 48-utterance test
split) and would have to pickle every closure. Fork has a cost of its
own: each process then takes a copy-on-write fault the first time it
writes to a page it had before the fork, about 3.5 ms in a 7 ms decode
share of small feature utterances.
Fork copies only the calling thread, so a lock held by another thread
would stay locked in the child. Hence a process that runs any Python
thread besides the main one maps inline, and OpenBLAS stops its own
thread pool in a `pthread_atfork` handler before each fork, so the
process forks while single-threaded (and Python 3.12 has no threads to
warn about). A child runs its share, pickles its outputs to the parent
through a pipe and exits; it writes no files. A child maps its own
inner `ordered_map` calls inline, so workers never fork again.
"""

import contextlib
import io
import os
import sys


def usable_cores():
    """The cores this process may run on (1 where the platform cannot say)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def worker_count(num_items):
    """Workers for `num_items` items: min(usable cores, items), or 1 inside a
    worker or in a process that runs other Python threads."""
    # imported on first use: multiprocessing takes about 10 ms to import,
    # a twentieth of a subcommand's start-up
    import multiprocessing
    import threading

    if multiprocessing.parent_process() is not None or threading.active_count() > 1:
        return 1
    return max(1, min(usable_cores(), num_items))


def ordered_map(work, items):
    """The outputs of `work` over consecutive shares of `items`, in item order.

    `work(share)` takes a list of consecutive items and yields one output
    per item, in order. If it raises, the exception of the earliest
    failing share is raised here, after the stderr its workers wrote
    before it; a worker's stderr is buffered and written out in share
    order. Every child is joined before this returns or raises.
    """
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1:
        return list(work(items))
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    cores = sorted(os.sched_getaffinity(0))
    bounds = [len(items) * w // workers for w in range(workers + 1)]
    children = []
    try:
        _move_to(cores[0])
        for w, (a, b) in enumerate(zip(bounds[1:], bounds[2:]), 1):
            receive, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_run_share, daemon=True,
                                 args=(work, items[a:b], cores[w % len(cores)], send))
            child.start()
            send.close()
            children.append((child, receive))
        outputs = list(work(items[: bounds[1]]))
        for child, receive in children:
            try:
                done, error, stderr = receive.recv()
            except EOFError:
                done = None
            child.join()
            if done is None:
                raise RuntimeError(
                    f"a worker process ended with exit code {child.exitcode} "
                    "before sending its results"
                )
            sys.stderr.write(stderr)
            outputs += done
            if error is not None:
                raise error
        return outputs
    finally:
        for child, receive in children:
            if child.exitcode is None:
                child.kill()  # a share after a failing one: its outputs are not wanted
            child.join()
            child.close()
            receive.close()


def _move_to(core):
    """Move this process onto `core`, then let it run on its usable cores again.

    A forked child starts on its parent's core, and the scheduler moves
    one of the two only after 50-100 ms (2 vCPU VM, Linux), so shares
    shorter than that would run one after the other. A process once
    moved stays on its core while it keeps it busy.
    """
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    os.sched_setaffinity(0, usable)


def _run_share(work, share, core, send):
    """A child's body: run `work` over its share on `core` and send (outputs, error, stderr)."""
    _move_to(core)
    outputs, error, stderr = [], None, io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            outputs = list(work(share))
        except Exception as e:  # raised again by the parent, in share order
            error = e
    send.send((outputs, error, stderr.getvalue()))
    send.close()
