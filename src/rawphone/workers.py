"""An ordered map over forked worker processes.

`ordered_map(work, items, cost)` cuts `items` into one run of
consecutive items per worker and returns what `work` yields for each
item, in item order, whatever the number of workers. The number of
workers is the number of usable cores, capped at the number of items;
the calling process runs the first share itself and forks one child per
further share, each started on a core of its own. With one worker
nothing is forked. Shares are cut by item count, or, where the caller
passes each item's estimated `cost`, by cost: each share then holds
about an equal part of the total (share_bounds).

Fork gate: a fork has a price (FORK_PRICE_S, about 10 ms a child on a
2 vCPU VM), so a caller that can estimate each item's inline seconds
passes `cost`, and the map keeps only as many workers as have later
shares, cut by cost, that outweigh the price of their forks, down to
none. `decode` estimates from file sizes and the model before it loads
anything, and `train` its CV scoring and CRF emissions from the
utterances' frames; `grid` and `ablate-pool`, whose items are whole
trainings, pass none and always fork.

Start method: `fork`. A forked child starts with the parent's loaded
model, closures and monkeypatches in about 1.6 ms, where `spawn` would
start an interpreter and import numpy and rawphone again (about 0.4 s on
a 2 vCPU VM, twice a whole decode of the benchmark's 48-utterance test
split) and would have to pickle every closure. Fork has a cost of its
own: each process then takes a copy-on-write fault the first time it
writes to a page it had before the fork.
Fork copies only the calling thread, so a lock held by another thread
would stay locked in the child. Hence a process that runs any Python
thread besides the main one maps inline, and OpenBLAS stops its own
thread pool in a `pthread_atfork` handler before each fork, so the
process forks while single-threaded (and Python 3.12 has no threads to
warn about). A child runs its share, pickles its outputs to the parent
through a pipe and exits; it writes no files. An exception it raises is
sent as it is, or as its class and message where pickle cannot send it;
a child that ends without sending (killed, out of memory) is a
WorkerLostError. A child maps its own inner `ordered_map` calls inline,
so workers never fork again.
"""
import bisect
import contextlib
import io
import itertools
import os
import pickle
import signal
import sys

from .errors import WorkerLostError

# The price of one forked child, in wall seconds that a map run inline
# would not spend. Measured on a 2 vCPU VM (Linux, Python 3.11,
# OPENBLAS_NUM_THREADS=1) as forked minus inline `decode` wall time of 2
# utterances, 1 per share, in 21 interleaved pairs: 8.1 ms with a
# feature-input model, whose child utterance takes about 0.5 ms, and
# 2.7 ms with the acceptance raw model, whose child utterance takes about
# 7 ms beside the parent's. Starting the child takes about 1.6 ms; the
# rest is copy-on-write faults (900-1,400 in each process, against 23 in
# an inline run), the child's exit and the join.
FORK_PRICE_S = 0.010


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


def share_bounds(costs, workers):
    """Where each of `workers` shares of consecutive items of these `costs`
    (finite, >= 0) starts, and the last one ends: share w is items
    bounds[w] .. bounds[w + 1] - 1.

    Share w ends at the last item boundary where the cumulative cost is at
    most w / workers of the total, moved back over items of zero cost as
    far as w / workers of the items, and then as little as keeps every
    share non-empty. Costs are summed exactly, in integer units of the
    largest denominator of their binary fractions, so items of equal cost
    are cut by count: share w starts at item len(costs) * w // workers.
    """
    ratios = [float(c).as_integer_ratio() for c in costs]
    scale = max(q for _p, q in ratios)
    cumulative = list(itertools.accumulate((p * (scale // q) for p, q in ratios), initial=0))
    scaled = [c * workers for c in cumulative]  # the cost before each boundary, times workers
    n, total, bounds = len(costs), cumulative[-1], [0]
    for w in range(1, workers):
        last = bisect.bisect_right(scaled, total * w) - 1
        tied = bisect.bisect_left(scaled, scaled[last])  # the first boundary of that cost
        cut = max(tied, min(last, n * w // workers))
        bounds.append(min(max(cut, bounds[-1] + 1), n - (workers - w)))
    return bounds + [n]


def ordered_map(work, items, cost=None):
    """The outputs of `work` over consecutive shares of `items`, in item order.

    `work(share)` takes a list of consecutive items and yields one output
    per item, in order. If it raises, the exception of the earliest
    failing share is raised here, after the stderr its workers wrote
    before it; a worker's stderr is buffered and written out in share
    order. Every child is joined before this returns or raises.

    `cost(item)`, where the caller can estimate it, is the seconds `work`
    would take over the item inline. The map then cuts the shares by cost
    and forks only where the split pays: it takes the most workers, up to
    worker_count, whose later shares are estimated at more than
    FORK_PRICE_S per forked child, and runs inline when no count passes.
    Without `cost` it cuts by count and takes worker_count workers. A
    worker that ends before it sends its results is a WorkerLostError.
    """
    items = list(items)
    # the gate first: a map it keeps inline never imports multiprocessing
    workers = max(1, min(usable_cores(), len(items)))
    costs = [1] * len(items)
    if workers > 1 and cost is not None:
        costs = [cost(item) for item in items]
        while workers > 1 and (sum(costs[share_bounds(costs, workers)[1] :])
                               <= FORK_PRICE_S * (workers - 1)):
            workers -= 1
    if workers > 1:
        workers = min(workers, worker_count(len(items)))
    if workers == 1:
        return list(work(items))
    bounds = share_bounds(costs, workers)
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    cores = sorted(os.sched_getaffinity(0))
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
                child.join()
                raise WorkerLostError(f"a worker process {_ending(child.exitcode)} "
                                      "before sending its results") from None
            child.join()
            sys.stderr.write(stderr)
            outputs += done
            if isinstance(error, tuple):
                error = _rebuilt(*error)
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


def _ending(exitcode):
    """How a child process with this exit code ended, in words."""
    if exitcode is not None and exitcode < 0:
        try:
            return f"was killed by signal {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"was killed by signal {-exitcode}"
    return f"ended with exit code {exitcode}"


def _sendable(error):
    """`error` if it pickles and unpickles, else (its class, or the class's
    name where the class does not pickle, and its message)."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # an attribute or constructor that pickle cannot handle
        pass
    cls = type(error)
    try:
        pickle.loads(pickle.dumps(cls))
    except Exception:  # a class defined inside a function
        cls = cls.__qualname__
    return cls, str(error)


def _rebuilt(cls, message):
    """A worker's exception that could not be sent as it was, rebuilt from its
    class and message, or a WorkerLostError naming its type."""
    if isinstance(cls, type):
        try:
            return cls(message)
        except Exception:  # a constructor that takes no message
            cls = cls.__qualname__
    return WorkerLostError(f"a worker process raised {cls}, which could not be sent "
                           f"to the parent: {message}")


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
            error = _sendable(e)
    send.send((outputs, error, stderr.getvalue()))
    send.close()
