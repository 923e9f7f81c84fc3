"""Span tracer that times calls into rawphone's public functions from outside.

Each target is named by its defining module and function
(`"net.forward_pass"`). While a `Tracer` is active, every binding of the
target function object in a loaded `rawphone` module namespace is
replaced by a timing wrapper. Bindings are found by object identity, so
names imported with `from .x import f`, calls a module makes to its own
functions and re-exports in the package root are all covered, wherever a
function is bound. Every binding is restored on exit, also when the
traced code raises.

A span is (name, start, end, parent, run id, work). Spans live in memory
as parallel lists and are written out only when asked, after the run.
"""

import functools
import sys
from time import perf_counter

import numpy as np

PACKAGE = "rawphone"


class Tracer:
    """Records spans for the functions in `targets` while used as a context.

    `targets` maps a span name to a `work_of(*args, **kwargs)` callable
    giving a count of work units for the call (frames, cells), or None.
    Names of the form `cli.cmd_<sub>` are recorded as `cli.<sub>`.
    """

    def __init__(self, targets, run_id):
        self.targets = dict(targets)
        self.run_id = run_id
        self.names, self.starts, self.ends, self.parents, self.work = [], [], [], [], []
        self.missing = []
        self._stack = []
        self._patched = []
        self._by_name = None  # name -> span indices, built on first query

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, span_name, fn, work_of):
        names, starts, ends, parents, work, stack = (
            self.names, self.starts, self.ends, self.parents, self.work, self._stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(span_name)
            parents.append(stack[-1] if stack else -1)
            work.append(work_of(*args, **kwargs) if work_of is not None else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def __enter__(self):
        try:
            wrappers = {}
            for name, work_of in self.targets.items():
                module, func = name.split(".", 1)
                fn = getattr(sys.modules.get(f"{PACKAGE}.{module}"), func, None)
                if not callable(fn):
                    self.missing.append(name)
                    continue
                span_name = f"cli.{func[4:]}" if module == "cli" and func.startswith("cmd_") else name
                wrappers[id(fn)] = (fn, self._wrap(span_name, fn, work_of))
            for module in self._modules():
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        self._patched.append((module, attr, value))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        self._by_name = None
        return False

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @staticmethod
    def span_cost_s(calls=20000, repeats=5):
        """Wall seconds one span adds to a call: a wrapped no-op against a bare one, median of repeats."""

        def noop():
            return None

        wrapped = Tracer({}, run_id="span_cost")._wrap("noop", noop, None)
        costs = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = perf_counter()
            for _ in range(calls):
                noop()
            costs.append((t1 - t0 - (perf_counter() - t1)) / calls)
        return float(np.median(costs))

    # -- queries ----------------------------------------------------------

    def spans(self):
        """Spans as (name, start, end, parent, run_id, work) tuples."""
        return [
            (n, s, e, p, self.run_id, w)
            for n, s, e, p, w in zip(self.names, self.starts, self.ends, self.parents, self.work)
        ]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start,end,parent,run_id,work\n")
            for i, (n, s, e, p, r, w) in enumerate(self.spans()):
                f.write(f"{i},{n},{s:.9f},{e:.9f},{p},{r},{w}\n")

    def _indices(self, name, parent_prefix=None):
        if self._by_name is None:
            self._by_name = {}
            for i, n in enumerate(self.names):
                self._by_name.setdefault(n, []).append(i)
        found = self._by_name.get(name, [])
        if parent_prefix is None:
            return found
        names, parents = self.names, self.parents
        return [i for i in found if parents[i] >= 0 and names[parents[i]].startswith(parent_prefix)]

    def calls(self, name, parent_prefix=None):
        """Number of spans of `name` (whose parent's name starts with `parent_prefix`)."""
        return len(self._indices(name, parent_prefix))

    def durations(self, name, parent_prefix=None):
        return np.array([self.ends[i] - self.starts[i] for i in self._indices(name, parent_prefix)])

    def busy_s(self, name, parent_prefix=None):
        return float(self.durations(name, parent_prefix).sum())

    def work_total(self, name):
        return int(sum(self.work[i] for i in self._indices(name)))

    def us_per_call(self, name, q=50):
        d = self.durations(name)
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    def us_per_work(self, *names):
        """Busy time per work unit over the spans of all `names`, in microseconds."""
        units = sum(self.work_total(n) for n in names)
        return sum(self.busy_s(n) for n in names) * 1e6 / units if units else 0.0

    def self_s(self, name):
        """Total duration of `name` spans minus the time their direct children cover."""
        own = set(self._indices(name))
        total = sum(self.ends[i] - self.starts[i] for i in own)
        for i, p in enumerate(self.parents):
            if p in own:
                total -= self.ends[i] - self.starts[i]
        return float(total)
