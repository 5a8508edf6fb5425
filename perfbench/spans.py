"""Outside-in tracing of ratrack: spans and counters around public calls.

Nothing inside ``src/`` is edited.  The tracer replaces module and class
attributes at the names the pipeline calls them by (for example
``ratrack.pipeline.ca_cfar``) with wrappers that record a span, for the
life of the process.  A name that no longer exists is reported as
absent instead of failing the run.

Layer spans are recorded only on sweeps with ``sweep_on`` set; in a
traced run ``SweepClock`` sets it on odd sweeps, so every traced sweep
sits between two untraced ones and the tracing overhead can be read
from neighbours of the same round.  Per-run spans (command, report)
are recorded whenever the tracer is active.

Spans are kept in memory as ``[name, start, end, parent, sweep]`` lists;
a span's self time is its duration minus the time its child spans cover.
The per-sweep stream position is set by ``SweepClock``, which times each
sweep from outside: the interval from the consumer asking the input
iterator for sweep k to its asking for sweep k+1, less any pause the
clock itself takes at that ask.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, SWEEP = range(5)


class Tracer:
    """Span recorder; ``active`` is False in untraced runs."""

    def __init__(self):
        self.active = False
        self.sweep_on = True
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.sweep: int | None = None
        # (counter name, sweep) -> accumulated value
        self.counts: dict[tuple[str, int | None], float] = defaultdict(float)
        self.absent: list[str] = []

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0,
               self.stack[-1] if self.stack else None, self.sweep]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(name, self.sweep)] += value

    def wrap(self, name: str, fn, on_result=None, per_sweep=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (per_sweep and not tracer.sweep_on):
                return fn(*args, **kwargs)
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if on_result is not None:
                on_result(tracer, args, out)
            return out

        return wrapper

    # -- patching --------------------------------------------------------
    def patch(self, target: str, name: str, on_result=None,
              per_sweep=True) -> None:
        """Wrap ``module.attr`` or ``module.Class.attr`` under a span name."""
        self.replace(target,
                     lambda fn: self.wrap(name, fn, on_result, per_sweep))

    def replace(self, target: str, factory) -> None:
        """Install ``factory(original)`` at ``target``."""
        owner_path, attr = target.rsplit(".", 1)
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.absent.append(target)
            return
        setattr(owner, attr, factory(fn))

    # -- aggregation -----------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def per_sweep(self) -> dict[str, dict[int | None, list[float]]]:
        """name -> sweep -> [total ms, self ms, calls]."""
        out: dict[str, dict] = defaultdict(dict)
        for rec, self_s in zip(self.spans, self.self_times()):
            acc = out[rec[NAME]].setdefault(rec[SWEEP], [0.0, 0.0, 0])
            acc[0] += 1e3 * (rec[END] - rec[START])
            acc[1] += 1e3 * self_s
            acc[2] += 1
        return out


def _resolve(path: str):
    """Import ``a.b.c`` as a module, or a class attribute of one."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


class SweepClock:
    """Times an input iterator from outside, one record per sweep.

    Sweep k runs from ``starts[k]``, when the consumer asked for item
    k, to ``ends[k]``, when it asked for item k+1.  ``pause``, if given,
    is called at each ask between the two, so what it does is timed in
    no sweep.  With the tracer active the clock also opens a ``fetch``
    span over each ask->yield interval and a ``work`` span over each
    yield->next ask interval, so layer calls made while a sweep is
    processed nest under that sweep, and it turns layer spans on for
    odd sweeps only.
    """

    def __init__(self, tracer: Tracer, fetch: str | None, work: str,
                 pause=None):
        self.tracer = tracer
        self.fetch = fetch
        self.work = work
        self.pause = pause
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sweep_ids: list[int] = []

    def wrap(self, iterable):
        tracer = self.tracer
        traced = tracer.active
        it = iter(iterable)
        work = None
        k = 0
        while True:
            if work is not None:
                tracer.close(work)
            if k:
                self.ends.append(perf_counter())
            if self.pause is not None:
                self.pause()
            self.starts.append(perf_counter())
            if traced:
                tracer.sweep = k
                tracer.sweep_on = k % 2 == 1
                fetch = tracer.open(self.fetch) if self.fetch else None
            try:
                item = next(it)
            except StopIteration:
                if traced:
                    if fetch is not None:
                        tracer.close(fetch)
                        if tracer.spans[-1] is fetch:
                            tracer.spans.pop()  # the empty final fetch
                    tracer.sweep = None
                    tracer.sweep_on = True
                return
            if traced and fetch is not None:
                tracer.close(fetch)
            self.sweep_ids.append(int(getattr(item, "sweep_index", k)))
            if traced:
                work = tracer.open(self.work)
            yield item
            k += 1

    def total_ms(self) -> list[float]:
        """Per-sweep ask -> next-ask interval (fetch plus work)."""
        return [1e3 * (e - s) for s, e in zip(self.starts, self.ends)]
