"""Outside-in tracing of sievelab's layers.

``install`` wraps every public function and public method of each layer
module, then rebinds the wrapper at every name in the ``sievelab``
package that held the original (``cli`` binds ``build_sequence``,
``thresholds`` binds ``integrate``, ``localdata`` binds ``factorint``, and
so on); a wrapper installed at one name only would miss the calls made
through the others.  Spans stay in memory as (name, start, end, parent,
job, raised) tuples and are reduced by ``summarize`` when the pass ends.
"""

import functools
import inspect
import sys
import time

LAYERS = ("numerics", "sieve_functions", "thresholds", "quadforms", "localdata",
          "lattice_points", "arith", "cli")

# Work counted from a traced function's result: span name -> (counter, fn).
RESULT_COUNTS = {
    "lattice_points.enumerate_points": ("lattice_points.points_found", len),
    "localdata.build_local_table": ("localdata.primes_tabulated",
                                    lambda table: len(table.entries)),
}


class Tracer:
    """Span recorder for one process; wrappers append, ``summarize`` reduces."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.job = None
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        counter = RESULT_COUNTS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.job, raised)
            if counter is not None:
                key, count = counter
                tracer.counts[key] = tracer.counts.get(key, 0) + count(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the layers' public callables and rebind every name bound to one."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"sievelab.{layer}"]
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = tracer.wrap(obj, f"{layer}.{name}")
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    label = f"{layer}.{name}.{attr}"
                    if isinstance(member, (classmethod, staticmethod)):
                        setattr(obj, attr, type(member)(tracer.wrap(member.__func__, label)))
                    elif inspect.isfunction(member):
                        setattr(obj, attr, tracer.wrap(member, label))
    for modname, module in list(sys.modules.items()):
        if modname != "sievelab" and not modname.startswith("sievelab."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive s, self_s and errors.

    Inclusive time counts only spans with no ancestor of the same name, so
    nested integrals are not counted twice; self time is a span's duration
    minus the part of it that its child spans cover.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _job, raised) in enumerate(spans):
        stats = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        stats["calls"] += 1
        stats["errors"] += raised
        stats["self_s"] += (end - start) - _covered(
            [(spans[c][1], spans[c][2]) for c in children[i]], start, end)
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            stats["s"] += end - start
    return out


def by_module(summary: dict[str, dict]) -> dict[str, dict]:
    """Self time and errors summed over the spans of each module."""
    out: dict[str, dict] = {}
    for name, stats in summary.items():
        module = out.setdefault(name.split(".")[0], {"self_s": 0.0, "errors": 0})
        module["self_s"] += stats["self_s"]
        module["errors"] += stats["errors"]
    return out
