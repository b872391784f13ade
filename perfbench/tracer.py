"""Spans around hamfix's layer entry points, recorded from outside the package.

``Tracer.install`` replaces each traced function, in every ``hamfix`` module
namespace that holds it, by a wrapper that records one span per call:
its name, start, end, parent span and an outcome.  Spans stay in memory
until ``write`` saves them after the timed work.  A forked child (a pool
worker) inherits the wrappers but records nothing.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: defining module -> traced functions; the span name is "<layer>.<function>"
TRACED = {
    "hamfix.search": (
        "enumerate_configurations",
        "_gap_vectors",
        "verify_theorem1",
        "verify_theorem2",
        "verify_theorem3",
        "verify_theorem4",
    ),
    "hamfix.constraints": ("is_valid", "check_all", "compute_c1"),
    "hamfix.cohomology": ("ring_presentation", "total_chern", "cohomology_report"),
    "hamfix.model": ("derive_weight_system", "isotropy_components"),
}

#: span name -> outcome recorded from the return value (summed per name)
OUTCOME = {
    "search.enumerate_configurations": lambda r: len(r.configurations),
    "search._gap_vectors": len,
    "constraints.is_valid": int,
    "constraints.check_all": lambda r: int(r.passed),
}

NAME, START, END, PARENT, OUTCOME_AT, RAISED = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        outcome = OUTCOME.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if outcome is not None:
                span[OUTCOME_AT] = outcome(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a hamfix module imported it."""
        modules = [m for n, m in sys.modules.items() if n == "hamfix" or n.startswith("hamfix.")]
        for defining, names in TRACED.items():
            layer = defining.split(".")[1]
            for fname in names:
                orig = getattr(sys.modules[defining], fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds, outcome sum, raises.

        A span's self time is its duration minus the durations of its
        direct children; calls nest, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            agg = out.setdefault(
                span[NAME], {"calls": 0, "total_ns": 0, "self_ns": 0, "outcome": 0, "raised": 0}
            )
            dur = span[END] - span[START]
            agg["calls"] += 1
            agg["total_ns"] += dur
            agg["self_ns"] += dur - child_ns[i]
            agg["outcome"] += span[OUTCOME_AT]
            agg["raised"] += span[RAISED]
        return out

    def write(self, path) -> None:
        """Save the span tree: names, then [name index, start, end, parent] rows."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0
        rows = [[index[s[NAME]], s[START] - t0, s[END] - t0, s[PARENT]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"unit": "ns", "names": names, "spans": rows}))
