"""One repetition of a workload, in a fresh interpreter started by run.py.

Usage: ``python3 perfbench/rep.py '<json request>'`` from the checkout root,
with ``src`` on ``PYTHONPATH``.  The request names the workload, seed,
worker count, whether to trace, and whether to stop after set-up.  The
repetition prints one JSON line: when set-up ended, the host-speed probes
of set-up and of the timed work, the timed wall and CPU seconds (without the
probes), peak memory, the correctness verdict, search counters and, when
traced, the per-span summary.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads
from hostspeed import Sampler


def cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def search_stats(workload: str, outputs: list) -> dict:
    """Summed SearchStats of the outputs that carry them."""
    nodes = 0
    pruned: dict[str, int] = {}
    if workload in ("search-open", "verify-suite"):
        for out in outputs:
            if isinstance(out, Exception):
                continue
            nodes += out.stats.nodes
            for rule, n in out.stats.pruned.items():
                pruned[rule] = pruned.get(rule, 0) + n
    return {"nodes": nodes, "pruned": pruned}


def main() -> int:
    req = json.loads(sys.argv[1])
    workload = req["workload"]
    setup_sampler = Sampler()
    setup_sampler.start()
    import hamfix

    inputs = workloads.build(workload, req["seed"], hamfix)
    ready_ns = time.monotonic_ns()
    setup_sampler.stop()
    setup = {
        "ready_ns": ready_ns,
        "setup_probe_ns": setup_sampler.samples_ns,
        "setup_probe_s": setup_sampler.wall_s,
    }
    if req["setup_only"]:
        print(json.dumps(setup))
        return 0
    expected = workloads.load_expected()
    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    sampler = Sampler()
    sampler.start()
    cpu0 = cpu_s(resource.RUSAGE_SELF)
    kids0 = cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    outputs = workloads.run(workload, inputs, hamfix, req["workers"])
    wall = time.perf_counter() - t0
    kids = cpu_s(resource.RUSAGE_CHILDREN) - kids0
    cpu = cpu_s(resource.RUSAGE_SELF) - cpu0 + kids
    sampler.stop()
    if tracer is not None:
        tracer.enabled = False

    attempted, failed, failures = workloads.check(workload, inputs, outputs, expected)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        **setup,
        "wall_s": wall - sampler.wall_s,
        "cpu_s": cpu - sampler.cpu_s,
        "probe_ns": sampler.samples_ns,
        # A child process, if the search starts any, counts at its peak.
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "search": search_stats(workload, outputs),
    }
    if workload == "check-corpus":
        result["corpus"] = {
            "size": len(outputs),
            "base": inputs["base"],
            "valid": sum(
                1 for out in outputs if not isinstance(out, Exception) and out[0].passed
            ),
        }
    if tracer is not None:
        result["spans"] = tracer.summary()
        tracer.write(Path(req["spans_path"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
