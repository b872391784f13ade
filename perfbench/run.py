"""hamfix benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search-open --seed 0 --seconds 35 --trace 0

Each repetition of the workload runs in a fresh interpreter (rep.py), so no
in-process memo carries over and every repetition pays the cold start a
``hamfix`` user pays.  The runner first starts set-up-only interpreters to
time set-up, then repeats the workload while the next repetition still fits
in ``--seconds`` (at least once).  It reports the median over the run's
repetitions of the wall and CPU seconds, scaled to a reference host speed
(hostspeed.py), and of the set-up time and peak memory.  With ``--trace 1``
it also runs one traced repetition and reports the per-layer metrics
instead of the end-to-end ones.

The second-to-last line of standard output is a JSON record of the run
(environment, load, seeds, every repetition); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REP = BENCH_DIR / "rep.py"

#: set-up-only interpreters started per run, after one unmeasured warm-up
SETUP_PROBES = 10

#: a run gives up (exit 1, no result) this many seconds after it started
RUN_DEADLINE_S = 170.0

#: a later claim must also hold on this check-corpus seed
HOLDOUT_SEED = 7919

#: every workload runs the search with one worker
WORKERS = 1


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def checkout_commit(root: Path) -> str | None:
    """The commit of a git checkout at ``root``, or None outside git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "commit": checkout_commit(root),
    }


class Runner:
    """Starts repetitions of one workload and keeps the run's deadline."""

    def __init__(self, root: Path, workload: str, seed: int, workers: int) -> None:
        self.root = root
        self.base = {"workload": workload, "seed": seed, "workers": workers}
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        env = {k: v for k, v in os.environ.items() if k != "HAMFIX_THREADS"}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def rep(self, setup_only: bool = False, trace: bool = False, spans_path: str = "") -> dict:
        """Run one repetition; adds its set-up and total seconds to its result.

        Set-up runs from the start of the interpreter to the inputs built,
        without the host-speed probes, scaled like the timed work.
        """
        req = dict(self.base, setup_only=setup_only, trace=trace, spans_path=spans_path)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        start_ns = time.monotonic_ns()
        # Own process group, so that a timeout also ends the pool workers.
        with subprocess.Popen(
            [sys.executable, str(REP), json.dumps(req)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError("repetition did not finish before the run deadline")
        end_ns = time.monotonic_ns()
        if proc.returncode != 0:
            raise BenchError(f"repetition exited with {proc.returncode}:\n{stderr}")
        out = json.loads(stdout.strip().splitlines()[-1])
        setup = (out["ready_ns"] - start_ns) / 1e9 - out["setup_probe_s"]
        out["setup_s"] = setup * hostspeed.scale(out["setup_probe_ns"])
        out["total_s"] = (end_ns - start_ns) / 1e9
        return out


def measure(runner: Runner, seconds: float) -> tuple[list[float], list[dict]]:
    """Set-up samples, then timed repetitions while the next one still fits."""
    runner.rep(setup_only=True)  # warm-up: byte-compiles the package
    setups = [runner.rep(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        reps.append(runner.rep())
        setups.append(reps[-1]["setup_s"])
        typical = statistics.median(r["total_s"] for r in reps)
        if time.monotonic() - start + typical > seconds:
            return setups, reps


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scale_to_reference(reps: list[dict]) -> None:
    """Add each repetition's wall and CPU seconds at the reference speed."""
    for r in reps:
        r["scale"] = hostspeed.scale(r["probe_ns"])
        r["scaled_wall_s"] = r["wall_s"] * r["scale"]
        r["scaled_cpu_s"] = r["cpu_s"] * r["scale"]


def end_to_end(setups: list[float], reps: list[dict]) -> dict:
    """Medians over the run's repetitions (and set-up probes)."""
    return {
        "wall_s": statistics.median(r["scaled_wall_s"] for r in reps),
        "cpu_s": statistics.median(r["scaled_cpu_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(traced: dict, reps: list[dict]) -> dict:
    spans = traced["spans"]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_ns", 0) / 1e9

    def outcome(name: str) -> int:
        return spans.get(name, {}).get("outcome", 0)

    stats = traced["search"]
    nodes = stats["nodes"]
    pruned = stats["pruned"]
    search_self = self_s("search.enumerate_configurations")
    emitted = outcome("search.enumerate_configurations")
    untraced_wall = statistics.median(r["scaled_wall_s"] for r in reps)
    overhead = traced["scaled_wall_s"] - untraced_wall
    corpus = traced.get("corpus", {"size": 0, "base": 0, "valid": 0})
    m = {
        "search.nodes": nodes,
        "search.self_s": search_self,
        "search.nodes_per_self_s": ratio(nodes, search_self),
        "search.gap_vectors": outcome("search._gap_vectors"),
        "search.gapgen_s": self_s("search._gap_vectors"),
        "search.verify_self_s": sum(self_s(f"search.verify_theorem{i}") for i in range(1, 5)),
        "search.leaf_gate_frac": ratio(
            calls("constraints.is_valid"), pruned.get("final", 0) + emitted
        ),
        "constraints.is_valid.pass_frac": ratio(
            outcome("constraints.is_valid"), calls("constraints.is_valid")
        ),
        "constraints.check_all.pass_frac": ratio(
            outcome("constraints.check_all"), calls("constraints.check_all")
        ),
        "model.derive_weight_system.per_config": ratio(
            calls("model.derive_weight_system"), calls("constraints.is_valid")
        ),
        "cohomology.ring_presentation.fail_frac": ratio(
            spans.get("cohomology.ring_presentation", {}).get("raised", 0),
            calls("cohomology.ring_presentation"),
        ),
        "corpus.valid_frac": ratio(corpus["valid"], corpus["size"]),
        "corpus.mutant_frac": ratio(corpus["size"] - corpus["base"], corpus["size"]),
        "trace.wall_s": traced["scaled_wall_s"],
        "trace.overhead_s": overhead,
        "trace.overhead_frac": ratio(overhead, untraced_wall),
    }
    for rule in ("gamma", "slot", "extremal", "divisibility", "final"):
        m[f"search.pruned.{rule}"] = pruned.get(rule, 0)
    for layer, fn in (
        ("constraints", "is_valid"),
        ("constraints", "check_all"),
        ("constraints", "compute_c1"),
        ("model", "derive_weight_system"),
        ("model", "isotropy_components"),
        ("cohomology", "ring_presentation"),
        ("cohomology", "total_chern"),
        ("cohomology", "cohomology_report"),
    ):
        m[f"{layer}.{fn}.calls"] = calls(f"{layer}.{fn}")
        m[f"{layer}.{fn}.s"] = self_s(f"{layer}.{fn}")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hamfix" / "__init__.py").is_file():
        print("run.py: no src/hamfix here; run from the root of a hamfix checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    runner = Runner(root, args.workload, args.seed, WORKERS)
    load_before = os.getloadavg()
    try:
        setups, reps = measure(runner, args.seconds)
        traced = None
        if args.trace:
            spans_path = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.json"
            traced = runner.rep(trace=True, spans_path=str(spans_path))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()
    scale_to_reference(reps + ([traced] if traced else []))

    runs = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if traced:
        values = per_layer(traced, reps)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setups, reps)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": WORKERS,
        "environment": environment(root),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "contended": load_before[0] > nproc(),
        "error_rate": ratio(failed, attempted),
        "failures": [f for r in runs for f in r["failures"]][:5],
        "nodes": reps[0]["search"]["nodes"],
        "setup_samples_s": setups,
        "reps": [
            {
                k: r[k]
                for k in ("wall_s", "cpu_s", "scale", "setup_s", "peak_rss_mb", "total_s")
            }
            for r in reps
        ],
        "end_to_end": end_to_end(setups, reps),
    }
    if args.workload == "check-corpus":
        record["corpus"] = reps[0]["corpus"]
        record["configs_per_s"] = ratio(reps[0]["corpus"]["size"], record["end_to_end"]["wall_s"])
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
