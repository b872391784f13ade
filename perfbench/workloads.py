"""The benchmark's workloads: inputs built from a seed, the timed operations,
and the correctness oracle that compares their outputs with the digests
pinned in ``expected.json``.

Every function takes the ``hamfix`` modules it needs as arguments and looks
the layer entry points up on them at call time, so that the tracer's
wrappers (installed on those modules) see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product
from pathlib import Path

WORKLOADS = ("search-open", "verify-suite", "check-corpus")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: ``SearchSpec(max_weight, max_width)`` of the search-open workload
SEARCH_SPEC = (5, 10)

#: (name, verifier, keyword arguments) of the verify-suite operations
VERIFY_CALLS = (
    ("thm1-w4", "verify_theorem1", {"max_width": 10, "max_weight": 4}),
    ("thm1-w5", "verify_theorem1", {"max_width": 10, "max_weight": 5}),
    ("thm2", "verify_theorem2", {"max_width": 10}),
    ("thm3", "verify_theorem3", {}),
    ("thm4-1-3", "verify_theorem4", {"a": 1, "c": 3}),
    ("thm4-2-3", "verify_theorem4", {"a": 2, "c": 3}),
)

#: weight changes that make a mutant from one edge of a builtin
MUTATION_DELTAS = (-2, -1, 1, 2)

#: mutants drawn per corpus; with the 272 builtins the corpus has 2,981 members
CORPUS_MUTANTS = 2709

#: hex digits kept of each corpus member's digest
CORPUS_DIGEST_LEN = 8


def digest(obj, length: int = 64) -> str:
    """SHA-256 of the canonical JSON text of ``obj``, cut to ``length`` hex digits."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------------------
# inputs


def base_configs(examples) -> list:
    """The 272 builtins: o, remark_w7, cp5 over gaps 1..3, grass(a, b, c)."""
    out = [examples.builtin("o"), examples.builtin("remark_w7")]
    out += [examples.builtin("cp5", *g) for g in product(range(1, 4), repeat=5)]
    out += [
        examples.builtin("grass", a, b, c)
        for a in range(1, 4)
        for b in range(1, 4)
        for c in (2, 4, 6)
    ]
    return out


def mutant_universe(base) -> list[tuple[int, int, int]]:
    """Every single-edge weight mutation as (builtin index, edge index, new weight)."""
    return [
        (bi, ei, e.w + d)
        for bi, c in enumerate(base)
        for ei, e in enumerate(c.edges)
        for d in MUTATION_DELTAS
        if e.w + d >= 1
    ]


def make_mutant(model, c, ei: int, w: int):
    edges = list(c.edges)
    e = edges[ei]
    edges[ei] = model.WeightEdge(e.lo, e.hi, w, e.mult)
    return model.Configuration(
        c.profile, tuple(edges), label=f"{c.label}~e{ei}w{w}", effective=c.effective
    )


def corpus(examples, model, seed: int) -> dict:
    """The builtins plus ``CORPUS_MUTANTS`` mutants drawn with ``seed``.

    ``keys`` names each member's pinned digest: ``("base", i)`` or
    ``("mutant", universe index)``.
    """
    base = base_configs(examples)
    universe = mutant_universe(base)
    picks = random.Random(seed).sample(range(len(universe)), CORPUS_MUTANTS)
    configs = list(base)
    keys = [("base", i) for i in range(len(base))]
    for u in picks:
        bi, ei, w = universe[u]
        configs.append(make_mutant(model, base[bi], ei, w))
        keys.append(("mutant", u))
    return {"configs": configs, "keys": keys, "base": len(base)}


def build(workload: str, seed: int, hamfix) -> dict:
    """The workload's inputs; only check-corpus depends on the seed."""
    if workload == "search-open":
        return {"spec": hamfix.search.SearchSpec(*SEARCH_SPEC)}
    if workload == "verify-suite":
        return {"calls": VERIFY_CALLS}
    if workload == "check-corpus":
        return corpus(hamfix.examples, hamfix.model, seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# timed operations
#
# Each returns a list of raw outputs, one per operation; an operation that
# raises unexpectedly leaves the exception in its place.  Turning outputs
# into digests happens after the clock stops.


def run(workload: str, inputs: dict, hamfix, workers: int) -> list:
    search = hamfix.search
    if workload == "search-open":
        try:
            return [search.enumerate_configurations(inputs["spec"], workers=workers)]
        except Exception as exc:  # counted as a failed operation
            return [exc]
    if workload == "verify-suite":
        out = []
        for _, verifier, kwargs in inputs["calls"]:
            try:
                out.append(getattr(search, verifier)(workers=workers, **kwargs))
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out
    return run_corpus(inputs["configs"], hamfix)


def run_corpus(configs, hamfix) -> list:
    constraints, cohomology = hamfix.constraints, hamfix.cohomology
    out = []
    for c in configs:
        try:
            report = constraints.check_all(c)
            valid = constraints.is_valid(c)
            try:
                coh = cohomology.cohomology_report(c)
            except cohomology.CohomologyError as exc:
                coh = exc
            out.append((report, valid, coh))
        except Exception as exc:  # counted as a failed operation
            out.append(exc)
    return out


# ---------------------------------------------------------------------------
# correctness oracle


def search_outcome(result) -> list:
    """What ``enumerate --json`` prints under ``configurations``."""
    return result.to_dict()["configurations"]


def verify_outcome(report) -> dict:
    """The ``passed`` and ``data`` keys of ``verify --json``."""
    doc = report.to_dict()
    return {"passed": doc["passed"], "data": doc["data"]}


def corpus_outcome(report, coh) -> dict:
    """A member's check report and cohomology result, without prose.

    Violations keep their rule and location but not their ``detail`` text;
    a ``CohomologyError`` is pinned by its class.
    """
    return {
        "pass": report.passed,
        "c1": report.c1,
        "violations": sorted(
            [v.rule, list(v.vertices), [list(e) for e in v.edges]]
            for v in report.violations
        ),
        "cohomology": {"error": type(coh).__name__} if isinstance(coh, Exception) else coh,
    }


def corpus_digest(report, coh) -> str:
    return digest(corpus_outcome(report, coh), CORPUS_DIGEST_LEN)


def expected_corpus_digest(expected: dict, key) -> str:
    kind, i = key
    at = i * CORPUS_DIGEST_LEN
    return expected["check-corpus"][kind][at : at + CORPUS_DIGEST_LEN]


def search_problem(res, expected: dict) -> str | None:
    if isinstance(res, Exception):
        return f"enumerate raised {res!r}"
    if digest(search_outcome(res)) != expected["search"]:
        return "enumerate configurations differ from the pinned digest"
    return None


def verify_problem(name: str, rep, expected: dict) -> str | None:
    if isinstance(rep, Exception):
        return f"{name} raised {rep!r}"
    if not rep.passed:
        return f"{name} did not pass: {rep.summary}"
    if digest(verify_outcome(rep)) != expected["verify-suite"][name]:
        return f"{name} output differs from the pinned digest"
    return None


def corpus_problem(c, key, out, expected: dict) -> str | None:
    if isinstance(out, Exception):
        return f"{c.label} raised {out!r}"
    report, valid, coh = out
    if valid != report.passed:
        return f"{c.label}: is_valid {valid} but check_all passed {report.passed}"
    if corpus_digest(report, coh) != expected_corpus_digest(expected, key):
        return f"{c.label}: report differs from the pinned digest"
    return None


def check(workload: str, inputs: dict, outputs: list, expected: dict) -> tuple[int, int, list]:
    """(attempted, failed, first five failures) for one repetition's outputs.

    An operation fails when it raised unexpectedly, when its output digest
    differs from the pinned one, when a verifier does not pass, or when
    ``is_valid`` disagrees with ``check_all(...).passed``.
    """
    if workload == "search-open":
        problems = [search_problem(res, expected) for res in outputs]
    elif workload == "verify-suite":
        problems = [
            verify_problem(name, rep, expected)
            for (name, _, _), rep in zip(inputs["calls"], outputs)
        ]
    else:
        problems = [
            corpus_problem(c, key, out, expected)
            for c, key, out in zip(inputs["configs"], inputs["keys"], outputs)
        ]
    failures = [p for p in problems if p]
    return len(outputs), len(failures), failures[:5]
