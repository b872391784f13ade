"""Pin the outputs every workload must reproduce, into expected.json.

Usage, from the root of a checkout whose outputs are taken as correct:

    PYTHONPATH=src python3 perfbench/pin.py

It runs the search-open enumeration, the verify-suite verifiers and every
member of the check-corpus universe (the builtins and all their
single-edge weight mutations, so that any seed's corpus is covered), and
refuses to pin if a verifier fails or ``is_valid`` disagrees with
``check_all``.  Run it only to define correctness, never to make a failing
benchmark pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import hamfix
import workloads
from run import checkout_commit


def main() -> int:
    search = hamfix.search
    res = search.enumerate_configurations(
        search.SearchSpec(*workloads.SEARCH_SPEC), workers=1
    )
    verify = {}
    for name, verifier, kwargs in workloads.VERIFY_CALLS:
        rep = getattr(search, verifier)(workers=1, **kwargs)
        if not rep.passed:
            print(f"pin.py: {name} does not pass: {rep.summary}", file=sys.stderr)
            return 1
        verify[name] = workloads.digest(workloads.verify_outcome(rep))

    base = workloads.base_configs(hamfix.examples)
    members = {
        "base": base,
        "mutant": [
            workloads.make_mutant(hamfix.model, base[bi], ei, w)
            for bi, ei, w in workloads.mutant_universe(base)
        ],
    }
    corpus = {}
    for kind, configs in members.items():
        outputs = workloads.run_corpus(configs, hamfix)
        digests = []
        for c, out in zip(configs, outputs):
            if isinstance(out, Exception):
                print(f"pin.py: {c.label} raised {out!r}", file=sys.stderr)
                return 1
            report, valid, coh = out
            if valid != report.passed:
                print(f"pin.py: {c.label}: is_valid disagrees with check_all", file=sys.stderr)
                return 1
            digests.append(workloads.corpus_digest(report, coh))
        corpus[kind] = "".join(digests)

    doc = {
        "commit": checkout_commit(Path.cwd()),
        "search": workloads.digest(workloads.search_outcome(res)),
        "verify-suite": verify,
        "check-corpus": corpus,
    }
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
