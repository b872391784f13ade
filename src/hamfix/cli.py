"""Command-line interface.

Subcommands: ``check``, ``report``, ``enumerate``, ``verify``, ``examples``,
``project-gkm``.  Human-readable tables go to stdout by default; ``--json``
switches stdout to the machine-readable document (the human output never
contains information absent from the JSON; ``project-gkm`` always prints
its JSON document).  ``verify`` rejects a flag its theorem does not read.
``check --effective`` and ``--no-effective`` set the configuration's
``effective`` field before checking it, and together they are rejected.
Exit codes: 0 success/PASS, 1 violations or a failed verification, 2 usage
or parse errors (an edge weight or search width above ``MAX_EDGE_WEIGHT``
among them), each reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import cohomology
from .constraints import check_all
from .examples import (
    BUILTIN_NAMES,
    DegenerateDirection,
    ParamError,
    builtin,
    o_gkm_graph,
    project_gkm,
)
from .model import (
    MAX_EDGE_WEIGHT,
    SchemaError,
    StructureError,
    canonicalize,
    config_dumps,
    config_loads,
)
from .search import (
    _TOGGLES,
    BudgetExceeded,
    SearchSpec,
    SpecError,
    enumerate_configurations,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
)

_USAGE_EXIT = 2


def _emit(doc: dict, human_lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in human_lines:
            print(line)


def _bounded(config):
    """``config``, or a SchemaError if an edge weight exceeds ``MAX_EDGE_WEIGHT``."""
    if config.max_weight() > MAX_EDGE_WEIGHT:
        raise SchemaError(f"edge weight {config.max_weight()} exceeds {MAX_EDGE_WEIGHT}")
    return config


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _bounded(config_loads(fh.read()))
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _violation_table(violations) -> list[str]:
    lines = [f"{'rule':<24} {'location':<22} detail"]
    for v in violations:
        loc = ",".join(str(x) for x in v.vertices)
        if v.edges:
            loc += " " + ";".join(f"({a},{b},w{w})" for a, b, w in v.edges)
        lines.append(f"{v.rule:<24} {loc:<22} {v.detail}")
    return lines


def _cmd_check(args) -> int:
    if args.effective and args.no_effective:
        raise ParamError("--effective and --no-effective cannot be combined")
    config = _load_config(args.config)
    if args.effective or args.no_effective:
        config = dataclasses.replace(config, effective=args.effective)
    report = check_all(config)
    doc = report.to_dict()
    human = [f"configuration: {config.label or args.config}"]
    human.append(f"pass: {report.passed}   c1: {report.c1}")
    if report.violations:
        human.extend(_violation_table(report.violations))
    _emit(doc, human, args.json)
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    config = _load_config(args.config)
    structural = check_all(config)
    if not structural.passed:
        _emit(
            structural.to_dict(),
            ["configuration fails constraint checks; no cohomology report"]
            + _violation_table(structural.violations),
            args.json,
        )
        return 1
    try:
        doc = cohomology.cohomology_report(config)
    except cohomology.CohomologyError as exc:
        _emit(
            {"error": type(exc).__name__, "detail": str(exc)},
            [f"cohomological obstruction: {exc}"],
            args.json,
        )
        return 1
    doc = {"c1": structural.c1, **doc}
    human = [
        f"configuration: {config.label or args.config}",
        f"c1 multiple:        {structural.c1}",
        f"ring multipliers q: {' '.join(doc['ring_q'])}",
        f"denominators a:     {' '.join(str(a) for a in doc['a'])}",
        f"chern (ordinary):   {' '.join(str(x) for x in doc['chern_ordinary'])}",
        "chern (equivariant expansions):",
    ]
    for m, row in enumerate(doc["chern_equivariant"], start=1):
        human.append(f"  c{m}: {row}")
    human.append(
        f"integrals: omega^5 = {doc['integrals']['omega5']}, "
        f"euler = {doc['integrals']['euler']}"
    )
    _emit(doc, human, args.json)
    return 0


def _parse_ints(text: str, n: int, flag: str) -> tuple[int, ...]:
    """Exactly ``n`` comma-separated integers, or a ParamError naming ``flag``."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        values = ()
    if len(values) != n:
        raise ParamError(f"{flag} expects {n} comma-separated integers -- got {text!r}")
    return values


def _spec_from_args(args) -> SearchSpec:
    disabled = set(args.no_prune or ())
    unknown = disabled - set(_TOGGLES)
    if unknown:
        raise ParamError(f"unknown pruning rules: {sorted(unknown)}")
    return SearchSpec(
        max_weight=args.max_weight,
        max_width=args.max_width,
        c1=args.c1,
        largest_from=tuple(_parse_ints(t, 2, "--largest-from") for t in args.largest_from or ()),
        require_effective=args.effective,
        gaps=_parse_ints(args.gaps, 5, "--gaps") if args.gaps else None,
        node_limit=args.node_limit,
        **{f"prune_{rule}": rule not in disabled for rule in _TOGGLES},
    )


def _stats_lines(stats) -> list[str]:
    parts = " ".join(f"{k}={v}" for k, v in stats.pruned.items())
    return [f"nodes explored: {stats.nodes}", f"pruned: {parts}"]


def _cmd_enumerate(args) -> int:
    spec = _spec_from_args(args)
    start = time.monotonic()
    result = enumerate_configurations(spec, workers=args.threads)
    print(f"wall time: {(time.monotonic() - start) * 1000:.0f} ms", file=sys.stderr)
    doc = result.to_dict()
    human = [
        f"configurations found: {len(result.configurations)}",
        f"distinct weight systems: {len(result.weight_systems())}",
    ]
    for c in result.configurations:
        ws = c.weight_system
        human.append(
            f"  gaps {c.profile.gaps}  weights "
            + " | ".join(" ".join(str(w) for w in row) for row in ws.weights)
        )
    _emit(doc, human + _stats_lines(result.stats), args.json)
    return 0


#: the verifier of each theorem and the ``verify`` flags it reads
_VERIFIERS = {
    "thm1": (verify_theorem1, ("max_weight",)),
    "thm2": (verify_theorem2, ()),
    "thm3": (verify_theorem3, ()),
    "thm4": (verify_theorem4, ("a", "c")),
}


def _cmd_verify(args) -> int:
    verifier, reads = _VERIFIERS[args.theorem]
    # only the given flags are passed, so the verifiers keep the defaults
    given = {n: v for n in ("max_weight", "a", "c") if (v := getattr(args, n)) is not None}
    ignored = [f"--{n.replace('_', '-')}" for n in given if n not in reads]
    if ignored:
        raise ParamError(f"verify {args.theorem} does not read {', '.join(ignored)}")
    if args.theorem == "thm4" and len(given) < 2:
        raise ParamError("verify thm4 requires --a and --c")
    report = verifier(workers=args.threads, **given)
    doc = report.to_dict()
    human = [f"{report.name}: {'PASS' if report.passed else 'FAIL'}", report.summary]
    _emit(doc, human + _stats_lines(report.stats), args.json)
    return 0 if report.passed else 1


def _cmd_examples(args) -> int:
    if args.action == "list":
        for name in BUILTIN_NAMES:
            print(name)
        return 0
    config = _bounded(builtin(args.name, *(args.params or ())))
    if args.action == "export":
        print(config_dumps(config))
        return 0
    # show
    ws = config.weight_system
    report = check_all(config)
    print(f"label:     {config.label}")
    print(f"moment:    {config.moment}")
    print(f"gaps:      {config.profile.gaps}")
    print(f"c1:        {report.c1}   pass: {report.passed}")
    for v in range(len(ws.weights)):
        print(f"  P{v}: {' '.join(str(w) for w in ws.weights[v])}")
    return 0


def _cmd_project_gkm(args) -> int:
    config = _bounded(canonicalize(project_gkm(o_gkm_graph(), _parse_ints(args.xi, 2, "--xi"))))
    print(config_dumps(config))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line and exit 2; its
    subparsers are built from the same class and reject their own unknown flags."""

    def error(self, message: str):
        self.exit(_USAGE_EXIT, f"error: {message} (see {self.prog} --help)\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hamfix",
        description=(
            "Exact verifier, invariant calculator and classifier for "
            "fixed-point data of Hamiltonian circle actions (dimension 10, "
            "six fixed points)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run all constraint checks on a configuration file")
    p_check.add_argument("config")
    p_check.add_argument("--effective", action="store_true", help="require gcd of weights = 1")
    p_check.add_argument("--no-effective", action="store_true", help="ignore the file's effectiveness flag")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_report = sub.add_parser("report", help="ring, Chern and localization report")
    p_report.add_argument("config")
    p_report.add_argument("--json", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    p_enum = sub.add_parser("enumerate", help="exhaustive search within bounds")
    p_enum.add_argument("--max-weight", type=int, required=True)
    p_enum.add_argument("--max-width", type=int, help="default: 10 * max weight, the proved bound")
    p_enum.add_argument("--c1", type=int, default=None)
    p_enum.add_argument(
        "--largest-from",
        action="append",
        metavar="I,J",
        help="require the largest weight on this vertex pair (repeatable)",
    )
    p_enum.add_argument("--effective", action="store_true")
    p_enum.add_argument(
        "--gaps", metavar="G1,G2,G3,G4,G5", help="search only this mirror-canonical gap vector"
    )
    p_enum.add_argument(
        "--no-prune",
        action="append",
        metavar="RULE",
        help=f"disable a pruning rule: {', '.join(_TOGGLES)} (repeatable)",
    )
    p_enum.add_argument("--node-limit", type=int, default=None)
    p_enum.add_argument("--threads", type=int, default=None, help="worker count (default HAMFIX_THREADS or all cores)")
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run a classification verifier")
    p_verify.add_argument("theorem", choices=tuple(_VERIFIERS))
    p_verify.add_argument("--max-weight", type=int, default=None, help="thm1 only")
    p_verify.add_argument("--a", type=int, default=None, help="thm4 only")
    p_verify.add_argument("--c", type=int, default=None, help="thm4 only")
    p_verify.add_argument("--threads", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_ex = sub.add_parser("examples", help="builtin example configurations")
    p_ex.add_argument("action", choices=("list", "show", "export"))
    p_ex.add_argument("name", nargs="?", choices=BUILTIN_NAMES)
    p_ex.add_argument("params", nargs="*", type=int)
    p_ex.set_defaults(func=_cmd_examples)

    p_gkm = sub.add_parser(
        "project-gkm", help="project the builtin torus moment graph to a circle"
    )
    p_gkm.add_argument("--xi", default="1,2", metavar="X,Y")
    p_gkm.set_defaults(func=_cmd_project_gkm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "examples":
        if args.action == "list" and args.name:
            parser.error("examples list takes no builtin name")
        if args.action != "list" and not args.name:
            parser.error("examples show/export requires a builtin name")
    try:
        return args.func(args)
    except (SchemaError, ParamError, SpecError, DegenerateDirection, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
