"""Constraint checkers: one test block per rule, spec'd values frozen."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import pickle
import random
import re
from fractions import Fraction
from itertools import product
from operator import attrgetter

import pytest

from hamfix import (
    Configuration,
    MomentProfile,
    SearchSpec,
    Violation,
    WeightEdge,
    builtin,
    canonicalize,
    check_all,
    cohomology_report,
    compute_c1,
    derive_weight_system,
    flip,
    search,
)
from hamfix.constraints import (
    C1_MAX,
    C1_MIN,
    _iter_divisibility,
    _iter_gamma_relation,
    _walk,
    is_valid,
)
from hamfix.model import DIM, N_POINTS, PAIRS, _isotropy

from conftest import (
    _component_pass_sides,
    _iter_components_reference,
    _random_cells,
    _screened_walk,
)


@pytest.fixture(scope="module")
def o():
    return builtin("o")


def mutate_edge(c, lo, hi, w_old, w_new):
    """Replace the weight of one edge; slot structure is unchanged."""
    edges = []
    done = False
    for e in c.edges:
        if not done and (e.lo, e.hi, e.w) == (lo, hi, w_old):
            edges.append(WeightEdge(lo, hi, w_new, e.mult))
            done = True
        else:
            edges.append(e)
    assert done, "edge to mutate not found"
    return Configuration(c.profile, tuple(edges), label=c.label)


def violations(c, *rules):
    """The violations of the given rules in ``check_all(c)``."""
    return [v for v in check_all(c).violations if v.rule in rules]


def test_violation_requires_location():
    with pytest.raises(ValueError):
        Violation("ModK")
    # unpickling calls __new__ too, so a pickle cannot carry one past the check
    smuggled = pickle.dumps(tuple.__new__(Violation, ("ModK", (), (), "")))
    with pytest.raises(ValueError):
        pickle.loads(smuggled)
    v = Violation("Divisibility", (0, 1), ((0, 1, 2),), "weight 2 does not divide moment gap 1")
    assert pickle.loads(pickle.dumps(v)) == v
    with pytest.raises(ValueError):
        v._replace(vertices=(), edges=())


def test_violation_is_its_field_tuple(mutant_corpus):
    v = Violation("ModK", (0, 5), detail="d")
    assert v == ("ModK", (0, 5), (), "d") and hash(v) == hash(("ModK", (0, 5), (), "d"))
    assert not hasattr(v, "__dict__")
    # the report's order is the order of the old key, the fields in turn
    old_key = attrgetter("rule", "vertices", "edges", "detail")
    compared = 0
    for c in mutant_corpus:
        walked = list(_walk(c))
        assert check_all(c).violations == tuple(sorted(walked, key=old_key)), c.label
        assert sorted(walked) == sorted(map(tuple, walked))
        compared += len(walked) > 1
    assert compared > 1000, compared


# -- divisibility ------------------------------------------------------------


def test_divisibility_clean(o):
    assert violations(o, "Divisibility") == []
    assert violations(builtin("cp5", 1, 1, 1, 1, 1), "Divisibility") == []


def test_divisibility_violation(o):
    bad = mutate_edge(o, 0, 2, 4, 3)  # gap 4, weight 3
    vs = violations(bad, "Divisibility")
    assert any(v.rule == "Divisibility" and (0, 2, 3) in v.edges for v in vs)


def _divisibility_reference(c, ws):
    """The two-pass divisibility rule: every edge, then every vertex."""
    phi = c.profile.values
    for e in c.edges:
        gap = phi[e.hi] - phi[e.lo]
        if gap % e.w != 0:
            yield Violation(
                "Divisibility",
                vertices=(e.lo, e.hi),
                edges=((e.lo, e.hi, e.w),),
                detail=f"weight {e.w} does not divide moment gap {gap}",
            )
    for v in range(N_POINTS):
        down = [phi[v] - phi[q] for q in range(v)]
        up = [phi[q] - phi[v] for q in range(v + 1, N_POINTS)]
        for w in set(ws.weights[v]):
            for gap in (down if w < 0 else up):
                if gap % w == 0:
                    break
            else:
                side = "lower" if w < 0 else "higher"
                yield Violation(
                    "Divisibility",
                    vertices=(v,),
                    detail=f"weight {w} at vertex {v} divides no gap to a {side} vertex",
                )


def _random_slot_configurations(n, seed):
    """``n`` seeded slot-respecting configurations: vertex j's j downward slots
    take random open upward slots of lower vertices, and each edge's weight
    divides its gap (in half of them) or is drawn from 1..8."""
    rng = random.Random(seed)
    out = []
    for k in range(n):
        gaps = [rng.randint(1, 6) for _ in range(DIM)]
        profile = MomentProfile.from_gaps(gaps)
        phi = profile.values
        open_up = [v for v in range(N_POINTS) for _ in range(DIM - v)]
        edges = []
        for j in range(1, N_POINTS):
            for _ in range(j):
                lo = open_up.pop(rng.choice([p for p, v in enumerate(open_up) if v < j]))
                gap = phi[j] - phi[lo]
                if k % 2:
                    w = rng.randint(1, 8)
                else:
                    w = rng.choice([d for d in range(1, gap + 1) if gap % d == 0])
                edges.append(WeightEdge(lo, j, w))
        out.append(Configuration(profile, tuple(edges)))
    return out


def test_divisibility_shortcut_matches_two_pass_reference(mutant_corpus):
    # the per-vertex pass is skipped when every edge divides its own gap;
    # the full two-pass rule must give the same violations, in the same order
    kinds = {"all edges divide": 0, "some edge does not": 0, "a vertex pass fires": 0}
    for c in mutant_corpus + _random_slot_configurations(2400, 20241019):
        ws = c.weight_system
        got = list(_iter_divisibility(c, ws))
        want = list(_divisibility_reference(c, ws))
        assert got == want, c
        phi = c.profile.values
        if all((phi[e.hi] - phi[e.lo]) % e.w == 0 for e in c.edges):
            kinds["all edges divide"] += 1
        else:
            kinds["some edge does not"] += 1
        if any(not v.edges for v in want):
            kinds["a vertex pass fires"] += 1
    assert all(kinds.values()), kinds


# -- mod-k congruence --------------------------------------------------------


def test_mod_clean_fixtures(o):
    assert violations(o, "ModK") == []
    assert violations(builtin("remark_w7"), "ModK") == []


def test_mod_violation_between_extremes():
    # weights {1,2,2,3,3} at the bottom against their negatives at the top,
    # linked through a 3-divisible chain: the residues cannot match
    prof = MomentProfile.from_gaps((1, 1, 1, 1, 2))
    edges = (
        WeightEdge(0, 1, 1),
        WeightEdge(0, 2, 2),
        WeightEdge(0, 3, 3),
        WeightEdge(0, 4, 2),
        WeightEdge(0, 5, 3),
        WeightEdge(1, 2, 1),
        WeightEdge(1, 3, 1),
        WeightEdge(1, 4, 1),
        WeightEdge(1, 5, 3),
        WeightEdge(2, 3, 1),
        WeightEdge(2, 4, 1),
        WeightEdge(2, 5, 2),
        WeightEdge(3, 4, 1),
        WeightEdge(3, 5, 2),
        WeightEdge(4, 5, 1),
    )
    c = Configuration(prof, edges)
    vs = violations(c, "ModK")
    assert any(v.rule == "ModK" for v in vs)


# -- smallest-weight balance -------------------------------------------------


def test_balance_clean(o):
    assert violations(o, "SmallestWeightBalance") == []


def test_balance_double_one_at_bottom(o):
    # two +1 slots at the minimum but only one index-2 point to receive -1
    bad = mutate_edge(o, 0, 3, 2, 1)
    vs = violations(bad, "SmallestWeightBalance")
    assert any(v.rule == "SmallestWeightBalance" for v in vs)


def _double_extremal_component():
    # a k=3 component that is just a doubled edge between the extremes:
    # its top has index level 2, so the level-1 slot count cannot balance
    prof = MomentProfile.from_gaps((1, 1, 1, 1, 2))
    edges = (
        WeightEdge(0, 5, 3, 2),
        WeightEdge(0, 1, 1),
        WeightEdge(0, 2, 2),
        WeightEdge(0, 3, 1),
        WeightEdge(1, 2, 1),
        WeightEdge(1, 3, 1),
        WeightEdge(1, 4, 1),
        WeightEdge(1, 5, 2),
        WeightEdge(2, 3, 1),
        WeightEdge(2, 4, 1),
        WeightEdge(2, 4, 2),
        WeightEdge(3, 4, 1),
        WeightEdge(3, 5, 1),
        WeightEdge(4, 5, 1),
    )
    return Configuration(prof, edges)


def test_balance_component_with_index_jump():
    c = _double_extremal_component()
    comp_violations = [
        v
        for v in violations(c, "SmallestWeightBalance")
        if v.vertices == (0, 5) and "k=3" in v.detail
    ]
    assert comp_violations


# -- component regularity ----------------------------------------------------


def test_regularity_clean(o):
    assert violations(o, "ComponentRegularity", "IndexBound") == []


def test_regularity_level_gap():
    c = _double_extremal_component()
    vs = [
        v
        for v in violations(c, "ComponentRegularity", "IndexBound")
        if "k=3" in v.detail
    ]
    assert any(v.rule == "ComponentRegularity" for v in vs)


def test_regularity_dimension_mismatch(o):
    # a 6-divisible weight at the bottom makes the k=3 component of vertex 0
    # meet vertices carrying only one 3-divisible weight
    bad = mutate_edge(o, 0, 3, 2, 6)
    vs = violations(bad, "ComponentRegularity", "IndexBound")
    assert any(
        v.rule == "ComponentRegularity" and "not constant" in v.detail for v in vs
    )


def test_regularity_asymmetric_levels_reported_once():
    # one k=2 component with index levels [1, 2, 1, 0, 2]: levels[m] differs
    # from levels[d - m] at m = 0, 1, 3 and 4, but it is one asymmetry
    edges = [
        (0, 1, 4), (0, 2, 3), (0, 3, 4), (0, 3, 8), (0, 4, 8), (1, 2, 4), (1, 3, 3),
        (1, 5, 2), (1, 5, 4), (2, 4, 6, 2), (2, 4, 8), (3, 5, 4, 2), (4, 5, 1),
    ]
    c = Configuration(
        MomentProfile((0, 5, 10, 11, 13, 16)), tuple(WeightEdge(*e) for e in edges)
    )
    details = [v.detail for v in check_all(c).violations]
    assert len(details) == 47
    assert [d for d in details if "not symmetric" in d] == [
        "k=2 component (0, 1, 2, 3, 4, 5): index level counts [1, 2, 1, 0, 2] "
        "are not symmetric under duality"
    ]



def test_component_pass_matches_per_order_reference(mutant_corpus):
    # the one-sweep isotropy components against the per-order pass it
    # replaced, sorted violations with their detail text: on the corpus, on
    # slot-respecting draws whose weights share many divisors (merged into a
    # configuration and in the search's leaf form), and on the leaves of a
    # real walk that reach the component screens
    rng = random.Random(20261020)
    profile = MomentProfile(tuple(range(N_POINTS)))
    inputs = [(c.edges, c.weight_system.weights) for c in mutant_corpus]
    for _ in range(600):
        edges, weights = search._leaf_plain(_random_cells(rng, (6, 12, 30, 60)))
        inputs.append((edges, weights))
        c = Configuration(profile, tuple(WeightEdge(*e) for e in edges))
        inputs.append((c.edges, c.weight_system.weights))
    inputs += [search._leaf_plain(acc) for acc in _screened_walk(SearchSpec(5, 10))[1]]
    rules = collections.Counter()
    for edges, weights in inputs:
        got, expected = _component_pass_sides(edges, weights)
        assert got == expected, (edges, weights)
        rules.update({v.rule for v in got} or {None})
    assert set(rules) == {"ComponentRegularity", "IndexBound", "SmallestWeightBalance", "ModK", None}


def test_one_edge_components_only_check_mod_k(mutant_corpus):
    # the lemma behind _iter_components' one-edge path, read off the per-order
    # reference: a component of one k-edge of multiplicity 1 (an isotropy
    # 2-sphere) never fails regularity, the index bound or balance, while a
    # pair joined twice, by one edge of multiplicity 2 or by two k-edges,
    # fails regularity; on the corpus and on random leaves, in both forms
    located = re.compile(r"k=(\d+) component (\([\d, ]*\))")
    structure = {"ComponentRegularity", "IndexBound", "SmallestWeightBalance"}
    rng = random.Random(20261022)
    profile = MomentProfile(tuple(range(N_POINTS)))
    inputs = [(c.edges, c.weight_system.weights) for c in mutant_corpus]
    for _ in range(3000):
        pool = rng.sample(range(1, 61), rng.randint(1, 5))
        edges, weights = search._leaf_plain(_random_cells(rng, pool))
        inputs.append((edges, weights))
        c = Configuration(profile, tuple(WeightEdge(*e) for e in edges))
        inputs.append((c.edges, c.weight_system.weights))
    seen = collections.Counter()
    for edges, weights in inputs:
        fired = collections.defaultdict(set)
        for v in _iter_components_reference(edges, weights):
            if v.rule in structure:
                k, vertices = located.search(v.detail).groups()
                fired[int(k), vertices].add(v.rule)
        for k, vertices, _, _, kedges in _isotropy(edges):
            rules = fired[k, str(vertices)]
            if len(kedges) == 1 and kedges[0][3] == 1:
                assert not rules, (edges, k, vertices)
                seen["one"] += 1
            elif len(vertices) == 2 and sum(e[3] for e in kedges) == 2:
                assert "ComponentRegularity" in rules, (edges, k, vertices)
                seen["merged" if len(kedges) == 1 else "two"] += 1
    assert min(seen["one"], seen["merged"], seen["two"]) > 0, seen


# -- extremal edges ----------------------------------------------------------


def test_extremal_clean(o):
    assert violations(o, "ExtremalEdge") == []
    assert violations(builtin("grass", 1, 1, 2), "ExtremalEdge") == []


def test_extremal_missing(o):
    bad = mutate_edge(o, 0, 1, 1, 2)
    vs = violations(bad, "ExtremalEdge")
    assert any(v.rule == "ExtremalEdge" and v.vertices == (0, 1) for v in vs)


# -- first Chern multiple ----------------------------------------------------


def test_c1_values():
    assert compute_c1(builtin("o")) == 3
    assert compute_c1(builtin("cp5", 1, 1, 1, 1, 1)) == 6
    assert compute_c1(builtin("grass", 1, 1, 2)) == 5
    assert compute_c1(builtin("remark_w7")) == 3


def _c1_reference(c):
    """compute_c1 by ``Fraction`` ratios: every pair against pair (0, 1)."""
    ws = derive_weight_system(c)
    phi = c.profile.values
    k = None
    first_pair = None
    for i, j in PAIRS:
        kij = Fraction(ws.gamma[i] - ws.gamma[j], phi[j] - phi[i])
        if k is None:
            k = kij
            first_pair = (i, j)
        elif kij != k:
            return Violation(
                "C1Consistency",
                vertices=(i, j),
                detail=(
                    f"pair ({i},{j}) gives weight-sum ratio {kij}, "
                    f"pair {first_pair} gives {k}"
                ),
            )
    if k.denominator != 1:
        return Violation(
            "C1Consistency",
            vertices=first_pair,
            detail=f"weight-sum ratio {k} is not an integer",
        )
    if not C1_MIN <= int(k) <= C1_MAX:
        return Violation(
            "C1Consistency",
            vertices=first_pair,
            detail=f"weight-sum ratio {int(k)} outside [{C1_MIN}, {C1_MAX}]",
        )
    return int(k)


def test_c1_matches_fraction_reference(mutant_corpus):
    # integer cross-multiplication against Fraction ratios: the same value,
    # or the same violation with the same text; scaled moments and weights
    # add consistent ratios that are not integers or fall outside [1, 6],
    # which no single-edge mutant gives
    scaled = [
        Configuration(
            MomentProfile(tuple(s * v for v in c.moment)),
            tuple(WeightEdge(e.lo, e.hi, t * e.w, e.mult) for e in c.edges),
        )
        for c in mutant_corpus[:20]
        for s in (1, 2, 3)
        for t in (1, 2, 3)
    ]
    outcomes = set()
    for c in mutant_corpus + scaled:
        got, expected = compute_c1(c), _c1_reference(c)
        assert got == expected and type(got) is type(expected), c.label
        outcomes.add(" ".join(got.detail.split()[-2:]) if isinstance(got, Violation) else "int")
    assert {"int", "an integer", "[1, 6]"} < outcomes, outcomes


def test_c1_flip_invariant():
    for c in (builtin("o"), builtin("cp5", 1, 2, 3, 4, 5), builtin("grass", 2, 1, 2)):
        assert compute_c1(flip(c)) == compute_c1(c)
        assert compute_c1(canonicalize(c)) == compute_c1(c)


def test_c1_disagreement(o):
    bad = mutate_edge(o, 0, 2, 4, 2)
    result = compute_c1(bad)
    assert isinstance(result, Violation)
    assert result.rule == "C1Consistency"


# -- index/multiplicity relation for dominating edges -------------------------


def test_gamma_relation_clean(o):
    for c in (o, builtin("remark_w7")):
        report = check_all(c)
        assert report.c1 == 3  # so check_all walked the relation with k = 3
        assert [v for v in report.violations if v.rule == "GammaRelation"] == []


def test_gamma_relation_violation(o):
    # force a second -5 slot at the top: the (0,5) edge then has s = 2,
    # giving 5 - 0 + 2 = 7 against 3 * 10 / 5 = 6; the mutant's c1 is
    # inconsistent, so check_all never walks this rule and the core is called
    mutated = mutate_edge(o, 1, 5, 3, 5)
    vs = list(_iter_gamma_relation(mutated, derive_weight_system(mutated), 3))
    assert any(v.rule == "GammaRelation" and (0, 5, 5) in v.edges for v in vs)


# -- aggregation --------------------------------------------------------------


def test_check_all_fixtures_pass():
    for name, params, c1 in (
        ("o", (), 3),
        ("cp5", (1, 1, 1, 1, 1), 6),
        ("grass", (1, 1, 2), 5),
        ("remark_w7", (), 3),
    ):
        report = check_all(builtin(name, *params))
        assert report.passed, report.violations
        assert report.c1 == c1
        assert report.violations == ()


def test_check_all_huge_gap():
    # a weight near 10**9 has a few hundred divisors; finding the isotropy
    # orders by trying every k up to the weight took minutes
    c = builtin("cp5", 1, 1, 1, 1, 10**9)
    report = check_all(c)
    assert report.passed and report.c1 == 6 and is_valid(c)
    assert cohomology_report(c)["chern_ordinary"] == [6, 15, 20, 15, 6]


def test_check_all_mutant_fails(o):
    report = check_all(mutate_edge(o, 0, 2, 4, 2))
    assert not report.passed
    assert report.violations


def test_check_all_structure_rule(o):
    broken = Configuration(o.profile, o.edges[:-1])
    report = check_all(broken)
    assert not report.passed
    assert all(v.rule == "Structure" for v in report.violations)
    assert report.c1 is None


def test_effectiveness_flag(o):
    doubled = Configuration(
        MomentProfile(tuple(2 * v for v in o.moment)),
        tuple(WeightEdge(e.lo, e.hi, 2 * e.w, e.mult) for e in o.edges),
    )
    assert check_all(dataclasses.replace(doubled, effective=False)).passed
    report = check_all(dataclasses.replace(doubled, effective=True))
    assert not report.passed
    assert {v.rule for v in report.violations} == {"Effectiveness"}


def test_is_valid_matches_check_all(o):
    cases = [
        builtin("o"),
        builtin("cp5", 1, 1, 1, 1, 1),
        builtin("grass", 1, 1, 2),
        builtin("remark_w7"),
        mutate_edge(o, 0, 2, 4, 2),
        mutate_edge(o, 0, 1, 1, 2),
        mutate_edge(o, 0, 3, 2, 6),
        _double_extremal_component(),
    ]
    for c in cases:
        assert is_valid(c) == check_all(c).passed


def test_report_json_shape(o):
    doc = check_all(o).to_dict()
    assert doc == {"pass": True, "c1": 3, "violations": []}
    bad = check_all(mutate_edge(o, 0, 2, 4, 3)).to_dict()
    assert bad["pass"] is False
    assert all({"rule", "location", "detail"} <= set(v) for v in bad["violations"])


def test_mutation_sensitivity_all_fixtures():
    # any single-edge weight change is caught by some rule or moves c1
    for name, params in (
        ("o", ()),
        ("cp5", (1, 1, 1, 1, 1)),
        ("grass", (1, 1, 2)),
        ("remark_w7", ()),
    ):
        c = builtin(name, *params)
        baseline = check_all(c).c1
        for e in c.edges:
            for w_new in range(1, 9):
                if w_new == e.w:
                    continue
                report = check_all(mutate_edge(c, e.lo, e.hi, e.w, w_new))
                assert (not report.passed) or report.c1 != baseline


def _random_mutant_corpus():
    """The 272 builtins and 300 seeded single-edge weight mutants of them."""
    base = [builtin("o"), builtin("remark_w7")]
    base += [builtin("cp5", *g) for g in product(range(1, 4), repeat=5)]
    base += [
        builtin("grass", a, b, c)
        for a in range(1, 4)
        for b in range(1, 4)
        for c in (2, 4, 6)
    ]
    rng = random.Random(20240301)
    mutants = []
    while len(mutants) < 300:
        c = rng.choice(base)
        e = rng.choice(c.edges)
        w_new = rng.randint(1, 8)
        if w_new != e.w:
            mutants.append(mutate_edge(c, e.lo, e.hi, e.w, w_new))
    return base + mutants


def test_is_valid_matches_check_all_random_mutants():
    # the early-exit walk of is_valid against the full report, on the
    # builtins and seeded single-edge weight mutants, with the configuration's
    # own effectiveness flag and with it set to True and to False
    outcomes = set()
    for c in _random_mutant_corpus():
        for eff in (None, True, False):
            flagged = c if eff is None else dataclasses.replace(c, effective=eff)
            passed = check_all(flagged).passed
            assert is_valid(flagged) == passed, (c.label, eff)
            outcomes.add(passed)
    assert outcomes == {True, False}


def test_reports_pinned_on_mutant_corpus(mutant_corpus):
    # full check_all reports, detail text included, on the builtins and
    # their seeded mutants; the digest was taken before the rule walk's
    # fast paths, so any change to a report or its wording shows here
    reports = []
    for c in mutant_corpus:
        report = check_all(c)
        assert is_valid(c) == report.passed, c.label
        reports.append(report.to_dict())
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert sum(r["pass"] for r in reports) == 268
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "18a4bc18d28854c8ee01be1cd7622eb18fb1dd088d49cc0d22171561aa94af47"
    )


def test_check_all_flip_invariant_random_mutants():
    # reversing the action maps a valid configuration to a valid one and an
    # invalid one to an invalid one
    outcomes = set()
    for c in _random_mutant_corpus():
        passed = check_all(c).passed
        assert check_all(flip(c)).passed == passed, c.label
        outcomes.add(passed)
    assert outcomes == {True, False}
