"""Core data types: weight systems, isotropy components, canonical form, JSON."""

from __future__ import annotations

import pickle
import random
from collections import Counter

import pytest

from hamfix import (
    Configuration,
    IsotropyComponent,
    MomentProfile,
    SchemaError,
    StructureError,
    WeightEdge,
    WeightSystem,
    builtin,
    canonicalize,
    check_all,
    cohomology_report,
    compute_c1,
    config_from_dict,
    config_loads,
    config_to_dict,
    derive_weight_system,
    flip,
    isotropy_components,
    total_chern,
    validate_structure,
)
from hamfix import model
from hamfix.constraints import is_valid
from hamfix.model import _divisors, _has_edge, _isotropy, slot_counts, sort_key, structure_problems

from conftest import _assert_normalized, _orders_reference, _random_edge_input


@pytest.fixture(scope="module")
def o():
    return builtin("o")


@pytest.fixture(scope="module")
def fixtures():
    return [
        builtin("o"),
        builtin("cp5", 1, 1, 1, 1, 1),
        builtin("grass", 1, 1, 2),
        builtin("remark_w7"),
    ]


def test_moment_profile_validation():
    with pytest.raises(ValueError):
        MomentProfile((0, 1, 2, 3, 4))  # five values
    with pytest.raises(ValueError):
        MomentProfile((1, 2, 3, 4, 5, 6))  # not normalized
    with pytest.raises(ValueError):
        MomentProfile((0, 2, 2, 3, 4, 5))  # not strictly increasing
    with pytest.raises(ValueError):
        MomentProfile((0, 1.5, 2, 3, 4, 5))  # never truncated to 1
    with pytest.raises(ValueError):
        MomentProfile((0, True, 2, 3, 4, 5))
    prof = MomentProfile.from_gaps((1, 3, 2, 3, 1))
    assert prof.values == (0, 1, 4, 6, 9, 10)
    assert prof.gaps == (1, 3, 2, 3, 1)
    assert prof.width == 10


def test_weight_edge_validation():
    # the process pool pickles configurations, and unpickling calls __new__,
    # so a pickle cannot carry a bad edge past the checks either
    for fields in ((3, 3, 1, 1), (2, 1, 1, 1), (0, 6, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)):
        with pytest.raises(ValueError):
            WeightEdge(*fields)
        smuggled = pickle.dumps(tuple.__new__(WeightEdge, fields))
        with pytest.raises(ValueError):
            pickle.loads(smuggled)
    good = WeightEdge(0, 1, 2, 3)
    assert pickle.loads(pickle.dumps(good)) == good
    with pytest.raises(ValueError):
        good._replace(w=0)


def test_weight_edge_is_its_field_tuple():
    # a named tuple: equal to, hashed and sorted as (lo, hi, w, mult), with
    # mult 1 by default and no per-edge __dict__
    e = WeightEdge(1, 4, 3)
    assert e == (1, 4, 3, 1) and hash(e) == hash((1, 4, 3, 1))
    assert (e.lo, e.hi, e.w, e.mult) == tuple(e)
    assert not hasattr(e, "__dict__")
    rng = random.Random(20261022)
    fields = [
        (lo, rng.randint(lo + 1, 5), rng.randint(1, 4), rng.randint(1, 3))
        for lo in (0, 1, 2, 3, 4) * 40
    ]
    edges = [WeightEdge(*f) for f in fields]
    assert [tuple(e) for e in sorted(edges)] == sorted(fields)
    assert len(set(edges) | set(fields)) == len(set(fields))


def test_sort_key_is_moment_values_then_edges(fixtures, mutant_corpus):
    for c in [*fixtures, *mutant_corpus[::50]]:
        assert sort_key(c) == (c.profile.values, c.edges)
        assert sort_key(c) == (c.profile.values, tuple((e.lo, e.hi, e.w, e.mult) for e in c.edges))


def test_parallel_edges_merge():
    prof = MomentProfile.from_gaps((1, 1, 1, 1, 1))
    c = Configuration(prof, (WeightEdge(0, 5, 1), WeightEdge(0, 5, 1)))
    assert c.edges == (WeightEdge(0, 5, 1, 2),)


def test_edges_normalize_as_the_reference(mutant_corpus):
    # the one-sort merge against the Counter merge on the builtins and their
    # mutants, whose edges are canonical, given as they are, reversed and as a
    # generator: every edge object comes back as it is
    for c in mutant_corpus:
        for given in (c.edges, list(reversed(c.edges)), (e for e in c.edges)):
            _assert_normalized(list(c.edges), given)
    # seeded shuffled edge lists with repeated (lo, hi, w), subclass and
    # field-only edges, in a list, a tuple or a generator
    rng = random.Random(20261030)
    seen = Counter()
    for _ in range(5000):
        edges, given = _random_edge_input(rng)
        seen["merged"] += len(_assert_normalized(edges, given)) < len(edges)
        seen[type(given).__name__] += 1
        seen.update(type(e).__name__ for e in edges)
    kinds = ("merged", "list", "tuple", "generator", "WeightEdge", "_SubclassEdge", "SimpleNamespace")
    assert all(seen[k] > 100 for k in kinds), seen


def test_has_edge_matches_linear_scan(mutant_corpus):
    # the bisection against a scan of every edge, at the pairs the verifiers
    # and the extremal rule probe, with weights 1..8, on the builtins, their
    # mutants and seeded configurations whose merged edges have mult > 1
    rng = random.Random(20261031)
    profile = MomentProfile(tuple(range(6)))
    configs = [*mutant_corpus, *(Configuration(profile, _random_edge_input(rng)[1]) for _ in range(2000))]
    found = Counter()
    for c in configs:
        for lo, hi in ((0, 1), (1, 3), (2, 4), (0, 5)):
            for w in range(1, 9):
                mults = [e.mult for e in c.edges if e.lo == lo and e.hi == hi and e.w == w]
                assert _has_edge(c, lo, hi, w) == bool(mults), (c, lo, hi, w)
                found[mults[0] > 1 if mults else None] += 1
    assert found[True] and found[False] and found[None], found


def test_o_weight_system(o):
    ws = derive_weight_system(o)
    assert ws.weights[0] == tuple(sorted((1, 4, 2, 3, 5)))
    assert ws.weights[3] == tuple(sorted((-2, -5, -1, 1, 4)))
    assert ws.gamma == (15, 12, 3, -3, -12, -15)


def test_w7_weight_system():
    ws = derive_weight_system(builtin("remark_w7"))
    assert ws.weights[4] == tuple(sorted((1, -1, -2, -3, -7)))
    assert ws.weights[0] == (1, 2, 3, 4, 5)


def test_missing_edge_is_structure_error(o):
    broken = Configuration(
        o.profile, tuple(e for e in o.edges if (e.lo, e.hi) != (1, 2))
    )
    with pytest.raises(StructureError):
        validate_structure(broken)
    # a failed derivation is not cached: every read raises, and the rule
    # walk still lists each slot-count problem
    problems = structure_problems(broken)
    assert len(problems) == 3
    for _ in range(2):
        with pytest.raises(StructureError):
            broken.weight_system
        with pytest.raises(StructureError):
            derive_weight_system(broken)
        report = check_all(broken)
        assert not report.passed and report.c1 is None
        assert [v.rule for v in report.violations] == ["Structure"] * len(problems)
        assert sorted(v.detail for v in report.violations) == sorted(problems)
        assert not is_valid(broken)


def test_weight_system_is_derived_once(monkeypatch):
    built = []

    def counting(*fields):
        built.append(fields)
        return WeightSystem(*fields)

    monkeypatch.setattr(model, "WeightSystem", counting)
    c = builtin("o")
    assert derive_weight_system(c) is derive_weight_system(c)
    check_all(c)
    assert is_valid(c)
    assert compute_c1(c) == 3
    total_chern(c)
    cohomology_report(c)
    assert len(built) == 1


def test_cached_weight_system_leaves_equality_and_hash(fixtures):
    for c in fixtures:
        fresh = Configuration(c.profile, c.edges, label=c.label, effective=c.effective)
        filled = Configuration(c.profile, c.edges, label=c.label, effective=c.effective)
        filled.weight_system
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert len({filled, fresh}) == 1


def test_pickle_round_trip_keeps_the_weight_system(fixtures):
    # pool workers return their configurations pickled
    for base in fixtures:
        for filled in (False, True):
            c = Configuration(base.profile, base.edges, label=base.label, effective=base.effective)
            if filled:
                c.weight_system
            back = pickle.loads(pickle.dumps(c))
            assert back == c and hash(back) == hash(c)
            assert back.weight_system == c.weight_system


def test_slot_round_trip(fixtures):
    # unfolding into signed multisets reproduces the slot counts exactly
    for c in fixtures:
        ws = derive_weight_system(c)
        up, down = slot_counts(c)
        for v in range(6):
            assert sum(1 for w in ws.weights[v] if w > 0) == up[v] == 5 - v
            assert sum(1 for w in ws.weights[v] if w < 0) == down[v] == v


def test_global_weight_symmetry(fixtures):
    for c in fixtures:
        ws = derive_weight_system(c)
        pos = sorted(w for row in ws.weights for w in row if w > 0)
        neg = sorted(-w for row in ws.weights for w in row if w < 0)
        assert pos == neg


def test_isotropy_components_o_k5(o):
    comps = isotropy_components(o, 5)
    assert [c.vertices for c in comps] == [(0, 5), (1, 3), (2, 4)]
    ws = o.weight_system
    for c in comps:
        # saturated: the one 5 at each member vertex lies inside the component
        assert tuple(sum(1 for w in ws.weights[v] if w % 5 == 0) for v in c.vertices) == (1, 1)
        assert c.within_degree == (1, 1)


def test_isotropy_components_o_k2(o):
    comps = isotropy_components(o, 2)
    assert [c.vertices for c in comps] == [(0, 2, 3, 5), (1, 4)]
    ws = o.weight_system
    for c in comps:
        divisible = tuple(sum(1 for w in ws.weights[v] if w % 2 == 0) for v in c.vertices)
        assert c.within_degree == divisible


def test_isotropy_large_k_empty(o):
    assert isotropy_components(o, 11) == []
    with pytest.raises(ValueError):
        isotropy_components(o, 1)


def test_component_cover_matches_divisible_vertices(fixtures):
    # oracle: scan the weight multisets directly
    for c in fixtures:
        ws = derive_weight_system(c)
        for k in range(2, c.max_weight() + 2):
            covered = sorted(
                v for comp in isotropy_components(c, k) for v in comp.vertices
            )
            expected = sorted(
                v for v in range(6) if any(w % k == 0 for w in ws.weights[v])
            )
            assert covered == expected


def test_canonicalize_o_is_fixed_point(o):
    # oracle: apply the flip by hand and compare serializations
    assert sort_key(flip(o)) == sort_key(o)
    assert canonicalize(o) == o


def test_canonicalize_flip_pair():
    lopsided = builtin("cp5", 1, 1, 1, 1, 2)
    mirrored = builtin("cp5", 2, 1, 1, 1, 1)
    assert sort_key(canonicalize(lopsided)) == sort_key(canonicalize(mirrored))
    assert sort_key(flip(mirrored)) == sort_key(lopsided)


def test_canonicalize_idempotent(fixtures):
    for c in fixtures:
        once = canonicalize(c)
        assert canonicalize(once) == once
        assert sort_key(canonicalize(flip(c))) == sort_key(canonicalize(c))


def test_isotropy_orders(o):
    assert sorted({k for k, *_ in _isotropy(o.edges)}) == [2, 3, 4, 5]


def test_isotropy_orders_match_linear_scan():
    # model._divisors, the one divisor routine of _isotropy, search._pack
    # and search._cell_plan, against trial division by every k up to w
    for w in range(1, 2001):
        assert _divisors(w) == (1, *_orders_reference([w])), w
    # a prime far past the scanned range
    assert _divisors(1_000_003) == (1, *_orders_reference([1_000_003])) == (1, 1_000_003)


def _isotropy_components_reference(c, k):
    """The set-based search: adjacency sets, a DFS stack, divisible weights
    counted from the weight multisets and saturation computed."""
    ws = derive_weight_system(c)
    kedges = [e for e in c.edges if e.w % k == 0]
    adj = {}
    for e in kedges:
        adj.setdefault(e.lo, set()).add(e.hi)
        adj.setdefault(e.hi, set()).add(e.lo)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        members = set()
        while stack:
            v = stack.pop()
            if v in members:
                continue
            members.add(v)
            stack.extend(adj[v] - members)
        seen |= members
        vertices = tuple(sorted(members))
        comp_edges = tuple(e for e in kedges if e.lo in members)
        deg = {v: 0 for v in vertices}
        dwn = {v: 0 for v in vertices}
        for e in comp_edges:
            deg[e.lo] += e.mult
            deg[e.hi] += e.mult
            dwn[e.hi] += e.mult
        divc = tuple(sum(1 for w in ws.weights[v] if w % k == 0) for v in vertices)
        within = tuple(deg[v] for v in vertices)
        assert within == divc  # saturated
        comps.append(
            IsotropyComponent(
                k=k,
                vertices=vertices,
                within_degree=within,
                within_down=tuple(dwn[v] for v in vertices),
                edges=comp_edges,
            )
        )
    return comps


def test_isotropy_components_match_reference(mutant_corpus):
    # the label-list components against the set-based search, every field,
    # for every isotropy order of the builtins and their mutants
    checked = 0
    for c in mutant_corpus:
        orders = sorted({k for k, *_ in _isotropy(c.edges)})
        assert orders == [
            k for k in range(2, c.max_weight() + 1) if any(e.w % k == 0 for e in c.edges)
        ], c.label
        for k in orders:
            expected = _isotropy_components_reference(c, k)
            assert isotropy_components(c, k) == expected, (c.label, k)
            checked += len(expected)
    assert checked == 39341


def test_json_round_trip(fixtures):
    for c in fixtures:
        doc = config_to_dict(c)
        back = config_from_dict(doc)
        assert back == c
        assert doc["edges"] == sorted(doc["edges"], key=lambda e: (e["lo"], e["hi"], e["w"]))


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        config_from_dict([])
    with pytest.raises(SchemaError):
        config_from_dict({"moment": [0, 1, 2, 3, 4, 5]})
    with pytest.raises(SchemaError):
        config_from_dict({"moment": [0, 1, 2, 3, 4, "x"], "edges": []})
    with pytest.raises(SchemaError):
        config_from_dict({"moment": [1, 2, 3, 4, 5, 6], "edges": []})
    with pytest.raises(SchemaError):
        config_from_dict({"moment": [0, 1, 2, 3, 4, 5], "edges": [{"lo": 0}]})
    with pytest.raises(SchemaError):
        config_loads("not json")
    with pytest.raises(SchemaError):  # a misspelt key is not ignored
        config_from_dict(_o_doc(efective=True))
    doc = _o_doc()
    doc["edges"][0] = {"lo": 0, "hi": 1, "w": 1, "mul": 2}
    with pytest.raises(SchemaError):
        config_from_dict(doc)


def _o_doc(**changes):
    doc = config_to_dict(builtin("o"))
    doc.update(changes)
    return doc


def test_json_effective_must_be_boolean():
    assert config_from_dict(_o_doc(effective=False)).effective is False
    with pytest.raises(SchemaError):
        config_from_dict(_o_doc(effective="false"))


def test_json_float_weight_rejected():
    doc = _o_doc()
    doc["edges"][0]["w"] = 1.9
    with pytest.raises(SchemaError):
        config_from_dict(doc)


def test_json_boolean_integers_rejected():
    with pytest.raises(SchemaError):
        config_from_dict(_o_doc(moment=[False, True, 4, 6, 9, 10]))
    for key in ("lo", "hi", "w", "mult"):
        doc = _o_doc()
        doc["edges"][0][key] = True
        with pytest.raises(SchemaError):
            config_from_dict(doc)


def test_mult_defaults_to_one():
    doc = {
        "moment": [0, 1, 2, 3, 4, 5],
        "edges": [{"lo": 0, "hi": 5, "w": 5}],
    }
    c = config_from_dict(doc)
    assert c.edges[0].mult == 1
