"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS line per
criterion.  The enumeration-heavy criteria use all available cores; the
stated budgets (5 minutes for the width-40 searches, 1 minute for the
uniqueness searches) are asserted on wall time.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import prod

from hamfix import (
    Configuration,
    EquivariantClass,
    SearchSpec,
    WeightEdge,
    builtin,
    canonicalize,
    check_all,
    chern_restrictions,
    compute_c1,
    derive_weight_system,
    enumerate_configurations,
    localize_integral,
    o_gkm_graph,
    project_gkm,
    ring_presentation,
    total_chern,
    u_tilde,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
)
from hamfix.model import sort_key
from hamfix.search import PRUNE_RULES, o_weight_system, theorem4_weight_system

FIXTURES = (
    ("o", ()),
    ("cp5", (1, 1, 1, 1, 1)),
    ("grass", (1, 1, 2)),
    ("remark_w7", ()),
)

THM3_WS = (
    (1, 2, 3, 4, 5),
    (-1, 1, 3, 4, 5),
    (-4, -1, 1, 2, 5),
    (-5, -2, -1, 1, 4),
    (-5, -4, -3, -1, 1),
    (-5, -4, -3, -2, -1),
)

#: the thm4 searches' statistics, nodes and then the counts pruned per rule:
#: the only tier-1 searches through the largest-weight and effectiveness filters
THM4_STATS = {
    (1, 3): (442, 0, 812, 30, 0, 32, 11),
    (2, 3): (705, 0, 2836, 31, 0, 147, 1),
    (1, 6): (702, 0, 2644, 71, 0, 86, 2),
}


def _stats(nodes, *pruned):
    return {"nodes": nodes, "pruned": dict(zip(PRUNE_RULES, pruned))}


def _ok(n: int, text: str) -> None:
    print(f"[acceptance] criterion {n}: PASS - {text}")


def test_criterion_01_c1_reproduction():
    expected = {"o": 3, "cp5": 6, "grass": 5, "remark_w7": 3}
    for name, params in FIXTURES:
        assert compute_c1(builtin(name, *params)) == expected[name]
    _ok(1, "c1 = 3, 6, 5, 3 on the four builtin configurations")


def test_criterion_02_ring_reproduction():
    q_o = ring_presentation(builtin("o")).q
    assert q_o == (
        Fraction(1), Fraction(1), Fraction(1, 3),
        Fraction(1, 6), Fraction(1, 18), Fraction(1, 18),
    )
    q_w7 = ring_presentation(builtin("remark_w7")).q
    assert q_w7 == (
        Fraction(1), Fraction(1), Fraction(1),
        Fraction(1, 12), Fraction(1, 12), Fraction(1, 12),
    )
    for name, params in FIXTURES:
        q = ring_presentation(builtin(name, *params)).q
        for i in range(6):
            assert q[i] * q[5 - i] == q[5]
    _ok(2, "ring multipliers (1,1,1/3,1/6,1/18,1/18) and (1,1,1,1/12,1/12,1/12); duality holds")


def test_criterion_03_chern_reproduction():
    report = total_chern(builtin("o"))
    assert report.ordinary == (3, 13, 22, 30, 6)
    assert report.equivariant[0] == (15, 3)
    assert report.equivariant[1] == (85, 39, 13)
    assert report.equivariant[2] == (225, 177, 110, 22)
    assert report.equivariant[3] == (274, 321, 257, 90, 30)
    assert report.equivariant[4] == (120, 180, 160, 68, 30, 6)
    _ok(3, "total Chern class (3,13,22,30,6) with the expected equivariant expansions")


def test_criterion_04_localization_identities():
    o = builtin("o")
    ws = derive_weight_system(o)
    u = u_tilde(o)
    one = EquivariantClass(0, (1,) * 6)
    # the top basis class: prod_{j<5} (phi_j - phi_p) / a_5 at vertex p
    phi, a5 = o.profile.values, ring_presentation(o).a[5]
    top = EquivariantClass(
        10, tuple(Fraction(prod(phi[j] - phi[p] for j in range(5)), a5) for p in range(6))
    )
    assert localize_integral(one, ws) == 0
    for m in range(1, 5):
        assert localize_integral(u**m, ws) == 0
    assert localize_integral(u**5, ws) == 18
    assert localize_integral(top, ws) == 1
    assert localize_integral(chern_restrictions(ws, 5), ws) == 6
    for name, params in FIXTURES:
        c = builtin(name, *params)
        wsc = derive_weight_system(c)
        assert localize_integral(one, wsc) == 0
        assert localize_integral(chern_restrictions(wsc, 5), wsc) == 6
    _ok(4, "localization: deg<10 integrate to 0, omega^5 -> 18, top Chern -> 6")


def test_criterion_05_theorem1_desk_scale():
    t0 = time.monotonic()
    report = verify_theorem1()
    elapsed = time.monotonic() - t0
    assert report.passed
    assert report.data["configurations"] == 0
    assert elapsed < 300
    assert report.stats.to_dict() == _stats(148312, 276864, 432893, 9877, 11470, 5651, 1613)
    sharp = verify_theorem1(max_weight=5)
    assert sharp.passed
    systems = {tuple(tuple(row) for row in w) for w in sharp.data["weight_systems"]}
    assert o_weight_system() in systems
    _ok(5, f"no data with weights <= 4 within width 40 ({elapsed:.0f}s); bound sharp at 5")


def test_criterion_06_theorem3_uniqueness():
    t0 = time.monotonic()
    report = verify_theorem3()
    elapsed = time.monotonic() - t0
    assert report.passed
    assert elapsed < 60
    assert report.data["weight_systems"] == 1
    assert report.data["gaps"] == [1, 3, 2, 3, 1]
    assert report.data["one_edge_per_pair"] is True
    assert o_weight_system() == THM3_WS
    _ok(6, f"unique weight system with gaps (1,3,2,3,1) ({elapsed:.0f}s)")


def test_criterion_07_theorem4_parametric():
    for a, c in ((1, 3), (2, 3), (1, 6)):
        t0 = time.monotonic()
        report = verify_theorem4(a, c)
        elapsed = time.monotonic() - t0
        assert report.passed, (a, c, report.summary)
        assert elapsed < 60
        assert report.stats.to_dict() == _stats(*THM4_STATS[a, c]), (a, c)
    assert theorem4_weight_system(1, 3) == THM3_WS
    _ok(7, "parametric uniqueness at (1,3), (2,3), (1,6); (1,3) matches the width-10 data")


def test_criterion_08_theorem2_equivalence():
    t0 = time.monotonic()
    report = verify_theorem2()
    elapsed = time.monotonic() - t0
    assert report.passed
    assert elapsed < 300
    assert report.data["c1_3"] == report.data["edge_05_half_width"] == report.data["edges_13_24"]
    assert len(report.data["c1_3"]) > 0
    assert set(report.data["pool_c1"]) - {3} != set()  # members with other c1 exist
    _ok(8, f"the three largest-weight-5 conditions select the same pool members ({elapsed:.0f}s)")


def test_criterion_09_gkm_projection():
    proj = canonicalize(project_gkm(o_gkm_graph(), (1, 2)))
    o = builtin("o")
    assert sort_key(proj) == sort_key(o)
    assert (proj.profile, proj.edges, proj.effective) == (o.profile, o.edges, o.effective)
    _ok(9, "torus projection along (1,2) reproduces the builtin configuration")


def test_criterion_10i_oracle_equivalence(closed_form_leaves, all_off_walk):
    pruned = enumerate_configurations(SearchSpec(2, 6))
    brute = all_off_walk[0]
    assert brute.spec == SearchSpec(
        2,
        6,
        prune_divisibility=False,
        prune_extremal=False,
        prune_gamma=False,
        prune_balance=False,
        prune_ring=False,
    )
    assert pruned.configurations == brute.configurations
    # both pools are empty, so the brute force's leaves are also counted
    # against the closed form, which no slot cut of the walk enters
    leaves = brute.stats.pruned["final"] + len(brute.configurations)
    assert leaves == closed_form_leaves(2, 6) == 14_248_064
    _ok(10, f"(i) pruned and unpruned enumerations agree at weights<=2, width<=6; {leaves} leaves")


def test_criterion_10ii_mutation_sensitivity():
    o = builtin("o")
    checked = 0
    for idx, edge in enumerate(o.edges):
        for w_new in range(1, 11):
            if w_new == edge.w:
                continue
            edges = list(o.edges)
            edges[idx] = WeightEdge(edge.lo, edge.hi, w_new, edge.mult)
            mutant = Configuration(o.profile, tuple(edges))
            report = check_all(mutant)
            assert (not report.passed) or report.c1 != 3, (edge, w_new)
            checked += 1
    assert checked == 135
    _ok(10, f"(ii) all {checked} single-edge weight mutations are detected")


def test_criterion_10iii_determinism():
    spec = SearchSpec(5, 10, largest_from=((0, 5),))
    docs = []
    for workers in (1, 2, 4):
        res = enumerate_configurations(spec, workers=workers)
        docs.append(json.dumps(res.to_dict(), sort_keys=True))
    assert docs[0] == docs[1] == docs[2]
    _ok(10, "(iii) byte-identical enumeration output across 1, 2 and 4 workers")
