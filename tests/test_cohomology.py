"""Ring multipliers, equivariant basis, Chern expansions, localization."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from math import prod

import pytest

from hamfix import (
    CohomologyError,
    Configuration,
    ConsistencyError,
    DualityError,
    EquivariantClass,
    IntegralityError,
    MomentProfile,
    WeightEdge,
    builtin,
    chern_restrictions,
    cohomology_report,
    derive_weight_system,
    localize_integral,
    ring_presentation,
    total_chern,
    u_tilde,
)
from hamfix.cohomology import _scaled_basis, _sigmas, elementary_symmetric
from hamfix.model import PAIRS


@pytest.fixture(scope="module")
def o():
    return builtin("o")


@pytest.fixture(scope="module")
def paper_fixtures():
    return [builtin("o"), builtin("cp5", 1, 1, 1, 1, 1), builtin("grass", 1, 1, 2)]


def test_elementary_symmetric():
    # (1+t)(1+2t)(1+3t)(1+4t)(1+5t) has coefficients 1, 15, 85, 225, 274, 120
    vals = (1, 2, 3, 4, 5)
    assert [elementary_symmetric(vals, m) for m in range(6)] == [1, 15, 85, 225, 274, 120]


def test_sigmas_match_subset_products(mutant_corpus):
    # the one product recurrence against sums over m-subsets, m = 0..5: every
    # vertex multiset of the corpus, then seeded signed multisets with weights
    # up to +-60 and lengths 0..8, shorter and longer than a vertex's five
    def reference(values, m):
        return sum(prod(s) for s in combinations(values, m))

    multisets = {w for c in mutant_corpus for w in c.weight_system.weights}
    rng = random.Random(20261021)
    for n in range(9):
        for _ in range(200):
            multisets.add(tuple(rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(n)))
    assert {len(w) for w in multisets} == set(range(9))
    for values in multisets:
        expected = [reference(values, m) for m in range(6)]
        assert _sigmas(values) == expected, values
        assert [elementary_symmetric(values, m) for m in range(6)] == expected, values
        for m in range(6):
            assert _sigmas(values, m) == expected[: m + 1], (values, m)


def test_lambda_products(o):
    ws = derive_weight_system(o)
    lam_minus, lam = ws.lam_minus, ws.lam
    assert lam_minus == (1, -1, 4, -10, 60, -120)
    assert lam == (120, -60, 40, -40, 60, -120)
    assert lam_minus[0] == 1  # no negative weights at the minimum

    w7 = derive_weight_system(builtin("remark_w7"))
    lm7 = w7.lam_minus
    assert lm7[3] == -28
    assert lm7[4] == 42


def test_ring_presentation_values():
    assert [str(q) for q in ring_presentation(builtin("o")).q] == [
        "1", "1", "1/3", "1/6", "1/18", "1/18",
    ]
    assert [str(q) for q in ring_presentation(builtin("remark_w7")).q] == [
        "1", "1", "1", "1/12", "1/12", "1/12",
    ]
    assert ring_presentation(builtin("cp5", 1, 1, 1, 1, 1)).q == (Fraction(1),) * 6
    assert ring_presentation(builtin("o")).a == (1, 1, 3, 6, 18, 18)


def test_ring_duality(paper_fixtures):
    for c in paper_fixtures + [builtin("remark_w7")]:
        q = ring_presentation(c).q
        for i in range(6):
            assert q[i] * q[5 - i] == q[5]


def _complete_graph_config(profile, weight_overrides=()):
    phi = profile.values
    overrides = dict(weight_overrides)
    edges = []
    for i in range(6):
        for j in range(i + 1, 6):
            w = overrides.get((i, j), phi[j] - phi[i])
            edges.append(WeightEdge(i, j, w))
    return Configuration(profile, tuple(edges))


def test_ring_duality_error():
    # all weights 1 on the complete unit-gap graph: q = (1, 1, 1/2, 1/6, 1/24, 1/120)
    prof = MomentProfile.from_gaps((1, 1, 1, 1, 1))
    c = _complete_graph_config(prof, {(i, j): 1 for i in range(6) for j in range(i + 1, 6)})
    with pytest.raises(DualityError):
        ring_presentation(c)


def test_ring_integrality_error():
    # a -4 slot at vertex 2 with down-gaps 2 and 1: 1/q_2 = 2/4 is not integral
    prof = MomentProfile.from_gaps((1, 1, 1, 1, 1))
    c = _complete_graph_config(prof, {(0, 2): 4})
    with pytest.raises(IntegralityError):
        ring_presentation(c)


def _ring_reference(c):
    """ring_presentation by ``Fraction`` arithmetic throughout."""
    phi = c.profile.values
    lam_minus = derive_weight_system(c).lam_minus
    q = []
    a = []
    for i in range(6):
        denom = 1
        for j in range(i):
            denom *= phi[j] - phi[i]
        qi = Fraction(lam_minus[i], denom)
        ai = 1 / qi
        if ai.denominator != 1:
            raise IntegralityError(
                f"generator multiplier at vertex {i} is {qi}; its inverse "
                f"{ai} is not an integer"
            )
        q.append(qi)
        a.append(int(ai))
    for i in range(6):
        if q[i] * q[5 - i] != q[5]:
            raise DualityError(
                f"duality fails: q_{i} * q_{5 - i} = {q[i] * q[5 - i]} != q_5 = {q[5]}"
            )
    return tuple(q), tuple(a)


def _outcome(fn, c):
    try:
        return fn(c)
    except CohomologyError as exc:
        return type(exc), str(exc)


def test_ring_presentation_matches_fraction_reference(mutant_corpus):
    # integer divisibility tests against Fraction inverses: the same q and a,
    # or the same exception class and message
    kinds = set()
    for c in mutant_corpus:
        expected = _outcome(_ring_reference, c)
        got = _outcome(ring_presentation, c)
        if type(got) is tuple:  # the error outcome; a RingPresentation is a named tuple
            assert got == expected, c.label
            kinds.add(got[0].__name__)
        else:
            assert (got.q, got.a) == expected, c.label
            assert all(type(x) is Fraction for x in got.q)
            assert all(type(x) is int for x in got.a)
            kinds.add("ok")
    assert kinds == {"ok", "IntegralityError", "DualityError"}, kinds


def test_cohomology_reports_pinned_on_mutant_corpus(mutant_corpus):
    # every cohomology_report, or its error class and message, on the
    # builtins and their seeded mutants; digest taken before the integer
    # ring tests
    results = []
    for c in mutant_corpus:
        try:
            results.append(cohomology_report(c))
        except CohomologyError as exc:
            results.append([type(exc).__name__, str(exc)])
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4840b2ec8eeae6ae62bba6412c4c5afdc57af08d0ed39ffdd1246c2d77b19222"
    )


def _basis(c):
    """The triangular basis classes from their formula: class i restricts at
    vertex p to prod_{j<i} (phi_j - phi_p) / a_i times t^i, so it vanishes
    below vertex i and restricts there to the negative weights' product."""
    a = ring_presentation(c).a
    phi = c.profile.values
    return tuple(
        EquivariantClass(
            2 * i,
            tuple(Fraction(prod(phi[j] - phi[p] for j in range(i)), a[i]) for p in range(6)),
        )
        for i in range(6)
    )


def _expand_in_basis(x, basis, require_integral=False):
    """Coefficients d_0..d_m with x = sum d_i t^(m-i) basis[i], in ``Fraction``
    arithmetic: solved triangularly from the restrictions at the lowest m+1
    vertices, then verified against the remaining ones (ConsistencyError on
    a mismatch).  With ``require_integral`` every coefficient must be an
    integer (IntegralityError)."""
    m = x.degree // 2
    d = []
    for p in range(m + 1):
        acc = sum((d[i] * basis[i].coeffs[p] for i in range(p)), Fraction(0))
        d.append((x.coeffs[p] - acc) / basis[p].coeffs[p])
    for p in range(m + 1, 6):
        acc = sum((d[i] * basis[i].coeffs[p] for i in range(m + 1)), Fraction(0))
        if acc != x.coeffs[p]:
            raise ConsistencyError(
                f"expansion solved at vertices 0..{m} restricts to {acc} at "
                f"vertex {p}, but the class restricts to {x.coeffs[p]}"
            )
    if require_integral:
        bad = [i for i, v in enumerate(d) if v.denominator != 1]
        if bad:
            raise IntegralityError(
                f"expansion coefficients at positions {bad} are not integers: "
                f"{[str(d[i]) for i in bad]}"
            )
        return tuple(int(v) for v in d)
    return tuple(d)


def _chern_reference(c):
    """total_chern in ``Fraction`` arithmetic: basis classes from their
    formula, each row through _expand_in_basis, then the top-coefficient test."""
    ws = derive_weight_system(c)
    basis = _basis(c)
    rows = tuple(
        _expand_in_basis(chern_restrictions(ws, m), basis, require_integral=True)
        for m in range(1, 6)
    )
    ordinary = tuple(rows[m - 1][m] for m in range(1, 6))
    if ordinary[-1] != 6:
        raise ConsistencyError(
            f"top Chern coefficient {ordinary[-1]} != number of fixed points 6"
        )
    return rows, ordinary


def _chern_rows(c):
    report = total_chern(c)
    return report.equivariant, report.ordinary


def _drawn_ring_survivors(draws, seed=5):
    """Of ``draws`` configurations with one edge per vertex pair, moment gaps
    in 1..4 and each weight a random divisor <= 8 of its moment gap, those
    whose generator multipliers are integral and satisfy duality; the
    multipliers are tested on the raw draw, before any object is built."""
    rng = random.Random(seed)
    divisors = {g: [d for d in range(1, 9) if g % d == 0] for g in range(1, 21)}
    for _ in range(draws):
        phi = tuple(accumulate([rng.randint(1, 4) for _ in range(5)], initial=0))
        w = {(i, j): rng.choice(divisors[phi[j] - phi[i]]) for i, j in PAIRS}
        a = []
        for i in range(6):
            denom = prod([phi[j] - phi[i] for j in range(i)])
            lam_minus = prod([-w[j, i] for j in range(i)])
            if denom % lam_minus:
                break
            a.append(denom // lam_minus)
        else:
            if all(a[i] * a[5 - i] == a[5] for i in range(6)):
                edges = tuple(WeightEdge(i, j, x) for (i, j), x in w.items())
                yield Configuration(MomentProfile(phi), edges)


def test_integer_chern_matches_fraction_expansion(mutant_corpus):
    # the integer Chern rows against Fraction expansions: the same rows, or
    # the same exception class and message.  The corpus members fail at the
    # ring test or expand; the drawn ones reach the inconsistent-row fallback
    drawn = list(_drawn_ring_survivors(25_000))
    kinds = Counter()
    for c in mutant_corpus + drawn:
        expected = _outcome(_chern_reference, c)
        got = _outcome(_chern_rows, c)
        assert got == expected, c.label
        kinds["ok" if isinstance(got[0], tuple) else got[0].__name__] += 1
    assert kinds["ok"] == 272
    assert kinds["ConsistencyError"] == len(drawn) == 4
    assert set(kinds) == {"ok", "IntegralityError", "DualityError", "ConsistencyError"}


def test_equivariant_basis(o):
    basis = _basis(o)
    assert basis[0].coeffs == (Fraction(1),) * 6
    assert basis[1].coeffs[5] == -10
    ws = derive_weight_system(o)
    for i, cls in enumerate(basis):
        assert cls.degree == 2 * i
        for p in range(i):
            assert cls.coeffs[p] == 0
        assert cls.coeffs[i] == ws.lam_minus[i]


def test_basis_vanishing_pattern_all_fixtures(paper_fixtures):
    for c in paper_fixtures + [builtin("remark_w7")]:
        basis = _basis(c)
        # _scaled_basis, the rows the integer Chern expansion reads, is the
        # formula's classes scaled by a_5
        rp = ring_presentation(c)
        assert _scaled_basis(c, rp) == [[rp.a[5] * x for x in b.coeffs] for b in basis]
        lam_minus = derive_weight_system(c).lam_minus
        for i, cls in enumerate(basis):
            assert all(cls.coeffs[p] == 0 for p in range(i))
            assert cls.coeffs[i] == lam_minus[i]


def test_chern_restrictions(o):
    ws = derive_weight_system(o)
    c1 = chern_restrictions(ws, 1)
    assert c1.coeffs[0] == 15
    c2 = chern_restrictions(ws, 2)
    assert c2.coeffs[0] == 85
    c5 = chern_restrictions(ws, 5)
    assert all(c5.coeffs[i] / ws.lam[i] == 1 for i in range(6))
    with pytest.raises(ValueError):
        chern_restrictions(ws, 6)


def test_expand_in_basis(o):
    # the Fraction reference that the integer Chern rows are compared against
    basis = _basis(o)
    ws = derive_weight_system(o)
    assert _expand_in_basis(chern_restrictions(ws, 1), basis, require_integral=True) == (15, 3)
    assert _expand_in_basis(chern_restrictions(ws, 2), basis, require_integral=True) == (85, 39, 13)
    assert _expand_in_basis(basis[2], basis) == (0, 0, 1)


def test_expand_consistency_error(o):
    stray = EquivariantClass(2, (0, 1, 2, 3, 4, 100))
    with pytest.raises(ConsistencyError):
        _expand_in_basis(stray, _basis(o))


def test_total_chern_o(o):
    report = total_chern(o)
    assert report.ordinary == (3, 13, 22, 30, 6)
    assert report.equivariant == (
        (15, 3),
        (85, 39, 13),
        (225, 177, 110, 22),
        (274, 321, 257, 90, 30),
        (120, 180, 160, 68, 30, 6),
    )


def test_total_chern_cp5():
    # binomial pattern of the projective space
    assert total_chern(builtin("cp5", 1, 1, 1, 1, 1)).ordinary == (6, 15, 20, 15, 6)


def test_top_chern_counts_fixed_points(paper_fixtures):
    # the top expansion coefficient is the fixed-point count, and the
    # localized top Chern integral agrees: 6 = d_{5,5} * integral(basis_5)
    for c in paper_fixtures + [builtin("remark_w7")]:
        d55 = total_chern(c).ordinary[-1]
        assert d55 == 6
        ws = derive_weight_system(c)
        top = localize_integral(chern_restrictions(ws, 5), ws)
        assert top == d55 * localize_integral(_basis(c)[5], ws)


def test_localization_o(o):
    ws = derive_weight_system(o)
    # oracle: the rational sum written out from the weight products
    assert (
        Fraction(1, 120) - Fraction(1, 60) + Fraction(1, 40)
        - Fraction(1, 40) + Fraction(1, 60) - Fraction(1, 120)
    ) == 0
    assert localize_integral(EquivariantClass(0, (1,) * 6), ws) == 0
    u = u_tilde(o)
    for m in range(1, 5):
        assert localize_integral(u**m, ws) == 0
    assert localize_integral(u**5, ws) == 18
    q5 = ring_presentation(o).q[5]
    assert q5 * 18 == 1
    assert localize_integral(_basis(o)[5], ws) == 1
    assert localize_integral(chern_restrictions(ws, 5), ws) == 6


def test_localization_all_fixtures(paper_fixtures):
    for c in paper_fixtures + [builtin("remark_w7")]:
        ws = derive_weight_system(c)
        u = u_tilde(c)
        assert localize_integral(EquivariantClass(0, (1,) * 6), ws) == 0
        for m in range(1, 5):
            assert localize_integral(u**m, ws) == 0
        assert localize_integral(chern_restrictions(ws, 5), ws) == 6


def test_class_algebra(o):
    u = u_tilde(o)
    assert (u * u).degree == 4
    assert (u * u).coeffs == (u**2).coeffs
    assert (u * EquivariantClass(0, (Fraction(1, 2),) * 6)).coeffs[5] == Fraction(-5)
    with pytest.raises(ValueError):
        EquivariantClass(3, (0,) * 6)
    with pytest.raises(ValueError):
        EquivariantClass(2, (0,) * 5)


def test_duality_product_of_basis_classes(paper_fixtures):
    # complementary basis classes multiply to the top generator:
    # the product integrates to exactly 1
    for c in paper_fixtures + [builtin("remark_w7")]:
        basis = _basis(c)
        ws = derive_weight_system(c)
        for i in range(6):
            prod = basis[i] * basis[5 - i]
            assert prod.degree == 10
            assert localize_integral(prod, ws) == 1


def test_cohomology_report_shape(o):
    doc = cohomology_report(o)
    assert set(doc) == {"ring_q", "a", "chern_ordinary", "chern_equivariant", "integrals"}
    assert doc["ring_q"] == ["1", "1", "1/3", "1/6", "1/18", "1/18"]
    assert doc["chern_ordinary"] == [3, 13, 22, 30, 6]
    assert doc["integrals"] == {"omega5": "18", "euler": "6"}
