"""Exact predicates a realizable configuration must satisfy.

Each checker implements one necessary condition on the fixed-point data of
a Hamiltonian circle action with six isolated fixed points, phrased over a
:class:`~hamfix.model.Configuration`.  Violations are returned as data, not
raised, so the search can consume them as pruning signals and the CLI can
render them as reports.

Component-level checks (mod-k weight congruence, smallest-weight balance,
index/Betti regularity) are applied to subgraph components of edges with
``k | w``.  Every such component holds every ``k``-divisible weight of its
vertices (see :class:`~hamfix.model.IsotropyComponent`), so it models a full
isotropy submanifold; balance and regularity beyond dimension-constancy need
only that its vertices have equally many such weights.

One ordered walk over the rules yields the violations:
:func:`check_all` collects all of them into a report, and :func:`is_valid`
stops at the first one for the enumeration hot path.  Its isotropy-component
pass, :func:`_iter_components`, reads every order's components from one
sweep over ``(lo, hi, w, mult)`` edges (``model._isotropy``) and the
per-vertex signed weights: a configuration's ``WeightEdge`` tuples as they
are, or a leaf's raw cells, which the search checks before it builds any
object.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .model import (
    DIM,
    N_POINTS,
    PAIRS,
    Configuration,
    StructureError,
    WeightSystem,
    _has_edge,
    _isotropy,
    _record,
    structure_problems,
)

C1_MIN = 1
C1_MAX = N_POINTS  # the multiple of the symplectic generator is between 1 and n+1


class Violation(_record("Violation", "rule vertices edges detail")):
    """One failed predicate, located at the vertices and ``(lo, hi, w)``
    edges involved: a named tuple, so it sorts by its fields, whose
    ``__new__`` checks that it names one."""

    __slots__ = ()

    def __new__(cls, rule: str, vertices=(), edges=(), detail: str = "") -> "Violation":
        if not vertices and not edges:
            raise ValueError("a violation must name at least one vertex or edge")
        # the tuple itself: namedtuple's generated __new__ would bind the fields again
        return tuple.__new__(cls, (rule, vertices, edges, detail))

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "location": {
                "vertices": list(self.vertices),
                "edges": [list(e) for e in self.edges],
            },
            "detail": self.detail,
        }


#: every vertex, each its own global index level
_VERTICES = tuple(range(N_POINTS))


class CheckReport(namedtuple("CheckReport", "passed c1 violations")):
    """The PASS/FAIL verdict, the first-Chern multiple (``None`` where it is
    undefined) and the sorted violations."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "c1": self.c1,
            "violations": [v.to_dict() for v in self.violations],
        }


# ---------------------------------------------------------------------------
# rule cores: generators over a shared weight-system analysis


def _iter_divisibility(c: Configuration, ws: WeightSystem):
    phi = c.profile.values
    dividing = True
    for e in c.edges:
        gap = phi[e.hi] - phi[e.lo]
        if gap % e.w != 0:
            dividing = False
            yield Violation(
                "Divisibility",
                vertices=(e.lo, e.hi),
                edges=((e.lo, e.hi, e.w),),
                detail=f"weight {e.w} does not divide moment gap {gap}",
            )
    if dividing:
        # each +-w at v is carried by an edge that divides its own gap, a gap
        # from v to a higher or lower vertex, so the pass below cannot fire
        return
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


def _iter_balance(edges, level, dim: int, k: int | None, vertices):
    """Smallest-weight pairing balance across index levels.

    With w the smallest weight among the ``(lo, hi, w, mult)`` ``edges``,
    the number of ``-w`` slots at points of index level m+1 must equal the
    number of ``+w`` slots at level m.  ``level[v]`` is vertex v's level in
    ``0..dim``.  ``edges`` is never empty: the global call
    follows the structure check, and every isotropy component has an edge.
    """
    wmin = min([e[2] for e in edges])
    plus = [0] * (dim + 1)
    minus = [0] * (dim + 1)
    for lo, hi, w, m in edges:
        if w == wmin:
            plus[level[lo]] += m
            minus[level[hi]] += m
    for m in range(dim):
        if plus[m] != minus[m + 1]:
            scope = "globally" if k is None else f"in the k={k} component {vertices}"
            yield Violation(
                "SmallestWeightBalance",
                vertices=tuple(vertices),
                detail=(
                    f"{scope}: smallest weight {wmin} has {plus[m]} positive slots "
                    f"at index level {m} but {minus[m + 1]} negative slots at "
                    f"level {m + 1}"
                ),
            )


def _iter_extremal(c: Configuration):
    gaps = c.profile.gaps
    for lo, hi, g in ((0, 1, gaps[0]), (N_POINTS - 2, N_POINTS - 1, gaps[-1])):
        if not _has_edge(c, lo, hi, g):
            yield Violation(
                "ExtremalEdge",
                vertices=(lo, hi),
                detail=f"no edge of weight {g} between vertices {lo} and {hi}",
            )


def _c1_of(c: Configuration, ws: WeightSystem) -> int | Violation:
    phi, gamma = c.profile.values, ws.gamma
    # the ratio of pair (0, 1) is n0 / d0; moment gaps d are positive
    first_pair = PAIRS[0]
    n0, d0 = gamma[0] - gamma[1], phi[1] - phi[0]
    for i, j in PAIRS[1:]:
        n, d = gamma[i] - gamma[j], phi[j] - phi[i]
        if n * d0 != n0 * d:
            return Violation(
                "C1Consistency",
                vertices=(i, j),
                detail=(
                    f"pair ({i},{j}) gives weight-sum ratio {Fraction(n, d)}, "
                    f"pair {first_pair} gives {Fraction(n0, d0)}"
                ),
            )
    if n0 % d0:
        return Violation(
            "C1Consistency",
            vertices=first_pair,
            detail=f"weight-sum ratio {Fraction(n0, d0)} is not an integer",
        )
    kval = n0 // d0
    if not C1_MIN <= kval <= C1_MAX:
        return Violation(
            "C1Consistency",
            vertices=first_pair,
            detail=f"weight-sum ratio {kval} outside [{C1_MIN}, {C1_MAX}]",
        )
    return kval


def _iter_gamma_relation(c: Configuration, ws: WeightSystem, k: int):
    phi = c.profile.values
    down_mult: dict[tuple[int, int], int] = {}
    for e in c.edges:
        down_mult[(e.hi, e.w)] = down_mult.get((e.hi, e.w), 0) + e.mult
    biggest = {
        v: max(abs(x) for x in ws.weights[v]) for v in range(N_POINTS)
    }
    for e in c.edges:
        i, j, w = e.lo, e.hi, e.w
        if -w in ws.weights[i]:
            continue
        if w != max(biggest[i], biggest[j]):
            continue
        lhs = j - i + down_mult[(j, w)]
        rhs = k * (phi[j] - phi[i])
        if lhs * w != rhs:
            yield Violation(
                "GammaRelation",
                vertices=(i, j),
                edges=((i, j, w),),
                detail=(
                    f"edge ({i},{j},{w}): index relation gives {lhs}, "
                    f"weight sums give {Fraction(rhs, w)}"
                ),
            )


def _iter_effectiveness(c: Configuration):
    g = gcd(*[e.w for e in c.edges])
    if g != 1:
        yield Violation(
            "Effectiveness",
            vertices=tuple(range(N_POINTS)),
            detail=f"gcd of all edge weights is {g}, expected 1",
        )


def _iter_components(edges, weights):
    """The isotropy-component pass of the rule walk.

    ``edges`` are ``(lo, hi, w, mult)`` tuples, a configuration's
    ``WeightEdge``s or a search leaf's, and ``weights[v]`` holds the signed
    weights at vertex v in any order.  Each component
    ``model._isotropy`` builds, by order k then lowest vertex, is checked
    for regularity, index bound, smallest-weight balance and mod-k
    congruence, and a :class:`Violation` is built only when a rule fires.

    A component of one k-edge of multiplicity 1 is an isotropy 2-sphere with
    two fixed points: both have one k-divisible weight and sit at index
    levels 0 and 1, and its one edge balances itself, so regularity, the
    index bound and balance hold there and only mod-k congruence is checked.
    A search leaf holds one edge per slot, so parallel slots are two k-edges.
    """
    for k, vertices, within, down, kedges in _isotropy(edges):
        if len(kedges) != 1 or kedges[0][3] != 1:
            counts = [within[v] for v in vertices]
            d = counts[0]
            if counts.count(d) != len(counts):
                yield Violation(
                    "ComponentRegularity",
                    vertices,
                    detail=f"k={k} component {vertices}: divisible-weight counts "
                    f"{tuple(counts)} are not constant",
                )
            else:
                levels = [0] * (d + 1)
                for v in vertices:
                    levels[down[v]] += 1
                irregular = []
                if levels[0] != 1 or levels[d] != 1:
                    irregular.append(f"expected unique minimum and maximum, levels {levels}")
                for m in range(d + 1):
                    if levels[m] == 0:
                        irregular.append(f"no vertex at index level {m} of {d}")
                if levels != levels[::-1]:
                    irregular.append(f"index level counts {levels} are not symmetric under duality")
                for text in irregular:
                    detail = f"k={k} component {vertices}: {text}"
                    yield Violation("ComponentRegularity", vertices, detail=detail)
                for p, v in enumerate(vertices):
                    if down[v] > p:
                        yield Violation(
                            "IndexBound",
                            (v,),
                            detail=f"k={k} component {vertices}: vertex {v} has index level "
                            f"{down[v]} with only {p} lower vertices in the component",
                        )
                yield from _iter_balance(kedges, down, d, k, vertices)
        base = vertices[0]
        base_res = sorted([w % k for w in weights[base]])
        for v in vertices[1:]:
            res = sorted([w % k for w in weights[v]])
            if res != base_res:
                yield Violation(
                    "ModK",
                    (base, v),
                    detail=f"weights at {base} and {v} differ mod {k}: "
                    f"{tuple(base_res)} vs {tuple(res)}",
                )


# ---------------------------------------------------------------------------
# the rule walk behind check_all and is_valid


def _walk(c: Configuration):
    """Yield every violation of ``c``, cheap and lethal rules first.

    The order is structure, extremal edges, c1, divisibility, global
    balance, then the isotropy-component pass over the edges, then
    the gamma relation and, when ``c.effective`` is set, effectiveness
    (the gcd of the edge weights is 1).  The weight system is
    ``c.weight_system``, whose ``StructureError`` stands for the Structure
    violations.  Returns the first-Chern multiple, or ``None`` when
    undefined.
    """
    try:
        ws = c.weight_system
    except StructureError:
        for p in structure_problems(c):
            yield Violation("Structure", vertices=tuple(range(N_POINTS)), detail=p)
        return None
    yield from _iter_extremal(c)
    c1 = _c1_of(c, ws)
    if isinstance(c1, Violation):
        yield c1
        c1 = None
    yield from _iter_divisibility(c, ws)
    yield from _iter_balance(c.edges, _VERTICES, DIM, None, _VERTICES)
    yield from _iter_components(c.edges, ws.weights)
    if c1 is not None:
        yield from _iter_gamma_relation(c, ws, c1)
    if c.effective:
        yield from _iter_effectiveness(c)
    return c1


def compute_c1(c: Configuration) -> int | Violation:
    """The common multiple k with Gamma_i - Gamma_j = k (phi_j - phi_i).

    All fifteen vertex pairs must give the same integral value in
    ``[1, 6]``; otherwise a C1Consistency violation describing the first
    offending pair is returned.
    """
    return _c1_of(c, c.weight_system)


def check_all(c: Configuration) -> CheckReport:
    """Collect every violation into a PASS/FAIL report.

    The gcd-of-weights check runs exactly when ``c.effective`` is set; to
    check the same data with the other setting, check
    ``c._replace(effective=...)``.
    """
    walk = _walk(c)
    violations: list[Violation] = []
    while True:
        try:
            violations.append(next(walk))
        except StopIteration as done:
            c1 = done.value
            break
    ordered = tuple(sorted(violations))
    return CheckReport(passed=not ordered, c1=c1, violations=ordered)


def is_valid(c: Configuration) -> bool:
    """Exactly ``check_all(c).passed``, stopping at the first violation; used
    as the enumeration's final gate."""
    return next(_walk(c), None) is None
