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
stops at the first one for the enumeration hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .model import (
    DIM,
    N_POINTS,
    PAIRS,
    Configuration,
    IsotropyComponent,
    WeightSystem,
    _has_edge,
    _unfold,
    derive_weight_system,
    isotropy_components,
    isotropy_orders,
    structure_problems,
)

C1_MIN = 1
C1_MAX = N_POINTS  # the multiple of the symplectic generator is between 1 and n+1


@dataclass(frozen=True, order=True)
class Violation:
    """One failed predicate, located at the vertices/edges involved."""

    rule: str
    vertices: tuple[int, ...] = ()
    edges: tuple[tuple[int, int, int], ...] = ()
    detail: str = ""

    def __post_init__(self) -> None:
        if not self.vertices and not self.edges:
            raise ValueError("a violation must name at least one vertex or edge")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "location": {
                "vertices": list(self.vertices),
                "edges": [list(e) for e in self.edges],
            },
            "detail": self.detail,
        }


_ORDER = attrgetter("rule", "vertices", "edges", "detail")


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    c1: int | None
    violations: tuple[Violation, ...]

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


def _residues(weights, k: int) -> tuple[int, ...]:
    return tuple(sorted([w % k for w in weights]))


def _iter_mod(ws: WeightSystem, comp: IsotropyComponent):
    k = comp.k
    base = comp.vertices[0]
    base_res = _residues(ws.weights[base], k)
    for v in comp.vertices[1:]:
        res = _residues(ws.weights[v], k)
        if res != base_res:
            yield Violation(
                "ModK",
                vertices=(base, v),
                detail=(
                    f"weights at {base} and {v} differ mod {k}: {base_res} vs {res}"
                ),
            )


def _iter_balance(edges, lam_of, dim: int, k: int | None, vertices):
    """Smallest-weight pairing balance across index levels.

    With w the smallest weight among ``edges``, the number of ``-w`` slots
    at points of index level m+1 must equal the number of ``+w`` slots at
    level m.
    """
    if not edges:
        return
    wmin = min(e.w for e in edges)
    plus: dict[int, int] = {}
    minus: dict[int, int] = {}
    for e in edges:
        if e.w == wmin:
            lo, hi = lam_of(e.lo), lam_of(e.hi)
            plus[lo] = plus.get(lo, 0) + e.mult
            minus[hi] = minus.get(hi, 0) + e.mult
    for m in range(dim):
        np_ = plus.get(m, 0)
        nm = minus.get(m + 1, 0)
        if np_ != nm:
            scope = "globally" if k is None else f"in the k={k} component {vertices}"
            yield Violation(
                "SmallestWeightBalance",
                vertices=tuple(vertices),
                detail=(
                    f"{scope}: smallest weight {wmin} has {np_} positive slots at "
                    f"index level {m} but {nm} negative slots at level {m + 1}"
                ),
            )


def _where(comp: IsotropyComponent) -> str:
    return f"k={comp.k} component {comp.vertices}"


def _iter_regularity(comp: IsotropyComponent):
    if len(set(comp.divisible_count)) != 1:
        yield Violation(
            "ComponentRegularity",
            vertices=comp.vertices,
            detail=(
                f"{_where(comp)}: divisible-weight counts {comp.divisible_count} "
                "are not constant"
            ),
        )
        return
    d = comp.divisible_count[0]
    levels = [0] * (d + 1)
    for lam in comp.within_down:
        levels[lam] += 1
    if levels[0] != 1 or levels[d] != 1:
        yield Violation(
            "ComponentRegularity",
            vertices=comp.vertices,
            detail=f"{_where(comp)}: expected unique minimum and maximum, levels {levels}",
        )
    for m in range(d + 1):
        if levels[m] == 0:
            yield Violation(
                "ComponentRegularity",
                vertices=comp.vertices,
                detail=f"{_where(comp)}: no vertex at index level {m} of {d}",
            )
        if levels[m] != levels[d - m]:
            yield Violation(
                "ComponentRegularity",
                vertices=comp.vertices,
                detail=(
                    f"{_where(comp)}: index level counts {levels} are not "
                    "symmetric under duality"
                ),
            )
    for p, (v, lam) in enumerate(zip(comp.vertices, comp.within_down)):
        if lam > p:
            yield Violation(
                "IndexBound",
                vertices=(v,),
                detail=(
                    f"{_where(comp)}: vertex {v} has index level {lam} with only "
                    f"{p} lower vertices in the component"
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
        s = down_mult[(j, w)]
        lhs = j - i + s
        rhs = Fraction(k * (phi[j] - phi[i]), w)
        if lhs != rhs:
            yield Violation(
                "GammaRelation",
                vertices=(i, j),
                edges=((i, j, w),),
                detail=(
                    f"edge ({i},{j},{w}): index relation gives {lhs}, "
                    f"weight sums give {rhs}"
                ),
            )


def _iter_effectiveness(c: Configuration):
    g = c.weight_gcd()
    if g != 1:
        yield Violation(
            "Effectiveness",
            vertices=tuple(range(N_POINTS)),
            detail=f"gcd of all edge weights is {g}, expected 1",
        )


# ---------------------------------------------------------------------------
# the rule walk behind check_all and is_valid


def _walk(c: Configuration, effective: bool | None):
    """Yield every violation of ``c``, cheap and lethal rules first.

    The order is structure, extremal edges, c1, divisibility, global
    balance, then per isotropy component regularity, balance and mod-k,
    then the gamma relation and effectiveness.  Structure is checked once,
    and the weight system is unfolded once, after structure and the
    extremal edges are walked.  Returns the first-Chern multiple, or
    ``None`` when undefined.
    """
    problems = structure_problems(c)
    if problems:
        for p in problems:
            yield Violation("Structure", vertices=tuple(range(N_POINTS)), detail=p)
        return None
    yield from _iter_extremal(c)
    ws = _unfold(c)
    c1 = _c1_of(c, ws)
    if isinstance(c1, Violation):
        yield c1
        c1 = None
    yield from _iter_divisibility(c, ws)
    yield from _iter_balance(c.edges, lambda v: v, DIM, None, tuple(range(N_POINTS)))
    for k in isotropy_orders(c):
        for comp in isotropy_components(c, k, ws=ws):
            yield from _iter_regularity(comp)
            counts = comp.divisible_count
            if len(set(counts)) == 1:
                lam = dict(zip(comp.vertices, comp.within_down))
                yield from _iter_balance(
                    comp.edges, lam.__getitem__, counts[0], k, comp.vertices
                )
            yield from _iter_mod(ws, comp)
    if c1 is not None:
        yield from _iter_gamma_relation(c, ws, c1)
    if c.effective if effective is None else effective:
        yield from _iter_effectiveness(c)
    return c1


def compute_c1(c: Configuration) -> int | Violation:
    """The common multiple k with Gamma_i - Gamma_j = k (phi_j - phi_i).

    All fifteen vertex pairs must give the same integral value in
    ``[1, 6]``; otherwise a C1Consistency violation describing the first
    offending pair is returned.
    """
    return _c1_of(c, derive_weight_system(c))


def check_all(c: Configuration, effective: bool | None = None) -> CheckReport:
    """Collect every violation into a PASS/FAIL report.

    ``effective`` overrides the configuration's own effectiveness flag;
    when the flag is set the gcd-of-weights check is included.
    """
    walk = _walk(c, effective)
    violations: list[Violation] = []
    while True:
        try:
            violations.append(next(walk))
        except StopIteration as done:
            c1 = done.value
            break
    # the dataclass order, compared as plain tuples
    ordered = tuple(sorted(violations, key=_ORDER))
    return CheckReport(passed=not ordered, c1=c1, violations=ordered)


def is_valid(c: Configuration, effective: bool | None = None) -> bool:
    """Exactly ``check_all(c, effective).passed``, stopping at the first
    violation; used as the enumeration's final gate."""
    return next(_walk(c, effective), None) is None
