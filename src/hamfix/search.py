"""Pruned exhaustive enumeration of valid configurations, and the theorem
verifiers built on top of it.

The search space for given bounds is: every moment gap vector (five positive
integers with bounded sum) combined with every slot-respecting edge multiset
whose weights are bounded.  The width bound defaults to the proved one,
``2 * DIM * max_weight``, as the extremal weight sums differ by at least the
width and by at most that.  A configuration is emitted when it passes the
full constraint report, has integral generator multipliers satisfying
duality, an integral Chern expansion, and matches the requested filters.

Search order: gap vector first, then edge cells in lexicographic pair order
``(0,1), (0,2), ..., (4,5)``.  Because a vertex's downward cells all precede
its upward cells, each vertex's weight sum closes at a known cell, which is
where the weight-sum (first-Chern) targets are enforced.  The engine is
plain functions: ``_search_gap`` searches one gap vector.  Its weight-sum
target vectors are computed once, and each floor re-tests only those the
floor below kept.  A gap vector that survives the extremal and weight-sum
tests gets a cell plan per live floor, built in one backward pass over the
cells straight from the gap vector (a dead floor is skipped before anything
is built): one tuple per cell holding its multiset tables by slot count (one
tuple per allowed weights and floor, built once per process and shared by
every plan) and the weight bounds of the cells still open at its two
vertices.  The slot counts a cell may take come from ``_slots``, one walk
over the slot matrices shared by every search, so the nested ``dfs``
closure reads everything it needs at a cell from one plan entry and one
slot node, keeps its weight-sum state and the leaf's multiset per cell in
local lists and its counters in local ints.  A complete leaf
goes to ``_leaf`` with the moment values, a pure gate that returns the
configuration or ``None``: the smallest-weight balance from the walk's own
floor-slot count, then ``_uneven``'s packed per-vertex counts of k-divisible
weights, then the rule walk's isotropy-component pass on the raw cells, then,
for the survivors only, the objects, ``is_valid``, the filters and Chern
integrality.  ``_search_gap`` counts the rejected leaves and sends every
accepted one to the sink.  Five pruning rules can be
toggled off independently, in which case the same final set is produced by
brute force:

* ``divisibility`` -- restrict cell weights to divisors of the moment gap;
* ``extremal``      -- force the two extremal edges to carry the full gap;
* ``gamma``        -- derive the first-Chern multiple from the gap vector
                      and enforce exact per-vertex weight-sum targets;
* ``balance``      -- walk once per global smallest weight, allowed only
                      on the consecutive cells (v, v + 1) and held by at
                      least one of them (why that is the global balance:
                      ``_search_gap``; with it off, the walk runs at floor
                      1 and the leaf is screened for a weight-1 slot on
                      any other cell);
* ``ring``         -- cut a cell whose weights leave the product of vertex
                      j's downward weights no divisor of the product of
                      its moment gaps down to every lower vertex, the ring
                      integrality ``cohomology.ring_presentation`` tests
                      (``_search_gap``).

The reversed action gives an equivalent configuration, so one member of
each mirror pair is kept: only mirror-canonical gap vectors are walked, and
mirror pairs merge through ``model.canonicalize``, keeping a leaf only if it
is its own canonical form (a palindromic gap vector walks both members).
Results are sorted, so output is deterministic and independent of the
worker count.

Each of the four verifiers is one ``SearchSpec`` plus a read-out of its
result, and all of them read it from one pool per process: ``_pool`` keeps
each search they run, keyed by its ``SearchSpec`` (the worker count is
left out), so ``thm1`` at weight 5 and ``thm2`` search (5, 50) once and each
reads its subset off the result; ``thm3`` claims uniqueness at width 10, so
it reads (5, 10); ``thm4`` reads the search pinned to its gap vector.  A
verifier's ``statistics`` therefore describe the shared search: ``thm3``
reports the whole (5, 10) search, not one filtered to a largest weight on
(0, 5).  ``enumerate_configurations`` itself is never cached.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cache
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb, gcd, prod

from . import cohomology
from .constraints import C1_MAX, C1_MIN, _iter_components, compute_c1, is_valid
from .model import (
    DIM,
    MAX_EDGE_WEIGHT,
    MAX_TABLE_SIZE,
    N_POINTS,
    PAIRS,
    Configuration,
    MomentProfile,
    WeightEdge,
    _divisors,
    _has_edge,
    _is_int,
    _record,
    canonicalize,
    config_to_dict,
    sort_key,
)

PRUNE_RULES = ("extremal", "gamma", "slot", "balance", "ring", "final")
_TOGGLES = ("divisibility", "extremal", "gamma", "balance", "ring")


class BudgetExceeded(RuntimeError):
    """The search explored more nodes than the configured node limit."""


class SpecError(ValueError):
    """Search bounds, filters, theorem parameters or the worker count are out of range."""


class SearchSpec(
    _record(
        "SearchSpec",
        "max_weight max_width c1 largest_from require_effective gaps"
        " prune_divisibility prune_extremal prune_gamma prune_balance prune_ring node_limit",
    )
):
    """Bounds, filters and pruning toggles for one enumeration run, checked
    and normalized by ``__new__``.  ``max_width`` None is the proved bound,
    2 * DIM * max_weight; ``gaps``, if given, pins the one gap vector to search."""

    __slots__ = ()

    def __new__(
        cls,
        max_weight: int,
        max_width: int | None = None,
        c1: int | None = None,
        largest_from=(),
        require_effective: bool = False,
        gaps=None,
        prune_divisibility: bool = True,
        prune_extremal: bool = True,
        prune_gamma: bool = True,
        prune_balance: bool = True,
        prune_ring: bool = True,
        node_limit: int | None = None,
    ) -> "SearchSpec":
        for name, v in (("max_weight", max_weight), ("max_width", max_width), ("c1", c1),
                        ("node_limit", node_limit)):
            if v is None and name == "max_width":  # max_weight has passed its check
                max_width = 2 * DIM * max_weight
            elif not _is_int(v) and not (v is None and name in ("c1", "node_limit")):
                raise SpecError(f"{name} must be an integer, got {v!r}")
        toggles = (prune_divisibility, prune_extremal, prune_gamma, prune_balance, prune_ring)
        names = ("require_effective", *(f"prune_{rule}" for rule in _TOGGLES))
        for name, v in zip(names, (require_effective, *toggles)):
            if not isinstance(v, bool):
                raise SpecError(f"{name} must be a boolean, got {v!r}")
        if max_weight < 1:
            raise SpecError("max_weight must be at least 1")
        if max_width < DIM:
            raise SpecError(f"max_width must be at least {DIM}")
        if max_width > MAX_EDGE_WEIGHT:  # every cell gap is at most the width
            raise SpecError(f"max_width {max_width} exceeds {MAX_EDGE_WEIGHT}")
        if c1 is not None and not C1_MIN <= c1 <= C1_MAX:
            raise SpecError(f"c1 must be in [{C1_MIN}, {C1_MAX}], got {c1}")
        if node_limit is not None and node_limit < 0:
            raise SpecError(f"node_limit must be at least 0, got {node_limit}")
        if not isinstance(largest_from, (tuple, list)):
            raise SpecError(f"largest_from must be a list of pairs, got {largest_from!r}")
        for p in largest_from:
            ok = isinstance(p, (tuple, list)) and len(p) == 2 and all(_is_int(v) for v in p)
            if not (ok and 0 <= min(p) < max(p) < N_POINTS):
                raise SpecError(
                    f"largest_from pair {p!r} must join two distinct vertices 0..{N_POINTS - 1}"
                )
        largest_from = tuple(tuple(sorted(p)) for p in largest_from)
        if gaps is not None:
            g = tuple(gaps) if isinstance(gaps, (tuple, list)) else ()
            if len(g) != DIM or not all(_is_int(x) and x >= 1 for x in g):
                raise SpecError(f"gaps must be {DIM} positive integers, got {gaps!r}")
            if sum(g) > max_width:
                raise SpecError(f"gaps {g} are wider than max_width {max_width}")
            if g > g[::-1]:
                raise SpecError(f"gaps {g} are not mirror-canonical; pin {g[::-1]} instead")
            gaps = g
        fields = (max_weight, max_width, c1, largest_from, require_effective, gaps)
        return tuple.__new__(cls, (*fields, *toggles, node_limit))

    def to_dict(self) -> dict:
        return {
            "maxWeight": self.max_weight,
            "maxWidth": self.max_width,
            "c1": self.c1,
            "largestFrom": [list(p) for p in self.largest_from],
            "requireEffective": self.require_effective,
            "gaps": None if self.gaps is None else list(self.gaps),
            "pruningToggles": {rule: getattr(self, f"prune_{rule}") for rule in _TOGGLES},
            "nodeLimit": self.node_limit,
        }


class SearchStats:
    """The node and prune counters of a search, merged in place as its
    chunks finish."""

    __slots__ = ("nodes", "pruned")

    def __init__(self, nodes: int = 0, pruned: dict | None = None) -> None:
        self.nodes = nodes
        self.pruned = {r: 0 for r in PRUNE_RULES} if pruned is None else pruned

    def merge(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        for rule, n in other.pruned.items():
            self.pruned[rule] = self.pruned.get(rule, 0) + n

    def to_dict(self) -> dict:
        return {"nodes": self.nodes, "pruned": dict(self.pruned)}


class SearchResult(namedtuple("SearchResult", "spec configurations stats")):
    """The spec searched, the canonical configurations found, sorted, and
    the search's ``SearchStats``."""

    __slots__ = ()

    def weight_systems(self) -> list[tuple[tuple[int, ...], ...]]:
        return _weight_systems(self.configurations)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "configurations": [config_to_dict(c) for c in self.configurations],
            "statistics": self.stats.to_dict(),
        }


# ---------------------------------------------------------------------------
# gap vectors


def _gap_vectors(spec: SearchSpec) -> list[tuple[int, ...]]:
    """The pinned gap vector, or every mirror-canonical one within the width bound."""
    if spec.gaps is not None:
        return [spec.gaps]
    # cut points a < b < c < d < e give every gap vector, in lexicographic order
    cuts = combinations(range(1, spec.max_width + 1), DIM)
    gaps = ((a, b - a, c - b, d - c, e - d) for a, b, c, d, e in cuts)
    return [g for g in gaps if g <= g[::-1]]


def _gamma_targets(spec: SearchSpec, gaps: tuple[int, ...], phi: tuple[int, ...]) -> list:
    """Per-vertex weight-sum targets, one vector per feasible first-Chern multiple.

    A valid configuration satisfies Gamma_i = Gamma_0 - k phi_i with
    6 Gamma_0 = k sum(phi).  Gamma_0 and the integral target vectors are
    computed once per gap vector; those ``_in_reach`` keeps at floor 1 are
    returned, which prunes most gap vectors outright, and each higher floor
    narrows them further.
    """
    sum_phi = sum(phi)
    ks = (spec.c1,) if spec.c1 is not None else range(C1_MIN, C1_MAX + 1)
    out = []
    for k in ks:
        if (k * sum_phi) % N_POINTS == 0:
            gamma0 = k * sum_phi // N_POINTS
            out.append(tuple([gamma0 - k * v for v in phi]))
    return _in_reach(spec, gaps, out, 1)


def _in_reach(spec: SearchSpec, gaps: tuple[int, ...], targets: list, floor: int) -> list:
    """The ``targets`` whose every entry lies in the interval of weight sums
    its vertex's slots reach with every weight in ``[floor, max_weight]``.  A
    higher floor only narrows these intervals, so a floor need only re-test
    the targets the floor below kept, and a floor that keeps none leaves none
    to every higher one."""
    maxw = spec.max_weight
    out = []
    for t in targets:
        for i, x in enumerate(t):
            lo, hi = (DIM - i) * floor - i * maxw, (DIM - i) * maxw - i * floor
            # an extremal edge's slot carries exactly its gap, not [floor, maxw]
            if spec.prune_extremal and i == 0:
                lo, hi = lo - floor + gaps[0], hi - maxw + gaps[0]
            elif spec.prune_extremal and i == DIM:
                lo, hi = lo + maxw - gaps[DIM - 1], hi + floor - gaps[DIM - 1]
            if not lo <= x <= hi:
                break
        else:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# the per-gap-vector DFS


@cache
def _tables(allowed: tuple[int, ...], wm: int) -> tuple:
    """``tables[m]`` for m = 0..DIM-1: the size-m multisets of the sorted
    ``allowed`` weights sorted by sum, as ``(sums, multisets, counts,
    prods)``, where ``counts[k]`` is how many ``wm`` the k-th multiset holds
    (none for ``wm`` 0) and ``prods[k]`` is the product of its weights, the
    factor the ``ring`` cut charges to the cell's upper vertex
    (``_search_gap``).  Built once per ``(allowed, wm)`` in the process and
    shared by every plan and cell that allows those weights and counts that
    weight.
    No cell places DIM slots: a cell places at most its lower vertex i's
    DIM - i upward slots, and cell (0, 1), vertex 1's only downward cell,
    takes one of vertex 0's before any other cell of row 0.  A SpecError
    refuses ``allowed`` whose largest table would exceed ``MAX_TABLE_SIZE``."""
    size = comb(len(allowed) + DIM - 2, DIM - 1)
    if size > MAX_TABLE_SIZE:
        raise SpecError(
            f"a cell allows {len(allowed)} weights, whose {size} multisets of {DIM - 1} "
            f"exceed {MAX_TABLE_SIZE}"
        )
    built = []
    for m in range(DIM):
        # stable on the lexicographic order the combinations come in
        msets = tuple(sorted(combinations_with_replacement(allowed, m), key=sum))
        counts = tuple(ws.count(wm) for ws in msets)
        built.append((tuple(map(sum, msets)), msets, counts, tuple(map(prod, msets))))
    return tuple(built)


@cache
def _slots(ci: int, up: tuple[int, ...], down: tuple[int, ...]) -> tuple | None:
    """``(moves, cut)``, the slot counts the cells from ``PAIRS[ci]`` on may
    take while vertex v has ``up[v]`` upward and ``down[v]`` downward slots
    open, or ``None`` when no slot matrix (m_ij), upper triangular with row
    sums DIM - i and column sums j, completes.  The candidates at cell (i,
    j) are ``range(lo, min(up[i], down[j]) + 1)``: ``lo`` is ``up[i]`` at
    the cell closing row i, else ``down[j]`` at the cell closing column j,
    else 0; past (DIM - 1, DIM), which closes both, the node is ``((), 0)``
    once every slot is placed.  ``moves`` keeps, ascending, each candidate m
    some slot matrix completes, as ``(m, up[i] - m, down[j] - m, after)``
    with ``after`` the next cell's node; ``cut`` counts the rest.  No weight
    enters, so one walk of 282 states serves the process.
    """
    if ci == len(PAIRS):
        return None if any(up) or any(down) else ((), 0)
    i, j = PAIRS[ci]
    hi = min(up[i], down[j])
    lo = up[i] if j == N_POINTS - 1 else down[j] if i == j - 1 else 0
    moves = []
    for m in range(lo, hi + 1):
        rest_i, rest_j = up[i] - m, down[j] - m
        after = _slots(ci + 1, (*up[:i], rest_i, *up[i + 1 :]), (*down[:j], rest_j, *down[j + 1 :]))
        if after is not None:
            moves.append((m, rest_i, rest_j, after))
    return (tuple(moves), hi + 1 - lo - len(moves)) if moves else None


def _cell_plan(spec: SearchSpec, gaps: tuple[int, ...], phi: tuple[int, ...], floor: int) -> tuple:
    """``(plan, last_floor)`` for one floor: one plan entry per cell (i, j) of
    ``PAIRS``, everything the DFS reads at that cell, and, with ``balance``
    on, the index of the last consecutive cell (v, v + 1) that allows
    ``floor`` (``None`` with it off).  With ``balance`` on and no consecutive
    cell allowing ``floor``, the floor is dead (``_search_gap``) and the
    result is ``(None, None)``, before any table or bound is built.

    A cell allows the divisors of its gap, every weight up to the smaller
    of ``max_weight`` and the width with ``divisibility`` off, or its gap
    alone on the two extremal cells with ``extremal`` on; of these, those at least ``floor``, or, with
    ``balance`` on and j > i + 1, above it.  An entry is ``(i, j, tables,
    row_lo, row_hi, up_j_lo, up_j_hi, down_lo, down_hi)``.  ``tables`` is
    ``_tables`` of the allowed weights; ``counts`` counts ``floor`` there,
    and with ``balance`` off (floor 1) on the cells with j > i + 1 only,
    whose weight-1 slots break the balance.  Then come the (min, max)
    allowed weight over the cells after j in row i; the least and most
    weight sum j's DIM - j upward slots can carry, all still open at (i,
    j); and the (min, max) allowed weight over j's downward cells from rows
    after i.  One backward pass fills them:
    ``rows[v]`` and ``cols[v]`` span the cells already passed in row and
    column v, (0, 0) while none of them allows a weight.  Under a floor a
    cell's allowed weights may be empty (a gap of 2 at floor 3); an empty
    cell that still has slots to fill yields no multiset, so no leaf lies
    below such a bound and any window computed over it is sound.
    """
    balance = spec.prune_balance
    allowed = []
    for i, j in PAIRS:
        if spec.prune_extremal and j == i + 1 and i in (0, DIM - 1):
            ws = (gaps[i],)
        elif spec.prune_divisibility:
            ws = _divisors(phi[j] - phi[i])
            ws = ws[: bisect_right(ws, spec.max_weight)]
        else:
            # a weight above the width divides no gap, so no leaf holds one
            ws = tuple(range(1, min(spec.max_weight, spec.max_width) + 1))
        allowed.append(ws[(bisect_right if balance and j > i + 1 else bisect_left)(ws, floor) :])
    last_floor = None
    if balance:
        consecutive = [ci for ci, (i, j) in enumerate(PAIRS) if j == i + 1 and floor in allowed[ci]]
        if not consecutive:
            return None, None
        last_floor = consecutive[-1]
    rows = [(0, 0)] * N_POINTS
    cols = [(0, 0)] * N_POINTS
    plan: list = [None] * len(PAIRS)
    for ci in reversed(range(len(PAIRS))):
        i, j = PAIRS[ci]
        ws = allowed[ci]
        row_lo, row_hi = rows[i]
        j_lo, j_hi = rows[j]
        down_lo, down_hi = cols[j]
        plan[ci] = (
            i,
            j,
            _tables(ws, floor if balance or j > i + 1 else 0),
            row_lo,
            row_hi,
            (DIM - j) * j_lo,
            (DIM - j) * j_hi,
            down_lo,
            down_hi,
        )
        if ws:
            lo, hi = ws[0], ws[-1]
            rows[i] = (min(row_lo, lo) if row_hi else lo, max(row_hi, hi))
            cols[j] = (min(down_lo, lo) if down_hi else lo, max(down_hi, hi))
    return tuple(plan), last_floor


def _search_gap(spec: SearchSpec, gaps: tuple[int, ...], stats: SearchStats, sink) -> None:
    """DFS over the edge cells of one gap vector, once per floor and weight-sum
    target vector.

    The gap vector is first rejected on the extremal and weight-sum tests,
    and a survivor gets one ``_cell_plan`` per floor it walks.  With
    ``balance`` on, the walk runs once per floor ``wm``, the leaf's global
    smallest weight: each floor keeps the weight-sum targets of the floor
    below that stay feasible with every weight >= ``wm``, and the floors
    from the first that keeps none are skipped.  The global balance (the
    ``wm`` slots leaving level v equal those entering level v + 1) holds
    exactly when every ``wm`` slot joins v and v + 1: the ``wm`` slots
    entering level 1 come only from cell (0, 1), so all of vertex 0's lie
    there, and so on up the levels.  So the floor's plan allows ``wm`` on
    the consecutive cells only and weights above it elsewhere, a floor no
    consecutive cell allows is dead and gets no plan, and
    ``dfs`` counts the ``wm`` slots placed so far: at the last consecutive
    cell that allows ``wm``, a walk holding none yet keeps only the
    multisets that hold one.  ``dfs(ci, seen, slots)`` works from
    ``plan[ci]`` and the ``_slots`` node ``slots`` alone; with targets
    active, each cell keeps only the multisets whose sum leaves both
    endpoint vertices able to reach their targets with the slots they have
    left.

    With ``ring`` on, ``dfs`` also keeps the product of the weights placed
    on each vertex j's downward cells (x, j), and cuts a multiset at cell
    (i, j) that leaves it no divisor of ``cohomology.gap_products``' d[j],
    the product of j's moment gaps to every lower vertex: the leaf's
    ``ring_presentation`` needs the full product to divide d[j], and a
    partial product that does not only grows into a full one that does not.

    ``dfs`` counts in local ints: ``nodes`` starts from ``stats.nodes``, so
    the node limit is tested against the running total, and the
    ``gamma``/``slot``/``balance``/``ring``/``final`` counts start from 0.
    ``balance`` counts the multisets the last floor cell cuts, and one per
    skipped floor; ``ring`` the multisets the product cut drops.  They are
    written back to ``stats`` once, when the gap vector's walks end or a
    ``BudgetExceeded`` leaves them.
    """
    pruned = stats.pruned
    maxw = spec.max_weight
    if spec.prune_extremal and (gaps[0] > maxw or gaps[4] > maxw):
        pruned["extremal"] += 1
        return
    phi = (0, *accumulate(gaps))
    candidates = _gamma_targets(spec, gaps, phi) if spec.prune_gamma else [None]
    if not candidates:
        pruned["gamma"] += 1
        return
    if not spec.prune_balance:
        floors = (1,)
    elif spec.prune_extremal:
        floors = range(1, min(gaps[0], gaps[4]) + 1)
    else:
        # no cell allows a weight above the width (``_cell_plan``)
        floors = range(1, min(maxw, spec.max_width) + 1)
    n_cells = len(PAIRS)
    limit = spec.node_limit
    root = _slots(0, tuple(DIM - v for v in range(N_POINTS)), tuple(range(N_POINTS)))
    psum = [0] * N_POINTS
    # 0 is a multiple of every product, so with ``ring`` off nothing is cut
    gap_prods = cohomology.gap_products(phi) if spec.prune_ring else (0,) * N_POINTS
    pprod = [1] * N_POINTS
    acc: list = [None] * n_cells
    nodes = stats.nodes
    n_gamma = n_slot = n_balance = n_ring = n_final = 0

    def dfs(ci: int, seen: int, slots) -> None:
        nonlocal nodes, n_gamma, n_slot, n_balance, n_ring, n_final
        if ci == n_cells:
            config = _leaf(spec, phi, acc, seen)
            if config is None:
                n_final += 1
            else:
                sink.append(config)
            return
        i, j, tables, row_lo, row_hi, up_j_lo, up_j_hi, down_lo, down_hi = plan[ci]
        moves, cut = slots
        n_slot += cut
        if targets is not None:
            # the cell's weight sum must leave both vertices able to reach
            # their targets with the slots they have left
            need_i = targets[i] - psum[i]
            need_j = psum[j] - targets[j]
            j_lo, j_hi = need_j + up_j_lo, need_j + up_j_hi
        pi, pj = psum[i], psum[j]
        # vertex j's downward weights so far must multiply to a divisor of d[j]
        pp, dj = pprod[j], gap_prods[j]
        # the leaf's last chance of a floor slot
        need = ci == last_floor and not seen
        nxt = ci + 1
        for m, rest_i, rest_j, after in moves:
            sums, msets, counts, prods = tables[m]
            a = 0
            b = n_sets = len(sums)
            if targets is not None:
                lo = need_i - rest_i * row_hi
                x = j_lo - rest_j * down_hi
                if x > lo:
                    lo = x
                hi = need_i - rest_i * row_lo
                x = j_hi - rest_j * down_lo
                if x < hi:
                    hi = x
                a = bisect_left(sums, lo)
                b = bisect_right(sums, hi)
                n_gamma += n_sets - (b - a if b > a else 0)  # multisets cut
                if a >= b:
                    continue
            for k in range(a, b):
                c = counts[k]
                if need and not c:
                    n_balance += 1
                    continue
                p = pp * prods[k]
                if dj % p:
                    n_ring += 1
                    continue
                nodes += 1
                if limit is not None and nodes > limit:
                    raise BudgetExceeded(f"node limit {limit} exceeded")
                s = sums[k]
                psum[i] = pi + s
                psum[j] = pj - s
                pprod[j] = p
                acc[ci] = msets[k]
                dfs(nxt, seen + c, after)
        psum[i], psum[j] = pi, pj
        pprod[j] = pp

    try:
        for n, wm in enumerate(floors):
            if n and spec.prune_gamma:
                candidates = _in_reach(spec, gaps, candidates, wm)
                if not candidates:
                    pruned["gamma"] += len(floors) - n  # every floor from wm up
                    break
            plan, last_floor = _cell_plan(spec, gaps, phi, wm)
            if plan is None:
                n_balance += 1
                continue
            for targets in candidates:
                dfs(0, 0, root)
    finally:
        stats.nodes = nodes
        pruned["gamma"] += n_gamma
        pruned["slot"] += n_slot
        pruned["balance"] += n_balance
        pruned["ring"] += n_ring
        pruned["final"] += n_final


def _leaf(spec: SearchSpec, phi: tuple[int, ...], acc, seen: int) -> Configuration | None:
    """The configuration that the moment values ``phi`` and a complete leaf's
    cells spell, or ``None`` if a gate rejects it; ``acc[ci]`` holds the
    weights of cell ``PAIRS[ci]``.

    The gates run in this order: the global smallest-weight balance,
    ``_uneven`` (most leaves die there), the rule walk's isotropy-component
    pass on the raw cells, then, for the few leaves that pass all three, the
    objects (the moment profile first), ``is_valid``, the filters and
    ``total_chern``.  With ``ring`` on, the walk has already made the
    generator multipliers integral at vertices 1..5, so ``total_chern`` is
    left to reject on duality and on the Chern rows.  ``seen`` is the walk's
    count of floor slots (``_cell_plan``).  With ``balance`` on, the plan
    balances every leaf.  With it off, ``seen`` counts the weight-1 slots on
    cells (i, j) with j > i + 1, and the leaf is rejected if it holds one: on
    a leaf holding a weight-1 slot that is exactly the global rule
    (``_search_gap``), and a leaf without one is left to ``is_valid``.  Each
    screen is a rule ``is_valid`` also checks, so it only rejects earlier.
    """
    if (seen and not spec.prune_balance) or _uneven(acc):
        return None
    edges, weights = _leaf_plain(acc)
    if next(_iter_components(edges, weights), None) is not None:
        return None
    edges = tuple([WeightEdge(*e) for e in edges])
    config = Configuration(MomentProfile(phi), edges, effective=spec.require_effective)
    if (
        not is_valid(config)
        or (spec.c1 is not None and compute_c1(config) != spec.c1)
        or not all(_has_edge(config, i, j, config.max_weight()) for i, j in spec.largest_from)
    ):
        return None
    try:
        cohomology.total_chern(config)
    except cohomology.CohomologyError:
        return None
    return config


@cache
def _pack(ws: tuple[int, ...]) -> tuple[int, int]:
    """``(word, mask)`` for a cell's weights: the 4-bit field at bit 4(k - 2)
    of ``word`` counts those an order k >= 2 divides, and ``mask`` covers
    the fields of the k that divide one.  A vertex sums at most DIM = 5."""
    word = mask = 0
    for w in ws:
        for k in _divisors(w)[1:]:
            word += 1 << 4 * (k - 2)
            mask |= 15 << 4 * (k - 2)
    return word, mask


def _uneven(acc) -> bool:
    """Whether a cell (i, j) holds a k-divisible weight while i and j hold
    unequal counts of them: exactly when ``_iter_components`` finds an
    isotropy component whose divisible-weight counts are not constant."""
    packed = [_pack(ws) for ws in acc]
    vc = [0] * N_POINTS
    for (i, j), (word, _) in zip(PAIRS, packed):
        vc[i] += word
        vc[j] += word
    return any((vc[i] ^ vc[j]) & mask for (i, j), (_, mask) in zip(PAIRS, packed))


def _leaf_plain(acc) -> tuple[list, list]:
    """A leaf's cells, ``acc[ci]`` the weights of ``PAIRS[ci]``, as
    ``(lo, hi, w, 1)`` edges, one per slot, and per-vertex signed weights:
    ``_iter_components`` reads them as it reads ``WeightEdge``s and only sums
    multiplicities (``Configuration`` merges equal weights for the leaves
    that get one)."""
    edges = []
    signed: list[list[int]] = [[] for _ in range(N_POINTS)]
    for (i, j), weights in zip(PAIRS, acc):
        signed[i] += weights
        signed[j] += [-w for w in weights]
        edges += [(i, j, w, 1) for w in weights]
    return edges, signed


def _search_chunk(spec: SearchSpec, gap_chunk) -> tuple[list[Configuration], SearchStats]:
    stats = SearchStats()
    sink: list[Configuration] = []
    for gaps in gap_chunk:
        _search_gap(spec, gaps, stats, sink)
    return sink, stats


def _worker_count(workers: int | None) -> int:
    """``workers``, or ``HAMFIX_THREADS``, or every core; ``SpecError`` unless
    that is an integer of at least 1."""
    if workers is None:
        env = os.environ.get("HAMFIX_THREADS")
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise SpecError(f"HAMFIX_THREADS must be an integer, got {env!r}") from None
        if workers < 1:
            raise SpecError(f"HAMFIX_THREADS must be at least 1, got {env!r}")
    elif not _is_int(workers) or workers < 1:
        raise SpecError(f"worker count must be an integer of at least 1, got {workers!r}")
    return workers


def enumerate_configurations(spec: SearchSpec, workers: int | None = None) -> SearchResult:
    """All canonical configurations within the given bounds passing every check.

    Deterministic: the result, statistics included, is byte-identical
    across worker counts, and ``BudgetExceeded`` is raised exactly when the
    total node count exceeds ``spec.node_limit``; a worker pool stops as
    soon as the chunks merged so far exceed it.  Never cached: each call
    searches.
    """
    gaps = _gap_vectors(spec)
    workers = min(_worker_count(workers), len(gaps) or 1)
    if workers == 1:
        configs, stats = _search_chunk(spec, gaps)
    else:
        # imported here so that importing hamfix loads no process machinery
        from concurrent.futures import ProcessPoolExecutor

        stats = SearchStats()
        configs = []
        chunk_size = max(1, len(gaps) // (workers * 8))
        chunks = [gaps[i : i + chunk_size] for i in range(0, len(gaps), chunk_size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                for sink, st in pool.map(_search_chunk, [spec] * len(chunks), chunks):
                    configs.extend(sink)
                    stats.merge(st)
                    # a chunk raises only when it alone exceeds the limit
                    if spec.node_limit is not None and stats.nodes > spec.node_limit:
                        raise BudgetExceeded(f"node limit {spec.node_limit} exceeded")
            except BudgetExceeded:
                pool.shutdown(cancel_futures=True)
                raise
    configs = sorted({c for c in configs if canonicalize(c) == c}, key=sort_key)
    return SearchResult(spec, tuple(configs), stats)


# ---------------------------------------------------------------------------
# theorem-level verifiers

#: the exhaustive searches the verifiers share, one per spec for the process
_POOL: dict[SearchSpec, SearchResult] = {}


def _pool(spec: SearchSpec, workers: int | None) -> SearchResult:
    """``enumerate_configurations(spec)`` for all four verifiers, searched once per process.

    The key leaves out the worker count, which never changes a result; the
    count is still checked on every call, so a cached spec rejects it too.
    Every verifier of the spec gets the same result object, to read only.
    """
    workers = _worker_count(workers)
    res = _POOL.get(spec)
    if res is None:
        res = _POOL[spec] = enumerate_configurations(spec, workers=workers)
    return res


class TheoremReport(namedtuple("TheoremReport", "name passed summary data stats")):
    """A verifier's verdict, one-line summary, ``data`` document and the
    statistics of the search it read."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "summary": self.summary,
            "data": self.data,
            "statistics": self.stats.to_dict(),
        }


def _weight_systems(configs) -> list[tuple[tuple[int, ...], ...]]:
    """Distinct per-vertex weight multisets realized, sorted."""
    return sorted({c.weight_system.weights for c in configs})


def _width_clause(spec: SearchSpec) -> str:
    """The width searched and whether it covers the proved bound."""
    bound = 2 * DIM * spec.max_weight
    verdict = "covers" if spec.max_width >= bound else "is below"
    return f"width <= {spec.max_width} {verdict} the proved bound {bound}"


def o_weight_system() -> tuple[tuple[int, ...], ...]:
    from .examples import builtin

    return _weight_systems([builtin("o")])[0]


def verify_theorem1(
    max_width: int | None = None, max_weight: int = 4, workers: int | None = None
) -> TheoremReport:
    """No valid configuration has all weights at most 4.

    The default width bound 2*5*max_weight (40 at weight 4) is exhaustive:
    the extremal weight sums differ by at most that, and by at least the
    first-Chern multiple (>= 1) times the width.  With ``max_weight`` >= 5
    the run demonstrates sharpness instead: the search is nonempty and
    contains the coadjoint-orbit weight system.  The summary ends with the
    width searched and whether it covers that bound.
    """
    res = _pool(SearchSpec(max_weight, max_width), workers)
    systems = res.weight_systems()
    if max_weight <= 4:
        passed = not res.configurations
        summary = (
            f"no valid configuration with weights <= {max_weight}"
            if passed
            else f"counterexample found: {len(res.configurations)} configurations"
        )
    else:
        passed = o_weight_system() in systems
        summary = (
            f"bound is sharp: {len(systems)} weight systems at max weight {max_weight}, "
            "including the coadjoint-orbit one"
            if passed
            else "coadjoint-orbit weight system missing from the pool"
        )
    summary += f"; {_width_clause(res.spec)}"
    return TheoremReport(
        "thm1",
        passed,
        summary,
        {
            "configurations": len(res.configurations),
            "weight_systems": [[list(w) for w in ws] for ws in systems],
            "width_bound_rationale": (
                f"extremal weight sums differ by at most {2 * DIM * max_weight} and by "
                f"at least width, so width <= {2 * DIM * max_weight}"
            ),
        },
        res.stats,
    )


def verify_theorem2(max_width: int | None = None, workers: int | None = None) -> TheoremReport:
    """Equivalence of three descriptions of the largest-weight-5 pool.

    Over all valid configurations whose largest weight is exactly 5 (by
    default within the proved width bound 50), the following select the
    same subset: (1) first-Chern multiple 3; (2) a largest-weight edge
    between the extremes spanning half the width; (3) largest-weight edges
    (1,3) and (2,4) spanning the corresponding gaps, with mirror-equal
    extremal gaps.  Members carry |5| exactly once at each endpoint.  The
    summary names the width searched and whether it covers that bound.
    """
    res = _pool(SearchSpec(5, max_width), workers)
    pool = [c for c in res.configurations if c.max_weight() == 5]
    set1, set2, set3 = [], [], []
    pool_c1 = [compute_c1(c) for c in pool]
    for idx, c in enumerate(pool):
        phi = c.profile.values
        if pool_c1[idx] == 3:
            set1.append(idx)
        if _has_edge(c, 0, 5, 5) and phi[5] - phi[0] == 10:
            set2.append(idx)
        if (
            _has_edge(c, 1, 3, 5)
            and _has_edge(c, 2, 4, 5)
            and phi[3] - phi[1] == 5
            and phi[4] - phi[2] == 5
            and phi[1] - phi[0] == phi[5] - phi[4]
        ):
            set3.append(idx)
    equal = set1 == set2 == set3
    # the three simple edges cover each of the six vertices once
    simple = all(
        sorted((e.lo, e.hi, e.mult) for e in pool[idx].edges if e.w == 5)
        == [(0, 5, 1), (1, 3, 1), (2, 4, 1)]
        for idx in set1
    )
    passed = equal and simple
    summary = (
        f"pool of {len(pool)} configurations: conditions select "
        f"{len(set1)}/{len(set2)}/{len(set3)} members; "
        + ("equivalent" if equal else "NOT equivalent")
        + (", |5| simple at every endpoint" if simple else ", multiplicity failure")
        + f"; {_width_clause(res.spec)}"
    )
    return TheoremReport(
        "thm2",
        passed,
        summary,
        {
            "pool": len(pool),
            "c1_3": set1,
            "edge_05_half_width": set2,
            "edges_13_24": set3,
            "pool_c1": pool_c1,
        },
        res.stats,
    )


def verify_theorem3(workers: int | None = None) -> TheoremReport:
    """Uniqueness of the width-10 largest-weight-5 extremal-edge data.

    Among valid configurations with largest weight 5 on an edge between the
    extremes and width 10, exactly one weight system survives: the
    coadjoint-orbit one, with gaps (1, 3, 2, 3, 1), one weight between any
    pair of points, and ring multipliers (1, 1, 1/3, 1/6, 1/18, 1/18).
    The members are read off the shared (5, 10) pool; the (0, 5) edge is
    its own mirror image, so the canonical members are those a search
    filtered to it would keep.
    """
    res = _pool(SearchSpec(5, 10), workers)
    sel = [
        c
        for c in res.configurations
        if c.profile.width == 10 and c.max_weight() == 5 and _has_edge(c, 0, 5, 5)
    ]
    systems = _weight_systems(sel)
    data: dict = {"configurations": len(sel), "weight_systems": len(systems)}
    passed = len(systems) == 1 and systems[0] == o_weight_system()
    if sel:
        rep = min(sel, key=sort_key)
        gaps = rep.profile.gaps
        simple_pairing = len(rep.edges) == 15 and all(e.mult == 1 for e in rep.edges) and len(
            {(e.lo, e.hi) for e in rep.edges}
        ) == 15
        ring_q = [str(q) for q in cohomology.ring_presentation(rep).q]
        data.update(
            {
                "gaps": list(gaps),
                "one_edge_per_pair": simple_pairing,
                "ring_q": ring_q,
            }
        )
        passed = (
            passed
            and gaps == (1, 3, 2, 3, 1)
            and simple_pairing
            and ring_q == ["1", "1", "1/3", "1/6", "1/18", "1/18"]
        )
    summary = (
        "unique weight system with the expected gaps, pairing and ring"
        if passed
        else f"expected a unique weight system, found {len(systems)}"
    )
    return TheoremReport("thm3", passed, summary, data, res.stats)


def theorem4_weight_system(a: int, c: int) -> tuple[tuple[int, ...], ...]:
    """The parametric weight multisets for extremal gap a and second gap c = 3b."""
    b = c // 3
    w0 = (a, a + 3 * b, a + b, a + 2 * b, 2 * a + 3 * b)
    w1 = (-a, b, 2 * a + 3 * b, a + 3 * b, a + 2 * b)
    w2 = (-a - 3 * b, -b, a, 2 * a + 3 * b, a + b)
    rows = [w0, w1, w2, tuple(-x for x in w2), tuple(-x for x in w1), tuple(-x for x in w0)]
    return tuple(tuple(sorted(r)) for r in rows)


def verify_theorem4(a: int, c: int, workers: int | None = None) -> TheoremReport:
    """Parametric uniqueness under the full largest-weight hypotheses.

    For gaps (a, c, 2a, c, a) with the largest weight 2a+c on edges (0,5),
    (1,3) and (2,4), effectiveness forces gcd(a, c/3) = 1 and exactly one
    weight system survives: the parametric one, reducing to the
    coadjoint-orbit data at (a, c) = (1, 3).  The pooled search pins that one
    gap vector; only the largest-weight hypothesis is read off its result.
    """
    if not (_is_int(a) and _is_int(c)):
        raise SpecError(f"a and c must be integers, got a={a!r}, c={c!r}")
    if a < 1 or c < 1:
        raise SpecError("a and c must be positive integers")
    if c % 3 != 0:
        raise SpecError(f"c must be divisible by 3, got {c}")
    if gcd(a, c // 3) != 1:
        raise SpecError(
            f"the predicted weights have gcd {gcd(a, c // 3)} > 1; "
            "the action would not be effective"
        )
    w = 2 * a + c
    res = _pool(
        SearchSpec(
            w,
            2 * w,
            largest_from=((0, 5), (1, 3), (2, 4)),
            require_effective=True,
            gaps=(a, c, 2 * a, c, a),
        ),
        workers,
    )
    sel = [cfg for cfg in res.configurations if cfg.max_weight() == w]
    systems = _weight_systems(sel)
    expected = theorem4_weight_system(a, c)
    passed = systems == [expected]
    data = {
        "a": a,
        "c": c,
        "largest_weight": w,
        "configurations": len(sel),
        "weight_systems": [[list(r) for r in ws] for ws in systems],
        "expected": [list(r) for r in expected],
    }
    summary = (
        f"unique weight system matches the parametric data for (a, c) = ({a}, {c})"
        if passed
        else f"expected the parametric weight system, found {len(systems)}"
    )
    return TheoremReport("thm4", passed, summary, data, res.stats)
