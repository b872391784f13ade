"""Combinatorial fixed-point data for Hamiltonian circle actions.

The central object is a :class:`Configuration`: the integer moment values of
six isolated fixed points of a circle action on a ten-dimensional manifold,
together with a multiset of weighted edges pairing positive and negative
weight slots between the points.  Everything downstream (constraint checks,
cohomology, search) consumes these values.

Conventions baked into the types:

* fixed points are indexed ``0..5`` in increasing moment order, so point
  ``i`` has Morse index ``2i`` and carries ``i`` downward and ``5 - i``
  upward weight slots;
* the moment map is normalized so the minimum value is ``0``;
* an edge ``(lo, hi, w, mult)`` contributes ``mult`` copies of ``+w`` at
  ``lo`` and ``mult`` copies of ``-w`` at ``hi``; a :class:`WeightEdge` is
  that named tuple, the one edge format every rule and the search read.

Constructors validate only the *shape* of the data (index ranges, positive
weights, increasing moment values).  Slot-count structure is checked by
:func:`validate_structure`, and everything else (divisibility, mod-k
consistency, ...) is reported by the ``constraints`` module so that invalid
data remains representable and inspectable.

The :class:`WeightSystem` every check and invariant reads is derived once
per configuration, by the cached ``Configuration.weight_system``; a failed
derivation (a :class:`StructureError`) is not cached.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from functools import cache, cached_property
from math import isqrt, prod

N_POINTS = 6
DIM = 5  # complex dimension: five weights per fixed point

#: all unordered vertex pairs (lo < hi), in lexicographic order
PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(N_POINTS) for j in range(i + 1, N_POINTS)
)


class StructureError(ValueError):
    """A configuration violates the slot-count structure."""


class SchemaError(ValueError):
    """A JSON document does not match the configuration schema."""


class WeightEdge(namedtuple("WeightEdge", "lo hi w mult", defaults=(1,))):
    """``mult`` parallel weight-``w`` edges from vertex ``lo`` up to ``hi``,
    a named tuple whose ``__new__`` (called on unpickling too) checks them."""

    __slots__ = ()
    # namedtuple's own _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, lo: int, hi: int, w: int, mult: int = 1) -> "WeightEdge":
        if not (0 <= lo < hi < N_POINTS):
            raise ValueError(f"edge endpoints out of range: ({lo}, {hi})")
        if w < 1:
            raise ValueError(f"edge weight must be positive, got {w}")
        if mult < 1:
            raise ValueError(f"edge multiplicity must be positive, got {mult}")
        # the tuple itself: namedtuple's generated __new__ would bind the fields again
        return tuple.__new__(cls, (lo, hi, w, mult))


@dataclass(frozen=True)
class MomentProfile:
    """Strictly increasing integer moment values, normalized to start at 0."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        if not all(_is_int(v) for v in vals):
            raise ValueError(f"moment values must be integers, got {vals}")
        object.__setattr__(self, "values", vals)
        if len(vals) != N_POINTS:
            raise ValueError(f"expected {N_POINTS} moment values, got {len(vals)}")
        if vals[0] != 0:
            raise ValueError("moment values must be normalized so the minimum is 0")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"moment values must be strictly increasing: {vals}")

    @classmethod
    def from_gaps(cls, gaps) -> "MomentProfile":
        vals = [0]
        for g in gaps:
            vals.append(vals[-1] + g)
        return cls(tuple(vals))

    @property
    def gaps(self) -> tuple[int, ...]:
        v = self.values
        return tuple(v[i + 1] - v[i] for i in range(N_POINTS - 1))

    @property
    def width(self) -> int:
        return self.values[-1]


@dataclass(frozen=True)
class Configuration:
    """Moment profile plus the edge multiset; the object every check consumes.

    Edges are sorted once by ``(lo, hi, w)`` on construction, keeping the caller's
    validated ``WeightEdge`` objects: only merged parallel edges (and edges of another
    type) are new.  That makes equality, hashing and serialization canonical; the
    cached :attr:`weight_system` is not a field, so it takes no part in them.
    """

    profile: MomentProfile
    edges: tuple[WeightEdge, ...]
    label: str = ""
    effective: bool = False

    def __post_init__(self) -> None:
        edges = sorted([e if type(e) is WeightEdge else WeightEdge(e.lo, e.hi, e.w, e.mult)
                        for e in self.edges])
        norm = edges[:1]
        for e in edges[1:]:
            p = norm[-1]
            if e[2] == p[2] and e[:2] == p[:2]:  # parallel (w first, the cheap test): merge
                norm[-1] = WeightEdge(e.lo, e.hi, e.w, p.mult + e.mult)
            else:
                norm.append(e)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def moment(self) -> tuple[int, ...]:
        return self.profile.values

    def max_weight(self) -> int:
        return max(e.w for e in self.edges) if self.edges else 0

    @cached_property
    def weight_system(self) -> "WeightSystem":
        """The edge multiset unfolded into per-vertex signed weight multisets.

        Derived on first read and cached; raises :class:`StructureError`,
        which is not cached, when the slot counts are wrong.
        """
        validate_structure(self)
        signed: list[list[int]] = [[] for _ in range(N_POINTS)]
        for e in self.edges:
            signed[e.lo].extend([e.w] * e.mult)
            signed[e.hi].extend([-e.w] * e.mult)
        weights = tuple([tuple(sorted(ws)) for ws in signed])
        return WeightSystem(
            weights,
            tuple([sum(ws) for ws in weights]),
            tuple([prod([w for w in ws if w < 0]) for ws in weights]),
            tuple([prod(ws) for ws in weights]),
        )


@dataclass(frozen=True)
class WeightSystem:
    """Per-vertex signed weight multisets with their sums and products.

    ``weights[i]`` is the sorted multiset of the five signed weights at
    vertex ``i``; ``gamma[i]`` its sum; ``lam_minus[i]`` the product of its
    negative entries (empty product = 1); ``lam[i]`` the product of all.
    """

    weights: tuple[tuple[int, ...], ...]
    gamma: tuple[int, ...]
    lam_minus: tuple[int, ...]
    lam: tuple[int, ...]


@dataclass(frozen=True)
class IsotropyComponent:
    """One connected component of the subgraph of edges with ``k | w``.

    ``within_degree``/``within_down`` count the slots (total / downward)
    each member vertex has inside the subgraph.  Every component is
    *saturated*: ``within_degree`` also counts the weights ``k`` divides in
    the vertex's full weight multiset, because each such weight at ``v``
    comes from a ``k``-divisible edge at ``v``, and that edge lies in
    ``v``'s component.  So every component models a full fixed submanifold
    of the order-``k`` subgroup.
    """

    k: int
    vertices: tuple[int, ...]
    within_degree: tuple[int, ...]
    within_down: tuple[int, ...]
    edges: tuple[WeightEdge, ...]


# ---------------------------------------------------------------------------
# structural validation


def slot_counts(c: Configuration) -> tuple[list[int], list[int]]:
    """Return ``(up, down)`` slot counts per vertex."""
    up = [0] * N_POINTS
    down = [0] * N_POINTS
    for e in c.edges:
        up[e.lo] += e.mult
        down[e.hi] += e.mult
    return up, down


def structure_problems(c: Configuration) -> list[str]:
    """Describe every slot-count violation; empty iff structurally valid."""
    up, down = slot_counts(c)
    problems = []
    for v in range(N_POINTS):
        total = up[v] + down[v]
        if total != DIM:
            problems.append(f"vertex {v} has {total} slots, expected {DIM}")
        if down[v] != v:
            problems.append(f"vertex {v} has {down[v]} downward slots, expected {v}")
    return problems


def validate_structure(c: Configuration) -> None:
    problems = structure_problems(c)
    if problems:
        raise StructureError("; ".join(problems))


# ---------------------------------------------------------------------------
# derived data


def derive_weight_system(c: Configuration) -> WeightSystem:
    """Unfold the edge multiset into per-vertex signed weight multisets:
    ``c.weight_system``, derived once per configuration."""
    return c.weight_system


def isotropy_components(c: Configuration, k: int) -> list[IsotropyComponent]:
    """Connected components of the subgraph of edges whose weight ``k`` divides.

    Components come in order of their lowest vertex.
    """
    if k < 2:
        raise ValueError(f"isotropy order must be at least 2, got {k}")
    validate_structure(c)
    return [
        IsotropyComponent(
            k=k,
            vertices=vertices,
            within_degree=tuple(map(within.__getitem__, vertices)),
            within_down=tuple(map(down.__getitem__, vertices)),
            edges=tuple(edges),
        )
        for order, vertices, within, down, edges in _isotropy(c.edges)
        if order == k
    ]


def _isotropy(edges):
    """Every isotropy component of ``(lo, hi, w, mult)`` edges, as
    ``(k, vertices, within, down, edges)``, by order k >= 2 dividing an edge
    weight, ascending, then by lowest vertex.  One sweep over the edges
    fills, for every order at once, the mask of the pairs its edges join,
    ``within[v]`` and ``down[v]`` (vertex v's slots, total / downward, among
    them, all in v's component) and the edges in input order; ``_split``
    cuts each mask into components.
    """
    table: dict[int, list] = defaultdict(lambda: [0, [0] * N_POINTS, [0] * N_POINTS, []])
    for e in edges:
        lo, hi, w, m = e
        for k in _divisors(w)[1:]:
            t = table[k]
            t[0] |= 1 << N_POINTS * lo + hi
            t[1][lo] += m
            t[1][hi] += m
            t[2][hi] += m
            t[3].append(e)
    for k in sorted(table):
        pairs, within, down, kedges = table[k]
        for vertices, mask in _split(pairs):
            yield k, vertices, within, down, [e for e in kedges if mask >> e[0] & 1]


@cache
def _split(pairs: int) -> tuple:
    """The components of the graph joining lo < hi where bit ``N_POINTS *
    lo + hi`` of ``pairs`` is set, by lowest vertex, as ``(vertices, mask)``
    with bit v of ``mask`` set for each member v; one entry per edge set."""
    masks = [1 << v for v in range(N_POINTS)]  # masks[v]: v's component so far
    for lo, hi in PAIRS:
        if pairs >> N_POINTS * lo + hi & 1:
            joined = masks[lo] | masks[hi]
            masks = [joined if m & joined else m for m in masks]
    return tuple(
        (tuple(u for u in range(N_POINTS) if m >> u & 1), m)
        for v, m in enumerate(masks)
        if m != 1 << v and m & -m == 1 << v
    )


#: the largest edge weight the CLI accepts and the widest ``SearchSpec``: ``_divisors``
#: trial-divides a weight or cell gap up to its square root, a million steps here
MAX_EDGE_WEIGHT = 10**12


@cache
def _divisors(w: int) -> tuple[int, ...]:
    """The divisors of ``w``, ascending, from the pairs (d, w // d), d <= isqrt(w)."""
    low = [d for d in range(1, isqrt(w) + 1) if w % d == 0]
    return tuple(low + [w // d for d in reversed(low) if d * d != w])


# ---------------------------------------------------------------------------
# flip symmetry and canonical form


def flip(c: Configuration) -> Configuration:
    """The same data under the reversed circle action."""
    prof = MomentProfile(tuple(c.profile.width - v for v in reversed(c.moment)))
    edges = tuple(
        WeightEdge(N_POINTS - 1 - e.hi, N_POINTS - 1 - e.lo, e.w, e.mult)
        for e in c.edges
    )
    return Configuration(prof, edges, label=c.label, effective=c.effective)


def sort_key(c: Configuration):
    return (c.profile.values, c.edges)


def canonicalize(c: Configuration) -> Configuration:
    """The lexicographically smaller of ``c`` and its flip; idempotent."""
    f = flip(c)
    return c if sort_key(c) <= sort_key(f) else f


def _has_edge(c: Configuration, lo: int, hi: int, w: int) -> bool:
    """Whether ``c`` has an edge of weight ``w`` between vertices ``lo`` < ``hi``."""
    i = bisect_left(c.edges, (lo, hi, w))
    return i < len(c.edges) and c.edges[i][:3] == (lo, hi, w)


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: { "label": str, "moment": [6 ints, increasing, first 0],
#           "edges": [ {"lo": int, "hi": int, "w": int, "mult": int}, ... ],
#           "effective": bool }   -- edges sorted by (lo, hi, w).


def config_to_dict(c: Configuration) -> dict:
    return {
        "label": c.label,
        "moment": list(c.profile.values),
        "edges": [
            {"lo": e.lo, "hi": e.hi, "w": e.w, "mult": e.mult} for e in c.edges
        ],
        "effective": c.effective,
    }


def _is_int(v) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass but not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def _reject_unknown_keys(d: dict, keys: tuple[str, ...], what: str) -> None:
    unknown = [repr(k) for k in d if k not in keys]
    if unknown:
        raise SchemaError(f"unknown {what} keys: {', '.join(unknown)}")


def config_from_dict(d) -> Configuration:
    if not isinstance(d, dict):
        raise SchemaError("configuration document must be a JSON object")
    for key in ("moment", "edges"):
        if key not in d:
            raise SchemaError(f"missing required key {key!r}")
    _reject_unknown_keys(d, ("label", "moment", "edges", "effective"), "configuration")
    moment = d["moment"]
    if not isinstance(moment, list) or not all(_is_int(v) for v in moment):
        raise SchemaError("'moment' must be a list of integers")
    raw_edges = d["edges"]
    if not isinstance(raw_edges, list):
        raise SchemaError("'edges' must be a list")
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise SchemaError("each edge must be an object")
        _reject_unknown_keys(item, ("lo", "hi", "w", "mult"), "edge")
        fields = [item.get(key) for key in ("lo", "hi", "w")] + [item.get("mult", 1)]
        if not all(_is_int(v) for v in fields):
            raise SchemaError(f"bad edge entry {item!r}: lo, hi, w, mult must be integers")
        try:
            edges.append(WeightEdge(*fields))
        except ValueError as exc:
            raise SchemaError(f"bad edge entry {item!r}: {exc}") from exc
    label = d.get("label", "")
    effective = d.get("effective", False)
    if not isinstance(label, str):
        raise SchemaError("'label' must be a string")
    if not isinstance(effective, bool):
        raise SchemaError("'effective' must be true or false")
    try:
        profile = MomentProfile(tuple(moment))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return Configuration(profile, tuple(edges), label=label, effective=effective)


def config_dumps(c: Configuration) -> str:
    return json.dumps(config_to_dict(c), indent=2)


def config_loads(text: str) -> Configuration:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return config_from_dict(doc)
