"""Built-in fixture configurations and the torus-to-circle projection.

Four families are provided:

* ``o`` -- the ten-dimensional coadjoint-orbit example, obtained by
  projecting a two-torus moment graph to the circle generated by the
  direction (1, 2); gaps (1, 3, 2, 3, 1), first Chern multiple 3.
* ``cp5`` -- complex projective five-space with arbitrary positive gaps
  ``a..e``; complete edge graph whose weight is the full moment gap.
* ``grass`` -- the oriented two-plane Grassmannian family; complete graph
  minus antipodal pairs, plus antipodal edges of half the gap.
* ``remark_w7`` -- the weight-7 companion of ``o``: same extremal weight
  sets, gaps (1, 1, 6, 1, 1), first Chern multiple 3.
"""

from __future__ import annotations

from collections import namedtuple

from .model import (
    Configuration,
    MomentProfile,
    N_POINTS,
    WeightEdge,
    _is_int,
    canonicalize,
)


class ParamError(ValueError):
    """Invalid parameters for a builtin family."""


class DegenerateDirection(ValueError):
    """The chosen circle direction collapses an edge weight or two vertices."""


class GKMGraph(namedtuple("GKMGraph", "vertices edges")):
    """A two-torus moment graph: 2D vertex positions and 2D edge weights.

    ``vertices`` holds ``(name, (x, y))`` pairs and ``edges`` holds
    ``(vertex index, vertex index, (x, y) weight)`` triples.
    """

    __slots__ = ()


def o_gkm_graph() -> GKMGraph:
    """The hexagonal moment graph whose (1, 2) projection is builtin('o')."""
    verts = (
        ("U", (-1, -2)),
        ("V", (-2, -1)),
        ("W", (-1, 1)),
        ("X", (1, 2)),
        ("Y", (2, 1)),
        ("Z", (1, -1)),
    )
    idx = {name: i for i, (name, _) in enumerate(verts)}
    raw = (
        ("U", "V", (-1, 1)),
        ("U", "Z", (2, 1)),
        ("U", "W", (0, 1)),
        ("U", "Y", (1, 1)),
        ("U", "X", (1, 2)),
        ("V", "Z", (1, 0)),
        ("V", "W", (1, 2)),
        ("V", "Y", (2, 1)),
        ("V", "X", (1, 1)),
        ("Z", "W", (-1, 1)),
        ("Z", "Y", (1, 2)),
        ("Z", "X", (0, 1)),
        ("W", "Y", (1, 0)),
        ("W", "X", (2, 1)),
        ("Y", "X", (-1, 1)),
    )
    edges = tuple((idx[a], idx[b], w) for a, b, w in raw)
    return GKMGraph(verts, edges)


def project_gkm(g: GKMGraph, xi: tuple[int, int]) -> Configuration:
    """Restrict the torus data to the subcircle generated by direction xi.

    Vertex moment values are the pairings <xi, position> shifted to start
    at 0; each edge weight is |<xi, weight vector>| oriented by moment
    order.  Raises DegenerateDirection when an edge pairs to zero or two
    vertices collide.
    """
    x, y = xi
    values = [x * px + y * py for _, (px, py) in g.vertices]
    if len(set(values)) != N_POINTS:
        raise DegenerateDirection(f"direction {xi} does not separate the vertices")
    order = sorted(range(N_POINTS), key=values.__getitem__)
    rank = {v: r for r, v in enumerate(order)}
    base = min(values)
    moment = tuple(values[v] - base for v in order)
    edges = []
    for a, b, (wx, wy) in g.edges:
        w = x * wx + y * wy
        if w == 0:
            name_a, name_b = g.vertices[a][0], g.vertices[b][0]
            raise DegenerateDirection(
                f"edge {name_a}{name_b} pairs to zero against direction {xi}"
            )
        lo, hi = rank[a], rank[b]
        if lo > hi:
            lo, hi = hi, lo
        edges.append(WeightEdge(lo, hi, abs(w)))
    return Configuration(
        MomentProfile(moment),
        tuple(edges),
        label=f"gkm-projection{tuple(xi)}",
        effective=True,
    )


def _builtin_o() -> Configuration:
    return project_gkm(o_gkm_graph(), (1, 2))._replace(label="o")


def _builtin_cp5(a: int, b: int, c: int, d: int, e: int) -> Configuration:
    gaps = (a, b, c, d, e)
    if any(g < 1 for g in gaps):
        raise ParamError(f"cp5 gaps must be positive integers, got {gaps}")
    prof = MomentProfile.from_gaps(gaps)
    phi = prof.values
    edges = tuple(
        WeightEdge(i, j, phi[j] - phi[i])
        for i in range(N_POINTS)
        for j in range(i + 1, N_POINTS)
    )
    return Configuration(prof, edges, label=f"cp5{gaps}", effective=True)


def _builtin_grass(a: int, b: int, c: int) -> Configuration:
    if a < 1 or b < 1:
        raise ParamError(f"grass requires a, b >= 1, got a={a}, b={b}")
    if c < 2 or c % 2 != 0:
        raise ParamError(f"grass requires even c >= 2, got c={c}")
    prof = MomentProfile.from_gaps((a, b, c, b, a))
    phi = prof.values
    edges = []
    for i in range(N_POINTS):
        for j in range(i + 1, N_POINTS):
            if j == N_POINTS - 1 - i:
                edges.append(WeightEdge(i, j, (phi[j] - phi[i]) // 2))
            else:
                edges.append(WeightEdge(i, j, phi[j] - phi[i]))
    return Configuration(prof, tuple(edges), label=f"grass({a},{b},{c})", effective=True)


#: the unique divisibility-consistent pairing of the weight-7 companion data
_W7_EDGES = (
    (0, 1, 1),
    (0, 2, 2),
    (0, 3, 4),
    (0, 4, 3),
    (0, 5, 5),
    (1, 2, 1),
    (1, 3, 7),
    (1, 4, 2),
    (1, 5, 3),
    (2, 3, 1),
    (2, 4, 7),
    (2, 5, 4),
    (3, 4, 1),
    (3, 5, 2),
    (4, 5, 1),
)


def _builtin_remark_w7() -> Configuration:
    prof = MomentProfile.from_gaps((1, 1, 6, 1, 1))
    edges = tuple(WeightEdge(lo, hi, w) for lo, hi, w in _W7_EDGES)
    return Configuration(prof, edges, label="remark_w7", effective=True)


BUILTIN_NAMES = ("o", "cp5", "grass", "remark_w7")

_ARITY = {"o": 0, "cp5": 5, "grass": 3, "remark_w7": 0}


def builtin(name: str, *params: int) -> Configuration:
    """Construct a builtin configuration; see module docstring for families."""
    if name not in BUILTIN_NAMES:
        raise ParamError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    if len(params) != _ARITY[name]:
        raise ParamError(
            f"builtin {name!r} takes {_ARITY[name]} parameters, got {len(params)}"
        )
    if not all(_is_int(p) for p in params):
        raise ParamError(f"builtin {name!r} parameters must be integers, got {params}")
    if name == "o":
        return canonicalize(_builtin_o())
    if name == "cp5":
        return _builtin_cp5(*params)
    if name == "grass":
        return _builtin_grass(*params)
    return _builtin_remark_w7()
