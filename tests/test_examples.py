"""Builtin families, parameter validation, and the torus projection."""

from __future__ import annotations

import pytest

from hamfix import (
    DegenerateDirection,
    ParamError,
    builtin,
    canonicalize,
    check_all,
    derive_weight_system,
    o_gkm_graph,
    project_gkm,
)
from hamfix.model import sort_key


def test_builtins_pass_with_expected_c1():
    for name, params, c1 in (
        ("o", (), 3),
        ("cp5", (1, 1, 1, 1, 1), 6),
        ("grass", (1, 1, 2), 5),
        ("remark_w7", (), 3),
    ):
        c = builtin(name, *params)
        report = check_all(c)
        assert report.passed and report.c1 == c1
        assert c.effective


def test_cp5_weights_are_full_gaps():
    c = builtin("cp5", 1, 2, 1, 1, 2)
    phi = c.moment
    assert len(c.edges) == 15
    for e in c.edges:
        assert e.w == phi[e.hi] - phi[e.lo]
    ws = derive_weight_system(c)
    assert ws.weights[0] == tuple(sorted(phi[j] - phi[0] for j in range(1, 6)))


def test_cp5_gamma_gap_relation():
    # the weight-sum drop across the bottom gap is six times the gap
    for params in ((1, 1, 1, 1, 1), (2, 1, 3, 1, 2), (1, 1, 1, 1, 5)):
        c = builtin("cp5", *params)
        ws = derive_weight_system(c)
        assert ws.gamma[0] - ws.gamma[1] == 6 * (c.moment[1] - c.moment[0])


def test_grass_antipodal_half_gaps():
    c = builtin("grass", 1, 1, 2)
    assert c.moment == (0, 1, 2, 4, 5, 6)
    by_pair = {(e.lo, e.hi): e.w for e in c.edges}
    for i in range(3):
        j = 5 - i
        assert by_pair[(i, j)] == (c.moment[j] - c.moment[i]) // 2
    ws = derive_weight_system(c)
    assert ws.weights[0] == (1, 2, 3, 4, 5)


def test_param_validation():
    with pytest.raises(ParamError):
        builtin("cp5", 0, 1, 1, 1, 1)
    with pytest.raises(ParamError):
        builtin("grass", 1, 1, 3)  # odd antipodal parameter
    with pytest.raises(ParamError):
        builtin("grass", 0, 1, 2)
    with pytest.raises(ParamError):
        builtin("o", 1)
    with pytest.raises(ParamError):
        builtin("nope")
    with pytest.raises(ParamError):
        builtin("cp5", 1.9, 1, 1, 1, 1)  # never truncated to 1
    with pytest.raises(ParamError):
        builtin("grass", True, 1, 2)


def test_projection_reproduces_builtin():
    proj = canonicalize(project_gkm(o_gkm_graph(), (1, 2)))
    o = builtin("o")
    assert sort_key(proj) == sort_key(o)
    assert proj._replace(label="o") == o


def test_projection_moment_values():
    proj = project_gkm(o_gkm_graph(), (1, 2))
    # the bottom vertex pairs to -5 and is shifted to 0
    assert proj.moment == (0, 1, 4, 6, 9, 10)
    assert check_all(proj).passed


def test_projection_degenerate_directions():
    with pytest.raises(DegenerateDirection):
        project_gkm(o_gkm_graph(), (1, 0))  # kills an edge and merges vertices
    with pytest.raises(DegenerateDirection):
        project_gkm(o_gkm_graph(), (0, 1))


def test_projection_other_direction_is_valid():
    # a second generic direction also yields checkable data
    proj = project_gkm(o_gkm_graph(), (2, 3))
    assert check_all(proj).passed


def test_gkm_graph_shape():
    g = o_gkm_graph()
    assert len(g.vertices) == 6
    assert len(g.edges) == 15
