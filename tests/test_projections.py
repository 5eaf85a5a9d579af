from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from blowups import cli, projections
from blowups.projections import ProjectedConfig, ell_L

F = Fraction

SEGMENT = ProjectedConfig(((0,), (1,), (0,), (0,)))
TRIANGLE5 = ProjectedConfig(((0, 0), (2, 0), (0, 2), (0, 0), (2, 0)))
TRIANGLE3 = ProjectedConfig(((0, 0), (2, 0), (0, 2)))


def test_config_validation():
    with pytest.raises(ValueError, match="^empty configuration$"):
        ProjectedConfig(())
    with pytest.raises(ValueError):
        ProjectedConfig(((0, 0), (0, 0), (0, 0)))  # all equal: degenerate
    with pytest.raises(ValueError):
        ProjectedConfig(((0, 0), (1, 0), (2, 0)))  # collinear in Z^2
    with pytest.raises(ValueError):
        ProjectedConfig(((0,), (1,)), origin_index=5)
    with pytest.raises(ValueError):
        ProjectedConfig(((0, 0, 0, 0), (1, 0, 0, 0)))  # k > 3
    with pytest.raises(ValueError):
        ProjectedConfig(((0, 0), (1,)))


def test_config_refuses_non_integers():
    with pytest.raises(TypeError):
        ProjectedConfig(((0, 0), (2.5, 0), (0, 2)))
    with pytest.raises(TypeError):
        ProjectedConfig(((0,), (F(3, 2),)))
    with pytest.raises(TypeError):
        ProjectedConfig(((0,), (1,)), 1.0)  # once accepted, then ell_L failed


def test_segment_facets_and_widths():
    fs = SEGMENT.facets
    assert {(f.normal, f.offset) for f in fs} == {((1,), 1), ((-1,), 0)}
    assert all(f.width == 1 for f in fs)
    assert ell_L(SEGMENT) == 1


def test_triangle_facets():
    fs = TRIANGLE3.facets
    assert {(f.normal, f.offset) for f in fs} == {
        ((-1, 0), 0), ((0, -1), 0), ((1, 1), 2),
    }
    assert [f.width for f in fs] == [2, 2, 2]


def test_triangle_incident_points_span():
    for f in TRIANGLE5.facets:
        pts = [TRIANGLE5.points[i] for i in f.incident]
        assert len(set(pts)) >= 2  # a 1-face of a 2-polytope


def test_triangle_ell():
    # the duplicated origin point counts as a non-origin s_i, capping ell at 1
    assert ell_L(TRIANGLE5) == 1


def test_ell_precondition_violated():
    # every non-origin point lies on the facet x+y=2: the min over an empty
    # set is +infinity, so there is no finite bound
    assert ell_L(TRIANGLE3) is None


def test_ell_interior_origin():
    # origin strictly inside [-1, 1]: both facets contribute, each ratio
    # min(1/2 from the far endpoint, 1 from the duplicate origin point)
    cfg = ProjectedConfig(((0,), (1,), (-1,), (0,)))
    assert ell_L(cfg) == F(1, 2)


def test_ell_origin_on_facet_contributes_zero():
    # origin at a vertex of [0, 1]: the facet through it is skipped; the
    # other facet sees the duplicated origin at distance 1
    cfg = ProjectedConfig(((0,), (1,), (0,), (0,)))
    fs = cfg.facets
    d0 = {f.offset - sum(a * b for a, b in zip(f.normal, (0,))) for f in fs}
    assert 0 in d0  # one facet passes through the origin image
    assert ell_L(cfg) == 1


def test_three_dimensional_example():
    cfg = ProjectedConfig(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    fs = cfg.facets
    normals = {f.normal for f in fs}
    assert normals == {
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
        (1, 1, -1), (1, -1, 1), (-1, 1, 1),
    }
    widths = {f.normal: f.width for f in fs}
    assert widths[(-1, 0, 0)] == 1 and widths[(1, 1, -1)] == 2
    assert ell_L(cfg) == F(1, 2)


def test_unimodular_invariance_of_ell():
    # x -> (x1 + x2, x2) is a lattice isomorphism of Z^2
    mapped = ProjectedConfig(
        tuple((p[0] + p[1], p[1]) for p in TRIANGLE5.points)
    )
    assert ell_L(mapped) == ell_L(TRIANGLE5)


def test_sublattice_scaling_of_widths():
    doubled = ProjectedConfig(tuple((2 * p[0], 2 * p[1]) for p in TRIANGLE5.points))
    base = {f.normal: f.width for f in TRIANGLE5.facets}
    scaled = {f.normal: f.width for f in doubled.facets}
    assert scaled == {k: 2 * v for k, v in base.items()}


def test_ell_bounded_by_max_facet_width():
    for cfg in (SEGMENT, TRIANGLE5):
        widths = [f.width for f in cfg.facets]
        assert ell_L(cfg) <= max(widths)


def test_facets_deterministic_order():
    a = [(f.normal, f.offset, f.incident) for f in TRIANGLE5.facets]
    rebuilt = ProjectedConfig(TRIANGLE5.points)
    b = [(f.normal, f.offset, f.incident) for f in rebuilt.facets]
    assert a == b == sorted(a)
    assert rebuilt == TRIANGLE5  # the facets take no part in equality


def test_width_command_searches_the_subsets_once(monkeypatch, capsys):
    # the spanning check, the facet list and ell_L share one search, so each
    # k-subset of the distinct points gets at most one normal
    calls = []
    normal = projections._normal
    monkeypatch.setattr(projections, "_normal", lambda sub: calls.append(sub) or normal(sub))
    points = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 0, 0]]
    assert cli.main(["width", "--points", str(points)]) == 0
    assert json.loads(capsys.readouterr().out)["ell_L"] == "1/2"
    assert 0 < len(calls) <= comb(5, 3)


# ------------------------------------------- the elimination-based reference


def _affine_rank(pts) -> int:
    """Rank of the differences to the first point, by Fraction elimination."""
    rows = [[F(a - b) for a, b in zip(p, pts[0])] for p in pts[1:]]
    rank = 0
    for col in range(len(pts[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _reference_facets(pts, k):
    """(normal, offset, incident) of every facet: each candidate normal from a
    k-subset, at both extremes, kept when the points on it have rank k - 1."""
    normals = set()
    for sub in itertools.combinations(sorted(set(pts)), k):
        if k == 1:
            n = (1,)
        elif k == 2:
            n = (sub[1][1] - sub[0][1], sub[0][0] - sub[1][0])
        else:
            u = [a - b for a, b in zip(sub[1], sub[0])]
            v = [a - b for a, b in zip(sub[2], sub[0])]
            n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
        if any(n):
            g = gcd(*n)
            normals.add(tuple(c // g for c in n))
    found = set()
    for f in normals:
        for normal in (f, tuple(-c for c in f)):
            values = [sum(a * b for a, b in zip(normal, p)) for p in pts]
            offset = max(values)
            incident = tuple(i for i, v in enumerate(values) if v == offset)
            if _affine_rank([pts[i] for i in incident]) == k - 1:
                found.add((normal, offset, incident))
    return sorted(found)


def _reference_ell(pts, origin, facet_list):
    """The distance-ratio bound; ValueError where a facet has no finite ratio."""
    best = F(0)
    for normal, offset, _ in facet_list:
        dist = [offset - sum(a * b for a, b in zip(normal, p)) for p in pts]
        if dist[origin] == 0:
            continue
        ratios = [F(dist[origin], d) for i, d in enumerate(dist) if i != origin and d]
        if not ratios:
            raise ValueError("the distance ratio is undefined")
        best = max(best, min(ratios))
    return best


@st.composite
def configurations(draw):
    k = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-5, 5)] * k)
    pts = tuple(draw(st.lists(point, min_size=1, max_size=7)))
    return pts, k, draw(st.integers(0, len(pts) - 1))


@settings(max_examples=400, deadline=None)
@given(configurations())
# three collinear points in Z^3: a 3-subset with no normal is skipped
@example((((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)), 3, 0))
def test_facets_match_elimination_reference(data):
    pts, k, origin = data
    valid = _affine_rank(pts) == k
    try:
        cfg = ProjectedConfig(pts, origin)
    except ValueError:
        assert not valid
        return
    assert valid
    expected = _reference_facets(pts, k)
    got = cfg.facets
    assert [(f.normal, f.offset, f.incident) for f in got] == expected
    for f in got:
        values = [sum(a * b for a, b in zip(f.normal, p)) for p in pts]
        assert f.width == max(values) - min(values)
    try:
        expected_ell = _reference_ell(pts, origin, expected)
    except ValueError:
        expected_ell = None  # no finite bound
    assert ell_L(cfg) == expected_ell
