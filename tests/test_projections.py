from __future__ import annotations

from fractions import Fraction

import pytest

from blowups.projections import ProjectedConfig, ell_L, facet_width, facets

F = Fraction

SEGMENT = ProjectedConfig(((0,), (1,), (0,), (0,)))
TRIANGLE5 = ProjectedConfig(((0, 0), (2, 0), (0, 2), (0, 0), (2, 0)))
TRIANGLE3 = ProjectedConfig(((0, 0), (2, 0), (0, 2)))


def test_config_validation():
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


def test_segment_facets_and_widths():
    fs = facets(SEGMENT)
    assert {(f.normal, f.offset) for f in fs} == {((1,), 1), ((-1,), 0)}
    assert all(facet_width(SEGMENT, f) == 1 for f in fs)
    assert ell_L(SEGMENT) == 1


def test_triangle_facets():
    fs = facets(TRIANGLE3)
    assert {(f.normal, f.offset) for f in fs} == {
        ((-1, 0), 0), ((0, -1), 0), ((1, 1), 2),
    }
    assert [facet_width(TRIANGLE3, f) for f in fs] == [2, 2, 2]


def test_triangle_incident_points_span():
    for f in facets(TRIANGLE5):
        pts = [TRIANGLE5.points[i] for i in f.incident]
        assert len(set(pts)) >= 2  # a 1-face of a 2-polytope


def test_triangle_ell():
    # the duplicated origin point counts as a non-origin s_i, capping ell at 1
    assert ell_L(TRIANGLE5) == 1


def test_ell_precondition_violated():
    # every non-origin point lies on the facet x+y=2
    with pytest.raises(ValueError):
        ell_L(TRIANGLE3)


def test_ell_interior_origin():
    # origin strictly inside [-1, 1]: both facets contribute, each ratio
    # min(1/2 from the far endpoint, 1 from the duplicate origin point)
    cfg = ProjectedConfig(((0,), (1,), (-1,), (0,)))
    assert ell_L(cfg) == F(1, 2)


def test_ell_origin_on_facet_contributes_zero():
    # origin at a vertex of [0, 1]: the facet through it is skipped; the
    # other facet sees the duplicated origin at distance 1
    cfg = ProjectedConfig(((0,), (1,), (0,), (0,)))
    fs = facets(cfg)
    d0 = {f.offset - sum(a * b for a, b in zip(f.normal, (0,))) for f in fs}
    assert 0 in d0  # one facet passes through the origin image
    assert ell_L(cfg) == 1


def test_three_dimensional_example():
    cfg = ProjectedConfig(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    fs = facets(cfg)
    normals = {f.normal for f in fs}
    assert normals == {
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
        (1, 1, -1), (1, -1, 1), (-1, 1, 1),
    }
    widths = {f.normal: facet_width(cfg, f) for f in fs}
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
    base = {f.normal: facet_width(TRIANGLE5, f) for f in facets(TRIANGLE5)}
    scaled = {f.normal: facet_width(doubled, f) for f in facets(doubled)}
    assert scaled == {k: 2 * v for k, v in base.items()}


def test_ell_bounded_by_max_facet_width():
    for cfg in (SEGMENT, TRIANGLE5):
        widths = [facet_width(cfg, f) for f in facets(cfg)]
        assert ell_L(cfg) <= max(widths)


def test_facets_deterministic_order():
    a = [(f.normal, f.offset, f.incident) for f in facets(TRIANGLE5)]
    b = [(f.normal, f.offset, f.incident) for f in facets(TRIANGLE5)]
    assert a == b == sorted(a)
