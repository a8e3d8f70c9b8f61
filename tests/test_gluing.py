from __future__ import annotations

import numpy as np
import pytest

from conetube import (
    BASE_SHAPES,
    BranchAnchors,
    GluingError,
    TetShapes,
    alternate_eigenvalues,
    cusp_eigenvalues,
    residuals,
    solve_shapes,
)
from conetube.gluing import CHART_RADIUS, sqrt_arguments
from conetube.jets import sqrt_along_path

BASE = 0.5 + 0.5j


def _walked(u: complex, v: complex, steps: int = 8):
    """Shapes and committed anchors along the straight chart path from base."""
    anchors = BranchAnchors()
    for k in range(1, steps + 1):
        s = k / steps
        shapes = solve_shapes(BASE + s * (u - BASE), BASE + s * (v - BASE))
        ev = cusp_eigenvalues(shapes, anchors, commit=True)
    return shapes, anchors, ev


def test_base_point_is_exact_solution():
    r1, r2 = residuals(BASE_SHAPES)
    assert r1 == 0 and r2 == 0


def test_solve_at_base_returns_base():
    s = solve_shapes(BASE, BASE)
    assert max(abs(z - BASE) for z in s.as_tuple()) < 1e-14


def test_solver_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        du, dv = rng.uniform(-0.2, 0.2, 4).view(np.complex128)
        s = solve_shapes(BASE + du, BASE + dv)
        assert s.z1 == BASE + du and s.z2 == BASE + dv
        r1, r2 = residuals(s)
        assert max(abs(r1), abs(r2)) < 1e-13


def test_solution_is_path_independent():
    u, v = 0.62 + 0.41j, 0.35 + 0.58j
    direct = solve_shapes(u, v)
    mid = solve_shapes(0.5 * (u + BASE), 0.5 * (v + BASE))
    assert max(abs(r) for r in residuals(mid)) < 1e-13
    again = solve_shapes(u, v)
    assert abs(direct.z3 - again.z3) < 1e-10
    assert abs(direct.z4 - again.z4) < 1e-10


def test_root_follows_discriminant_sheet_to_chart_edge():
    # Near the chart edge a Newton solve from the base shapes lands on the
    # other root of the z3 quadratic (z3 = 0.4309-0.2476i). The reference
    # continues sqrt(disc) along a fine subdivision of the straight chart
    # segment from the base.
    u, v = 0.395 + 0.214j, 0.577 + 0.179j

    def coefficients(t):
        uu, vv = BASE + t * (u - BASE), BASE + t * (v - BASE)
        a, b = 1 - uu, 1 - vv
        return b * (a * b - uu * vv), uu * vv * (a + b), -uu * vv * a

    def disc(t):
        qa, qb, qc = coefficients(t)
        return qb * qb - 4 * qa * qc

    base_root = -0.5 + 0.5j
    assert abs(base_root**2 - disc(0.0)) < 1e-15
    root = sqrt_along_path([disc(k / 2000) for k in range(2001)], base_root)
    qa, qb, _ = coefficients(1.0)
    z3_ref = 1 - (-qb + root) / (2 * qa)
    s = solve_shapes(u, v)
    assert abs(s.z3 - z3_ref) < 1e-12
    assert abs(s.z3 - (0.4303 + 1.4424j)) < 1e-4
    assert max(abs(r) for r in residuals(s)) < 1e-13


def test_chart_radius_guard():
    with pytest.raises(GluingError):
        solve_shapes(BASE + CHART_RADIUS + 0.01, BASE)


def test_degenerate_shapes_rejected():
    with pytest.raises(GluingError):
        TetShapes(0.0, BASE, BASE, BASE).check_nondegenerate()
    with pytest.raises(GluingError):
        TetShapes(1.0, BASE, BASE, BASE).check_nondegenerate()


def test_base_eigenvalues():
    ev = cusp_eigenvalues(BASE_SHAPES)
    for val in (ev.m1, ev.l1, ev.m2, ev.l2):
        assert abs(val + 1.0) < 1e-15


def test_base_sqrt_arguments_are_one():
    for arg in sqrt_arguments(BASE_SHAPES):
        assert abs(arg - 1.0) < 1e-15


def test_alternate_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(12):
        du, dv = rng.uniform(-0.15, 0.15, 4).view(np.complex128)
        shapes, anchors, ev = _walked(BASE + du, BASE + dv)
        alt = alternate_eigenvalues(shapes, anchors)
        assert abs(ev.m1 - alt.m1) < 1e-12
        assert abs(ev.l1 - alt.l1) < 1e-12
        assert abs(ev.m2 - alt.m2) < 1e-12
        assert abs(ev.l2 - alt.l2) < 1e-12


def test_eigenvalue_products_on_variety():
    # m and l eigenvalue squares are rational in the shapes: check
    # m1^2 against its defining shape ratio after continuation
    shapes, _, ev = _walked(0.58 + 0.45j, 0.44 + 0.54j)
    z1, z2, z3, z4 = shapes.as_tuple()
    assert abs(ev.m1**2 - (1 - z4) / (1 - z2)) < 1e-13
    assert abs(ev.m2**2 - (1 - z2) / (1 - z1)) < 1e-13


def test_big_jump_loses_branch():
    # in-chart point too far for a single continuation step from the base
    shapes = solve_shapes(0.293 + 0.368j, 0.651 + 0.541j)
    with pytest.raises(GluingError, match="branch"):
        cusp_eigenvalues(shapes, BranchAnchors(), commit=True)
    # the same point is fine when walked
    _walked(0.293 + 0.368j, 0.651 + 0.541j)


def test_base_jacobian_conditioning():
    # the residual map is holomorphic in (z3, z4): a real-direction central
    # difference gives the full complex Jacobian
    h = 1e-7

    def res(z3, z4):
        return residuals(TetShapes(BASE, BASE, z3, z4))

    jac = np.empty((2, 2), dtype=complex)
    for i in range(2):
        jac[i, 0] = (res(BASE + h, BASE)[i] - res(BASE - h, BASE)[i]) / (2 * h)
        jac[i, 1] = (res(BASE, BASE + h)[i] - res(BASE, BASE - h)[i]) / (2 * h)
    cond = np.linalg.cond(jac)
    assert np.isfinite(cond) and cond < 1e6
