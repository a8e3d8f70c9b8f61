from __future__ import annotations

import math

import numpy as np
import pytest

from conetube import (
    GeometricCurve,
    Slope,
    SurgeryError,
    cone_derivatives_general,
    cone_expansion,
    compose,
    convergence_table,
    expand_from_samples,
    filled_curve_sampler,
    jet_log,
    solve_cone_structure,
    variable,
)
from conetube.holonomy import RepresentationFamily, cusp_relation_residuals, y_from_l2
from conetube.surgery import (
    _ChartWalker,
    _coordinates,
    _first_cusp_residual,
    _jacobian,
    _pinned_meridian,
    _second_cusp_residual,
)
from tests.conftest import A1, A2, A3


def test_slope_duals():
    s = Slope.make(1, 0)
    assert (s.r, s.s) == (0, 1)
    s = Slope.make(0, 1)
    assert (s.r, s.s) == (-1, 0)
    for p, q in [(3, -2), (-5, 3), (40, 1), (7, 11), (-9, -2)]:
        s = Slope.make(p, q)
        assert s.p * s.s - s.q * s.r == 1


def test_slope_rejects_non_coprime():
    with pytest.raises(SurgeryError):
        Slope.make(4, 2)
    with pytest.raises(SurgeryError):
        Slope.make(0, 0)


def test_cone_expansion_matches_general_derivatives(poly_curve):
    curve = poly_curve.symmetrized()
    for p, q in [(1, 0), (0, 1), (1, 1), (3, -2), (-5, 7)]:
        ce = cone_expansion(curve, Slope.make(p, q))
        dm_jet, dl_jet = cone_derivatives_general(curve, Slope.make(p, q))
        for k in range(4):
            assert abs(ce.m_jet[k] - dm_jet[k]) < 1e-13 * max(1, abs(dm_jet[k]))
            assert abs(ce.l_jet[k] - dl_jet[k]) < 1e-13 * max(1, abs(dl_jet[k]))


def test_cone_expansion_requires_symmetry():
    bent = GeometricCurve(-1, -1, a1=A1, a2=A2 + 1e-3, a3=A3)
    with pytest.raises(SurgeryError):
        cone_expansion(bent, Slope.make(1, 0))


def test_filling_relation_through_order_three(poly_curve):
    # p log(-m) + q log(-l) == (i/2) theta for the expansion's own slope
    curve = poly_curve.symmetrized()
    rng = np.random.default_rng(23)
    done = 0
    while done < 20:
        p, q = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
        if math.gcd(p, q) != 1:
            continue
        done += 1
        ce = cone_expansion(curve, Slope.make(p, q))
        lam_m = jet_log(-ce.m_jet, 0.0)
        lam_l = jet_log(-ce.l_jet, 0.0)
        combo = p * lam_m + q * lam_l
        theta = variable("theta")
        target = 0.5j * theta
        for k in range(4):
            assert abs(combo[k] - target[k]) < 1e-12


def test_cone_expansion_lies_on_curve(poly_curve):
    curve = poly_curve.symmetrized()
    for p, q in [(1, 0), (0, 1), (2, 3), (-3, 1)]:
        ce = cone_expansion(curve, Slope.make(p, q))
        # l(theta) must equal the curve series composed with dm(theta)
        composed = compose(curve.series_jet("dm"), ce.m_jet + 1) - 1
        for k in range(4):
            assert abs(ce.l_jet[k] - composed[k]) < 1e-11


def test_solver_agrees_with_expansion_to_fourth_order(poly_curve):
    curve = poly_curve.symmetrized()
    slope2 = Slope.make(1, 0)
    ce = cone_expansion(curve, slope2)
    consts = []
    for theta in (0.02, 0.04):
        st = solve_cone_structure(None, slope2, theta)
        ev = st.point.eigenvalues
        dm = abs(ev.m2 - ce.m_jet.evaluate(theta))
        dl = abs(ev.l2 - ce.l_jet.evaluate(theta))
        assert dm < 0.01 * theta**4
        assert dl < 0.6 * theta**4
        consts.append((dm / theta**4, dl / theta**4))
    # remainder constants stay put when theta halves: the gap is O(theta^4)
    for c_small, c_big in zip(consts[0], consts[1]):
        if c_big > 1e-6:
            assert 0.2 < c_small / c_big < 5.0


def test_unfilled_first_cusp_stays_parabolic():
    st = solve_cone_structure(None, Slope.make(1, 1), 0.08)
    assert abs(st.point.eigenvalues.m1 + 1.0) < 1e-12
    r1, r2 = st.filling_residuals()
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_theta_zero_is_base_point():
    st = solve_cone_structure(None, Slope.make(1, 0), 0.0)
    for z in st.point.shapes.as_tuple():
        assert abs(z - (0.5 + 0.5j)) < 1e-12
    assert st.theta == 0.0


def test_theta_bounds():
    with pytest.raises(SurgeryError):
        solve_cone_structure(None, Slope.make(1, 0), 0.6)
    with pytest.raises(SurgeryError):
        solve_cone_structure(None, Slope.make(1, 0), -0.1)


def test_filled_base_point():
    st = solve_cone_structure(Slope.make(9, 1), Slope.make(1, 0), 0.0)
    ev = st.point.eigenvalues
    assert abs(ev.m2 + 1.0) < 1e-11
    assert abs(ev.l2 + 1.0) < 1e-11
    r1, _ = st.filling_residuals()
    assert abs(r1) < 1e-11


def test_filled_structure_at_angle():
    st = solve_cone_structure(Slope.make(9, 1), Slope.make(1, 0), 0.06)
    r1, r2 = st.filling_residuals()
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12
    # first cusp filled: holonomy eigenvalue moved off -1
    assert abs(st.point.eigenvalues.m1 + 1.0) > 1e-4


def test_solved_point_satisfies_trace_relations():
    # independent cross-check through the matrix family
    st = solve_cone_structure(Slope.make(9, 1), Slope.make(1, 0), 0.05)
    x = st.point.eigenvalues.m2
    y = y_from_l2(x, st.point.eigenvalues.l2)
    fam = RepresentationFamily()
    steps = 12
    for k in range(1, steps + 1):
        s = k / steps
        rep = fam.representation(
            -1 + s * (x + 1), 2j + s * (y - 2j), commit=True
        )
    r1, r2 = cusp_relation_residuals(rep)
    assert max(r1, r2) < 1e-9


def test_unfilled_sampler_recovers_curve(sampled_curve):
    assert abs(sampled_curve.a1 - A1) < 1e-8
    assert abs(sampled_curve.a2 - A2) < 1e-8
    assert abs(sampled_curve.a3 - A3) < 2e-7
    assert abs(sampled_curve.involution_defect()) < 1e-8


def test_filled_sampler_norm_floor():
    with pytest.raises(SurgeryError):
        filled_curve_sampler(Slope.make(2, 1))


def test_filled_sampler_base_point():
    sampler = filled_curve_sampler(Slope.make(12, 1))
    m, l = sampler(0.0)
    assert abs(m + 1) < 1e-11 and abs(l + 1) < 1e-11
    # reentrant: same answer twice
    m2, l2 = sampler(0.0)
    assert m == m2 and l == l2


def test_convergence_rows(poly_curve):
    slopes = [Slope.make(8, 1), Slope.make(16, 1)]
    rows = convergence_table(slopes, poly_curve, include_unfilled=True)
    assert [r.label for r in rows] == ["8,1", "16,1", "unfilled"]
    for row in rows:
        assert row.failure is None
        assert all(math.isfinite(e) for e in row.errors)
    assert rows[1].errors[0] < rows[0].errors[0]
    assert rows[2].errors[0] < 1e-6


def test_filled_sampler_near_chart_edge():
    # the filled base point of (-7, 2) lies where a Newton gluing solve from
    # the base used to land on the other root and lose the eigenvalue branch
    curve = expand_from_samples(filled_curve_sampler(Slope.make(-7, 2)), -1, -1)
    assert abs(curve.involution_defect()) < 1e-6


def test_filled_structure_near_chart_edge():
    st = solve_cone_structure(Slope.make(-6, 1), Slope.make(2, 1), 0.0874)
    r1, r2 = st.filling_residuals()
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def _central_jacobian(walker, residual, u, v, h=1e-6):
    """d(residual)/d(u, v) by central differences: the residuals are holomorphic."""

    def value(uu, vv):
        x = _coordinates(walker.evaluate(uu, vv))
        return [form.value(x) for form in residual]

    du = [(a - b) / (2 * h) for a, b in zip(value(u + h, v), value(u - h, v))]
    dv = [(a - b) / (2 * h) for a, b in zip(value(u, v + h), value(u, v - h))]
    return np.array([[du[0], dv[0]], [du[1], dv[1]]])


@pytest.mark.parametrize(
    "residual",
    [
        (_first_cusp_residual(None, 1.0), _second_cusp_residual(Slope.make(3, -2), 0.2)),
        (_first_cusp_residual(Slope.make(9, 1), 1.0), _second_cusp_residual(Slope.make(1, 1), 0.1)),
        (_first_cusp_residual(Slope.make(-7, 2), 0.5), _pinned_meridian(0.01 + 0.02j)),
    ],
    ids=["unfilled", "filled", "pinned"],
)
def test_exact_jacobian_matches_central_differences(residual):
    base = 0.5 + 0.5j
    rng = np.random.default_rng(31)
    for _ in range(6):
        u, v = base + rng.uniform(-0.2, 0.2, 4).view(np.complex128)
        walker = _ChartWalker()
        for k in range(1, 9):  # commit anchors along the segment from the base
            walker.evaluate(base + k / 8 * (u - base), base + k / 8 * (v - base), commit=True)
        exact = np.array(_jacobian(residual, walker.evaluate(u, v)))
        reference = _central_jacobian(walker, residual, u, v)
        assert np.abs(exact - reference).max() <= 1e-7 * np.abs(reference).max()
