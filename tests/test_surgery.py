from __future__ import annotations

import cmath
import math
import re

import numpy as np
import pytest

from conetube import (
    GeometricCurve,
    GluingError,
    Slope,
    SurgeryError,
    cone_expansion,
    compose,
    convergence_table,
    expand_from_samples,
    filled_curve_sampler,
    jet_log,
    measure_tube,
    solve_cone_structure,
    unfilled_curve_sampler,
    variable,
)
from conetube.gluing import BASE_SHAPES, log_eigenvalue_gradients
from conetube.holonomy import y_from_l2
from conetube.surgery import (
    _COMPLETE,
    _filled_base,
    _first_cusp_residual,
    _logs,
    _newton,
    _pinned_meridian,
    _second_cusp_residual,
    _value,
)
from tests.conftest import A1, A2, A3
from tests.oracles import (
    chart_point,
    continue_representation,
    cusp_relation_residuals,
    jacobian,
    small_step_cone_structure,
)


def cone_derivatives_general(curve: GeometricCurve, slope: Slope):
    """Theta-jets of (m2, l2) without assuming the involution constraint.

    Hand-derived closed forms of the first three theta-derivatives, an
    independent oracle for ``cone_expansion``; the two agree exactly when
    a2 = a1 - a1^2.
    """
    a1, a2, a3 = curve.a1, curve.a2, curve.a3
    p, q = slope.p, slope.q
    P = p + a1 * q
    th = variable("theta", 3)
    dm1 = -0.5j / P
    dm2 = (p + (a1**2 + a2) * q) / (4.0 * P**3)
    dm3 = (
        1j
        * (
            p**2
            + (6 * a1**2 - 2 * a1**3 + 6 * a2 - 2 * a1 - 3 * a1 * a2 - a3) * p * q
            + (a1**4 + 3 * a1**2 * a2 + 3 * a2**2 - a1 * a3) * q**2
        )
        / (8.0 * P**5)
    )
    dl1 = -0.5j * a1 / P
    dl2 = ((a1 - a2) * p + a1**3 * q) / (4.0 * P**3)
    dl3 = (
        1j
        * (
            (a1 - 3 * a2 + a3) * p**2
            + (6 * a1**3 - 2 * a1**4 - 2 * a1**2 - 6 * a1**2 * a2 - 3 * a2**2
               + 3 * a1 * a2 + a1 * a3) * p * q
            + a1**5 * q**2
        )
        / (8.0 * P**5)
    )
    m_jet = -1.0 + dm1 * th + (dm2 / 2.0) * th**2 + (dm3 / 6.0) * th**3
    l_jet = -1.0 + dl1 * th + (dl2 / 2.0) * th**2 + (dl3 / 6.0) * th**3
    return m_jet, l_jet


def test_slope_duals():
    s = Slope.make(1, 0)
    assert (s.r, s.s) == (0, 1)
    s = Slope.make(0, 1)
    assert (s.r, s.s) == (-1, 0)
    fib = [1, 1]
    while fib[-1] < 10**300:  # more Euclid steps than the recursion limit
        fib.append(fib[-1] + fib[-2])
    for p, q in [(3, -2), (-5, 3), (40, 1), (7, 11), (-9, -2), (fib[-2], fib[-1])]:
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
            assert abs(ce.m_jet[k] - dm_jet[k]) <= 1e-13 * abs(dm_jet[k])
            assert abs(ce.l_jet[k] - dl_jet[k]) <= 1e-13 * abs(dl_jet[k])


def test_core_jet_equals_the_dual_pair_form(poly_curve):
    # K = Re(r log(-m) + s log(-l)) for every dual (r, s) of the slope
    curve = poly_curve.symmetrized()
    slopes = [
        Slope.make(p, q)
        for q in range(0, 31)
        for p in range(q - 30, 31 - q)
        if math.gcd(p, q) == 1 and (q > 0 or p == 1)
    ]
    ce = cone_expansion(curve, slopes)
    r = np.array([sl.r for sl in slopes], dtype=float)
    s = np.array([sl.s for sl in slopes], dtype=float)
    dual = (jet_log(-ce.m_jet, 0.0) * r + jet_log(-ce.l_jet, 0.0) * s).real_part()
    assert ce.core_jet.coeffs.shape == (len(slopes), 4)
    assert np.abs(ce.core_jet.coeffs - dual.coeffs).max() <= 1e-13


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
    # the written-out complete structure is the solved base point
    assert st.point == chart_point(0.5 + 0.5j, 0.5 + 0.5j)


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
    rep = None
    steps = 12
    for k in range(1, steps + 1):
        s = k / steps
        rep = continue_representation(-1 + s * (x + 1), 2j + s * (y - 2j), rep)
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


@pytest.mark.parametrize("p1", [512, 1024])
def test_a_large_filled_slope_converges_on_its_residuals_scale(p1):
    # p1 log(-m1) carries rounding of order p1 eps, which stalls the filling
    # residual above the absolute Newton bound at these slopes
    curve = expand_from_samples(filled_curve_sampler(Slope.make(p1, 1)), -1, -1)
    assert abs(curve.involution_defect()) < 1e-10


def _central_jacobian(residual, u, v, h=1e-6):
    """d(residual)/d(u, v) by central differences: the residuals are holomorphic."""

    def value(uu, vv):
        logs = _logs(chart_point(uu, vv))
        return [_value(row, logs) for row in residual]

    du = [(a - b) / (2 * h) for a, b in zip(value(u + h, v), value(u - h, v))]
    dv = [(a - b) / (2 * h) for a, b in zip(value(u, v + h), value(u, v - h))]
    return np.array([[du[0], dv[0]], [du[1], dv[1]]])


def _principal(ev):
    """The four cusp logs as principal logs of -eigenvalue: their branch near the base."""
    return [cmath.log(-x) for x in (ev.m1, ev.l1, ev.m2, ev.l2)]


@pytest.mark.parametrize(
    "residual, value",
    [
        # the unfilled row log(-m1), once m1 + 1
        (
            (_first_cusp_residual(None, 1.0), _second_cusp_residual(Slope.make(3, -2), 0.2)),
            lambda x: (x[0], 3 * x[2] - 2 * x[3] - 0.1j),
        ),
        (
            (
                _first_cusp_residual(Slope.make(9, 1), 1.0),
                _second_cusp_residual(Slope.make(1, 1), 0.1),
            ),
            lambda x: (9 * x[0] + x[1] - math.pi * 1j, x[2] + x[3] - 0.05j),
        ),
        # the pinned row log(-m2) - log(1 - s), once m2 + 1 - s
        (
            (_first_cusp_residual(Slope.make(-7, 2), 0.5), _pinned_meridian(0.01 + 0.02j)),
            lambda x: (-7 * x[0] + 2 * x[1] - 0.5j * math.pi, x[2] - cmath.log(0.99 - 0.02j)),
        ),
    ],
    ids=["unfilled", "filled", "pinned"],
)
def test_exact_jacobian_matches_central_differences(residual, value):
    base = 0.5 + 0.5j
    rng = np.random.default_rng(31)
    for _ in range(6):
        u, v = base + rng.uniform(-0.2, 0.2, 4).view(np.complex128)
        pt = chart_point(u, v)
        # each row is the relation it names over the cusp logs
        rows = [_value(row, _logs(pt)) for row in residual]
        assert np.abs(np.subtract(rows, value(_principal(pt.eigenvalues)))).max() <= 1e-14
        exact = np.array(jacobian(residual, pt))
        reference = _central_jacobian(residual, u, v)
        assert np.abs(exact - reference).max() <= 1e-7 * np.abs(reference).max()


def test_newton_commits_its_point_without_solving_it_again(monkeypatch):
    import conetube.surgery as surgery

    calls = []
    solve = surgery._solve
    monkeypatch.setattr(surgery, "_solve", lambda u, v: calls.append(1) or solve(u, v))
    structure = solve_cone_structure(None, Slope.make(1, 0), 0.5)
    # 40 solves when each accepted Newton point was solved a second time, 33
    # when each solve re-solved its start and theta began at a step of 0.01,
    # and 11 when a log step of more than half its argument was refused
    assert len(calls) == 6
    ev = structure.point.eigenvalues
    assert ev.m2 == complex(-0.9689124217106447, -0.24740395925452294)
    # one ulp from the bits of the unfilled relation m1 + 1, before it was log(-m1)
    assert ev.l2 == complex(-0.5376870547896764, -0.2937397767883748)
    # the small-step walk's bits, a different path to the same point
    assert abs(ev.m2 - complex(-0.9689124217106448, -0.24740395925452285)) <= 4.5e-16
    assert abs(ev.l2 - complex(-0.5376870547896765, -0.2937397767883748)) <= 4.5e-16


def test_each_chart_point_is_solved_and_continued_once(monkeypatch):
    import conetube.surgery as surgery

    solves, continued = [], []
    solve, logs = surgery._solve, surgery.cusp_logs
    monkeypatch.setattr(surgery, "_solve", lambda *a: solves.append(1) or solve(*a))
    monkeypatch.setattr(surgery, "cusp_logs", lambda *a: continued.append(1) or logs(*a))
    solve_cone_structure(None, Slope.make(1, 0), 0.5)
    # one solve and one set of cusp logs per chart point that Newton visits
    # past its start: theta reaches 0.5 in one step of six points
    assert (len(solves), len(continued)) == (6, 6)


def test_a_newton_solve_forms_eigenvalues_only_for_the_point_it_returns(monkeypatch):
    import conetube.surgery as surgery

    calls, eigenvalues = [], surgery._exp_eigenvalues
    monkeypatch.setattr(surgery, "_exp_eigenvalues", lambda x: calls.append(1) or eigenvalues(x))
    structure = solve_cone_structure(None, Slope.make(1, 0), 0.5)
    # of the six chart points Newton visits, only the returned one gets eigenvalues
    assert len(calls) == 1
    assert structure.point.eigenvalues == eigenvalues(_logs(structure.point))


def test_the_complete_structures_gradients_are_its_log_gradients_bit_for_bit():
    import conetube.surgery as surgery

    # repr is exact and tells a zero's sign
    assert repr(surgery._COMPLETE_GRADIENTS) == repr(log_eigenvalue_gradients(BASE_SHAPES))


REFUSED = {
    # a Newton step that leaves the chart, the region where the orientation
    # fixes the cusp logs' branch: a chart-radius refusal
    "branch": (
        lambda first: (first, _second_cusp_residual(Slope.make(2, 1), 2.0)),
        GluingError,
        "chart coordinate",
    ),
    # two equal rows: the Jacobian is singular
    "singular": (
        lambda first: (_pinned_meridian(0.1), _pinned_meridian(0.1)), SurgeryError, "singular"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_newton_leaves_its_start_usable(case):
    make, error, reason = REFUSED[case]
    first = _first_cusp_residual(Slope.make(9, 1), 1.0)
    start = _filled_base(Slope.make(9, 1))
    with pytest.raises(error, match=reason):
        _newton(start, make(first))
    accepted = (first, _second_cusp_residual(Slope.make(1, 0), 0.05))
    assert _newton(start, accepted) == _newton(_filled_base(Slope.make(9, 1)), accepted)


# slope2 of norm <= 4, one per slope
GRID_SLOPES2 = [(1, 0)] + [
    (p, q) for q in range(1, 5) for p in range(q - 4, 5 - q) if math.gcd(p, q) == 1
]


def _outcome(solve, slope1, slope2, theta):
    """(tube measurement, eigenvalues) of a solve, or the refusal it raised."""
    try:
        structure = solve(slope1, slope2, theta)
    except (SurgeryError, GluingError) as exc:
        return exc
    return measure_tube(structure), structure.point.eigenvalues


def _assert_same_outcome(got, want, case):
    """A solve's outcome equals the small-step walk's: its refusal, or its structure to 1e-10."""
    if isinstance(want, Exception):
        assert type(got) is type(want), (case, got)
        # the library names the parameter its walk reached
        reached = re.fullmatch(r"(tau|theta) \S+ of \S+ reached: (.*)", str(got))
        assert reached and reached[2] == str(want), (case, got)
        return
    assert not isinstance(got, Exception), (case, got)
    (tube, ev), (tube_ref, ev_ref) = got, want
    for x, ref in (
        (ev.m2, ev_ref.m2), (ev.l2, ev_ref.l2), (tube.mu_hat_sq, tube_ref.mu_hat_sq),
        (tube.R, tube_ref.R), (tube.t, tube_ref.t),
    ):
        assert abs(x - ref) <= 1e-10 * abs(ref), case


# (-5, 1), (4, 1) and (-3, 2): small first-cusp slopes, where the step of
# the whole deformation is most often refused
@pytest.mark.parametrize(
    "slope1", [None, (9, 1), (-7, 2), (12, 5), (3, 1), (-5, 1), (4, 1), (-3, 2)], ids=str
)
def test_one_step_continuation_matches_the_small_step_walk(slope1):
    s1 = None if slope1 is None else Slope.make(*slope1)
    for slope2 in map(Slope.make, *zip(*GRID_SLOPES2)):
        for theta in (0.05, 0.25, 0.5):
            got = _outcome(solve_cone_structure, s1, slope2, theta)
            want = _outcome(small_step_cone_structure, s1, slope2, theta)
            case = (slope1, (slope2.p, slope2.q), theta)
            if slope1 == (3, 1):  # a chart refusal of the filled base
                assert isinstance(want, GluingError) and str(got).startswith("tau "), case
            _assert_same_outcome(got, want, case)


def _bench_cone_triples(count: int, seed: int) -> list[tuple[Slope, Slope, float]]:
    """Filled (slope1, slope2, theta), drawn as the bench's cone block draws them.

    First-cusp norms 5 to 60, second-cusp norms 1 to 6, each slope's q and
    the sign of its p uniform, theta in (0, 0.5].
    """
    rng = np.random.default_rng(seed)

    def slope(norm: int) -> Slope:
        while True:
            q = int(rng.integers(0, norm + 1))
            p = (norm - q) * (1 if rng.random() < 0.5 else -1)
            if math.gcd(p, q) == 1:
                return Slope.make(p, q)

    return [
        (slope(int(rng.integers(5, 61))), slope(int(rng.integers(1, 7))), 0.5 * (1 - rng.random()))
        for _ in range(count)
    ]


def test_the_whole_deformation_step_equals_the_small_step_walk():
    refused = 0
    for slope1, slope2, theta in _bench_cone_triples(200, 31):
        want = _outcome(small_step_cone_structure, slope1, slope2, theta)
        _assert_same_outcome(_outcome(solve_cone_structure, slope1, slope2, theta), want,
                             (slope1, slope2, theta))
        refused += isinstance(want, Exception)
    # the draw reaches the refusals of the staged walk too
    assert refused > 0


@pytest.mark.parametrize(
    "slope1, slope2, theta, points",
    [
        # one Newton solve from the complete structure: 10 points when the
        # filled base was walked first, 7 when theta 0 re-solved that base
        ((40, 1), (3, 1), 0.5, 5),
        ((9, 1), (1, 0), 0.0, 6),
        (None, (1, 0), 0.5, 6),
    ],
)
def test_a_cone_structure_takes_one_newton_solve(monkeypatch, slope1, slope2, theta, points):
    import conetube.surgery as surgery

    calls, solve = [], surgery._solve
    monkeypatch.setattr(surgery, "_solve", lambda u, v: calls.append(1) or solve(u, v))
    s1 = None if slope1 is None else Slope.make(*slope1)
    solve_cone_structure(s1, Slope.make(*slope2), theta)
    assert len(calls) == points


def test_the_final_check_refuses_a_structure_off_its_relations(monkeypatch):
    import conetube.surgery as surgery

    # a Newton that returns its start leaves theta's relation at -0.15i,
    # above 1e-12 times its scale of 1 + 0.15
    monkeypatch.setattr(surgery, "_newton", lambda start, residual: start)
    with pytest.raises(SurgeryError, match=r"filling residuals \(.*\) above 1e-12 times"):
        solve_cone_structure(None, Slope.make(1, 0), 0.3)


# the stencil of expand_from_samples: 0, then h i^k for each default radius
STENCIL = np.concatenate(([0j], np.outer([1e-2, 5e-3, 2.5e-3], [1, 1j, -1, -1j]).ravel()))


def _filled_slopes(count: int, seed: int) -> list[Slope]:
    """Coprime first-cusp slopes of norm 8 to 80, drawn as the bench's fill block draws them."""
    rng, slopes = np.random.default_rng(seed), []
    while len(slopes) < count:
        norm = int(rng.integers(8, 81))
        q = int(rng.integers(1, norm + 1))
        p = (norm - q) * (1 if rng.random() < 0.5 else -1)
        if math.gcd(p, q) == 1:
            slopes.append(Slope.make(p, q))
    return slopes


@pytest.mark.parametrize("slope1", [None] + _filled_slopes(22, 24), ids=str)
def test_row_newton_equals_the_scalar_newton_at_every_stencil_point(slope1):
    base = _COMPLETE if slope1 is None else _filled_base(slope1)
    first = _first_cusp_residual(slope1, 1.0)
    rows = _newton(base, (first, _pinned_meridian(STENCIL)))
    for i, s in enumerate(STENCIL):
        one = _newton(base, (first, _pinned_meridian(complex(s))))
        for name in ("m2", "l2"):
            got, want = getattr(rows.eigenvalues, name)[i], getattr(one.eigenvalues, name)
            assert abs(got - want) <= 1e-14 * abs(want), (slope1, s)


def test_the_row_sampler_gives_numbers_for_a_number_and_rows_for_an_array():
    sampler = filled_curve_sampler(Slope.make(12, 1))
    m, l = sampler(0.0)
    assert type(m) is complex and type(l) is complex
    ms, ls = sampler(STENCIL)
    assert ms.shape == ls.shape == STENCIL.shape
    assert abs(ms[0] - m) <= 1e-15 and abs(ls[0] - l) <= 1e-15


def test_a_filled_curve_asks_its_sampler_once():
    sampler, calls = filled_curve_sampler(Slope.make(40, 1)), []

    def counted(s):
        calls.append(s)
        return sampler(s)

    curve = expand_from_samples(counted, -1, -1)
    assert len(calls) == 1 and np.array_equal(calls[0], STENCIL)
    assert abs(curve.involution_defect()) < 1e-6


def test_a_row_that_does_not_converge_names_its_s(monkeypatch):
    import conetube.surgery as surgery

    sampler = filled_curve_sampler(Slope.make(40, 1))
    # four passes converge the s = 0 row, not the one at 0.01
    monkeypatch.setattr(surgery, "_NEWTON_MAX_ITER", 4)
    with pytest.raises(SurgeryError) as one:
        sampler(0.01)
    with pytest.raises(SurgeryError) as rows:
        sampler(np.array([0.0, 0.01]))
    assert str(one.value) == "filling Newton failed to converge"
    assert str(rows.value) == f"s = {complex(0.01)!r}: {one.value}"


def test_a_meridian_pinned_at_zero_is_refused_before_its_log():
    # m2 = -1 + s = 0 has no log(-m2): no warning, and the row names its s
    sampler = unfilled_curve_sampler()
    with pytest.raises(SurgeryError, match=r"^the pinned meridian is 0"):
        sampler(1.0)
    with pytest.raises(SurgeryError, match=r"^s = \(1\+0j\): the pinned meridian is 0"):
        sampler(np.array([0.0, 1.0 + 0j]))


def test_a_refused_row_keeps_the_scalar_type_and_message():
    # far from the base, the first step of this row leaves the chart
    sampler = unfilled_curve_sampler()
    with pytest.raises(GluingError) as one:
        sampler(0.6j)
    with pytest.raises(GluingError) as rows:
        sampler(np.array([0.0, 0.01, 0.6j]))
    assert str(rows.value) == f"s = {0.6j!r}: {one.value}"
