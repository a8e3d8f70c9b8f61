from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from conetube import (
    Slope,
    SurgeryError,
    TubeError,
    expand_from_samples,
    filled_curve_sampler,
    fit_k_expansion,
    k1_range_check,
    k_expansion_closed_form,
    k_expansions,
    measure_tube,
    mu_hat_squared_numeric,
    solve_cone_structure,
    tube_cosh2R,
    whitehead_k_reference,
)
from conetube import cli, surgery, tube
from conetube.cli import main
from conetube.jets import JetError
from conetube.surgery import CurveJets
from conetube.holonomy import peripheral_matrices, sl2_inverse, y_from_l2
from tests.oracles import (
    INFINITY,
    _axis_distance_R,
    _mobius,
    _rep_at_structure,
    coprime_slope_pairs,
    cross_ratio,
    jet_k_expansions,
    line_distance,
    tube_cosh2R_trace_form,
)


def _h3_geodesic_point(a: complex, b: complex, phi: float):
    """Point on the H^3 geodesic with ideal endpoints a, b at angle phi."""
    center = (a + b) / 2
    rho = abs(b - a) / 2
    u = (b - a) / abs(b - a)
    return center + rho * math.cos(phi) * u, rho * math.sin(phi)


def _h3_point_distance(x1: complex, z1: float, x2: complex, z2: float) -> float:
    arg = 1.0 + (abs(x1 - x2) ** 2 + (z1 - z2) ** 2) / (2 * z1 * z2)
    return math.acosh(arg)


def _min_distance_oracle(a1, b1, a2, b2) -> float:
    def objective(phis):
        p1 = _h3_geodesic_point(a1, b1, phis[0])
        p2 = _h3_geodesic_point(a2, b2, phis[1])
        return _h3_point_distance(*p1, *p2)

    eps = 1e-9
    best = minimize(
        objective,
        x0=[math.pi / 2, math.pi / 2],
        bounds=[(eps, math.pi - eps)] * 2,
        method="L-BFGS-B",
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500},
    )
    return float(best.fun)


def test_cross_ratio_examples():
    assert abs(cross_ratio(-1, 1, -2, 2) - 1 / 9) < 1e-15
    assert abs(cross_ratio(-1, 1, 0, INFINITY) - (-1)) < 1e-15


def test_cross_ratio_rejects_degenerate():
    with pytest.raises(TubeError):
        cross_ratio(1, 1, 0, 2)


def test_line_distance_symmetric_example():
    # geodesics over (-1, 1) and (-s, s) meet the symmetry axis at heights
    # 1 and s: distance is log(s)
    for s in (2.0, 5.0, 11.0):
        assert abs(line_distance(-1, 1, -s, s) - math.log(s)) < 1e-12


def test_line_distance_matches_minimization_oracle():
    rng = np.random.default_rng(31)
    done = 0
    while done < 50:
        vals = rng.uniform(-3, 3, 8)
        a1 = complex(vals[0], vals[1])
        b1 = complex(vals[2], vals[3])
        a2 = complex(vals[4], vals[5])
        b2 = complex(vals[6], vals[7])
        if min(abs(a1 - b1), abs(a2 - b2)) < 0.5:
            continue
        d = line_distance(a1, b1, a2, b2)
        if d < 0.05:
            continue
        done += 1
        assert abs(d - _min_distance_oracle(a1, b1, a2, b2)) < 1e-6


def test_line_distance_mobius_invariant():
    rng = np.random.default_rng(37)
    for _ in range(50):
        vals = rng.normal(size=8)
        pts = [complex(vals[2 * i], vals[2 * i + 1]) for i in range(4)]
        if min(abs(pts[0] - pts[1]), abs(pts[2] - pts[3])) < 1e-2:
            continue
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(g)) < 1e-2:
            continue
        moved = [_mobius(g, w) for w in pts]
        assert abs(line_distance(*pts) - line_distance(*moved)) < 1e-10


def test_trace_form_agreement():
    rng = np.random.default_rng(41)
    for _ in range(40):
        vals = rng.normal(size=4)
        trc = complex(vals[0], vals[1]) * 0.1
        trp = -2.0 + complex(vals[2], vals[3]) * 0.1
        direct = tube_cosh2R(trc, trp)
        printed = tube_cosh2R_trace_form(trc, trp)
        assert abs(direct - printed) < 1e-12 * max(1.0, direct)


def test_tube_cosh2R_rejects_parabolic():
    with pytest.raises(TubeError):
        tube_cosh2R(0.1 + 0j, 2.0 + 0j)


def test_radius_matches_axis_distance_oracle():
    cases = [
        (None, Slope.make(1, 0), 0.05),
        (None, Slope.make(1, 1), 0.08),
        (Slope.make(9, 1), Slope.make(1, 0), 0.05),
    ]
    for slope1, slope2, theta in cases:
        st = solve_cone_structure(slope1, slope2, theta)
        tm = measure_tube(st)
        r_oracle, bc_frame = _axis_distance_R(st)
        assert abs(tm.R - r_oracle) < 1e-8
        # the frame product b*c agrees with the trace-ratio formula
        ev = st.point.eigenvalues
        trc = -y_from_l2(ev.m2, ev.l2)
        trp = ev.m2 + 1 / ev.m2
        bc_formula = -trc / (trp**2 - 4)
        assert abs(bc_frame - bc_formula) < 1e-10 * max(1.0, abs(bc_formula))


def test_core_length_matches_word_eigenvalue():
    for slope1, slope2, theta in [
        (None, Slope.make(1, 0), 0.05),
        (None, Slope.make(2, 1), 0.07),
        (Slope.make(9, 1), Slope.make(1, 0), 0.06),
    ]:
        st = solve_cone_structure(slope1, slope2, theta)
        t = measure_tube(st).t
        rep = _rep_at_structure(st)
        per = peripheral_matrices(rep)

        def power(m, k):
            return np.linalg.matrix_power(m if k >= 0 else sl2_inverse(m), abs(k))

        word = power(per.meridian2, slope2.r) @ power(per.longitude2, slope2.s)
        t_matrix = 2 * abs(math.log(abs(word[0, 0])))
        assert abs(t - t_matrix) < 1e-8


def test_core_length_for_meridian_filling():
    # theta and core length scale together for the (1, 0) filling
    st = solve_cone_structure(None, Slope.make(1, 0), 0.05)
    t = measure_tube(st).t
    assert abs(t / 0.05 - 2.0) < 1e-2


def test_measurement_identities():
    tm = mu_hat_squared_numeric(None, Slope.make(1, 0), 0.05)
    tm.check()
    assert abs(tm.mu - tm.theta * math.sinh(tm.R)) < 1e-12 * tm.mu
    area = tm.theta * tm.t * math.sinh(tm.R) * math.cosh(tm.R)
    assert abs(tm.mu_hat_sq - tm.mu**2 / area) < 1e-12
    assert abs(tm.mu_hat_sq - 0.5) < 5e-3


def test_no_tube_at_cusp_limit():
    st = solve_cone_structure(None, Slope.make(1, 0), 0.0)
    with pytest.raises(TubeError):
        measure_tube(st)


def test_k_reference_values():
    ref = whitehead_k_reference(Slope.make(1, 0))
    assert abs(ref.k0 - 0.5) < 1e-15
    assert abs(ref.k1 + 1 / 12) < 1e-15
    ref = whitehead_k_reference(Slope.make(0, 1))
    assert abs(ref.k0 - 4.0) < 1e-15
    assert abs(ref.k1 + 1 / 6) < 1e-15


def test_k_jet_matches_reference(poly_curve):
    curve = poly_curve.symmetrized()
    for p, q in [(1, 0), (0, 1), (1, 1), (-2, 1), (5, -2), (3, 7), (-11, 4)]:
        jet = k_expansion_closed_form(curve, Slope.make(p, q))
        ref = whitehead_k_reference(Slope.make(p, q))
        assert abs(jet.k0 - ref.k0) < 1e-9 * max(1.0, abs(ref.k0))
        assert abs(jet.k1 - ref.k1) < 1e-9
    assert jet.source == "numeric-jet"
    assert ref.source == "closed-form"


def test_k1_spot_values(poly_curve):
    curve = poly_curve.symmetrized()
    k10 = k_expansion_closed_form(curve, Slope.make(1, 0))
    k01 = k_expansion_closed_form(curve, Slope.make(0, 1))
    assert abs(k10.k1 + 1 / 12) < 1e-10
    assert abs(k01.k1 + 1 / 6) < 1e-10


def test_k1_range_small_grid():
    lo, hi = k1_range_check(samples=20_000)
    assert -1 / 6 - 1e-9 <= lo <= -1 / 6 + 1e-6
    assert -1 / 12 - 1e-6 <= hi <= -1 / 12 + 1e-9
    with pytest.raises(TubeError):
        k1_range_check(samples=10)


def test_k1_range_closed_form_extrema():
    # the derivative's numerator has roots -4, -2, 0, where k1 is -1/6,
    # -1/12, -1/6; the smallest grid already returns them exactly
    lo, hi = k1_range_check(samples=1000)
    assert abs(lo + 1 / 6) < 1e-15
    assert abs(hi + 1 / 12) < 1e-15


def test_fit_recovers_expansion():
    slope2 = Slope.make(1, 0)
    k0_fit, k1_fit = fit_k_expansion(None, slope2, thetas=(0.03, 0.06, 0.09))
    ref = whitehead_k_reference(slope2)
    assert abs(k0_fit - ref.k0) < 1e-6 * max(1.0, abs(ref.k0))
    assert abs(k1_fit - ref.k1) < 1e-4
    with pytest.raises(TubeError):
        fit_k_expansion(None, slope2, thetas=(0.04, 0.08))


def _coprime_slopes(max_norm: int) -> list[Slope]:
    pairs = [(1, 0)] + [
        (p, q)
        for q in range(1, max_norm + 1)
        for p in range(q - max_norm, max_norm - q + 1)
        if math.gcd(p, q) == 1
    ]
    return [Slope.make(p, q) for p, q in pairs]


def _columns(slopes: list[Slope]) -> tuple[list[int], list[int]]:
    return [s.p for s in slopes], [s.q for s in slopes]


def test_k_expansions_equal_one_slope_at_a_time(poly_curve):
    curve = poly_curve.symmetrized()
    slopes = _coprime_slopes(30)
    p, q = _columns(slopes)
    k0, k1 = k_expansions(curve, np.array(p), np.array(q))
    assert k0.shape == k1.shape == (len(slopes),)
    # one row per slope, in order
    for a0, a1, s in zip(k0.tolist(), k1.tolist(), slopes):
        one = k_expansion_closed_form(curve, s)
        assert one.source == "numeric-jet"
        assert abs(a0 - one.k0) <= 1e-14 * abs(one.k0)
        assert abs(a1 - one.k1) <= 1e-14 * abs(one.k1)
    # integer lists give the same columns as integer arrays
    assert all(np.array_equal(a, b) for a, b in zip(k_expansions(curve, p, q), (k0, k1)))
    assert [c.tolist() for c in k_expansions(curve, [], [])] == [[], []]


def test_k_expansions_name_the_slope_a_guard_refused(poly_curve):
    curve = poly_curve.symmetrized()
    # above MAX_CONE_NORM the norm guard refuses the slope, before the
    # theta-jets' coefficients underflow in the tube's products
    bad = Slope.make(1, 10**70)
    with pytest.raises(JetError) as one:
        k_expansion_closed_form(curve, bad)
    p, q = _columns(_coprime_slopes(30))
    p.insert(300, bad.p)  # mid-scan: the refusal names the slope, not its row
    q.insert(300, bad.q)
    with pytest.raises(JetError) as scan:
        k_expansions(curve, p, q)
    assert type(scan.value) is type(one.value)
    assert str(scan.value) == str(one.value)
    assert str(one.value).startswith(f"slope (1, {10**70}): |p| + |q| above 1e+60")


def test_k_expansions_refuse_what_a_slope_refuses(poly_curve):
    curve = poly_curve.symmetrized()
    p, q = _columns(_coprime_slopes(30))
    p.insert(300, 6)  # mid-scan: the refusal names the slope, not its row
    q.insert(300, 4)
    with pytest.raises(SurgeryError) as scan:
        k_expansions(curve, p, q)
    with pytest.raises(SurgeryError) as one:
        Slope.make(6, 4)
    assert str(scan.value) == str(one.value) == "slope (6, 4) is not coprime"
    with pytest.raises(TubeError, match="2 numerators against 1 denominators"):
        k_expansions(curve, [1, 0], [0])


def test_k_expansions_refuse_the_first_bad_slope_whatever_its_guard(poly_curve):
    curve = poly_curve.symmetrized()
    p, q = _columns(_coprime_slopes(30))
    with pytest.raises(JetError, match=r"^slope \(1, 10{70}\): "):
        k_expansions(curve, p[:300] + [1, 6] + p[300:], q[:300] + [10**70, 4] + q[300:])
    with pytest.raises(SurgeryError, match=r"^slope \(6, 4\) is not coprime$"):
        k_expansions(curve, p[:300] + [6, 1] + p[300:], q[:300] + [4, 10**70] + q[300:])


@pytest.fixture(scope="module")
def k_curves(poly_curve):
    """The unfilled curve and three filled stencil curves, each as sampled and symmetrized."""
    curves = [poly_curve] + [
        expand_from_samples(filled_curve_sampler(Slope.make(*s)), -1, -1)
        for s in [(9, 1), (12, -5), (-40, 9)]
    ]
    return curves + [c.symmetrized() for c in curves]


def test_k_expansions_equal_one_jet_row_per_slope(k_curves):
    # k0 = |p + q a1|^2 / Im a1 and k1 = N(p, q) / |p + q a1|^4 on every slope
    p, q = (np.array(c) for c in zip(*coprime_slope_pairs(200)))
    assert len(p) == 24_464
    for curve in k_curves:
        k0, k1 = k_expansions(curve, p, q)
        j0, j1 = jet_k_expansions(curve, p, q)
        assert np.max(np.abs(k0 - j0) / np.abs(j0)) <= 1e-14, curve
        assert np.max(np.abs(k1 - j1) / np.abs(j1)) <= 1e-12, curve


def test_unfilled_curve_gives_the_exact_centre_and_radius(poly_curve):
    # the unfilled log-series: log(-l) = (2 + 2i) u + (2i/3) u^3 + O(u^5), u = log(-m)
    curve = poly_curve.symmetrized()
    centre, c = tube._k1_form(curve)
    assert abs(c - 2j / 3) <= 1e-15
    assert abs(centre + 1 / 8) <= 1e-15
    assert abs(abs(c) / (4 * curve.a1.imag**2) - 1 / 24) <= 1e-15
    assert abs(k_expansion_closed_form(curve, Slope.make(1, 0)).k1 + 1 / 12) <= 1e-15
    assert abs(k_expansion_closed_form(curve, Slope.make(0, 1)).k1 + 1 / 6) <= 1e-15


def test_a_scan_expands_no_jet(poly_curve, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a scan expanded theta-jets")

    for module in (surgery, tube):  # wherever the name is bound
        if hasattr(module, "cone_jets"):
            monkeypatch.setattr(module, "cone_jets", refuse)
    assert main(["k1scan", "--max", "30", "--output", str(tmp_path / "scan.json")]) == 0
    assert len(json.loads((tmp_path / "scan.json").read_text())["entries"]) == 556
    # a curve no other test reads: nothing about it can have been kept from before
    fresh = dataclasses.replace(poly_curve, a3=poly_curve.a3 + 1e-3).symmetrized()
    k_expansions(fresh, *_columns(_coprime_slopes(30)))
    with pytest.raises(AssertionError, match="expanded theta-jets"):
        surgery.cone_expansion(fresh, Slope.make(1, 0))


def test_k_expansions_refuse_a_curve_as_its_jets_do(poly_curve):
    curve = poly_curve.symmetrized()
    for bad in (
        dataclasses.replace(curve, m0=1),
        dataclasses.replace(curve, a2=curve.a2 + 1e-6),
        dataclasses.replace(curve, a1=2.0 + 0j).symmetrized(),
    ):
        with pytest.raises(SurgeryError) as jets:
            CurveJets.of(bad)
        with pytest.raises(SurgeryError) as scan:
            k_expansions(bad, [1, 0], [0, 1])
        assert str(scan.value) == str(jets.value)


def test_k_expansions_equal_the_jets_on_the_conjugate_curve(poly_curve):
    # the mirror image: a1 -> conj(a1) leaves mu_hat^2, so k0 > 0 and k1, unchanged
    curve = poly_curve.symmetrized()
    mirror = dataclasses.replace(
        curve, a1=curve.a1.conjugate(), a2=curve.a2.conjugate(), a3=curve.a3.conjugate()
    )
    p, q = (np.array(c) for c in zip(*coprime_slope_pairs(30)))
    for k, j in zip(k_expansions(mirror, p, q), jet_k_expansions(mirror, p, q)):
        assert np.max(np.abs(k - j) / np.abs(j)) <= 1e-13
    assert np.array_equal(k_expansions(mirror, p, q)[0], k_expansions(curve, p, q)[0])


def _exact_k(p: int, q: int) -> tuple[Fraction, Fraction]:
    """``whitehead_k_reference`` in exact rationals, for slopes beyond floats' reach."""
    d = p * p + 4 * p * q + 8 * q * q
    k1 = Fraction(-(p**4 + 8 * p**3 * q + 48 * p**2 * q**2 + 128 * p * q**3 + 128 * q**4))
    return Fraction(d, 2), k1 / (12 * d * d)


def _relative_gap(k, p: int, q: int) -> float:
    k0, k1 = _exact_k(p, q)
    return float(max(abs(Fraction(k.k0) - k0) / abs(k0), abs(Fraction(k.k1) - k1) / abs(k1)))


def test_k_expansions_hold_at_large_slopes(poly_curve):
    curve = poly_curve.symmetrized()
    for p, q in [(1, 10**40), (10**40, 1), (3, 10**8 + 1)]:
        assert _relative_gap(k_expansion_closed_form(curve, Slope.make(p, q)), p, q) <= 1e-14


def test_k_expansions_are_right_or_refused_up_to_float_range(poly_curve):
    curve = poly_curve.symmetrized()
    computed = refused = 0
    for e in range(2, 301):
        n = 10**e
        for p, q in [(1, n), (n, 1), (3, n + 1), (n + 1, -n)]:
            try:
                k = k_expansion_closed_form(curve, Slope.make(p, q))
            except ValueError as exc:
                assert str(exc).startswith(f"slope ({p}, {q}): ")
                refused += 1
                continue
            assert _relative_gap(k, p, q) <= 1e-12, (p, q)
            computed += 1
    assert computed and refused
