from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np
import pytest

from conetube import (
    BivariatePolynomial,
    CurveError,
    GeometricCurve,
    compose,
    expand_from_polynomial,
    expand_from_samples,
    figure_eight_a_polynomial,
    variable,
    whitehead_a_polynomial,
)
from conetube.curves import _branch_series
from tests.conftest import A1, A2, A3

R3 = math.sqrt(3)


def _cauchy_oracle(poly: BivariatePolynomial, a1_hint: complex, n_coeffs: int = 3):
    """High-precision Taylor coefficients of the branch l(m) through (-1, -1).

    Both fixture polynomials are quadratic in l, so the branch value is a
    closed-form root; coefficients come from a discrete Cauchy integral on
    a small circle, picking the root nearest the linear hint at each sample.
    Independent of the jet machinery under test.
    """
    mp.mp.dps = 40
    by_deg: dict[int, dict[int, complex]] = {0: {}, 1: {}, 2: {}}
    for dl, dm, coeff in poly.terms:
        assert dl <= 2, "oracle only handles quadratics in l"
        by_deg[dl][dm] = by_deg[dl].get(dm, 0) + coeff

    def coef(deg, m):
        return sum(mp.mpc(c) * m**k for k, c in by_deg[deg].items())

    r, n = mp.mpf("1e-3"), 32
    samples = []
    for k in range(n):
        w = mp.e ** (2j * mp.pi * k / n)
        m = mp.mpc(-1) + r * w
        a, b, c = coef(2, m), coef(1, m), coef(0, m)
        disc = mp.sqrt(b * b - 4 * a * c)
        roots = [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
        hint = mp.mpc(-1) + mp.mpc(a1_hint) * r * w
        samples.append(min(roots, key=lambda z: abs(z - hint)))
    out = []
    for j in range(1, n_coeffs + 1):
        cj = sum(samples[k] * mp.e ** (-2j * mp.pi * j * k / n) for k in range(n))
        out.append(complex(cj / (n * r**j)) * math.factorial(j))
    return out


def test_polynomial_evaluate_and_root_check():
    poly = whitehead_a_polynomial()
    assert abs(poly.evaluate(-1.0, -1.0)) < 1e-15
    poly.check_root(-1.0, -1.0)
    # spot value against a direct sum
    l, m = 0.3 + 0.1j, -0.7 + 0.2j
    direct = sum(c * l**dl * m**dm for dl, dm, c in poly.terms)
    assert abs(poly.evaluate(l, m) - direct) < 1e-14


def test_nonroot_base_rejected():
    poly = BivariatePolynomial.from_terms({(0, 0): 1.0, (1, 1): 1.0})
    with pytest.raises(CurveError):
        expand_from_polynomial(poly, -1, -1, 1.0)


def test_whitehead_branch(poly_curve):
    assert abs(poly_curve.a1 - A1) < 1e-10
    assert abs(poly_curve.a2 - A2) < 1e-10
    assert abs(poly_curve.a3 - A3) < 1e-9
    assert abs(poly_curve.involution_defect()) < 1e-12


def test_whitehead_conjugate_branch():
    curve = expand_from_polynomial(whitehead_a_polynomial(), -1, -1, 2 - 2j)
    assert abs(curve.a1 - (2 - 2j)) < 1e-10
    assert abs(curve.a2 - (2 + 6j)) < 1e-10
    assert abs(curve.a3 - A3) < 1e-9


def test_branches_match_cauchy_oracle():
    cases = [
        (whitehead_a_polynomial(), 2 + 2j),
        (whitehead_a_polynomial(), 2 - 2j),
        (figure_eight_a_polynomial(), 2j * R3),
        (figure_eight_a_polynomial(), -2j * R3),
    ]
    for poly, hint in cases:
        curve = expand_from_polynomial(poly, -1, -1, hint)
        o1, o2, o3 = _cauchy_oracle(poly, hint)
        assert abs(curve.a1 - o1) < 1e-9
        assert abs(curve.a2 - o2) < 1e-9
        assert abs(curve.a3 - o3) < 1e-8


def test_unfilled_branch_through_order_7():
    # l + 1 = sum b_k (m + 1)^k on the branch with slope 2 + 2i
    series = _branch_series(whitehead_a_polynomial(), -1, -1, 2 + 2j, 7)
    expected = [0, 2 + 2j, 1 - 3j, -2, (1 + 1j) / 2, -0.5j, -0.25j, -0.5j]
    assert series.order == 7
    assert np.abs(series.coeffs - expected).max() < 1e-13
    # the Cauchy oracle agrees, as factorial-normalised derivatives
    oracle = _cauchy_oracle(whitehead_a_polynomial(), 2 + 2j, 7)
    for k, derivative in enumerate(oracle, start=1):
        assert abs(series[k] - derivative / math.factorial(k)) < 1e-12


def test_figure_eight_branches():
    for sign in (1, -1):
        curve = expand_from_polynomial(
            figure_eight_a_polynomial(), -1, -1, sign * 2j * R3
        )
        assert abs(curve.a1 - sign * 2j * R3) < 1e-10
        assert abs(curve.a2 - (12 + sign * 2j * R3)) < 1e-9
        assert abs(curve.a3 - (36 - sign * 4j * R3)) < 1e-9
        assert abs(curve.involution_defect()) < 1e-9


def test_residual_authority(poly_curve):
    poly = whitehead_a_polynomial()
    dm = variable("dm")
    l_jet = poly_curve.series_jet("dm") - 1
    m_jet = dm - 1
    res = poly.evaluate_jets(l_jet, m_jet)
    scale = poly.coefficient_scale()
    for k in range(4):
        assert abs(res[k]) < 1e-9 * scale


def test_wrong_hint_rejected():
    with pytest.raises(CurveError):
        expand_from_polynomial(whitehead_a_polynomial(), -1, -1, 5.0 + 0j)


def test_json_roundtrip():
    poly = whitehead_a_polynomial()
    text = json.dumps(poly.to_json_dict())
    back = BivariatePolynomial.from_json(text)
    assert back == poly
    with pytest.raises(CurveError):
        BivariatePolynomial.from_json('{"terms": "nope"}')


def test_involution_helpers():
    curve = GeometricCurve(-1, -1, a1=2 + 2j, a2=2 - 6j, a3=-12)
    assert abs(curve.involution_defect()) < 1e-12
    bent = GeometricCurve(-1, -1, a1=2 + 2j, a2=2 - 6j + 1e-3, a3=-12)
    assert abs(bent.involution_defect()) > 1e-9
    fixed = bent.symmetrized()
    assert abs(fixed.involution_defect()) < 1e-14
    assert fixed.a1 == bent.a1 and fixed.a3 == bent.a3


def test_geometric_curve_validates_base():
    with pytest.raises(CurveError):
        GeometricCurve(0, -1, a1=1.0, a2=0.0, a3=0.0)


def _analytic_sampler(a1, a2, a3, reparam=False):
    def sample(s: complex):
        u = s + 2 * s * s if reparam else s
        return -1 + u, -1 + a1 * u + (a2 / 2) * u**2 + (a3 / 6) * u**3

    return sample


def test_samples_trivial_parametrization():
    a1, a2, a3 = 1.5 - 0.5j, -2.0 + 1j, 4.0 + 0.25j
    curve = expand_from_samples(_analytic_sampler(a1, a2, a3), -1, -1)
    assert abs(curve.a1 - a1) < 1e-9
    assert abs(curve.a2 - a2) < 1e-9
    # rounding noise scales as eps / h^3 at the smallest stencil radius
    assert abs(curve.a3 - a3) < 5e-8


def test_samples_reparametrization_invariance():
    a1, a2, a3 = 2 + 2j, 2 - 6j, -12 + 0j
    curve = expand_from_samples(_analytic_sampler(a1, a2, a3, reparam=True), -1, -1)
    assert abs(curve.a1 - a1) < 1e-9
    assert abs(curve.a2 - a2) < 1e-8
    assert abs(curve.a3 - a3) < 1e-7


def test_samples_base_mismatch_rejected():
    def off_base(s: complex):
        return -1 + 1e-3 + s, -1 + s

    with pytest.raises(CurveError):
        expand_from_samples(off_base, -1, -1)


def test_samples_need_nonvanishing_dm():
    def degenerate(s: complex):
        return -1 + s * s, -1 + s * s

    with pytest.raises(CurveError):
        expand_from_samples(degenerate, -1, -1)


def test_samples_radii_independence():
    a1, a2, a3 = 0.5 + 1j, 1.0 - 1j, -3.0 + 2j
    sampler = _analytic_sampler(a1, a2, a3)
    c1 = expand_from_samples(sampler, -1, -1)
    c2 = expand_from_samples(sampler, -1, -1, radii=(2e-2, 1e-2, 5e-3))
    assert abs(c1.a1 - c2.a1) < 1e-8
    assert abs(c1.a2 - c2.a2) < 1e-8
    assert abs(c1.a3 - c2.a3) < 1e-7


def test_series_jet_composes():
    curve = GeometricCurve(-1, -1, a1=2 + 2j, a2=2 - 6j, a3=-12)
    jet = curve.series_jet("dm")
    assert jet[0] == 0
    assert jet[1] == curve.a1
    assert jet[2] == curve.a2 / 2
    # composing with a reparametrization keeps order-1 slope a1 * inner slope
    t = variable("t")
    inner = 3 * t + t * t
    assert abs(compose(jet, inner)[1] - 3 * curve.a1) < 1e-14


def test_smooth_branch_of_the_hyperbola():
    # l m = 1 is smooth at (-1, -1): l = 1/m, so l', l'', l''' are -1, -2, -6 there
    poly = BivariatePolynomial.from_terms({(1, 1): 1.0, (0, 0): -1.0})
    curve = expand_from_polynomial(poly, -1, -1, -1.0)
    assert abs(curve.a1 + 1) < 1e-15
    assert abs(curve.a2 + 2) < 1e-14
    assert abs(curve.a3 + 6) < 1e-14


# each polynomial vanishes at (-1, -1); with x = l + 1 and y = m + 1 they are
REFUSALS = {
    # x^2 + y: dA/dl vanishes, dA/dm does not
    "no smooth branch": ({(2, 0): 1.0, (1, 0): 2.0, (0, 1): 1.0, (0, 0): 2.0}, 1.0),
    # x y: a crossing whose order-2 residual has no c^2 term
    "quadratic slope equation degenerate": ({(1, 1): 1.0, (1, 0): 1.0, (0, 1): 1.0, (0, 0): 1.0}, 1.0),
    # (x - y)(x - 1.2 y): slopes 1 and 1.2 both lie near the hint 1.1
    "is ambiguous between": (
        {(2, 0): 1.0, (1, 1): -2.2, (0, 2): 1.2, (1, 0): -0.2, (0, 1): 0.2},
        1.1,
    ),
    # (x - y)^2 = (l - m)^2: a double slope, so no order fixes the next coefficient
    "continuation degenerate at order 2": ({(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0}, 1.0),
    # l m = 1 is smooth with slope -1, far from the hint
    "is not near hint": ({(1, 1): 1.0, (0, 0): -1.0}, 5.0),
}


@pytest.mark.parametrize("reason", sorted(REFUSALS))
def test_expansion_refusals_name_their_reason(reason):
    table, hint = REFUSALS[reason]
    poly = BivariatePolynomial.from_terms(table)
    assert abs(poly.evaluate(-1, -1)) < 1e-15
    with pytest.raises(CurveError, match=reason):
        expand_from_polynomial(poly, -1, -1, hint)


@pytest.mark.parametrize(
    "table, reason",
    [
        # l^-1 - l vanishes at (-1, -1), but a Laurent term is not a polynomial
        ({(-1, 0): 1.0, (1, 0): -1.0}, "negative degree"),
        ({(1, 0): math.inf, (0, 0): 1.0}, "non-finite coefficient"),
        ({(1, 0): -math.inf, (0, 0): 1.0}, "non-finite coefficient"),
        ({(1, 0): math.nan, (0, 0): 1.0}, "non-finite coefficient"),
        ({(1, 0): complex(1, math.inf), (0, 0): 1.0}, "non-finite coefficient"),
    ],
)
def test_a_term_that_is_not_a_polynomial_term_is_refused(table, reason):
    with pytest.raises(CurveError, match=reason):
        BivariatePolynomial.from_terms(table)
