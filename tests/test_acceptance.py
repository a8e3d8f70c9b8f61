"""Acceptance gate: eleven numbered criteria, one printed line each.

Every criterion prints `criterion NN: PASS|FAIL <detail>` on the real
terminal (bypassing capture) and then asserts. Tolerances are pinned in
the assertions, not configurable.

Criterion 01 is expected to FAIL: its polynomial, transcribed exactly as
printed, evaluates to 8 at the base point (-1, -1), so no branch exists
there. The companion test expands the corrected polynomial (the 4*l*m
term should be 4*l*m^2) and recovers the published coefficients. See the
decisions ledger for the analysis.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from conetube import (
    BivariatePolynomial,
    CurveError,
    Slope,
    TubeMeasurement,
    cone_expansion,
    convergence_table,
    expand_from_polynomial,
    expand_from_samples,
    figure_eight_a_polynomial,
    filled_curve_sampler,
    fit_k_expansion,
    jet_log,
    k1_range_check,
    k_expansion_closed_form,
    measure_tube,
    solve_cone_structure,
    variable,
    whitehead_a_polynomial,
    whitehead_k_reference,
)
from conetube.cli import main as cli_main
from tests.conftest import A1, A2, A3
from tests.oracles import _axis_distance_R, _mobius, line_distance

EXPECTED = (A1, A2, A3)


def _line(capsys, num: int, ok: bool, detail: str, suffix: str = "") -> None:
    tag = f"criterion {num:02d}{suffix}"
    with capsys.disabled():
        print(f"\n{tag}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"{tag}: {detail}"


def _substitution_residual(poly, curve) -> float:
    dm = variable("dm")
    res = poly.evaluate_jets(curve.series_jet("dm") - 1, dm - 1)
    return max(abs(res[k]) for k in range(4))


def _coprime_pairs(max_norm: int) -> list[tuple[int, int]]:
    pairs = [(1, 0)]
    for q in range(1, max_norm + 1):
        for p in range(-(max_norm - q), max_norm - q + 1):
            if math.gcd(p, q) == 1:
                pairs.append((p, q))
    return pairs


@pytest.fixture(scope="module")
def convergence_rows(poly_curve):
    slopes = [Slope.make(n, 1) for n in (8, 16, 32, 64)]
    return convergence_table(slopes, poly_curve, include_unfilled=False)


@pytest.fixture(scope="module")
def filled_40_curve():
    return expand_from_samples(filled_curve_sampler(Slope.make(40, 1)), -1, -1)


def test_criterion_01_whitehead_a_coefficients(capsys):
    # the polynomial exactly as printed: -l + l^2 + 4*l*m + m^4 - l*m^4
    printed = BivariatePolynomial.from_terms(
        {(1, 0): -1, (2, 0): 1, (1, 1): 4, (0, 4): 1, (1, 4): -1}
    )
    start = time.perf_counter()
    try:
        curve = expand_from_polynomial(printed, -1, -1, A1)
    except CurveError as exc:
        elapsed = time.perf_counter() - start
        base_value = printed.evaluate(-1.0, -1.0)
        _line(
            capsys,
            1,
            False,
            f"polynomial as printed evaluates to {base_value.real:g} at "
            f"(-1, -1), not 0, so no branch passes through the base point "
            f"({exc}); {elapsed:.2f}s",
        )
        return
    elapsed = time.perf_counter() - start
    err = max(abs(g - e) for g, e in zip((curve.a1, curve.a2, curve.a3), EXPECTED))
    res = _substitution_residual(printed, curve)
    ok = err < 1e-10 and res < 1e-10 and elapsed < 1.0
    _line(
        capsys, 1, ok,
        f"coefficient error {err:.2e} (tol 1e-10), residual {res:.2e}, "
        f"{elapsed:.2f}s (limit 1s)",
    )


def test_criterion_01_companion_corrected_polynomial(capsys):
    start = time.perf_counter()
    curve = expand_from_polynomial(whitehead_a_polynomial(), -1, -1, A1)
    elapsed = time.perf_counter() - start
    err = max(abs(g - e) for g, e in zip((curve.a1, curve.a2, curve.a3), EXPECTED))
    res = _substitution_residual(whitehead_a_polynomial(), curve)
    ok = err < 1e-10 and res < 1e-10 and elapsed < 1.0
    _line(
        capsys, 1, ok,
        f"corrected polynomial (4*l*m^2 term) gives (2+2i, 2-6i, -12): "
        f"coefficient error {err:.2e}, residual {res:.2e}, {elapsed:.2f}s",
        suffix=" companion",
    )


def test_criterion_02_figure_eight_branches(capsys):
    start = time.perf_counter()
    poly = figure_eight_a_polynomial()
    worst_a1 = 0.0
    worst_res = 0.0
    for sign in (1, -1):
        target = sign * 2j * math.sqrt(3)
        curve = expand_from_polynomial(poly, -1, -1, target)
        worst_a1 = max(worst_a1, abs(curve.a1 - target))
        worst_res = max(worst_res, _substitution_residual(poly, curve))
    elapsed = time.perf_counter() - start
    ok = worst_a1 < 1e-10 and worst_res < 1e-9 and elapsed < 1.0
    _line(
        capsys, 2, ok,
        f"both branches a1 = +-2*sqrt(3)i: error {worst_a1:.2e} (tol 1e-10), "
        f"substitution residual {worst_res:.2e} (tol 1e-9), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_03_involution_symmetry(capsys, poly_curve, convergence_rows, filled_40_curve):
    base_defect = abs(poly_curve.involution_defect())
    filled = [
        (row.label, abs(row.curve.involution_defect()))
        for row in convergence_rows
        if row.curve is not None
        and sum(abs(int(t)) for t in row.label.split(",")) >= 10
    ]
    filled.append(("40,1", abs(filled_40_curve.involution_defect())))
    worst = max(d for _, d in filled)
    ok = base_defect < 1e-12 and worst < 1e-6
    _line(
        capsys, 3, ok,
        f"a2 = a1 - a1^2: unfilled defect {base_defect:.2e} (tol 1e-12); "
        f"{len(filled)} filled curves with |p1|+|q1| >= 10, worst defect "
        f"{worst:.2e} (tol 1e-6)",
    )


def test_criterion_04_cone_expansion_identity(capsys, poly_curve):
    curve = poly_curve.symmetrized()
    rng = np.random.default_rng(404)
    theta = variable("theta")
    target = 0.5j * theta
    worst = 0.0
    done = 0
    while done < 20:
        p, q = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
        if math.gcd(p, q) != 1:
            continue
        done += 1
        ce = cone_expansion(curve, Slope.make(p, q))
        combo = p * jet_log(-ce.m_jet, 0.0) + q * jet_log(-ce.l_jet, 0.0)
        worst = max(worst, max(abs(combo[k] - target[k]) for k in range(4)))
    ok = worst < 1e-12
    _line(
        capsys, 4, ok,
        f"p*log(-m) + q*log(-l) = (i/2)*theta through order 3 on 20 random "
        f"coprime slopes, worst residual {worst:.2e} (tol 1e-12)",
    )


def test_criterion_05_k_coefficients(capsys, poly_curve):
    curve = poly_curve.symmetrized()
    worst = 0.0
    count = 0
    for p, q in _coprime_pairs(30):
        jet = k_expansion_closed_form(curve, Slope.make(p, q))
        ref = whitehead_k_reference(Slope.make(p, q))
        worst = max(worst, abs(jet.k0 - ref.k0), abs(jet.k1 - ref.k1))
        count += 1
    spot10 = abs(k_expansion_closed_form(curve, Slope.make(1, 0)).k1 + 1 / 12)
    spot01 = abs(k_expansion_closed_form(curve, Slope.make(0, 1)).k1 + 1 / 6)
    ok = worst < 1e-8 and spot10 < 1e-10 and spot01 < 1e-10
    _line(
        capsys, 5, ok,
        f"jet pipeline vs closed form on {count} coprime slopes with "
        f"|p2|+|q2| <= 30: worst gap {worst:.2e} (tol 1e-8); spot "
        f"k1(1,0)+1/12 = {spot10:.2e}, k1(0,1)+1/6 = {spot01:.2e} (tol 1e-10)",
    )


def test_criterion_06_k1_range(capsys):
    start = time.perf_counter()
    lo, hi = k1_range_check(samples=1_000_000)
    elapsed = time.perf_counter() - start
    ok = (
        -1 / 6 - 1e-9 <= lo <= -1 / 12 + 1e-9
        and -1 / 6 - 1e-9 <= hi <= -1 / 12 + 1e-9
        and elapsed < 5.0
    )
    _line(
        capsys, 6, ok,
        f"k1 range [{lo:.12f}, {hi:.12f}] inside "
        f"[-1/6 - 1e-9, -1/12 + 1e-9]; {elapsed:.2f}s at 1e6 samples (limit 5s)",
    )


def test_criterion_07_end_to_end_fit(capsys):
    start = time.perf_counter()
    worst = 0.0
    for p, q in [(1, 0), (0, 1), (1, 1)]:
        slope2 = Slope.make(p, q)
        k0_fit, k1_fit = fit_k_expansion(
            None, slope2, thetas=(0.02, 0.04, 0.06, 0.08, 0.10)
        )
        ref = whitehead_k_reference(slope2)
        worst = max(
            worst,
            abs(k0_fit - ref.k0) / abs(ref.k0),
            abs(k1_fit - ref.k1) / abs(ref.k1),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 30.0
    _line(
        capsys, 7, ok,
        f"least-squares fit over theta in {{0.02..0.10}} vs closed form on "
        f"(1,0), (0,1), (1,1): worst relative gap {worst:.2e} (tol 1e-3); "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_criterion_08_convergence(capsys, convergence_rows):
    by_n = {int(row.label.split(",")[0]): row for row in convergence_rows}
    ok = all(row.failure is None for row in convergence_rows)
    detail_parts = []
    if ok:
        for i in range(3):
            errs = {n: by_n[n].errors[i] for n in (8, 16, 32, 64)}
            finite = all(math.isfinite(e) for e in errs.values())
            decreasing = errs[16] > errs[32] > errs[64]
            small = errs[64] < 0.05
            ok = ok and finite and decreasing and small
            detail_parts.append(f"a{i + 1}: {errs[64]:.3f}")
    else:
        detail_parts.append("; ".join(r.failure or "" for r in convergence_rows))
    _line(
        capsys, 8, ok,
        "errors |a_i^(n,1) - a_i| decrease from n=16 onward; at n=64: "
        + ", ".join(detail_parts)
        + " (each < 0.05)",
    )


def test_criterion_09_monotonicity(capsys, filled_40_curve):
    curve = filled_40_curve.symmetrized()
    violations = []
    count = 0
    for p, q in _coprime_pairs(8):
        k = k_expansion_closed_form(curve, Slope.make(p, q))
        count += 1
        if not (k.k1 < 0 and k.k1 + 1 > 0):
            violations.append(((p, q), k.k1))
    ok = len(violations) <= 1
    note = f"exceptions: {violations}" if violations else "no exceptions"
    _line(
        capsys, 9, ok,
        f"filled (40,1): k1 < 0 and k1 + 1 > 0 on {count} coprime slopes "
        f"|p2|+|q2| <= 8; {note} (at most one permitted)",
    )


def test_criterion_10_geometry_cross_checks(capsys):
    cases = [
        (None, Slope.make(1, 0), 0.05),
        (None, Slope.make(1, 1), 0.08),
        (Slope.make(9, 1), Slope.make(1, 0), 0.05),
    ]
    worst_r = 0.0
    measurements: list[TubeMeasurement] = []
    for slope1, slope2, theta in cases:
        st = solve_cone_structure(slope1, slope2, theta)
        tm = measure_tube(st)
        measurements.append(tm)
        r_oracle, _ = _axis_distance_R(st)
        worst_r = max(worst_r, abs(tm.R - r_oracle))
    for theta in (0.02, 0.04, 0.06, 0.08, 0.10):
        measurements.append(
            measure_tube(solve_cone_structure(None, Slope.make(1, 0), theta))
        )

    rng = np.random.default_rng(1010)
    worst_mob = 0.0
    done = 0
    while done < 50:
        vals = rng.normal(size=8)
        pts = [complex(vals[2 * i], vals[2 * i + 1]) for i in range(4)]
        if min(abs(pts[0] - pts[1]), abs(pts[2] - pts[3])) < 1e-2:
            continue
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(g)) < 1e-2:
            continue
        done += 1
        moved = [_mobius(g, w) for w in pts]
        worst_mob = max(worst_mob, abs(line_distance(*pts) - line_distance(*moved)))

    worst_area = 0.0
    for tm in measurements:
        tm.check()
        area = tm.theta * tm.t * math.sinh(tm.R) * math.cosh(tm.R)
        worst_area = max(worst_area, abs(tm.mu_hat_sq - tm.mu**2 / area))
    ok = worst_r < 1e-8 and worst_mob < 1e-10 and worst_area < 1e-12
    _line(
        capsys, 10, ok,
        f"axis-distance oracle gap {worst_r:.2e} (tol 1e-8) on "
        f"{len(cases)} structures; Moebius invariance {worst_mob:.2e} "
        f"(tol 1e-10) on 50 configurations; area identity "
        f"{worst_area:.2e} on {len(measurements)} measurements",
    )


def test_criterion_11_verify_suite(capsys, tmp_path):
    out = tmp_path / "verify.json"
    code = cli_main(["verify", "--points", "100", "--output", str(out)])
    payload = json.loads(out.read_text())
    checks = {c["check"]: c for c in payload["checks"]}
    tols = {
        "gluing_residual": 1e-12,
        "group_relations": 1e-11,
        "commutator_trace": 1e-10,
        "cusp_trace_relations": 1e-9,
    }
    ok = code == 0 and set(checks) == set(tols)
    parts = []
    for name, tol in tols.items():
        c = checks.get(name)
        if c is None:
            ok = False
            continue
        ok = ok and c["points"] == 100 and c["max_residual"] < tol
        parts.append(f"{name} {c['max_residual']:.1e} < {tol:g}")
    _line(
        capsys, 11, ok,
        f"verify exit code {code}; 100 points per check; " + "; ".join(parts),
    )
