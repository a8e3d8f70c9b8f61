from __future__ import annotations

import cmath
import math
import re

import numpy as np
import pytest

from conetube import (
    BASE_SHAPES,
    GluingError,
    TetShapes,
    cusp_eigenvalues,
    residuals,
    solve_shapes,
)
from conetube import gluing
from conetube.gluing import CHART_RADIUS, cusp_logs, sqrt_arguments
from conetube.jets import BranchError
from tests.oracles import (
    alternate_eigenvalues,
    chain_rule_gradients,
    continue_sqrt,
    continued_eigenvalues,
    sqrt_along_path,
    walked_point,
)

BASE = 0.5 + 0.5j
EIGENVALUES = ("m1", "l1", "m2", "l2")


def _walked(u: complex, v: complex, steps: int = 8):
    """Shapes, root anchors and eigenvalues continued along the straight chart path from base."""
    shapes, anchors, ev, _ = walked_point(u, v, steps)
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
        shapes, anchors, _ = _walked(BASE + du, BASE + dv)
        ev = cusp_eigenvalues(shapes)
        alt = alternate_eigenvalues(shapes, anchors)
        assert abs(ev.m1 - alt.m1) < 1e-12
        assert abs(ev.l1 - alt.l1) < 1e-12
        assert abs(ev.m2 - alt.m2) < 1e-12
        assert abs(ev.l2 - alt.l2) < 1e-12


def test_eigenvalue_products_on_variety():
    # m and l eigenvalue squares are rational in the shapes: check
    # m1^2 against its defining shape ratio
    shapes = solve_shapes(0.58 + 0.45j, 0.44 + 0.54j)
    ev = cusp_eigenvalues(shapes)
    z1, z2, z3, z4 = shapes.as_tuple()
    assert abs(ev.m1**2 - (1 - z4) / (1 - z2)) < 1e-13
    assert abs(ev.m2**2 - (1 - z2) / (1 - z1)) < 1e-13


def test_a_far_point_gets_the_walked_eigenvalues_in_one_step():
    # an in-chart point too far for a single continuation step from the base:
    # its closed-form eigenvalues are the ones the walk reaches
    shapes = solve_shapes(*FAR)
    with pytest.raises(GluingError, match="branch"):
        continued_eigenvalues(shapes)
    _, _, walked = _walked(*FAR)
    ev = cusp_eigenvalues(shapes)
    for name in EIGENVALUES:
        assert abs(getattr(ev, name) - getattr(walked, name)) <= 1e-14


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


# the chart-edge point above, and another where sqrt(disc) cannot be
# continued from the base in two hops
EDGE = (0.395 + 0.214j, 0.577 + 0.179j)
SPLIT = (0.457 + 0.617j, 0.606 + 0.716j)


def _discriminant(u: complex, v: complex, t: float) -> complex:
    uu, vv = BASE + t * (u - BASE), BASE + t * (v - BASE)
    a, b = 1 - uu, 1 - vv
    qa, qb, qc = b * (a * b - uu * vv), uu * vv * (a + b), -uu * vv * a
    return qb * qb - 4 * qa * qc


def _two_hops_refused(u: complex, v: complex) -> bool:
    try:
        half = continue_sqrt(_discriminant(u, v, 0.5), -0.5j, -0.5 + 0.5j)
        continue_sqrt(_discriminant(u, v, 1.0), _discriminant(u, v, 0.5), half)
    except BranchError:
        return True
    return False


def test_batched_solve_equals_scalar_solve_per_row():
    assert _two_hops_refused(*EDGE) and _two_hops_refused(*SPLIT)
    rng = np.random.default_rng(20)
    du, dv = rng.uniform(-0.08, 0.08, size=(2000, 4)).view(np.complex128).T
    u = np.append(BASE + du, [EDGE[0], SPLIT[0]])
    v = np.append(BASE + dv, [EDGE[1], SPLIT[1]])
    batch = np.array(solve_shapes(u, v).as_tuple())
    rows = np.array([solve_shapes(complex(a), complex(b)).as_tuple() for a, b in zip(u, v)]).T
    assert np.all(np.abs(batch - rows) <= 1e-14 * np.abs(rows))
    r1, r2 = residuals(solve_shapes(u, v))
    assert max(np.abs(r1).max(), np.abs(r2).max()) < 1e-13


def test_batched_walk_equals_scalar_walk():
    # the closed form on a batch, on each row alone, and the walks of both
    rng = np.random.default_rng(21)
    du, dv = rng.uniform(-0.15, 0.15, size=(300, 4)).view(np.complex128).T
    shapes, _, walked = _walked(BASE + du, BASE + dv)
    ev, logs = cusp_eigenvalues(shapes), cusp_logs(shapes)
    for i in range(du.size):
        one_shapes, _, one_walked = _walked(complex(BASE + du[i]), complex(BASE + dv[i]))
        one, one_logs = cusp_eigenvalues(one_shapes), cusp_logs(one_shapes)
        assert type(one.m1) is complex and type(one_logs[0]) is complex
        for k, name in enumerate(EIGENVALUES):
            # numpy's log and exp against cmath's, a few units in the last place
            assert abs(getattr(ev, name)[i] - getattr(one, name)) <= 1e-14 * abs(getattr(one, name))
            assert abs(logs[k][i] - one_logs[k]) <= 1e-14
            assert abs(getattr(ev, name)[i] - getattr(walked, name)[i]) <= 1e-13
            assert abs(getattr(one, name) - getattr(one_walked, name)) <= 1e-13


def test_closed_form_logs_equal_the_small_step_walk_over_the_chart():
    # 10,000 chart points, a quarter of them on the torus |u-b| = |v-b| = radius
    # where the radicands move most, as one row batch against the walk of
    # every row from the base in 16 small steps
    rng = np.random.default_rng(30)
    n = 10_000
    r = CHART_RADIUS * np.sqrt(rng.uniform(size=(2, n)))
    r[:, : n // 4] = CHART_RADIUS * (1 - 1e-12)  # the walk's last step rounds
    u, v = BASE + r * np.exp(2j * np.pi * rng.uniform(size=(2, n)))
    _, _, walked, walked_logs = walked_point(u, v, 16)
    logs = cusp_logs(solve_shapes(u, v))
    for got, want in zip(logs, walked_logs):
        assert np.abs(got - want).max() <= 1e-14
    # the walk leaves the principal branch of some radicand: log(-l1) reaches |Im| > 1
    assert max(np.abs(log.imag).max() for log in walked_logs) > 1.0
    ev = cusp_eigenvalues(solve_shapes(u, v))
    for name in EIGENVALUES:
        got, want = getattr(ev, name), getattr(walked, name)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_a_radicand_whose_log_alone_is_off_by_2_pi_i_takes_its_sums_branch():
    # oriented shapes off the variety with arg z3 + arg z4 - arg z1 - arg z2
    # above pi: the principal log of z3 z4 / (z1 z2) is 2 pi i short of the sum
    shapes = TetShapes(0.6 + 0.8j, 0.6 + 0.8j, -0.9 + 0.1j, -0.8 + 0.2j)
    z1, z2, z3, z4 = shapes.as_tuple()
    total = cmath.log(z3) + cmath.log(z4) - cmath.log(z1) - cmath.log(z2)
    principal = cmath.log(sqrt_arguments(shapes)[1])
    assert abs(total - principal - 2j * math.pi) < 1e-14
    ratio1 = cmath.log(1 - z4) - cmath.log(1 - z2)
    log_l1 = ratio1 + total / 2
    assert abs(cusp_logs(shapes)[1] - log_l1) < 1e-15
    assert abs(cusp_eigenvalues(shapes).l1 + cmath.exp(log_l1)) < 1e-15
    rows = cusp_logs(TetShapes(*(np.full(3, z) for z in shapes.as_tuple())))
    assert np.abs(rows[1] - log_l1).max() < 1e-15


FAR = (0.293 + 0.368j, 0.651 + 0.541j)  # in the chart, too far for one small step


def _shapes_with(bad: complex, row: int) -> TetShapes:
    z1 = np.full(4, BASE)
    z1[row] = bad
    return TetShapes(z1, BASE, BASE, BASE)


BAD_ROWS = {
    # name: (operation on a batch or on one point, bad point, error type)
    "chart radius": (solve_shapes, (BASE + CHART_RADIUS + 0.01, BASE), GluingError),
    "non-finite": (solve_shapes, (complex("nan"), BASE), ValueError),
}


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
@pytest.mark.parametrize("row", [0, 2])
def test_one_bad_row_refuses_the_batch(name, row):
    op, bad, error = BAD_ROWS[name]
    u, v = np.full(4, BASE + 0.01), np.full(4, BASE - 0.01j)
    op(u, v)
    u[row], v[row] = bad
    with pytest.raises(error) as batch_exc:
        op(u, v)
    assert batch_exc.value.row == row
    assert f"row {row}: " in str(batch_exc.value)
    # the point alone raises the same type, with the same reason
    with pytest.raises(error) as one_exc:
        op(*bad)
    assert type(one_exc.value) is type(batch_exc.value)
    assert str(one_exc.value) == batch_exc.value.reason


@pytest.mark.parametrize("bad", [0.0, 1.0])
def test_degenerate_row_refuses_the_batch(bad):
    with pytest.raises(GluingError, match="row 3: degenerate") as exc:
        _shapes_with(bad, 3).check_nondegenerate()
    assert exc.value.row == 3
    _shapes_with(BASE, 3).check_nondegenerate()


# Points that fail one guard each once the chart radius is 0.8: inside it,
# DEGENERATE has z1 = 1e-9 with one oriented root and UNORIENTED has none
GOOD, OUTSIDE = (BASE + 0.01, BASE - 0.01j), (BASE + 0.9, BASE)
DEGENERATE, UNORIENTED = (1e-9 + 0j, BASE), (1 - 1e-9j, BASE)
NAN, INF = complex("nan"), complex("inf")
PRECEDENCE = {
    # rows that fail different guards: the first guard in order (u finite,
    # v finite, chart radius, orientation, then each shape finite or not
    # degenerate) names its first failing row, whatever later rows fail
    "nan u after an outside row": ([GOOD, OUTSIDE, GOOD, (NAN, BASE)], ValueError, 3,
                                   "non-finite value (nan+0j)"),
    "u before v": ([(BASE, NAN), GOOD, (INF, BASE)], ValueError, 2, "non-finite value (inf+0j)"),
    "radius before orientation": ([GOOD, UNORIENTED, OUTSIDE], GluingError, 2,
                                  "chart coordinate 0.900 from base exceeds radius 0.8"),
    "orientation before degeneracy": (
        [DEGENERATE, UNORIENTED], GluingError, 1,
        "0 of the 2 roots at chart point ((1-1e-09j), (0.5+0.5j)) are positively oriented, not 1",
    ),
    "z1 before z2": ([(BASE, 1e-9 + 0j), GOOD, DEGENERATE], GluingError, 2,
                     "degenerate tetrahedron shape (1e-09+0j)"),
}


@pytest.mark.parametrize("name", sorted(PRECEDENCE))
def test_rows_that_fail_different_guards_are_refused_in_guard_order(monkeypatch, name):
    points, error, row, reason = PRECEDENCE[name]
    monkeypatch.setattr(gluing, "CHART_RADIUS", 0.8)
    u, v = (np.array(column) for column in zip(*points))
    with pytest.raises(error) as batch:
        solve_shapes(u, v)
    assert type(batch.value) is error
    assert (batch.value.row, batch.value.reason) == (row, reason)
    assert str(batch.value) == f"row {row}: {reason}"
    with pytest.raises(error, match=f"^{re.escape(reason)}$"):
        solve_shapes(*points[row])


def test_the_root_choice_refuses_the_branch_locus():
    # the discriminant vanishes here (0.40 from the base, outside the chart):
    # the two roots nearly coincide, so their orientation cannot tell them apart
    u, v = 0.8109969658173808 + 0.24844907584178824j, 0.45734774735865463 + 0.8467098623715027j
    assert abs(_discriminant(u, v, 1.0)) < 1e-15
    with pytest.raises(GluingError, match="positively oriented, not 1") as one_exc:
        gluing._oriented_root(u, v)
    with pytest.raises(GluingError, match="^row 1: ") as batch_exc:
        gluing._oriented_root(np.array([BASE, u, BASE]), np.array([BASE, v, BASE]))
    assert batch_exc.value.row == 1
    assert batch_exc.value.reason == str(one_exc.value)


def _both_roots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(z3, z4) of both roots of the z3 quadratic at each chart point, shape (2, 2, rows)."""
    a, b = 1 - u, 1 - v
    qa, qb, qc = b * (a * b - u * v), u * v * (a + b), -u * v * a
    root = np.sqrt(qb * qb - 4 * qa * qc)
    w = np.array([(-qb + root) / (2 * qa), (-qb - root) / (2 * qa)])
    return np.array([1 - w, 1 - b * w / a]).transpose(1, 0, 2)


def test_exactly_one_root_is_positively_oriented_over_the_chart():
    # z3, z4 and 1/disc are holomorphic on the chart, so the least Im z3,
    # Im z4 and |disc| over it are taken on the torus |u-b| = |v-b| = radius;
    # a quarter of the sample lies there
    rng = np.random.default_rng(25)
    n = 100_000
    r = CHART_RADIUS * np.sqrt(rng.uniform(size=(2, n)))
    r[:, : n // 4] = CHART_RADIUS
    u, v = BASE + r * np.exp(2j * np.pi * rng.uniform(size=(2, n)))
    roots = _both_roots(u, v)
    margin = roots.imag.min(axis=1)  # the smaller of Im z3, Im z4 of each root
    oriented = margin > 0
    assert np.all(oriented.sum(axis=0) == 1)
    assert margin.max(axis=0).min() >= 0.1
    assert margin.min(axis=0).max() <= -0.1
    assert np.abs(_discriminant(u, v, 1.0)).min() >= 0.03
    chosen = roots[oriented.argmax(axis=0), :, np.arange(n)].T
    assert np.abs(np.array(gluing._oriented_root(u, v)[:2]) - chosen).max() <= 1e-14


def test_the_oriented_root_is_the_one_continued_from_the_base():
    # the reference continues sqrt(disc) from the base root w = (1-i)/2
    # along the straight chart segment, in 400 steps
    rng = np.random.default_rng(26)
    d = rng.uniform(-CHART_RADIUS, CHART_RADIUS, size=(200, 4)).view(np.complex128)
    d = d[(abs(d) <= CHART_RADIUS).all(axis=1)][:48]
    points = [EDGE, SPLIT] + [(BASE + a, BASE + b) for a, b in d]
    assert len(points) == 50
    for u, v in points:
        root = sqrt_along_path([_discriminant(u, v, k / 400) for k in range(401)], -0.5 + 0.5j)
        qa = (1 - v) * (1 - u - v)
        qb = u * v * (2 - u - v)
        z3 = 1 - (-qb + root) / (2 * qa)
        assert abs(solve_shapes(u, v).z3 - z3) <= 1e-12


def test_log_gradients_keep_the_bits_of_the_general_chain_rule():
    # leaving out the zero terms of (dz1, dz2) = (1, 0) and (0, 1), and the
    # quadratic formed a second time, moves no bit of the gradient rows
    rng = np.random.default_rng(37)
    d = rng.uniform(-CHART_RADIUS, CHART_RADIUS, size=(300, 4)).view(np.complex128)
    du, dv = d[(abs(d) <= CHART_RADIUS).all(axis=1)].T
    points = [(BASE, BASE)] + [(complex(BASE + a), complex(BASE + b)) for a, b in zip(du, dv)]
    for u, v in points:
        shapes = solve_shapes(u, v)
        assert repr(gluing.log_eigenvalue_gradients(shapes)) == repr(chain_rule_gradients(shapes))
    shapes = solve_shapes(BASE + du * 0.7, BASE + dv * 0.7)
    rows, want = gluing.log_eigenvalue_gradients(shapes), chain_rule_gradients(shapes)
    assert repr(np.asarray(rows).tolist()) == repr(np.asarray(want).tolist())


def test_row_log_gradients_equal_the_scalar_ones_per_row():
    rng = np.random.default_rng(26)
    du, dv = rng.uniform(-0.2, 0.2, size=(300, 4)).view(np.complex128).T
    rows = np.asarray(gluing.log_eigenvalue_gradients(solve_shapes(BASE + du, BASE + dv)))
    assert rows.shape == (2, 4, 300)
    for i in range(du.size):
        shapes = solve_shapes(complex(BASE + du[i]), complex(BASE + dv[i]))
        one = np.array(gluing.log_eigenvalue_gradients(shapes))
        assert np.abs(rows[..., i] - one).max() <= 1e-13 * np.abs(one).max()
