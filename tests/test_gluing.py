from __future__ import annotations

import numpy as np
import pytest

from conetube import (
    BASE_SHAPES,
    BranchAnchors,
    GluingError,
    TetShapes,
    cusp_eigenvalues,
    residuals,
    solve_shapes,
)
from conetube import gluing
from conetube.gluing import CHART_RADIUS, sqrt_arguments
from conetube.jets import BranchError, continue_sqrt
from tests.oracles import alternate_eigenvalues, sqrt_along_path

BASE = 0.5 + 0.5j


def _walked(u: complex, v: complex, steps: int = 8):
    """Shapes, anchors and eigenvalues continued along the straight chart path from base."""
    anchors = BranchAnchors()
    for k in range(1, steps + 1):
        s = k / steps
        shapes = solve_shapes(BASE + s * (u - BASE), BASE + s * (v - BASE))
        ev = cusp_eigenvalues(shapes, anchors)
        anchors = ev.anchors
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
        cusp_eigenvalues(shapes, BranchAnchors())
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
    rng = np.random.default_rng(21)
    du, dv = rng.uniform(-0.15, 0.15, size=(300, 4)).view(np.complex128).T
    _, anchors, ev = _walked(BASE + du, BASE + dv)
    for i in range(du.size):
        _, one_anchors, one = _walked(complex(BASE + du[i]), complex(BASE + dv[i]))
        for name in ("m1", "l1", "m2", "l2"):
            assert abs(getattr(ev, name)[i] - getattr(one, name)) <= 1e-13
            assert abs(getattr(anchors, name)[1][i] - getattr(one_anchors, name)[1]) <= 1e-13


def _shapes_with(bad: complex, row: int) -> TetShapes:
    z1 = np.full(4, BASE)
    z1[row] = bad
    return TetShapes(z1, BASE, BASE, BASE)


FAR = (0.293 + 0.368j, 0.651 + 0.541j)  # in the chart, one eigenvalue step away
BAD_ROWS = {
    # name: (operation on a batch or on one point, bad point, error type)
    "chart radius": (solve_shapes, (BASE + CHART_RADIUS + 0.01, BASE), GluingError),
    "non-finite": (solve_shapes, (complex("nan"), BASE), ValueError),
    "branch step": (
        lambda u, v: cusp_eigenvalues(solve_shapes(u, v), BranchAnchors()),
        FAR,
        GluingError,
    ),
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
    assert np.abs(np.array(gluing._oriented_root(u, v)) - chosen).max() <= 1e-14


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


def test_row_log_gradients_equal_the_scalar_ones_per_row():
    rng = np.random.default_rng(26)
    du, dv = rng.uniform(-0.2, 0.2, size=(300, 4)).view(np.complex128).T
    rows = np.asarray(gluing.log_eigenvalue_gradients(solve_shapes(BASE + du, BASE + dv)))
    assert rows.shape == (4, 2, 300)
    for i in range(du.size):
        shapes = solve_shapes(complex(BASE + du[i]), complex(BASE + dv[i]))
        one = np.array(gluing.log_eigenvalue_gradients(shapes))
        assert np.abs(rows[..., i] - one).max() <= 1e-13 * np.abs(one).max()


def test_a_stacked_root_pass_refuses_every_branch_point_before_any_long_step():
    # m1 takes a long step at row 5 and l1 hits 0 at row 2: the m1 call alone
    # refuses row 5, but the stacked pass runs the branch-point guard first
    args = np.ones((4, 6), dtype=complex)
    args[0, 5], args[1, 2] = 3.0, 0.0
    with pytest.raises(BranchError) as first_call:
        continue_sqrt(args[0], 1.0 + 0j, 1.0 + 0j)
    assert first_call.value.row == 5
    with pytest.raises(BranchError) as stacked:
        gluing._continue_stacked(continue_sqrt, tuple(args), ((1.0 + 0j, 1.0 + 0j),) * 4)
    assert stacked.value.row == 2
    assert stacked.value.reason == "square-root argument hit the branch point 0"
    assert str(stacked.value) == "row 2: square-root argument hit the branch point 0"


def test_a_stacked_root_refusal_names_the_row_and_the_scalar_reason():
    u, v = np.full(5, BASE + 0.01), np.full(5, BASE - 0.01j)
    u[3], v[3] = FAR
    with pytest.raises(GluingError) as rows:
        cusp_eigenvalues(solve_shapes(u, v))
    with pytest.raises(GluingError) as one:
        cusp_eigenvalues(solve_shapes(*FAR))
    assert rows.value.row == 3 and rows.value.reason == str(one.value)
    assert str(rows.value) == "eigenvalue branch lost: row 3: " + str(one.value).split(": ", 1)[1]
