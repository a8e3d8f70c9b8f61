"""Independent expressions the tests compare the library against.

Each oracle computes a quantity the library also computes, by a different
route: the small-step continuation of square roots and logs from a known
anchor (``continue_sqrt``, ``continue_log``), and with it the cusp
eigenvalues, their logs and the z branch of the holonomy family walked
from the base, which the library fixes in closed form by orientation; the
second printed form of the cusp eigenvalues, the printed trace display of
the tube radius, branch continuation along a whole path, the hyperbolic
distance between two geodesics from their cross-ratio with the tube
radius as half the distance from the core axis to its tied translate
(criterion 10's geometry oracle), a cone structure reached by small
continuation steps, the k1scan slopes listed pair by pair with their k0
and k1 by one row of jets per slope (the jet of mu_hat^2 itself among
them), and the exponential of a jet,
against which ``jet_log`` and ``compose`` are checked. None of them is
used by the library. Beside them live the test-only helpers that the
library no longer exports: the longitude eigenvalue of the family, the
cusp relation residuals, and a chart point with its eigenvalues and its
exact filling Jacobian, which the library's Newton evaluates in one pass.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence

import numpy as np

from conetube.config import TOLERANCES
from conetube.gluing import (
    BASE_SHAPE,
    CuspEigenvalues,
    GluingError,
    TetShapes,
    cusp_eigenvalues,
    cusp_logs,
    log_eigenvalue_gradients,
    residuals,
    solve_shapes,
    sqrt_arguments,
)
from conetube.holonomy import (
    BASE_Z,
    BASE_Z_SQUARED,
    HolonomyError,
    Representation,
    _build_representation,
    _max_norm,
    _product,
    _z_radicand,
    commutator_trace_minus2,
    peripheral_matrices,
    relation_residuals,
    representation_at,
    trace_identity_l1,
    trace_identity_m1,
    y_from_l2,
)
from conetube.jets import BranchError, Jet, _refuse, constant, jet_sqrt, real_modulus_jet
from conetube.surgery import (
    _COMPLETE,
    _TAU_STEP_MIN,
    _THETA_STEP_MIN,
    CurveJets,
    SolvedStructure,
    SurgeryError,
    VarietyPoint,
    _combination,
    _first_cusp_residual,
    _logs,
    _newton,
    _pinned_meridian,
    _second_cusp_residual,
    _within,
    cone_jets,
)
from conetube.tube import TubeError

# ---------------------------------------------------------------------------
# small-step continuation

_MAX_REL_STEP = 0.5


def _ratio_of_steps(arg, anchor_arg, kind: str):
    """arg / anchor_arg on every row, refusing a branch point or a long step.

    The two step guards of ``continue_sqrt`` and ``continue_log`` (``kind``
    names the function), run on the whole array; a refused row refuses it
    with its index named.
    """
    _refuse(
        (anchor_arg == 0) | (arg == 0),
        BranchError,
        lambda i: f"{kind} argument hit the branch point 0",
    )
    ratio = arg / anchor_arg
    step = np.abs(ratio - 1.0)
    _refuse(
        step > _MAX_REL_STEP,
        BranchError,
        lambda i: f"relative step {step[i]:.3f} exceeds {_MAX_REL_STEP}; subdivide the path",
    )
    return ratio


def _scalar_ratio(arg, anchor_arg, kind: str) -> complex:
    """``_ratio_of_steps`` of Python numbers."""
    if anchor_arg == 0 or arg == 0:
        raise BranchError(f"{kind} argument hit the branch point 0")
    ratio = arg / anchor_arg
    if abs(ratio - 1.0) > _MAX_REL_STEP:
        raise BranchError(
            f"relative step {abs(ratio - 1.0):.3f} exceeds {_MAX_REL_STEP}; subdivide the path"
        )
    return ratio


def continue_sqrt(arg, anchor_arg, anchor_value):
    """One continuation step of sqrt from a known (argument, value) anchor.

    A step whose argument moves by more than half of the anchor's is
    refused as ambiguous; the caller subdivides its own path. An ndarray
    ``arg`` takes one step per row, with anchors that broadcast against it,
    and a refused row refuses the batch with its row named.
    """
    if isinstance(arg, np.ndarray):
        return anchor_value * np.sqrt(_ratio_of_steps(arg, anchor_arg, "square-root"))
    return anchor_value * cmath.sqrt(_scalar_ratio(arg, anchor_arg, "square-root"))


def continue_log(arg, anchor_arg, anchor_value):
    """One continuation step of log from a known (argument, value) anchor, as ``continue_sqrt``."""
    if isinstance(arg, np.ndarray):
        return anchor_value + np.log(_ratio_of_steps(arg, anchor_arg, "log"))
    return anchor_value + cmath.log(_scalar_ratio(arg, anchor_arg, "log"))


# ---------------------------------------------------------------------------
# cusp eigenvalues and their logs, continued from the base

# (argument, value) of each cusp square root at the base
BASE_ANCHORS = ((1.0 + 0j, 1.0 + 0j),) * 4
_AT_BASE = CuspEigenvalues(-1.0 + 0j, -1.0 + 0j, -1.0 + 0j, -1.0 + 0j)


def _from_roots(args: tuple, anchors: tuple) -> tuple[CuspEigenvalues, tuple]:
    """Eigenvalues with each square root of ``args`` continued one step from ``anchors``.

    ``args`` are the radicands of (m1, l1, m2, l2); the l roots are scaled
    by the m radicands, as in ``gluing.cusp_logs``. Returns the eigenvalues
    and the anchors continued to them.
    """
    try:
        roots = [continue_sqrt(arg, *anchor) for arg, anchor in zip(args, anchors)]
    except BranchError as exc:
        raise GluingError(f"eigenvalue branch lost: {exc}") from exc
    ev = CuspEigenvalues(-roots[0], -args[0] * roots[1], -roots[2], -args[2] * roots[3])
    return ev, tuple(zip(args, roots))


def continued_eigenvalues(s: TetShapes, anchors: tuple = BASE_ANCHORS):
    """(eigenvalues, anchors) at ``s``, each root continued one step from ``anchors``."""
    return _from_roots(sqrt_arguments(s), anchors)


def alternate_eigenvalues(s: TetShapes, anchors: tuple = BASE_ANCHORS) -> CuspEigenvalues:
    """The second printed form of each eigenvalue, for consistency checks.

    The first gluing equation makes (1-z4)/(1-z2) = (1-z3)/(1-z1) and
    (1-z2)/(1-z1) = (1-z4)/(1-z3); on the variety these agree with
    ``cusp_eigenvalues`` and off it they differ. The roots continue from
    ``anchors`` by one step each.
    """
    z1, z2, z3, z4 = s.as_tuple()
    _, arg_l1, _, arg_l2 = sqrt_arguments(s)
    return _from_roots(((1 - z3) / (1 - z1), arg_l1, (1 - z4) / (1 - z3), arg_l2), anchors)[0]


def _eigenvalue_tuple(ev: CuspEigenvalues) -> tuple:
    return (ev.m1, ev.l1, ev.m2, ev.l2)


def walked_point(u, v, substeps: int = 8):
    """(shapes, anchors, eigenvalues, logs) at (u, v), walked from the base in small steps.

    The chart point moves along the straight segment from the base in
    ``substeps`` equal steps. At each, every square root of the eigenvalues
    is continued from the step before, and every log(-eigenvalue) likewise
    from 0 at the base: a route to ``gluing.cusp_logs`` and
    ``cusp_eigenvalues`` that takes no principal log of a shape. Arrays walk
    every row.
    """
    anchors, ev, logs = BASE_ANCHORS, _AT_BASE, (0j,) * 4
    for k in range(1, substeps + 1):
        s = k / substeps
        shapes = solve_shapes(BASE_SHAPE + s * (u - BASE_SHAPE), BASE_SHAPE + s * (v - BASE_SHAPE))
        new, anchors = continued_eigenvalues(shapes, anchors)
        try:
            logs = tuple(
                continue_log(-a, -b, log)
                for a, b, log in zip(_eigenvalue_tuple(new), _eigenvalue_tuple(ev), logs)
            )
        except BranchError as exc:
            raise GluingError(f"filling log branch lost: {exc}") from exc
        ev = new
    return shapes, anchors, ev, logs


# ---------------------------------------------------------------------------
# tube radius


def tube_cosh2R_trace_form(tr_comm_minus2: complex, tr_peripheral: complex) -> float:
    """The same radius from the printed trace display.

    (|tr[w,g] - 2| + |tr^2 g - tr[w,g] - 2|) / |tr^2 g - 4|; algebraically
    identical to ``tube_cosh2R`` since tr^2 g - tr[w,g] - 2 =
    (tr^2 g - 4)(1 + bc). Kept as an independent expression for the
    agreement check; the bc form is the one used downstream.
    """
    tsq = tr_peripheral * tr_peripheral
    denom = tsq - 4.0
    if abs(denom) < 1e-14:
        raise TubeError("parabolic peripheral element: tube radius undefined")
    t = complex(tr_comm_minus2)
    return (abs(t) + abs(tsq - (t + 2.0) - 2.0)) / abs(denom)


# ---------------------------------------------------------------------------
# branch continuation along a path

_MAX_DEPTH = 60


def _walk(path: Sequence[complex], start: complex, step: Callable) -> complex:
    value = complex(start)
    prev = complex(path[0])
    for target in path[1:]:
        target = complex(target)
        # subdivide straight segments until each hop is unambiguous
        stack = [target]
        depth = 0
        while stack:
            nxt = stack[-1]
            try:
                value = step(nxt, prev, value)
            except BranchError:
                depth += 1
                if depth > _MAX_DEPTH:
                    raise BranchError("path passes too close to a branch point")
                stack.append((prev + nxt) / 2.0)
                continue
            prev = nxt
            stack.pop()
    return value


def jet_exp(f: Jet) -> Jet:
    """Series of exp f, by the Horner form of sum (f - f0)^k / k!."""
    c0 = f.coeffs[..., 0]
    u = f - c0
    acc = constant(1.0, f.order, f.var)
    for n in range(f.order, 0, -1):
        acc = acc * u * (1.0 / n) + 1.0
    return acc * np.exp(c0)


def sqrt_along_path(path: Sequence[complex], start_value: complex) -> complex:
    """Continue sqrt along a path of arguments, starting from a known value."""
    if abs(start_value**2 - path[0]) > 1e-8 * max(1.0, abs(path[0])):
        raise BranchError("start value is not a square root of the first path point")
    return _walk(path, start_value, continue_sqrt)


def log_along_path(path: Sequence[complex], start_value: complex) -> complex:
    """Continue log along a path of arguments, starting from a known value."""
    if abs(cmath.exp(start_value) - path[0]) > 1e-8 * abs(path[0]):
        raise BranchError("start value is not a logarithm of the first path point")
    return _walk(path, start_value, continue_log)


# ---------------------------------------------------------------------------
# geodesics of H^3 by their ideal endpoints

INFINITY = complex(math.inf, 0.0)


def _homogeneous(w: complex) -> tuple[complex, complex]:
    if isinstance(w, (int, float)) and math.isinf(w):
        return (1.0 + 0j, 0j)
    w = complex(w)
    if math.isinf(w.real) or math.isinf(w.imag):
        return (1.0 + 0j, 0j)
    return (w, 1.0 + 0j)


def cross_ratio(w1, w2, w3, w4) -> complex:
    """(w1-w3)(w2-w4) / ((w1-w4)(w2-w3)) on the extended plane.

    Points at infinity are handled projectively; the lines are (w1, w2)
    and (w3, w4), and endpoints must be distinct within each pair.
    """
    h = [_homogeneous(w) for w in (w1, w2, w3, w4)]

    def det(a, b) -> complex:
        return a[0] * b[1] - a[1] * b[0]

    if det(h[0], h[1]) == 0 or det(h[2], h[3]) == 0:
        raise TubeError("degenerate line: repeated endpoint within a pair")
    num = det(h[0], h[2]) * det(h[1], h[3])
    den = det(h[0], h[3]) * det(h[1], h[2])
    if den == 0:
        raise TubeError("coincident endpoints across pairs")
    return num / den


def line_distance(w1, w2, w3, w4) -> float:
    """Hyperbolic distance between the geodesics (w1, w2) and (w3, w4)."""
    cr = cross_ratio(w1, w2, w3, w4)
    if cr == 1.0:
        raise TubeError("cross-ratio 1: degenerate line configuration")
    cosh_d = (1.0 + abs(cr)) / abs(1.0 - cr)
    return math.acosh(max(1.0, cosh_d))


def _mobius(g: np.ndarray, w: complex) -> complex:
    a, b, c, d = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    if w == INFINITY:
        return INFINITY if abs(c) == 0 else a / c
    den = c * w + d
    if abs(den) == 0:
        return INFINITY
    return (a * w + b) / den


def _rep_at_structure(structure, steps: int = 12):
    x = structure.point.eigenvalues.m2
    y = y_from_l2(x, structure.point.eigenvalues.l2)
    rep = None
    for k in range(1, steps + 1):
        s = k / steps
        rep = continue_representation(-1 + s * (x + 1), 2j + s * (y - 2j), rep)
    return rep


def _axis_distance_R(structure):
    """Half the distance between the core axis and its tied translate.

    All peripheral elements at the second cusp share one axis; conjugating
    it to (0, infinity), the tied element gamma carries that line to a
    translate, and the tube radius is half the distance between the two.
    """
    rep = _rep_at_structure(structure)
    x = rep.x
    w_star = x / (1 - x * x)
    shear = np.array([[1, -w_star], [0, 1]], dtype=complex)
    w = shear @ rep.gamma @ np.array([[1, w_star], [0, 1]], dtype=complex)
    a, b, c, d = w[0, 0], w[0, 1], w[1, 0], w[1, 1]
    e1 = b / d
    e2 = a / c
    return 0.5 * line_distance(0, INFINITY, e1, e2), complex(b * c)


# ---------------------------------------------------------------------------
# cone structures


def chart_point(u, v) -> VarietyPoint:
    """The chart point (u, v) with its eigenvalues and cusp logs; arrays give one point per row.

    The point as the library's Newton returns it, built from the public
    gluing functions one by one.
    """
    shapes = solve_shapes(u, v)
    logs = cusp_logs(shapes)
    return VarietyPoint(u, v, shapes, cusp_eigenvalues(shapes), *logs)


def chain_rule_gradients(s: TetShapes) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """``log_eigenvalue_gradients`` by the chain rule with (dz1, dz2) kept general.

    dz3 and dz4 come from implicit differentiation of the z3 quadratic with
    its coefficients formed again, and both rows run one loop over
    (dz1, dz2) = (1, 0) and (0, 1), zero terms and all.
    """
    u, v, z3, z4 = s.as_tuple()
    qa, qb = (1 - v) * (1 - u - v), u * v * (2 - u - v)
    w, a, b = 1 - z3, 1 - u, 1 - v
    f_w = 2 * qa * w + qb
    f_u = -b * w * w + v * (2 - 2 * u - v) * w - v * (1 - 2 * u)
    f_v = -(2 - u - 2 * v) * w * w + u * (2 - u - 2 * v) * w - u * a
    w_u, w_v = -f_u / f_w, -f_v / f_w
    z3u, z3v, z4u, z4v = -w_u, -w_v, -b * (a * w_u + w) / (a * a), (w - b * w_v) / a
    rows = []
    for d1, d2, d3, d4 in ((1.0, 0.0, z3u, z4u), (0.0, 1.0, z3v, z4v)):
        dlog1, dlog2, dlog3, dlog4 = d1 / u, d2 / v, d3 / z3, d4 / z4
        ratio1 = d2 / (1 - v) - d4 / (1 - z4)  # d log((1-z4)/(1-z2))
        ratio2 = d1 / (1 - u) - d2 / (1 - v)  # d log((1-z2)/(1-z1))
        rows.append((
            ratio1 / 2,
            ratio1 + (dlog3 + dlog4 - dlog1 - dlog2) / 2,
            ratio2 / 2,
            ratio2 + (dlog2 + dlog4 - dlog1 - dlog3) / 2,
        ))
    return tuple(rows)


def jacobian(residual, pt: VarietyPoint) -> tuple[tuple[complex, complex], ...]:
    """Exact d(residual)/d(u, v) at pt, row-major: each row's coefficients on the log gradients."""
    du, dv = log_eigenvalue_gradients(pt.shapes)
    return tuple((_combination(terms, du), _combination(terms, dv)) for terms, _ in residual)


def _small_step_walk(start, make_residual, target: float, step: float, min_step: float):
    """March a parameter from 0 to target from a small first step.

    The step doubles after each accepted Newton solve and halves after each
    refused one; below min_step the refusal is raised unchanged.
    """
    t, pt = 0.0, start
    while t < target:
        nxt = min(target, t + step)
        try:
            pt = _newton(pt, make_residual(nxt))
        except (SurgeryError, GluingError):
            step /= 2.0
            if step < min_step:
                raise
            continue
        t = nxt
        step *= 2.0
    return pt


def small_step_cone_structure(slope1, slope2, theta: float) -> SolvedStructure:
    """``solve_cone_structure`` at theta > 0 by small steps: tau from 0.25, theta from 0.01.

    The same relations, Newton and guards as the library, on a path of many
    short steps where the library tries each whole range in one.
    """
    start = _COMPLETE
    if slope1 is not None:
        start = _small_step_walk(
            _COMPLETE,
            lambda tau: (_first_cusp_residual(slope1, tau), _pinned_meridian(0.0)),
            1.0, 0.25, _TAU_STEP_MIN,
        )
    first = _first_cusp_residual(slope1, 1.0)

    def residual_at(th: float):
        return first, _second_cusp_residual(slope2, th)

    pt = _small_step_walk(start, residual_at, theta, 0.01, _THETA_STEP_MIN)
    structure = SolvedStructure(point=pt, slope1=slope1, slope2=slope2, theta=theta)
    logs, tol = _logs(pt), TOLERANCES.filling_residual
    r1, r2 = structure.filling_residuals()
    for r, row in zip((r1, r2), residual_at(theta)):
        if not _within(row, r, logs, tol):
            raise SurgeryError(f"filling residuals {(r1, r2)!r} above {tol} times their scale")
    return structure


# ---------------------------------------------------------------------------
# slope scans


def coprime_slope_pairs(max_norm: int) -> list[tuple[int, int]]:
    """The coprime (p, q), q > 0 or (1, 0), with |p| + q <= max_norm, sorted: one gcd per pair."""
    out = [(1, 0)]
    for q in range(1, max_norm + 1):
        for p in range(-(max_norm - q), max_norm - q + 1):
            if math.gcd(p, q) == 1:
                out.append((p, q))
    return sorted(out)


def mu_hat_sq_jet(m: Jet, l: Jet, core: Jet) -> Jet:
    """Jet of mu_hat^2 in theta, one row per slope, from the jets of ``cone_jets``.

    Every absolute value is expanded with its leading theta-power factored
    explicitly (the commutator trace and its denominator both vanish to
    first order), or is a square's: |tr^2 g - 4| = |m - 1/m|^2. No
    precomputed expansion constants enter.
    """
    mm = m * m
    num = (mm - 1.0) * (1.0 - l)
    den = mm + l
    # tr[w,g] - 2 = -num/den; both factors vanish at theta = 0
    trc = -(num.shift_down(1) / den.shift_down(1))
    g = (mm - 1.0) / m  # m - 1/m, vanishing at theta = 0
    s2 = g * g  # tr^2 g - 4

    x = real_modulus_jet(trc, 0)
    y = real_modulus_jet(s2 - trc, 0)
    z = (g * g.conjugate_coefficients()).real_part()  # |g|^2 for real theta
    tanh_sq = (x + y - z) / (x + y + z)
    tanh_r = jet_sqrt(tanh_sq, 1.0)

    # t = 2|K| and K vanishes at theta = 0, so t / theta = 2 sign(K_1) K / theta
    k_over_theta = core.shift_down(1)
    t_hat = k_over_theta * (2.0 * np.sign(k_over_theta[0].real))
    return tanh_r / t_hat


def jet_k_expansions(curve, p, q, block: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """(k0, k1) of every slope by its own row of the order-3 jet route, in blocks of rows.

    What ``k_expansions`` reads in closed form from the curve's (a1, a2, a3),
    read here off one row of theta-jets per slope (``mu_hat_sq_jet``), with
    no guard beyond the jets' own.
    """
    jets = CurveJets.of(curve)
    pf, qf = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    k0, k1 = np.empty(len(pf)), np.empty(len(pf))
    for start in range(0, len(pf), block):
        rows = slice(start, start + block)
        c = mu_hat_sq_jet(*cone_jets(jets, pf[rows], qf[rows])).coeffs
        k0[rows], k1[rows] = c[:, 0].real, c[:, 2].real
    return k0, k1


# ---------------------------------------------------------------------------
# representations: one step of the z branch, the longitude eigenvalue, and
# the cusp relations, which no library code calls


def continue_representation(x, y, previous: Representation | None = None) -> Representation:
    """The representation at (x, y), its z continued from ``previous`` (the base if None).

    One ``continue_sqrt`` step; each row of a batch continues from its own
    row of ``previous``, and the base broadcasts over any batch.
    """
    anchor = (BASE_Z_SQUARED, BASE_Z) if previous is None else (previous.z_squared, previous.z)
    w, z2 = _z_radicand(x, y)
    try:
        z = continue_sqrt(np.asarray(z2), *anchor)
    except BranchError as exc:
        raise HolonomyError(f"z branch lost: {exc}") from exc
    return _build_representation(x, y, z, (w, z2))


def l2_eigenvalue(x, y):
    """Second-cusp longitude eigenvalue paired with meridian eigenvalue x.

    ``y_from_l2`` inverts it.
    """
    x2 = x * x
    den = -1.0 + x2 + y
    _refuse(den == 0, HolonomyError, lambda i: "longitude eigenvalue is singular here")
    return (-1.0 + x2 - x2 * y) / den


def cusp_relation_residuals(rep: Representation) -> tuple:
    """Commutation defect of each cusp's meridian/longitude pair."""
    per = peripheral_matrices(rep)
    r1 = _product(per.meridian1, per.longitude1) - _product(per.longitude1, per.meridian1)
    r2 = _product(per.meridian2, per.longitude2) - _product(per.longitude2, per.meridian2)
    return _max_norm(r1), _max_norm(r2)


# ---------------------------------------------------------------------------
# verify's points, walked from the base one call per substep

VERIFY_SUBSTEPS = 8


def stepwise_representations(x: np.ndarray, y: np.ndarray) -> list[Representation]:
    """Walks of the z branch from the base to the rows (x, y), substep by substep.

    One ``continue_representation`` call per substep, each continuing from
    the one before; the list holds every substep's representation.
    """
    reps, rep = [], None
    for k in range(1, VERIFY_SUBSTEPS + 1):
        s = k / VERIFY_SUBSTEPS
        rep = continue_representation(-1.0 + s * (x + 1.0), 2j + s * (y - 2j), rep)
        reps.append(rep)
    return reps


def verify_draws(points: int, seed: int) -> list[np.ndarray]:
    """verify's offsets (gluing, holonomy, cusp), each check's as one (points, 2) complex array."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-r, r, size=(points, 4)).view(complex) for r in (0.08, 0.12, 0.08)]


def verify_residuals(points: int, seed: int) -> dict[str, np.ndarray]:
    """verify's four residuals at each of its points, all of them in one batch.

    The points are verify's draws, each check's as one ``(points, 4)``
    uniform array; every row is computed on its own, so one batch of all
    the points gives each point's residuals whatever verify's block size.
    """
    g, h, c = verify_draws(points, seed)
    r1, r2 = residuals(solve_shapes(BASE_SHAPE + g[:, 0], BASE_SHAPE + g[:, 1]))
    rep = representation_at(-1.0 + h[:, 0], 2j + h[:, 1])
    ev = cusp_eigenvalues(solve_shapes(BASE_SHAPE + c[:, 0], BASE_SHAPE + c[:, 1]))
    return {
        "gluing_residual": np.maximum(abs(r1), abs(r2)),
        "group_relations": np.maximum(*relation_residuals(rep)),
        "commutator_trace": abs(commutator_trace_minus2(rep) + rep.y),
        "cusp_trace_relations": np.maximum(
            abs((ev.m1 + 1.0 / ev.m1) ** 2 - trace_identity_m1(ev.m2, ev.l2)),
            abs(ev.l1 + 1.0 / ev.l1 - trace_identity_l1(ev.m2, ev.l2)),
        ),
    }
