"""Independent expressions the tests compare the library against.

Each oracle computes a quantity the library also computes, by a different
route: the second printed form of the cusp eigenvalues, the printed trace
display of the tube radius, branch continuation along a whole path, the
hyperbolic distance between two geodesics from their cross-ratio with
the tube radius as half the distance from the core axis to its tied
translate (criterion 10's geometry oracle), a cone structure reached
by small continuation steps, and the k1scan slopes listed pair by pair.
None of them is used by the library.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence

import numpy as np

from conetube.config import TOLERANCES
from conetube.gluing import (
    BranchAnchors,
    CuspEigenvalues,
    GluingError,
    TetShapes,
    sqrt_arguments,
)
from conetube.holonomy import continue_representation, y_from_l2
from conetube.jets import BranchError, continue_log, continue_sqrt
from conetube.surgery import (
    _COMPLETE,
    _TAU_STEP_MIN,
    _THETA_STEP_MIN,
    SolvedStructure,
    SurgeryError,
    _first_cusp_residual,
    _newton,
    _pinned_meridian,
    _second_cusp_residual,
)
from conetube.tube import TubeError

# ---------------------------------------------------------------------------
# cusp eigenvalues


def alternate_eigenvalues(
    s: TetShapes, anchors: BranchAnchors = BranchAnchors()
) -> CuspEigenvalues:
    """The second printed form of each eigenvalue, for consistency checks.

    The first gluing equation makes (1-z4)/(1-z2) = (1-z3)/(1-z1) and
    (1-z2)/(1-z1) = (1-z4)/(1-z3); on the variety these agree with
    ``cusp_eigenvalues`` and off it they differ. The anchors it returns
    continue these printed forms' radicands, not ``cusp_eigenvalues``'s.
    """
    z1, z2, z3, z4 = s.as_tuple()
    _, arg_l1, _, arg_l2 = sqrt_arguments(s)
    ratio1 = (1 - z3) / (1 - z1)
    ratio2 = (1 - z4) / (1 - z3)
    try:
        s_m1 = continue_sqrt(ratio1, *anchors.m1)
        s_l1 = continue_sqrt(arg_l1, *anchors.l1)
        s_m2 = continue_sqrt(ratio2, *anchors.m2)
        s_l2 = continue_sqrt(arg_l2, *anchors.l2)
    except BranchError as exc:
        raise GluingError(f"eigenvalue branch lost: {exc}") from exc
    return CuspEigenvalues(
        m1=-s_m1,
        l1=-ratio1 * s_l1,
        m2=-s_m2,
        l2=-ratio2 * s_l2,
        anchors=BranchAnchors((ratio1, s_m1), (arg_l1, s_l1), (ratio2, s_m2), (arg_l2, s_l2)),
    )


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
    r1, r2 = structure.filling_residuals()
    if max(abs(r1), abs(r2)) > TOLERANCES.filling_residual:
        raise SurgeryError(f"filling residuals {(r1, r2)!r} above {TOLERANCES.filling_residual}")
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
