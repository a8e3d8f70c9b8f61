"""Shape solutions of the two-tetrahedron gluing variety and cusp eigenvalues.

The exterior is triangulated by two ideal tetrahedra carrying four shape
parameters ``z1..z4``. Consistency of the gluing reduces to two polynomial
equations,

    (1-z1)(1-z4) = (1-z2)(1-z3)
    (1-z1)(1-z2)(1-z3)(1-z4) = z1 z2 z3 z4,

with the complete structure at ``z1 = z2 = z3 = z4 = (1+i)/2``. Near that
point ``(z1, z2) = (u, v)`` is a chart, and the remaining pair is closed
form: with ``a = 1-u``, ``b = 1-v`` and ``w = 1-z3`` the first equation gives
``z4 = 1 - b w / a``, and the second becomes the quadratic (ab - uv = 1-u-v)

    b (1-u-v) w^2 + u v (a+b) w - u v a = 0.

Its two roots are ``(-B +- sqrt(disc)) / 2A``. The root is fixed by the
sheet of ``sqrt(disc)``: it is continued with ``continue_sqrt`` along the
straight chart segment from the base, where the base root has
``w = (1-i)/2``, and a hop the anchor refuses is split in two. So a chart
point has one solution whatever was solved before it, and the nearest
root is never taken.

Cusp meridian/longitude eigenvalues are square-root expressions in the
shapes. Both cusps have eigenvalue -1 at the base, and every square root is
1 there; moving around the chart the caller carries ``BranchAnchors`` so
the sheet is continued, never re-chosen.
"""

from __future__ import annotations

import dataclasses

from .config import ensure_finite
from .jets import BranchError, continue_sqrt

BASE_SHAPE = complex(0.5, 0.5)
CHART_RADIUS = 0.35
_DEGENERATE_TOL = 1e-8
# sqrt of the quadratic's discriminant at the base: its root is w = (1-i)/2
_BASE_DISC = -0.5j
_BASE_DISC_SQRT = complex(-0.5, 0.5)
# the discriminant walk starts with this many hops along the segment, and
# gives up once a hop would be shorter than _MIN_HOP of it
_SEGMENT_HOPS = 2
_MIN_HOP = 2.0**-20


class GluingError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class TetShapes:
    z1: complex
    z2: complex
    z3: complex
    z4: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.z1, self.z2, self.z3, self.z4)

    def check_nondegenerate(self) -> "TetShapes":
        for z in self.as_tuple():
            ensure_finite(z)
            if abs(z) < _DEGENERATE_TOL or abs(z - 1.0) < _DEGENERATE_TOL:
                raise GluingError(f"degenerate tetrahedron shape {z!r}")
        return self


BASE_SHAPES = TetShapes(BASE_SHAPE, BASE_SHAPE, BASE_SHAPE, BASE_SHAPE)


def residuals(s: TetShapes) -> tuple[complex, complex]:
    z1, z2, z3, z4 = s.as_tuple()
    r1 = (1 - z1) * (1 - z4) - (1 - z2) * (1 - z3)
    r2 = (1 - z1) * (1 - z2) * (1 - z3) * (1 - z4) - z1 * z2 * z3 * z4
    return r1, r2


def _quadratic(u: complex, v: complex) -> tuple[complex, complex, complex]:
    """Coefficients (A, B, C) of A w^2 + B w + C = 0 for w = 1 - z3."""
    uv = u * v
    return (1 - v) * (1 - u - v), uv * (2 - u - v), -uv * (1 - u)


def _continued_disc_sqrt(u: complex, v: complex) -> complex:
    """sqrt(disc) at (u, v), continued along the chart segment from the base."""
    du, dv = u - BASE_SHAPE, v - BASE_SHAPE
    t, arg, value = 0.0, _BASE_DISC, _BASE_DISC_SQRT
    hop = 1.0 / _SEGMENT_HOPS
    while t < 1.0:
        nxt = min(1.0, t + hop)
        qa, qb, qc = _quadratic(BASE_SHAPE + nxt * du, BASE_SHAPE + nxt * dv)
        disc = qb * qb - 4 * qa * qc
        try:
            value = continue_sqrt(disc, arg, value)
        except BranchError as exc:
            hop /= 2.0
            if hop < _MIN_HOP:
                raise GluingError(f"discriminant branch lost on the chart segment: {exc}") from exc
            continue
        t, arg = nxt, disc
    return value


def solve_shapes(u: complex, v: complex) -> TetShapes:
    """Solve the chart point (z1, z2) = (u, v) on the sheet continued from the base."""
    u, v = complex(u), complex(v)
    ensure_finite(u, v)
    radius = max(abs(u - BASE_SHAPE), abs(v - BASE_SHAPE))
    if radius > CHART_RADIUS:
        raise GluingError(
            f"chart coordinate {radius:.3f} from base exceeds radius {CHART_RADIUS}"
        )
    qa, qb, qc = _quadratic(u, v)
    root = _continued_disc_sqrt(u, v)
    # (-B + root) / 2A and 2C / (-B - root) are the same root; divide by
    # the larger of -B +- root so that neither cancels
    plus, minus = root - qb, -root - qb
    w = plus / (2 * qa) if abs(plus) >= abs(minus) else 2 * qc / minus
    z4 = 1 - (1 - v) * w / (1 - u)
    return TetShapes(u, v, 1 - w, z4).check_nondegenerate()


def _shape_derivatives(s: TetShapes) -> tuple[complex, complex, complex, complex]:
    """(dz3/du, dz3/dv, dz4/du, dz4/dv) on the variety, by implicit differentiation."""
    u, v, z3, z4 = s.as_tuple()
    qa, qb, _ = _quadratic(u, v)
    w, a, b = 1 - z3, 1 - u, 1 - v
    # F(w, u, v) = A w^2 + B w + C; dw = -(dF/du du + dF/dv dv) / (dF/dw)
    f_w = 2 * qa * w + qb
    f_u = -b * w * w + v * (2 - 2 * u - v) * w - v * (1 - 2 * u)
    f_v = -(2 - u - 2 * v) * w * w + u * (2 - u - 2 * v) * w - u * a
    w_u, w_v = -f_u / f_w, -f_v / f_w
    # z4 = 1 - b w / a
    return -w_u, -w_v, -b * (a * w_u + w) / (a * a), (w - b * w_v) / a


@dataclasses.dataclass
class BranchAnchors:
    """Last committed (argument, value) pair of each cusp square root."""

    m1: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j)
    l1: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j)
    m2: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j)
    l2: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j)


@dataclasses.dataclass(frozen=True)
class CuspEigenvalues:
    """Meridian/longitude holonomy eigenvalues of the two cusps."""

    m1: complex
    l1: complex
    m2: complex
    l2: complex


def sqrt_arguments(s: TetShapes) -> tuple[complex, complex, complex, complex]:
    """Radicands of (m1, l1, m2, l2), all equal to 1 at the base."""
    z1, z2, z3, z4 = s.as_tuple()
    return (
        (1 - z4) / (1 - z2),
        z3 * z4 / (z1 * z2),
        (1 - z2) / (1 - z1),
        z2 * z4 / (z1 * z3),
    )


def log_eigenvalue_gradients(
    s: TetShapes,
) -> tuple[tuple[complex, complex], ...]:
    """(d/du, d/dv) of log(-m1), log(-l1), log(-m2), log(-l2) on the variety.

    The chain rule through the forms of ``cusp_eigenvalues``:
    log(-m1) = 1/2 log((1-z4)/(1-z2)),
    log(-l1) = log((1-z4)/(1-z2)) + 1/2 log(z3 z4 / (z1 z2)), and the same
    with (1-z2)/(1-z1) and z2 z4 / (z1 z3) for the second cusp. Branches
    do not enter: the derivative of a log is the same on every sheet.
    """
    z1, z2, z3, z4 = s.as_tuple()
    z3u, z3v, z4u, z4v = _shape_derivatives(s)
    rows = []
    for d1, d2, d3, d4 in ((1.0, 0.0, z3u, z4u), (0.0, 1.0, z3v, z4v)):
        dlog1, dlog2, dlog3, dlog4 = d1 / z1, d2 / z2, d3 / z3, d4 / z4
        ratio1 = d2 / (1 - z2) - d4 / (1 - z4)  # d log((1-z4)/(1-z2))
        ratio2 = d1 / (1 - z1) - d2 / (1 - z2)  # d log((1-z2)/(1-z1))
        rows.append((
            ratio1 / 2,
            ratio1 + (dlog3 + dlog4 - dlog1 - dlog2) / 2,
            ratio2 / 2,
            ratio2 + (dlog2 + dlog4 - dlog1 - dlog3) / 2,
        ))
    return tuple(zip(*rows))


def cusp_eigenvalues(
    s: TetShapes,
    anchors: BranchAnchors | None = None,
    commit: bool = False,
) -> CuspEigenvalues:
    """Eigenvalues at the shapes ``s``, continued from ``anchors``.

    With ``commit`` the anchors are advanced to ``s``; probe evaluations
    (finite differences, line searches) should leave it False.
    """
    if anchors is None:
        anchors = BranchAnchors()
    z1, z2, z3, z4 = s.as_tuple()
    arg_m1, arg_l1, arg_m2, arg_l2 = sqrt_arguments(s)
    try:
        s_m1 = continue_sqrt(arg_m1, *anchors.m1)
        s_l1 = continue_sqrt(arg_l1, *anchors.l1)
        s_m2 = continue_sqrt(arg_m2, *anchors.m2)
        s_l2 = continue_sqrt(arg_l2, *anchors.l2)
    except BranchError as exc:
        raise GluingError(f"eigenvalue branch lost: {exc}") from exc
    if commit:
        anchors.m1 = (arg_m1, s_m1)
        anchors.l1 = (arg_l1, s_l1)
        anchors.m2 = (arg_m2, s_m2)
        anchors.l2 = (arg_l2, s_l2)
    ratio1 = (1 - z4) / (1 - z2)
    ratio2 = (1 - z2) / (1 - z1)
    return CuspEigenvalues(
        m1=-s_m1,
        l1=-ratio1 * s_l1,
        m2=-s_m2,
        l2=-ratio2 * s_l2,
    )


def alternate_eigenvalues(
    s: TetShapes, anchors: BranchAnchors | None = None
) -> CuspEigenvalues:
    """The second printed form of each eigenvalue, for consistency checks.

    The first gluing equation makes (1-z4)/(1-z2) = (1-z3)/(1-z1) and
    (1-z2)/(1-z1) = (1-z4)/(1-z3); on the variety these agree with
    ``cusp_eigenvalues`` and off it they differ. Never commits anchors.
    """
    if anchors is None:
        anchors = BranchAnchors()
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
    )
