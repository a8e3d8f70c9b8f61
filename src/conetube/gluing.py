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

Its two roots are ``(-B +- sqrt(disc)) / 2A``, each in a form that does not
cancel, and the one taken is the positively oriented one: ``Im z3 > 0`` and
``Im z4 > 0``, as on the geometric component through the complete
structure, whose root is ``w = (1-i)/2``. Over the chart exactly one root
is oriented, by a margin above 0.1 in both imaginary parts, and |disc|
stays above 0.03; so it is the root that ``sqrt(disc)`` reaches when
continued along the chart from the base. A point where not exactly one
root is oriented is refused. A chart point has one solution whatever was
solved before it, and the nearest root is never taken.

Cusp meridian/longitude eigenvalues are square-root expressions in the
shapes, and both cusps have eigenvalue -1 at the base. ``cusp_logs`` gives
their logs, log(-m1), log(-l1), log(-m2) and log(-l2), in closed form.
Each is a half-integer combination of the logs of four radicands
(``sqrt_arguments``), and on the positively oriented shapes every radicand
log is a sum of the shapes' own principal logs, Log z_k and Log(1 - z_k):
there ``arg z_k`` lies in (0, pi) and ``arg(1 - z_k)`` in (-pi, 0), so none
of them meets its cut. These are Neumann and Zagier's log-parameters
(Topology 24, 1985), and they vanish at the base, as the continued logs
do. Each radicand log is taken as the principal log of the radicand,
which keeps its digits near 0, moved by the multiple of 2 pi i that puts
it on the sum's branch. So the branch is fixed by the orientation guard of
``solve_shapes``, never chosen by a walk: a point has one set of logs
whatever was solved before it. ``cusp_eigenvalues`` is -exp of the logs.

Batches. ``solve_shapes``, ``TetShapes.check_nondegenerate``,
``cusp_logs`` and ``cusp_eigenvalues`` choose their mechanics from the
type of their input. Python numbers take the scalar path (``cmath``).
ndarrays of chart points take the row path (numpy): each row is one point,
and ``TetShapes`` and ``CuspEigenvalues`` then hold arrays with that batch
axis. Both paths share the algebra (``_quadratic``, the root choice,
``z4``, ``sqrt_arguments``, ``residuals``, ``log_eigenvalue_gradients``,
the cusp logs). On the row path every guard runs on every row with the
scalar threshold: finiteness, ``CHART_RADIUS``, the root's orientation and
the degenerate-shape check. One failing row refuses the batch with the
scalar path's exception type, and the message starts ``row i:``; the
error carries ``row`` and ``reason``. Where every row passes, the guards
cost two combined tests. ``_solve`` also returns the quadratic's A and B,
from which ``_gradients`` forms the log gradients without solving again.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .config import TOLERANCES, ensure_finite
from .jets import _refuse

BASE_SHAPE = complex(0.5, 0.5)
CHART_RADIUS = 0.35


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
        """Refuse a non-finite shape or one within ``degenerate_shape`` of 0 or 1.

        One combined test passes good shapes; only where it fails do the
        tests run shape by shape, so a refusal names the first bad shape.
        """
        tol, fine = TOLERANCES.degenerate_shape, True
        for z in self.as_tuple():
            size = abs(z)
            fine = fine & (size >= tol) & (size < math.inf) & (abs(z - 1.0) >= tol)
        if fine if type(fine) is bool else fine.all():
            return self
        if isinstance(self.z1, np.ndarray):
            for z in self.as_tuple():
                _refuse(~np.isfinite(z), ValueError, lambda i: f"non-finite value {complex(z[i])!r}")
                _refuse(
                    (abs(z) < tol) | (abs(z - 1.0) < tol),
                    GluingError,
                    lambda i: f"degenerate tetrahedron shape {complex(z[i])!r}",
                )
            return self
        for z in self.as_tuple():
            ensure_finite(z)
            if abs(z) < tol or abs(z - 1.0) < tol:
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


def _oriented_root(u, v):
    """(z3, z4) of the root at (u, v) with Im z3 > 0 and Im z4 > 0, then the quadratic's A, B.

    Both roots come from one square root of the discriminant. A point where
    not exactly one root is positively oriented is refused; a row batch
    names its first such row.
    """
    qa, qb, qc = _quadratic(u, v)
    disc = qb * qb - 4 * qa * qc
    scalar = type(disc) is complex
    root = cmath.sqrt(disc) if scalar else np.sqrt(disc)
    # the roots are (-B +- root) / 2A = 2C / (-B -+ root): each is taken with
    # the larger of -B +- root as its divisor or dividend, so neither cancels
    plus, minus = root - qb, -root - qb
    larger = abs(plus) >= abs(minus)
    big = (plus if larger else minus) if scalar else np.where(larger, plus, minus)
    w1, w2 = big / (2 * qa), 2 * qc / big
    z3, z4 = 1 - w1, 1 - (1 - v) * w1 / (1 - u)
    y3, y4 = 1 - w2, 1 - (1 - v) * w2 / (1 - u)
    first = (z3.imag > 0) & (z4.imag > 0)
    second = (y3.imag > 0) & (y4.imag > 0)
    # where first == second, 2 * first roots are oriented: 0 or 2
    if scalar:
        if first == second:
            raise GluingError(_unoriented(u, v, 2 * first))
        return ((z3, z4) if first else (y3, y4)) + (qa, qb)
    _refuse(
        first == second,
        GluingError,
        lambda i: _unoriented(complex(u[i]), complex(v[i]), 2 * int(first[i])),
    )
    return np.where(first, z3, y3), np.where(first, z4, y4), qa, qb


def _unoriented(u: complex, v: complex, count: int) -> str:
    return f"{count} of the 2 roots at chart point ({u!r}, {v!r}) are positively oriented, not 1"


def _solve(u, v):
    """``solve_shapes`` with the quadratic's A and B, which ``_gradients`` reuses.

    The finiteness and radius guards run as one test, which a non-finite
    coordinate fails too; only where it fails do they run one by one, in
    order, so a refusal keeps its type, row and message.
    """
    rows = isinstance(u, np.ndarray) or isinstance(v, np.ndarray)
    if rows:
        u, v = np.broadcast_arrays(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))
    else:
        u, v = complex(u), complex(v)
    du, dv = abs(u - BASE_SHAPE), abs(v - BASE_SHAPE)
    inside = (du <= CHART_RADIUS) & (dv <= CHART_RADIUS)
    if not (inside.all() if rows else inside):
        for z in np.asarray(u), np.asarray(v):
            _refuse(~np.isfinite(z), ValueError, lambda i: f"non-finite value {complex(z[i])!r}")
        radius = np.maximum(du, dv)
        _refuse(
            radius > CHART_RADIUS,
            GluingError,
            lambda i: f"chart coordinate {radius[i]:.3f} from base exceeds radius {CHART_RADIUS}",
        )
    z3, z4, qa, qb = _oriented_root(u, v)
    return TetShapes(u, v, z3, z4).check_nondegenerate(), qa, qb


def solve_shapes(u, v) -> TetShapes:
    """Solve the chart point (z1, z2) = (u, v): the positively oriented root.

    ``u`` and ``v`` are numbers, or arrays of chart points (one per row) on
    the row path of the module docstring.
    """
    return _solve(u, v)[0]


def _gradients(s: TetShapes, qa, qb) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """``log_eigenvalue_gradients`` given the quadratic's A and B at (z1, z2)."""
    u, v, z3, z4 = s.as_tuple()
    w, a, b = 1 - z3, 1 - u, 1 - v
    # dz3 and dz4 on the variety, by implicit differentiation of
    # F(w, u, v) = A w^2 + B w + C: dw = -(dF/du du + dF/dv dv) / (dF/dw)
    f_w = 2 * qa * w + qb
    f_u = -b * w * w + v * (2 - 2 * u - v) * w - v * (1 - 2 * u)
    f_v = -(2 - u - 2 * v) * w * w + u * (2 - u - 2 * v) * w - u * a
    w_u, w_v = -f_u / f_w, -f_v / f_w
    # z3 = 1 - w and z4 = 1 - b w / a
    z3u, z3v, z4u, z4v = -w_u, -w_v, -b * (a * w_u + w) / (a * a), (w - b * w_v) / a
    # the chain rule with (dz1, dz2) = (1, 0) for d/du and (0, 1) for d/dv,
    # each zero term left out and each quotient kept a division
    dlog1, dlog2, c4 = 1.0 / u, 1.0 / v, 1 - z4
    ratio1u, ratio2u = -(z4u / c4), 1.0 / a  # d log((1-z4)/(1-z2)), d log((1-z2)/(1-z1))
    ratio1v, ratio2v = 1.0 / b - z4v / c4, -(1.0 / b)
    dlog3u, dlog4u, dlog3v, dlog4v = z3u / z3, z4u / z4, z3v / z3, z4v / z4
    return (
        (ratio1u / 2, ratio1u + (dlog3u + dlog4u - dlog1) / 2,
         ratio2u / 2, ratio2u + (dlog4u - dlog1 - dlog3u) / 2),
        (ratio1v / 2, ratio1v + (dlog3v + dlog4v - dlog2) / 2,
         ratio2v / 2, ratio2v + (dlog2 + dlog4v - dlog3v) / 2),
    )


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
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The d/du row and the d/dv row of (log(-m1), log(-l1), log(-m2), log(-l2)) on the variety.

    The chain rule through the forms of ``cusp_logs``:
    log(-m1) = 1/2 log((1-z4)/(1-z2)),
    log(-l1) = log((1-z4)/(1-z2)) + 1/2 log(z3 z4 / (z1 z2)), and the same
    with (1-z2)/(1-z1) and z2 z4 / (z1 z3) for the second cusp. Branches
    do not enter: the derivative of a log is the same on every sheet.
    """
    return _gradients(s, *_quadratic(s.z1, s.z2)[:2])


def _on_branch(radicand, shape_logs, log, rint):
    """log(radicand) on the branch of ``shape_logs``, a sum of shape logs equal to it mod 2 pi i.

    The principal log of the radicand keeps its digits where the radicand
    is near 1; the sum's imaginary part picks the multiple of 2 pi i.
    """
    principal = log(radicand)
    return principal + 2j * math.pi * rint((shape_logs - principal).imag / (2.0 * math.pi))


def cusp_logs(s: TetShapes) -> tuple[complex, complex, complex, complex]:
    """log(-m1), log(-l1), log(-m2), log(-l2) at the positively oriented shapes ``s``.

    The forms of ``log_eigenvalue_gradients``, each radicand's log on the
    branch of its sum of shape logs (the module docstring). Shapes that hold
    arrays give one log per row.
    """
    log, rint = (np.log, np.rint) if isinstance(s.z1, np.ndarray) else (cmath.log, round)
    z1, z2, z3, z4 = s.as_tuple()
    lz1, lz2, lz3, lz4 = log(z1), log(z2), log(z3), log(z4)
    lw1, lw2, lw4 = log(1 - z1), log(1 - z2), log(1 - z4)
    arg_m1, arg_l1, arg_m2, arg_l2 = sqrt_arguments(s)
    ratio1 = _on_branch(arg_m1, lw4 - lw2, log, rint)
    ratio2 = _on_branch(arg_m2, lw2 - lw1, log, rint)
    return (
        ratio1 / 2,
        ratio1 + _on_branch(arg_l1, lz3 + lz4 - lz1 - lz2, log, rint) / 2,
        ratio2 / 2,
        ratio2 + _on_branch(arg_l2, lz2 + lz4 - lz1 - lz3, log, rint) / 2,
    )


def _exp_eigenvalues(logs: tuple) -> CuspEigenvalues:
    """The eigenvalues -exp(log) of the four cusp logs, numbers or rows."""
    exp = np.exp if isinstance(logs[0], np.ndarray) else cmath.exp
    return CuspEigenvalues(*(-exp(x) for x in logs))


def cusp_eigenvalues(s: TetShapes) -> CuspEigenvalues:
    """Eigenvalues at the positively oriented shapes ``s``: -exp of ``cusp_logs(s)``."""
    return _exp_eigenvalues(cusp_logs(s))
