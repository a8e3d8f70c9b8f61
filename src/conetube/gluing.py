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
shapes. Both cusps have eigenvalue -1 at the base, and every square root is
1 there. ``cusp_eigenvalues`` continues each root from given
``BranchAnchors`` and returns, with the eigenvalues, the anchors that
continue them further: a walk hands each point's anchors to the next, so
the sheet is continued, never re-chosen, and no anchor is ever mutated.

Batches. ``solve_shapes``, ``TetShapes.check_nondegenerate`` and
``cusp_eigenvalues`` choose their mechanics from the type of their input.
Python numbers take the scalar path. ndarrays of chart points take the row
path: each row is one point, and ``TetShapes``, ``CuspEigenvalues`` and
the returned ``BranchAnchors`` then hold arrays with that batch axis. Both
paths share the algebra (``_quadratic``, the root choice, ``z4``,
``sqrt_arguments``, ``residuals``, ``log_eigenvalue_gradients``). On the
row path every guard runs on every row with the scalar threshold:
finiteness, ``CHART_RADIUS``, the root's orientation, the degenerate-shape
check and every ``continue_sqrt`` step. The row path takes its square
roots with ``np.sqrt`` where the scalar path takes ``cmath.sqrt``, and
continues the four eigenvalue roots stacked in one ``continue_sqrt`` pass
(``_continue_stacked``, which ``surgery`` uses for its four logs too). One
failing row refuses the batch with the scalar path's exception type, and
the message starts ``row i:``; the error carries ``row`` and ``reason``. A
stacked pass runs each guard over all its quantities before the next
guard, so where one batch has two faults the one reported can differ from
the scalar order.

Walks. Shapes whose arrays carry a leading substep axis, one substep of a
walk from the base per index, go through ``_walk_eigenvalues``: the same
eigenvalue formulas as ``cusp_eigenvalues``, with each root continued
along that axis by ``jets._continue_sqrt_path`` in one pass. A refusal
names ``(substep, row)``.
"""

from __future__ import annotations

import cmath
import dataclasses

import numpy as np

from .config import TOLERANCES, ensure_finite
from .jets import BranchError, _continue_sqrt_path, _refuse, continue_sqrt

BASE_SHAPE = complex(0.5, 0.5)
CHART_RADIUS = 0.35


class GluingError(ValueError):
    pass


def _stack(values: tuple) -> np.ndarray:
    """Numbers or rows stacked on a new leading axis, broadcast to one shape."""
    out = np.empty((len(values),) + np.broadcast(*values).shape, dtype=complex)
    for k, value in enumerate(values):
        out[k] = value
    return out


@dataclasses.dataclass(frozen=True)
class TetShapes:
    z1: complex
    z2: complex
    z3: complex
    z4: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.z1, self.z2, self.z3, self.z4)

    def check_nondegenerate(self) -> "TetShapes":
        tol = TOLERANCES.degenerate_shape
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
    """(z3, z4) of the one root at (u, v) with Im z3 > 0 and Im z4 > 0.

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
        return (z3, z4) if first else (y3, y4)
    _refuse(
        first == second,
        GluingError,
        lambda i: _unoriented(complex(u[i]), complex(v[i]), 2 * int(first[i])),
    )
    return np.where(first, z3, y3), np.where(first, z4, y4)


def _unoriented(u: complex, v: complex, count: int) -> str:
    return f"{count} of the 2 roots at chart point ({u!r}, {v!r}) are positively oriented, not 1"


def solve_shapes(u, v) -> TetShapes:
    """Solve the chart point (z1, z2) = (u, v): the positively oriented root.

    ``u`` and ``v`` are numbers, or arrays of chart points (one per row) on
    the row path of the module docstring.
    """
    if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))
        for z in (u, v):
            _refuse(~np.isfinite(z), ValueError, lambda i: f"non-finite value {complex(z[i])!r}")
        radius = np.maximum(abs(u - BASE_SHAPE), abs(v - BASE_SHAPE))
        _refuse(
            radius > CHART_RADIUS,
            GluingError,
            lambda i: f"chart coordinate {radius[i]:.3f} from base exceeds radius {CHART_RADIUS}",
        )
    else:
        u, v = complex(u), complex(v)
        ensure_finite(u, v)
        radius = max(abs(u - BASE_SHAPE), abs(v - BASE_SHAPE))
        if radius > CHART_RADIUS:
            raise GluingError(
                f"chart coordinate {radius:.3f} from base exceeds radius {CHART_RADIUS}"
            )
    z3, z4 = _oriented_root(u, v)
    return TetShapes(u, v, z3, z4).check_nondegenerate()


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


@dataclasses.dataclass(frozen=True)
class BranchAnchors:
    """(argument, value) of each cusp square root at one point; the default is the base.

    Numbers for one point; on the row path, arrays with one anchor per row.
    The base anchors broadcast over any batch.
    """

    m1: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j)
    l1: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j)
    m2: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j)
    l2: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j)


@dataclasses.dataclass(frozen=True)
class CuspEigenvalues:
    """Meridian/longitude holonomy eigenvalues of the two cusps.

    ``anchors`` holds the square roots continued to these eigenvalues' point.
    """

    m1: complex
    l1: complex
    m2: complex
    l2: complex
    anchors: BranchAnchors


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


def _continue_stacked(step, args: tuple, anchors: tuple) -> np.ndarray:
    """``step`` (``continue_sqrt`` or ``continue_log``) of every row of each argument, in one pass.

    ``args`` are row arrays and ``anchors`` their (argument, value) pairs,
    all numbers (the base's, say) or all rows. They are stacked on a
    leading axis, and each step guard runs on all of them before the next
    guard: every branch point is refused before any long step, and within
    one guard the first argument in order goes first. So a batch with two
    faults can report another one than the calls in turn would. The
    refusal names the row alone.
    """
    args = _stack(args)
    pairs = np.array(anchors)
    pairs = pairs.reshape(pairs.shape + (1,) * (args.ndim + 1 - pairs.ndim))
    try:
        return step(args, pairs[:, 0], pairs[:, 1])
    except BranchError as exc:
        row = exc.row[1:]  # without the stacked index
        raise BranchError(exc.reason, row[0] if len(row) == 1 else row) from exc


def _eigenvalues(s: TetShapes, anchors: BranchAnchors, continue_root) -> CuspEigenvalues:
    """The eigenvalues at ``s``, each square root continued by ``continue_root`` from ``anchors``.

    ``continue_root`` None takes the four roots of a row batch at once.
    """
    arg_m1, arg_l1, arg_m2, arg_l2 = args = sqrt_arguments(s)
    try:
        if continue_root is None:
            pairs = (anchors.m1, anchors.l1, anchors.m2, anchors.l2)
            s_m1, s_l1, s_m2, s_l2 = _continue_stacked(continue_sqrt, args, pairs)
        else:
            s_m1 = continue_root(arg_m1, *anchors.m1)
            s_l1 = continue_root(arg_l1, *anchors.l1)
            s_m2 = continue_root(arg_m2, *anchors.m2)
            s_l2 = continue_root(arg_l2, *anchors.l2)
    except BranchError as exc:
        lost = GluingError(f"eigenvalue branch lost: {exc}")
        lost.row, lost.reason = exc.row, f"eigenvalue branch lost: {exc.reason}"
        raise lost from exc
    # m1's and m2's radicands are the ratios that l1 and l2 carry
    return CuspEigenvalues(
        m1=-s_m1,
        l1=-arg_m1 * s_l1,
        m2=-s_m2,
        l2=-arg_m2 * s_l2,
        anchors=BranchAnchors((arg_m1, s_m1), (arg_l1, s_l1), (arg_m2, s_m2), (arg_l2, s_l2)),
    )


def cusp_eigenvalues(s: TetShapes, anchors: BranchAnchors = BranchAnchors()) -> CuspEigenvalues:
    """Eigenvalues at the shapes ``s``, continued from ``anchors`` (the base's by default).

    The result carries the anchors continued to ``s``. Shapes that hold
    arrays continue every row from its own anchor, the four roots stacked
    in one pass.
    """
    return _eigenvalues(s, anchors, None if isinstance(s.z1, np.ndarray) else continue_sqrt)


def _walk_eigenvalues(s: TetShapes) -> CuspEigenvalues:
    """Eigenvalues along walks from the base: the leading axis of ``s`` is the substep axis.

    Row ``i`` of substep ``k`` continues from row ``i`` of substep ``k - 1``,
    and substep 0 from the base, as ``cusp_eigenvalues`` called substep
    after substep would, bit for bit (``_continue_sqrt_path``); every field
    and anchor keeps the substep axis. A refusal names ``(substep, row)``.
    """
    return _eigenvalues(s, BranchAnchors(), _continue_sqrt_path)
