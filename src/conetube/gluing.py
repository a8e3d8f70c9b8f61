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
finiteness, ``CHART_RADIUS``, the degenerate-shape check and every
``continue_sqrt`` step. The row path takes the discriminant's first
``_SEGMENT_HOPS`` hops stacked on a leading axis, in one
``_continue_sqrt_path`` pass, and the four eigenvalue roots stacked in one
``continue_sqrt`` pass (``_continue_stacked``, which ``surgery`` uses for
its four logs too). Where a row would split a hop, every row walks the
discriminant instead, each halving its own hop down to ``_MIN_HOP`` as the
scalar walk does; both walks give the same bits. One failing row refuses
the batch with the scalar path's exception type, and the message starts
``row i:``; the error carries ``row`` and ``reason``. A stacked pass runs
each guard over all its quantities before the next guard, so where one
batch has two faults the one reported can differ from the scalar order.

Walks. Shapes whose arrays carry a leading substep axis, one substep of a
walk from the base per index, go through ``_walk_eigenvalues``: the same
eigenvalue formulas as ``cusp_eigenvalues``, with each root continued
along that axis by ``jets._continue_sqrt_path`` in one pass. A refusal
names ``(substep, row)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import TOLERANCES, ensure_finite
from .jets import _MAX_REL_STEP, BranchError, _continue_sqrt_path, _refuse, continue_sqrt

BASE_SHAPE = complex(0.5, 0.5)
CHART_RADIUS = 0.35
# sqrt of the quadratic's discriminant at the base: its root is w = (1-i)/2
_BASE_DISC = -0.5j
_BASE_DISC_SQRT = complex(-0.5, 0.5)
# the discriminant walk starts with this many hops along the segment, and
# gives up once a hop would be shorter than _MIN_HOP of it
_SEGMENT_HOPS = 2
_MIN_HOP = 2.0**-20
# where those hops end, summed hop by hop as the walk sums them
_HOP_ENDS = np.minimum(1.0, np.cumsum(np.full(_SEGMENT_HOPS, 1.0 / _SEGMENT_HOPS)))


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


def _continued_disc_sqrt(u, v):
    """sqrt(disc) at (u, v), continued along the chart segment from the base.

    Rows of arrays first take the ``_SEGMENT_HOPS`` first hops stacked on a
    leading axis, in one ``_continue_sqrt_path`` pass. If any row would
    split a hop, every row walks instead side by side, each with its own
    hop: a row whose hop the anchor refuses halves it and retries, as one
    point does, while the other rows step on, and ``continue_sqrt`` checks
    every step taken. Both give the same bits.
    """
    du, dv = u - BASE_SHAPE, v - BASE_SHAPE
    if type(du) is complex:
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
    # most rows take the first hops unsplit: all of them at once, in one pass
    ends = _HOP_ENDS.reshape(_HOP_ENDS.shape + (1,) * du.ndim)
    qa, qb, qc = _quadratic(BASE_SHAPE + ends * du, BASE_SHAPE + ends * dv)
    try:
        return _continue_sqrt_path(qb * qb - 4 * qa * qc, _BASE_DISC, _BASE_DISC_SQRT)[-1]
    except BranchError:
        return _walk_disc_sqrt(du, dv)  # some row would split a hop


def _walk_disc_sqrt(du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """The row walk of ``_continued_disc_sqrt`` to the offsets (du, dv), a hop per row."""
    t, hop = np.zeros(du.shape), np.full(du.shape, 1.0 / _SEGMENT_HOPS)
    arg, value = np.full(du.shape, _BASE_DISC), np.full(du.shape, _BASE_DISC_SQRT)
    live = t < 1.0
    while live.any():
        nxt = np.minimum(1.0, t + hop)
        qa, qb, qc = _quadratic(BASE_SHAPE + nxt * du, BASE_SHAPE + nxt * dv)
        disc = qb * qb - 4 * qa * qc
        # the rows whose hop continue_sqrt would refuse halve it, all at once
        step = abs(disc / arg - 1.0)
        long = live & (step > _MAX_REL_STEP)
        hop = np.where(long, hop / 2.0, hop)
        _refuse(
            hop < _MIN_HOP,
            GluingError,
            lambda i: f"discriminant branch lost on the chart segment: relative step "
            f"{step[i]:.3f} exceeds {_MAX_REL_STEP}; subdivide the path",
        )
        # the other live rows step; the rest hand their own anchor in, a step of 0
        go = live & ~long
        value = np.where(go, continue_sqrt(np.where(go, disc, arg), arg, value), value)
        t, arg = np.where(go, nxt, t), np.where(go, disc, arg)
        live = t < 1.0
    return value


def _root(qa, qb, qc, root):
    """The root w of A w^2 + B w + C on the sheet of ``root`` = sqrt(disc)."""
    # (-B + root) / 2A and 2C / (-B - root) are the same root; divide by
    # the larger of -B +- root so that neither cancels
    plus, minus = root - qb, -root - qb
    larger = abs(plus) >= abs(minus)
    if type(larger) is bool:
        return plus / (2 * qa) if larger else 2 * qc / minus
    return np.where(larger, plus, 2 * qc) / np.where(larger, 2 * qa, minus)


def solve_shapes(u, v) -> TetShapes:
    """Solve the chart point (z1, z2) = (u, v) on the sheet continued from the base.

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
    qa, qb, qc = _quadratic(u, v)
    w = _root(qa, qb, qc, _continued_disc_sqrt(u, v))
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
