"""Cone-angle filling: jet expansions and on-variety solving.

A slope (p, q) on the second cusp imposes the filling relation

    p log(-m2) + q log(-l2) = i theta / 2

with branch-continued logarithms vanishing at the complete structure; the
first cusp is either unfilled (m1 = -1) or filled with its own slope
(p1 log(-m1) + q1 log(-l1) = pi i).

``cone_expansion`` produces the order-3 theta-jets of (m2, l2) on a given
geometric curve: dm2(theta) is the reversion of the filling relation, a
series in dm2 = m2 + 1, at i theta / 2, and l2(theta) one composition
with it. The core length comes from the same jets with no dual pair.
``solve_cone_structure`` solves the same relations numerically on the
gluing-variety chart, providing the end-to-end check and the filled-curve
samplers used for the convergence experiment.

Each relation is affine in (m1, m2, log(-m1), log(-l1), log(-m2), log(-l2)),
so Newton on the chart takes its exact 2x2 Jacobian from the gradients of
those six quantities (``gluing.log_eigenvalue_gradients``; dm = m dlog(-m)).
A parameter (the first cusp's 2 pi i target, then theta) is continued
from 0 in one step to its target, halved after a refused Newton solve and
doubled after an accepted one. A walk's whole state is its last accepted
``VarietyPoint``, which carries the anchors of every square root and log:
Newton starts at that point and continues each later iterate from it, so a
refused step leaves nothing to undo. ``_COMPLETE`` starts every walk.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .config import TOLERANCES
from .curves import CurveError, GeometricCurve, expand_from_samples
from .gluing import (
    BASE_SHAPE,
    BASE_SHAPES,
    BranchAnchors,
    CuspEigenvalues,
    GluingError,
    TetShapes,
    cusp_eigenvalues,
    log_eigenvalue_gradients,
    solve_shapes,
)
from .jets import BranchError, Jet, JetError, compose, continue_log, jet_log, reversion, variable

THETA_MAX = 0.5
MIN_FILLED_NORM = 8
_THETA_STEP_MIN = 1e-4
_TAU_STEP_MIN = 1.0 / 256.0
_NEWTON_MAX_ITER = 25
_FLOAT_MAX = int(sys.float_info.max)  # an int compares faster than a float


class SurgeryError(ValueError):
    pass


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g; a loop, as float-sized slopes outrun recursion."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b, x0, y0, x1, y1 = b, a - k * b, x1, y1, x0 - k * x1, y0 - k * y1
    return (a, x0, y0)


@dataclasses.dataclass(frozen=True)
class Slope:
    """Coprime filling slope (p, q) with a fixed dual (r, s), ps - qr = 1."""

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self) -> None:
        if math.gcd(self.p, self.q) != 1:
            raise SurgeryError(f"slope ({self.p}, {self.q}) is not coprime")
        if self.p * self.s - self.q * self.r != 1:
            raise SurgeryError(f"dual ({self.r}, {self.s}) violates ps - qr = 1")

    @classmethod
    def make(cls, p: int, q: int) -> "Slope":
        p, q = int(p), int(q)
        if abs(p) > _FLOAT_MAX or abs(q) > _FLOAT_MAX:
            raise SurgeryError(f"slope ({p}, {q}) is too large for a float")
        g, x, y = _egcd(p, q)
        if g < 0:
            g, x, y = -g, -x, -y
        if g != 1:
            raise SurgeryError(f"slope ({p}, {q}) is not coprime")
        # p x + q y = 1  ->  s = x, r = -y
        return cls(p=p, q=q, r=-y, s=x)


@dataclasses.dataclass(frozen=True)
class ConeExpansion:
    """Order-3 theta-jets of the filled cusp's eigenvalues on a curve.

    ``core_jet`` is K = Re(r log(-m2) + s log(-l2)) for real theta, so the
    core length is 2|K|. For a tuple of slopes the jets are batches with
    one row per slope.
    """

    curve: GeometricCurve
    slope: Slope | tuple[Slope, ...]
    m_jet: Jet
    l_jet: Jet
    core_jet: Jet


# The k-th theta-coefficients scale as |p + a1 q|^-k, and the tube's
# products of them reach |p + a1 q|^-4. On the unfilled curve k stays
# exact to 1e-15 through |p| + |q| = 10^76; from 10^77 those products
# underflow and k drifts (4e-14 there, 3e-2 at 10^80) before any guard
# trips. Hence the refusal well below that.
MAX_CONE_NORM = 1e60


@dataclasses.dataclass(frozen=True)
class CurveJets:
    """The slope-free jets in dm = m + 1 that every cone expansion reads.

    ``of`` runs the curve guards of ``cone_expansion`` once, so a scan
    builds these once and expands each block of slopes from them.
    """

    curve: GeometricCurve
    dl: Jet  # l + 1
    logs: Jet  # two rows: log(-m) and log(-l(m))

    @classmethod
    def of(cls, curve: GeometricCurve) -> "CurveJets":
        if (curve.m0, curve.l0) != (-1, -1):
            raise SurgeryError("cone expansion implemented only at base (-1, -1)")
        if abs(curve.involution_defect()) > TOLERANCES.involution:
            raise SurgeryError(
                f"curve violates involution constraint by {curve.involution_defect()!r}"
            )
        if curve.a1.imag == 0:
            raise SurgeryError("curve slope a1 must have nonzero imaginary part")
        dl = curve.series_jet("dm")
        # -m = 1 - dm and -l = 1 - dl, both 1 at the base
        logs = jet_log(1.0 - Jet(np.stack([variable("dm", 3).coeffs, dl.coeffs]), "dm"), 0.0)
        return cls(curve=curve, dl=dl, logs=logs)


def cone_expansion(curve: GeometricCurve, slope: Slope | Sequence[Slope]) -> ConeExpansion:
    """Jets of m2, l2 and the core-length K in theta, by series reversion.

    The filling relation p log(-m) + q log(-l(m)) = i theta / 2 is a series
    in dm = m + 1; its reversion at i theta / 2 gives dm(theta), and
    composing the curve with it gives l(theta). Since that combination is
    imaginary and ps - qr = 1, K = Re(r log(-m) + s log(-l)) equals
    Re(p log(-l) - q log(-m)) / (p^2 + q^2), which needs no dual pair.

    Requires the involution-constrained curve (a2 = a1 - a1^2) at
    (-1, -1). Given a sequence of slopes the jets carry one row per slope,
    in order. The jets come from ``cone_jets``, which refuses a slope with
    |p| + |q| above ``MAX_CONE_NORM``.
    """
    jets = CurveJets.of(curve)
    single = isinstance(slope, Slope)
    batch = (slope,) if single else tuple(slope)
    p, q = np.array([(x.p, x.q) for x in batch], dtype=float).reshape(-1, 2).T
    m_jet, l_jet, core_jet = cone_jets(jets, p[0], q[0]) if single else cone_jets(jets, p, q)
    return ConeExpansion(
        curve=jets.curve,
        slope=slope if single else batch,
        m_jet=m_jet,
        l_jet=l_jet,
        core_jet=core_jet,
    )


def cone_jets(jets: CurveJets, p, q) -> tuple[Jet, Jet, Jet]:
    """The theta-jets (m2, l2, K) of ``cone_expansion`` for float slope columns.

    ``p`` and ``q`` are float arrays, one row per slope, or two floats for
    one unbatched slope; no ``Slope`` is built, so a scan reads its columns
    straight in. A slope with |p| + |q| above ``MAX_CONE_NORM`` is refused
    by a ``JetError``, which names its row in a batch.
    """
    big = np.abs(p) > MAX_CONE_NORM - np.abs(q)  # |p| + |q| may overflow
    if big.any():
        raise JetError(
            f"|p| + |q| above {MAX_CONE_NORM:.0e}, where the theta-jets underflow",
            int(np.argmax(big)) if big.ndim else None,
        )
    if big.ndim:
        # one row per slope: p and q as columns against the dm coefficients
        p, q = p[:, None], q[:, None]
    log_m, log_l = jets.logs.coeffs
    inverse = reversion(Jet(p * log_m + q * log_l, "dm"))  # dm in terms of the relation
    dm = Jet(inverse.coeffs * 0.5j ** np.arange(inverse.order + 1), "theta")  # at i theta / 2
    # l + 1 and p log(-l) - q log(-m), stacked to share dm's powers in compose
    dual_free = p * log_l - q * log_m
    outer = np.empty((2,) + dual_free.shape, dtype=complex)
    outer[0], outer[1] = jets.dl.coeffs, dual_free
    dl, core = compose(Jet(outer, "dm"), dm).coeffs
    return dm - 1.0, Jet(dl, "theta") - 1.0, Jet(core.real / (p * p + q * q), "theta")


@dataclasses.dataclass(frozen=True)
class VarietyPoint:
    """A chart point with eigenvalues and branch-continued filling logs.

    It holds every anchor that continues its branches: the square roots in
    ``eigenvalues.anchors`` and each log beside its argument -eigenvalue.
    """

    u: complex
    v: complex
    shapes: TetShapes
    eigenvalues: CuspEigenvalues
    log_m1: complex
    log_l1: complex
    log_m2: complex
    log_l2: complex


def _coordinates(pt: VarietyPoint) -> tuple[complex, ...]:
    """(m1, m2, log(-m1), log(-l1), log(-m2), log(-l2)): what residuals read."""
    ev = pt.eigenvalues
    return (ev.m1, ev.m2, pt.log_m1, pt.log_l1, pt.log_m2, pt.log_l2)


def _gradients(pt: VarietyPoint) -> tuple[tuple[complex, complex], ...]:
    """(d/du, d/dv) of each of ``_coordinates(pt)``; dm = m dlog(-m)."""
    lm1, ll1, lm2, ll2 = log_eigenvalue_gradients(pt.shapes)
    m1, m2 = pt.eigenvalues.m1, pt.eigenvalues.m2
    return ((m1 * lm1[0], m1 * lm1[1]), (m2 * lm2[0], m2 * lm2[1]), lm1, ll1, lm2, ll2)


@dataclasses.dataclass(frozen=True)
class _Affine:
    """The residual sum(c_k x_k) + const over x = _coordinates(pt)."""

    coeffs: tuple[complex, ...]
    const: complex

    def value(self, x: tuple[complex, ...]) -> complex:
        return sum(c * xk for c, xk in zip(self.coeffs, x)) + self.const

    def gradient(self, grads: tuple[tuple[complex, complex], ...]) -> tuple[complex, complex]:
        return (
            sum(c * g[0] for c, g in zip(self.coeffs, grads)),
            sum(c * g[1] for c, g in zip(self.coeffs, grads)),
        )


# a residual pair for the chart Newton
_Residual = tuple[_Affine, _Affine]


def _jacobian(residual: _Residual, pt: VarietyPoint) -> tuple[tuple[complex, complex], ...]:
    """Exact d(residual)/d(u, v) at pt, row-major."""
    grads = _gradients(pt)
    return residual[0].gradient(grads), residual[1].gradient(grads)


def _pinned_meridian(shift: complex) -> _Affine:
    """m2 + 1 - shift."""
    return _Affine((0, 1, 0, 0, 0, 0), 1.0 - shift)


def _second_cusp_residual(slope2: Slope, theta: float) -> _Affine:
    """p2 log(-m2) + q2 log(-l2) - i theta / 2."""
    return _Affine((0, 0, 0, 0, slope2.p, slope2.q), -0.5j * theta)


@dataclasses.dataclass(frozen=True)
class SolvedStructure:
    point: VarietyPoint
    slope1: Slope | None
    slope2: Slope
    theta: float

    def filling_residuals(self) -> tuple[complex, complex]:
        x = _coordinates(self.point)
        return (
            _first_cusp_residual(self.slope1, 1.0).value(x),
            _second_cusp_residual(self.slope2, self.theta).value(x),
        )


_MINUS_ONE = complex(-1.0, -0.0)  # so that the log argument -m is exactly 1 + 0j
_COMPLETE = VarietyPoint(
    u=BASE_SHAPE, v=BASE_SHAPE, shapes=BASE_SHAPES,
    eigenvalues=CuspEigenvalues(_MINUS_ONE, _MINUS_ONE, _MINUS_ONE, _MINUS_ONE, BranchAnchors()),
    log_m1=0j, log_l1=0j, log_m2=0j, log_l2=0j,
)


def _continue_point(prev: VarietyPoint, u: complex, v: complex) -> VarietyPoint:
    """The chart point (u, v), every branch continued from prev."""
    shapes = solve_shapes(u, v)
    ev = cusp_eigenvalues(shapes, prev.eigenvalues.anchors)
    old = prev.eigenvalues
    try:
        lm1 = continue_log(-ev.m1, -old.m1, prev.log_m1)
        ll1 = continue_log(-ev.l1, -old.l1, prev.log_l1)
        lm2 = continue_log(-ev.m2, -old.m2, prev.log_m2)
        ll2 = continue_log(-ev.l2, -old.l2, prev.log_l2)
    except BranchError as exc:
        raise GluingError(f"filling log branch lost: {exc}") from exc
    return VarietyPoint(
        u=u, v=v, shapes=shapes, eigenvalues=ev,
        log_m1=lm1, log_l1=ll1, log_m2=lm2, log_l2=ll2,
    )


def _newton(start: VarietyPoint, residual: _Residual) -> VarietyPoint:
    """The converged point of residual = 0, Newton from start on start's branches."""
    u, v = start.u, start.v
    tol = TOLERANCES.newton
    polish = False
    for k in range(_NEWTON_MAX_ITER):
        pt = _continue_point(start, u, v) if k else start
        x = _coordinates(pt)
        f1, f2 = residual[0].value(x), residual[1].value(x)
        if polish or max(abs(f1), abs(f2)) < tol:
            if polish:
                return pt
            polish = True
        (j11, j12), (j21, j22) = _jacobian(residual, pt)
        det = j11 * j22 - j12 * j21
        if abs(det) < TOLERANCES.singular:
            raise SurgeryError("filling Jacobian is singular")
        u -= (f1 * j22 - f2 * j12) / det
        v -= (j11 * f2 - j21 * f1) / det
    raise SurgeryError("filling Newton failed to converge")


def _first_cusp_residual(slope1: Slope | None, tau: float) -> _Affine:
    """m1 + 1 unfilled; p1 log(-m1) + q1 log(-l1) - tau pi i filled."""
    if slope1 is None:
        return _Affine((1, 0, 0, 0, 0, 0), 1.0)
    return _Affine((0, 0, slope1.p, slope1.q, 0, 0), -tau * 1j * math.pi)


def _continue_parameter(
    start: VarietyPoint,
    make_residual: Callable[[float], _Residual],
    target: float,
    min_step: float,
    name: str,
) -> VarietyPoint:
    """March the parameter ``name`` from 0 at start to target; the last accepted point.

    The first step is the whole range; it halves after each refused Newton
    solve and doubles after each accepted one. Below min_step the refusal is
    raised again, its type kept, naming the parameter reached.
    """
    t, pt, step = 0.0, start, target
    while t < target:
        nxt = min(target, t + step)
        try:
            pt = _newton(pt, make_residual(nxt))
        except (SurgeryError, GluingError) as exc:
            step /= 2.0
            if step < min_step:
                raise type(exc)(f"{name} {t:g} of {target:g} reached: {exc}") from exc
            continue
        t = nxt
        step *= 2.0
    return pt


def _filled_base(slope1: Slope) -> VarietyPoint:
    """Continue the first-cusp relation from the complete structure to pi*i."""

    def residual_at(tau: float) -> _Residual:
        return _first_cusp_residual(slope1, tau), _pinned_meridian(0.0)

    return _continue_parameter(_COMPLETE, residual_at, 1.0, _TAU_STEP_MIN, "tau")


def solve_cone_structure(
    slope1: Slope | None, slope2: Slope, theta: float
) -> SolvedStructure:
    """Chart point where both filling relations hold at cone angle theta.

    slope1 None leaves the first cusp complete (m1 = -1); otherwise the
    first cusp carries the 2*pi relation p1 log(-m1) + q1 log(-l1) = pi i.
    Reached by continuation: first in the first-cusp relation, then in
    theta, each tried in one step that halves on failure and doubles on success.
    """
    theta = float(theta)
    if not 0.0 <= theta <= THETA_MAX:
        raise SurgeryError(f"theta {theta} outside [0, {THETA_MAX}]")
    start = _COMPLETE if slope1 is None else _filled_base(slope1)
    first = _first_cusp_residual(slope1, 1.0)

    def residual_at(th: float) -> _Residual:
        return first, _second_cusp_residual(slope2, th)

    pt = _continue_parameter(start, residual_at, theta, _THETA_STEP_MIN, "theta")
    if theta == 0.0 and slope1 is not None:
        pt = _newton(pt, residual_at(0.0))
    structure = SolvedStructure(point=pt, slope1=slope1, slope2=slope2, theta=theta)
    r1, r2 = structure.filling_residuals()
    if max(abs(r1), abs(r2)) > TOLERANCES.filling_residual:
        raise SurgeryError(f"filling residuals {(r1, r2)!r} above {TOLERANCES.filling_residual}")
    return structure


def _meridian_pinned_sampler(base: VarietyPoint, first: _Affine) -> Callable:
    """Sampler s -> (m2, l2) solving {first-cusp relation, m2 = -1 + s} from base."""

    def sample(s: complex) -> tuple[complex, complex]:
        pt = _newton(base, (first, _pinned_meridian(s)))
        return pt.eigenvalues.m2, pt.eigenvalues.l2

    return sample


def unfilled_curve_sampler() -> Callable[[complex], tuple[complex, complex]]:
    """Sampler of the second-cusp eigenvalue curve with the first cusp complete."""
    return _meridian_pinned_sampler(_COMPLETE, _first_cusp_residual(None, 1.0))


def filled_curve_sampler(slope1: Slope) -> Callable[[complex], tuple[complex, complex]]:
    """Sampler of the second-cusp curve with the first cusp filled along slope1.

    Solves the filled base point once; each sample is an independent Newton
    solve from that point, so the sampler is reentrant. Small slopes
    put the filled base point outside the chart, hence the norm floor.
    """
    if abs(slope1.p) + abs(slope1.q) < MIN_FILLED_NORM:
        raise SurgeryError(
            f"|p1| + |q1| = {abs(slope1.p) + abs(slope1.q)} below floor {MIN_FILLED_NORM}"
        )
    return _meridian_pinned_sampler(_filled_base(slope1), _first_cusp_residual(slope1, 1.0))


@dataclasses.dataclass(frozen=True)
class ConvergenceRow:
    label: str
    curve: GeometricCurve | None
    errors: tuple[float, float, float] | None
    defect: float | None
    failure: str | None = None


def convergence_table(
    slopes: list[Slope],
    reference: GeometricCurve,
    include_unfilled: bool = True,
) -> list[ConvergenceRow]:
    """a-coefficients of filled curves against the unfilled reference."""
    rows: list[ConvergenceRow] = []

    def build(label: str, make_sampler: Callable[[], Callable]) -> ConvergenceRow:
        try:
            curve = expand_from_samples(make_sampler(), -1, -1)
        except (CurveError, SurgeryError, GluingError) as exc:
            return ConvergenceRow(label, None, None, None, failure=str(exc))
        errs = (
            abs(curve.a1 - reference.a1),
            abs(curve.a2 - reference.a2),
            abs(curve.a3 - reference.a3),
        )
        return ConvergenceRow(
            label, curve, errs, abs(curve.involution_defect())
        )

    for slope in slopes:
        rows.append(build(f"{slope.p},{slope.q}", lambda: filled_curve_sampler(slope)))
    if include_unfilled:
        rows.append(build("unfilled", unfilled_curve_sampler))
    return rows
