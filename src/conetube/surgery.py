"""Cone-angle filling: closed-form expansions and on-variety solving.

A slope (p, q) on the second cusp imposes the filling relation

    p log(-m2) + q log(-l2) = i theta / 2

with branch-continued logarithms vanishing at the complete structure; the
first cusp is either unfilled (m1 = -1) or filled with its own slope
(p1 log(-m1) + q1 log(-l1) = pi i).

``cone_expansion`` produces the order-3 theta-jets of (m2, l2) on a given
geometric curve, in the closed form valid when the curve satisfies the
involution constraint a2 = a1 - a1^2. ``solve_cone_structure`` solves the
same relations numerically on the gluing-variety chart, providing the
end-to-end check and the filled-curve samplers used for the convergence
experiment.

Each relation is affine in (m1, m2, log(-m1), log(-l1), log(-m2), log(-l2)),
so Newton on the chart takes its exact 2x2 Jacobian from the gradients of
those six quantities (``gluing.log_eigenvalue_gradients``; dm = m dlog(-m)).
A parameter (the first cusp's 2 pi i target, then theta) is continued with
a step that doubles after each accepted Newton solve and halves after each
refused one. Branch anchors move only on accepted steps.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

from .config import TOLERANCES
from .curves import CurveError, GeometricCurve, expand_from_samples
from .gluing import (
    BASE_SHAPE,
    BranchAnchors,
    CuspEigenvalues,
    GluingError,
    TetShapes,
    cusp_eigenvalues,
    log_eigenvalue_gradients,
    solve_shapes,
)
from .jets import Jet, variable, continue_log, BranchError

THETA_MAX = 0.5
MIN_FILLED_NORM = 8
_THETA_STEP = 0.01
_THETA_STEP_MIN = 1e-4
_TAU_STEP = 0.25
_TAU_STEP_MIN = 1.0 / 256.0
_NEWTON_MAX_ITER = 25


class SurgeryError(ValueError):
    pass


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (a, 1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


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
        if math.gcd(p, q) != 1:
            raise SurgeryError(f"slope ({p}, {q}) is not coprime")
        g, x, y = _egcd(p, q)
        if g < 0:
            g, x, y = -g, -x, -y
        # p x + q y = 1  ->  s = x, r = -y
        return cls(p=p, q=q, r=-y, s=x)


@dataclasses.dataclass(frozen=True)
class ConeExpansion:
    """Order-3 theta-jets of the filled cusp's eigenvalues on a curve."""

    curve: GeometricCurve
    slope: Slope
    m_jet: Jet
    l_jet: Jet
    log_combo_jet: Jet


def cone_expansion(curve: GeometricCurve, slope: Slope) -> ConeExpansion:
    """Closed-form jets of m2, l2 and r log(-m2) + s log(-l2) in theta.

    Requires the involution-constrained curve (a2 = a1 - a1^2) at
    (-1, -1); the coefficient formulas below are the specialization to
    that case.
    """
    if (curve.m0, curve.l0) != (-1, -1):
        raise SurgeryError("cone expansion implemented only at base (-1, -1)")
    if abs(curve.involution_defect()) > 1e-9:
        raise SurgeryError(
            f"curve violates involution constraint by {curve.involution_defect()!r}"
        )
    a1, a3 = curve.a1, curve.a3
    if a1.imag == 0:
        raise SurgeryError("curve slope a1 must have nonzero imaginary part")
    p, q, r, s = slope.p, slope.q, slope.r, slope.s
    P = p + a1 * q
    th = variable("theta", 3)
    m_jet = (
        -1.0
        + (-0.5j / P) * th
        + (0.125 / P**2) * th**2
        + (1j * (p + (3 * a1 - 3 * a1**2 + a1**3 - a3) * q) / (48.0 * P**4)) * th**3
    )
    l_jet = (
        -1.0
        + (-0.5j * a1 / P) * th
        + (0.125 * a1**2 / P**2) * th**2
        + (1j * ((-2 * a1 + 3 * a1**2 + a3) * p + a1**4 * q) / (48.0 * P**4)) * th**3
    )
    combo = (
        (0.5j * (r + a1 * s) / P) * th
        + (1j * (2 * a1 - 3 * a1**2 + a1**3 - a3) * (p * s - q * r) / (48.0 * P**4))
        * th**3
    )
    return ConeExpansion(curve=curve, slope=slope, m_jet=m_jet, l_jet=l_jet, log_combo_jet=combo)


def cone_derivatives_general(curve: GeometricCurve, slope: Slope) -> tuple[Jet, Jet]:
    """Theta-jets of (m2, l2) without assuming the involution constraint.

    Independent derivation kept as a cross-check of ``cone_expansion``;
    the two agree exactly when a2 = a1 - a1^2.
    """
    if (curve.m0, curve.l0) != (-1, -1):
        raise SurgeryError("cone expansion implemented only at base (-1, -1)")
    a1, a2, a3 = curve.a1, curve.a2, curve.a3
    p, q = slope.p, slope.q
    P = p + a1 * q
    if P == 0:
        raise SurgeryError("p + a1 q vanished; slope is degenerate on this curve")
    th = variable("theta", 3)
    dm1 = -0.5j / P
    dm2 = (p + (a1**2 + a2) * q) / (4.0 * P**3)
    dm3 = (
        1j
        * (
            p**2
            + (6 * a1**2 - 2 * a1**3 + 6 * a2 - 2 * a1 - 3 * a1 * a2 - a3) * p * q
            + (a1**4 + 3 * a1**2 * a2 + 3 * a2**2 - a1 * a3) * q**2
        )
        / (8.0 * P**5)
    )
    dl1 = -0.5j * a1 / P
    dl2 = ((a1 - a2) * p + a1**3 * q) / (4.0 * P**3)
    dl3 = (
        1j
        * (
            (a1 - 3 * a2 + a3) * p**2
            + (6 * a1**3 - 2 * a1**4 - 2 * a1**2 - 6 * a1**2 * a2 - 3 * a2**2
               + 3 * a1 * a2 + a1 * a3) * p * q
            + a1**5 * q**2
        )
        / (8.0 * P**5)
    )
    m_jet = -1.0 + dm1 * th + (dm2 / 2.0) * th**2 + (dm3 / 6.0) * th**3
    l_jet = -1.0 + dl1 * th + (dl2 / 2.0) * th**2 + (dl3 / 6.0) * th**3
    return m_jet, l_jet


@dataclasses.dataclass
class _LogAnchors:
    m1: tuple[complex, complex] = (1.0 + 0j, 0j)
    l1: tuple[complex, complex] = (1.0 + 0j, 0j)
    m2: tuple[complex, complex] = (1.0 + 0j, 0j)
    l2: tuple[complex, complex] = (1.0 + 0j, 0j)


@dataclasses.dataclass(frozen=True)
class VarietyPoint:
    """A chart point with eigenvalues and branch-continued filling logs."""

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


class _ChartWalker:
    """Newton state on the chart; commits branch anchors per accepted step."""

    def __init__(self) -> None:
        self.u = BASE_SHAPE
        self.v = BASE_SHAPE
        self.anchors = BranchAnchors()
        self.logs = _LogAnchors()

    def clone(self) -> "_ChartWalker":
        other = _ChartWalker.__new__(_ChartWalker)
        other.u, other.v = self.u, self.v
        other.anchors = dataclasses.replace(self.anchors)
        other.logs = dataclasses.replace(self.logs)
        return other

    def evaluate(self, u: complex, v: complex, commit: bool = False) -> VarietyPoint:
        shapes = solve_shapes(u, v)
        ev = cusp_eigenvalues(shapes, self.anchors, commit=commit)
        try:
            lm1 = continue_log(-ev.m1, *self.logs.m1)
            ll1 = continue_log(-ev.l1, *self.logs.l1)
            lm2 = continue_log(-ev.m2, *self.logs.m2)
            ll2 = continue_log(-ev.l2, *self.logs.l2)
        except BranchError as exc:
            raise GluingError(f"filling log branch lost: {exc}") from exc
        if commit:
            self.logs.m1 = (-ev.m1, lm1)
            self.logs.l1 = (-ev.l1, ll1)
            self.logs.m2 = (-ev.m2, lm2)
            self.logs.l2 = (-ev.l2, ll2)
            self.u, self.v = u, v
        return VarietyPoint(
            u=u, v=v, shapes=shapes, eigenvalues=ev,
            log_m1=lm1, log_l1=ll1, log_m2=lm2, log_l2=ll2,
        )

    def newton(self, residual: _Residual) -> VarietyPoint:
        """Solve residual = 0 from the current committed point."""
        u, v = self.u, self.v
        tol = TOLERANCES.newton
        polish = False
        for _ in range(_NEWTON_MAX_ITER):
            pt = self.evaluate(u, v)
            x = _coordinates(pt)
            f1, f2 = residual[0].value(x), residual[1].value(x)
            if polish or max(abs(f1), abs(f2)) < tol:
                if polish:
                    self.evaluate(u, v, commit=True)
                    return pt
                polish = True
            (j11, j12), (j21, j22) = _jacobian(residual, pt)
            det = j11 * j22 - j12 * j21
            if abs(det) < 1e-14:
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
    walker: _ChartWalker,
    make_residual: Callable[[float], _Residual],
    target: float,
    step: float,
    min_step: float,
) -> VarietyPoint:
    """March a scalar parameter to target.

    The step doubles after each accepted Newton solve and halves after each
    refused one; below min_step the refusal is raised.
    """
    t = 0.0
    pt = walker.evaluate(walker.u, walker.v)
    while t < target:
        nxt = min(target, t + step)
        saved = walker.clone()
        try:
            pt = walker.newton(make_residual(nxt))
        except (SurgeryError, GluingError):
            walker.u, walker.v = saved.u, saved.v
            walker.anchors = saved.anchors
            walker.logs = saved.logs
            step /= 2.0
            if step < min_step:
                raise
            continue
        t = nxt
        step *= 2.0
    return pt


def _filled_base_walker(slope1: Slope) -> _ChartWalker:
    """Continue the first-cusp relation from the complete structure to pi*i."""
    walker = _ChartWalker()

    def residual_at(tau: float) -> _Residual:
        return _first_cusp_residual(slope1, tau), _pinned_meridian(0.0)

    _continue_parameter(walker, residual_at, 1.0, _TAU_STEP, _TAU_STEP_MIN)
    return walker


def solve_cone_structure(
    slope1: Slope | None, slope2: Slope, theta: float
) -> SolvedStructure:
    """Chart point where both filling relations hold at cone angle theta.

    slope1 None leaves the first cusp complete (m1 = -1); otherwise the
    first cusp carries the 2*pi relation p1 log(-m1) + q1 log(-l1) = pi i.
    Reached by continuation: first in the first-cusp relation, then in
    theta, each with a step that doubles on success and halves on failure.
    """
    theta = float(theta)
    if not 0.0 <= theta <= THETA_MAX:
        raise SurgeryError(f"theta {theta} outside [0, {THETA_MAX}]")
    walker = _ChartWalker() if slope1 is None else _filled_base_walker(slope1)
    first = _first_cusp_residual(slope1, 1.0)

    def residual_at(th: float) -> _Residual:
        return first, _second_cusp_residual(slope2, th)

    if theta == 0.0 and slope1 is None:
        pt = walker.evaluate(walker.u, walker.v)
    else:
        pt = _continue_parameter(walker, residual_at, theta, _THETA_STEP, _THETA_STEP_MIN)
        if theta == 0.0:
            pt = walker.newton(residual_at(0.0))
    structure = SolvedStructure(point=pt, slope1=slope1, slope2=slope2, theta=theta)
    r1, r2 = structure.filling_residuals()
    if max(abs(r1), abs(r2)) > 1e-12:
        raise SurgeryError(f"filling residuals {(r1, r2)!r} above 1e-12")
    return structure


def _meridian_pinned_sampler(base: _ChartWalker, first: _Affine) -> Callable:
    """Sampler s -> (m2, l2) solving {first-cusp relation, m2 = -1 + s}."""

    def sample(s: complex) -> tuple[complex, complex]:
        walker = base.clone()
        pt = walker.newton((first, _pinned_meridian(s)))
        return pt.eigenvalues.m2, pt.eigenvalues.l2

    return sample


def unfilled_curve_sampler() -> Callable[[complex], tuple[complex, complex]]:
    """Sampler of the second-cusp eigenvalue curve with the first cusp complete."""
    return _meridian_pinned_sampler(_ChartWalker(), _first_cusp_residual(None, 1.0))


def filled_curve_sampler(
    slope1: Slope, min_norm: int = MIN_FILLED_NORM
) -> Callable[[complex], tuple[complex, complex]]:
    """Sampler of the second-cusp curve with the first cusp filled along slope1.

    Solves the filled base point once; each sample is an independent Newton
    solve from a cloned walker, so the sampler is reentrant. Small slopes
    put the filled base point outside the chart, hence the norm floor.
    """
    if abs(slope1.p) + abs(slope1.q) < min_norm:
        raise SurgeryError(
            f"|p1| + |q1| = {abs(slope1.p) + abs(slope1.q)} below floor {min_norm}"
        )
    return _meridian_pinned_sampler(
        _filled_base_walker(slope1), _first_cusp_residual(slope1, 1.0)
    )


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

    def build(label: str, sampler: Callable) -> ConvergenceRow:
        try:
            curve = expand_from_samples(sampler, -1, -1)
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
        rows.append(build(f"{slope.p},{slope.q}", filled_curve_sampler(slope)))
    if include_unfilled:
        rows.append(build("unfilled", unfilled_curve_sampler()))
    return rows
