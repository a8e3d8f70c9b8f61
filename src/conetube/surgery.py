"""Cone-angle filling: jet expansions and on-variety solving.

A slope (p, q) on the second cusp imposes the filling relation

    p log(-m2) + q log(-l2) = i theta / 2

with the cusp logs of ``gluing.cusp_logs``, which vanish at the complete
structure; the first cusp is either unfilled (log(-m1) = 0, so m1 = -1)
or filled with its own slope (p1 log(-m1) + q1 log(-l1) = pi i).

``cone_expansion`` produces the order-3 theta-jets of (m2, l2) on a given
geometric curve: dm2(theta) is the reversion of the filling relation, a
series in dm2 = m2 + 1, at i theta / 2, and l2(theta) one composition
with it. The core length comes from the same jets with no dual pair.
``solve_cone_structure`` solves the same relations numerically on the
gluing-variety chart, providing the end-to-end check and the filled-curve
samplers used for the convergence experiment.

Every relation the solver reads is one row (c1, c2, c3, c4; const) over
the four cusp logs (log(-m1), log(-l1), log(-m2), log(-l2)), Neumann and
Zagier's log-parameters: both filling relations, log(-m1) = 0 unfilled,
and a pinned meridian log(-m2) = log(1 - s). A row lists its nonzero
terms once, so its value and its exact gradient on the chart are those
terms against the cusp logs and against ``gluing.log_eigenvalue_gradients``.
One ``_newton`` pass evaluates the chart once at its iterate: its shapes,
their cusp logs, and the logs' gradients from the same solve. Eigenvalues
are formed only for the point it returns.
A cone structure is first one Newton solve from the complete structure
``_COMPLETE`` to both relations at once, the whole deformation in one
step. Only where a filled structure's step is refused does it take the
staged walk: the first cusp's 2 pi i target continued from 0 with the
meridian pinned (``_filled_base``), then theta; each continuation tries
its whole range in one step, halved after a refused Newton solve and
doubled after an accepted one. A chart point's logs are fixed by its
shapes' orientation, not by the path to it (``gluing.cusp_logs``), so a
walk's whole state is its last accepted ``VarietyPoint``: Newton takes it
as its first iterate, and a refused step leaves nothing to undo.

The curve samplers solve the pinned meridian m2 = -1 + s from one base
point. Given an array of s, as ``expand_from_samples`` gives its whole
stencil, the pinned row's constant is an array, and the one ``_newton``
takes every s as one problem of a single pass: each evaluation takes
every chart point of a pass at once, and a refused row names its s.
"""

from __future__ import annotations

import cmath
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
    CuspEigenvalues,
    GluingError,
    TetShapes,
    _exp_eigenvalues,
    _gradients,
    _solve,
    cusp_logs,
    log_eigenvalue_gradients,
)
from .jets import Jet, JetError, _refuse, compose, jet_log, reversion, variable

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
        logs = jet_log(1.0 - Jet(np.stack([variable("dm", dl.order).coeffs, dl.coeffs]), "dm"), 0.0)
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
    """A chart point with its cusp eigenvalues and their logs, log(-eigenvalue)."""

    u: complex
    v: complex
    shapes: TetShapes
    eigenvalues: CuspEigenvalues
    log_m1: complex
    log_l1: complex
    log_m2: complex
    log_l2: complex


# A relation is one row (c1, c2, c3, c4; const), the residual
# c1 log(-m1) + c2 log(-l1) + c3 log(-m2) + c4 log(-l2) + const, held as the
# pair (terms, const) with the nonzero terms listed once, as pairs (k, c_k)
# with k = 0..3. An array const poses one problem per entry.
_Row = tuple[tuple[tuple[int, complex], ...], complex]
# a residual pair for the chart Newton
_Residual = tuple[_Row, _Row]


def _row(coeffs: tuple[complex, ...], const) -> _Row:
    return tuple([(k, c) for k, c in enumerate(coeffs) if c]), const


def _logs(pt: VarietyPoint) -> tuple[complex, complex, complex, complex]:
    """(log(-m1), log(-l1), log(-m2), log(-l2)): what every relation reads."""
    return (pt.log_m1, pt.log_l1, pt.log_m2, pt.log_l2)


def _at_least_one(size):
    """max(1, size) of a float, or of each entry of an array."""
    return max(1.0, size) if type(size) is float else np.maximum(1.0, size)


def _combination(terms: tuple[tuple[int, complex], ...], xs) -> complex:
    """sum(c x_k) over a row's nonzero terms (k, c), taking x_k itself for c = 1.

    Skipping the zero and unit multiplies changes at most the sign of a
    zero, and saves most of the work on rows.
    """
    total = None
    for k, c in terms:
        term = xs[k] if c == 1 else c * xs[k]
        total = term if total is None else total + term
    return 0 if total is None else total


def _value(row: _Row, logs: tuple) -> complex:
    terms, const = row
    return _combination(terms, logs) + const


def _scale(row: _Row, logs: tuple):
    terms, const = row
    return sum(abs(c) * _at_least_one(abs(logs[k])) for k, c in terms) + abs(const)


def _within(row: _Row, value, logs: tuple, tol: float):
    """Whether |value| < tol max(1, scale), scale = sum |c_k| max(1, |log_k|) + |const|.

    The scale bounds the rounding of the row's sum: a filled cusp's
    p log(-m) + q log(-l) - pi i sums terms of modulus about pi to 0, so its
    bound is about 2 pi times the absolute one, room for the rounding that
    grows with |p|; and p2 log(-m2) carries |p2| eps of it even where the
    log is near 0, which the floor of |c_k| per term covers. The scale is
    formed only where the absolute test fails. Rows are judged elementwise.
    """
    size = abs(value)
    if type(size) is float:
        return size < tol or size < tol * _scale(row, logs)
    small = size < tol
    return small if small.all() else small | (size < tol * _scale(row, logs))


def _first_cusp_residual(slope1: Slope | None, tau: float) -> _Row:
    """log(-m1) unfilled; p1 log(-m1) + q1 log(-l1) - tau pi i filled."""
    if slope1 is None:
        return _row((1, 0, 0, 0), 0)
    return _row((slope1.p, slope1.q, 0, 0), -tau * 1j * math.pi)


def _second_cusp_residual(slope2: Slope, theta: float) -> _Row:
    """p2 log(-m2) + q2 log(-l2) - i theta / 2."""
    return _row((0, 0, slope2.p, slope2.q), -0.5j * theta)


def _pinned_meridian(shift) -> _Row:
    """log(-m2) - log(1 - shift): the meridian m2 = -1 + shift, one row per entry of an array."""
    zero = shift == 1
    _refuse(zero, SurgeryError, lambda i: "the pinned meridian is 0, where log(-m2) is undefined")
    log = np.log if isinstance(shift, np.ndarray) else cmath.log
    return _row((0, 0, 1, 0), -log((1 + 0j) - shift))


@dataclasses.dataclass(frozen=True)
class SolvedStructure:
    point: VarietyPoint
    slope1: Slope | None
    slope2: Slope
    theta: float

    def filling_residuals(self) -> tuple[complex, complex]:
        logs = _logs(self.point)
        return (
            _value(_first_cusp_residual(self.slope1, 1.0), logs),
            _value(_second_cusp_residual(self.slope2, self.theta), logs),
        )


_MINUS_ONE = complex(-1.0, -0.0)  # -exp(0j): the base's eigenvalue, as _newton gives it
_COMPLETE = VarietyPoint(
    u=BASE_SHAPE, v=BASE_SHAPE, shapes=BASE_SHAPES,
    eigenvalues=CuspEigenvalues(_MINUS_ONE, _MINUS_ONE, _MINUS_ONE, _MINUS_ONE),
    log_m1=0j, log_l1=0j, log_m2=0j, log_l2=0j,
)
# the log gradients at _COMPLETE, where every unfilled and every one-step filled solve starts
_COMPLETE_GRADIENTS = log_eigenvalue_gradients(BASE_SHAPES)


def _newton(start: VarietyPoint, residual: _Residual) -> VarietyPoint:
    """The converged point of residual = 0, Newton from start.

    One pass solves its iterate's shapes once and reads their cusp logs and
    the logs' gradients, with each row's nonzero terms; only the returned
    point is built as a ``VarietyPoint`` with eigenvalues. A relation whose
    constant is an array poses one problem per entry, all from start: the
    first step shares start's Jacobian, each pass solves every problem's
    chart point at once, and the returned point holds arrays. Every problem
    steps until both relations are within ``TOLERANCES.newton`` times
    max(1, their scale) (``_within``); then all take one polishing step. A
    refused problem refuses the batch with the exception type and message
    of one problem, prefixed ``row i:`` (``jets._refuse``); the error
    carries ``row`` and ``reason``. When the iterations run out, the problem
    named is one whose polishing step was never read: it was not within its
    bound on both of the last two passes.
    """
    row1, row2 = residual
    (terms1, _), (terms2, _) = residual
    u, v, tol, singular = start.u, start.v, TOLERANCES.newton, TOLERANCES.singular
    logs = _logs(start)
    du, dv = _COMPLETE_GRADIENTS if start is _COMPLETE else log_eigenvalue_gradients(start.shapes)
    polish = small = False
    for k in range(_NEWTON_MAX_ITER):
        if k:
            shapes, qa, qb = _solve(u, v)
            logs = cusp_logs(shapes)
            if polish:
                return VarietyPoint(u, v, shapes, _exp_eigenvalues(logs), *logs)
            du, dv = _gradients(shapes, qa, qb)
        f1, f2 = _value(row1, logs), _value(row2, logs)
        was_small, small = small, _within(row1, f1, logs, tol)
        if small is not False:  # numbers skip the second test once the first fails
            small = small & _within(row2, f2, logs, tol)
        polish = small if type(small) is bool else small.all()
        j11, j12 = _combination(terms1, du), _combination(terms1, dv)
        j21, j22 = _combination(terms2, du), _combination(terms2, dv)
        det = j11 * j22 - j12 * j21
        _refuse(abs(det) < singular, SurgeryError, lambda i: "filling Jacobian is singular")
        u = u - (f1 * j22 - f2 * j12) / det
        v = v - (j11 * f2 - j21 * f1) / det
    # a problem within its bound on both of the last two passes had its polishing step read
    unread = np.logical_not(was_small & small)
    _refuse(unread, SurgeryError, lambda i: "filling Newton failed to converge")


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
    Filled, one Newton solve from the complete structure comes first; if it
    is refused, or unfilled, the continuation of the module docstring runs
    and its refusal names the parameter reached. Each relation must end
    within ``TOLERANCES.filling_residual`` times max(1, its scale) of 0.
    """
    theta = float(theta)
    if not 0.0 <= theta <= THETA_MAX:
        raise SurgeryError(f"theta {theta} outside [0, {THETA_MAX}]")
    first = _first_cusp_residual(slope1, 1.0)

    def residual_at(th: float) -> _Residual:
        return first, _second_cusp_residual(slope2, th)

    if slope1 is None:
        pt = _continue_parameter(_COMPLETE, residual_at, theta, _THETA_STEP_MIN, "theta")
    else:
        try:
            pt = _newton(_COMPLETE, residual_at(theta))
        except (SurgeryError, GluingError):
            base = _filled_base(slope1)
            pt = _continue_parameter(base, residual_at, theta, _THETA_STEP_MIN, "theta")
            if theta == 0.0:
                pt = _newton(pt, residual_at(0.0))
    structure = SolvedStructure(point=pt, slope1=slope1, slope2=slope2, theta=theta)
    logs, tol = _logs(pt), TOLERANCES.filling_residual
    r1, r2 = structure.filling_residuals()
    for r, row in zip((r1, r2), residual_at(theta)):
        if not _within(row, r, logs, tol):
            raise SurgeryError(f"filling residuals {(r1, r2)!r} above {tol} times their scale")
    return structure


def _meridian_pinned_sampler(base: VarietyPoint, first: _Row) -> Callable:
    """Sampler s -> (m2, l2) solving {first-cusp relation, m2 = -1 + s} from base.

    A number s is one Newton solve. An ndarray of s is one Newton pass with
    a problem per s, returning arrays; a refused problem names its s.
    """

    def sample(s):
        try:
            pt = _newton(base, (first, _pinned_meridian(s)))
        except ValueError as exc:
            if getattr(exc, "row", None) is None or not isinstance(s, np.ndarray):
                raise
            raise type(exc)(f"s = {complex(s[exc.row])!r}: {exc.reason}") from exc
        return pt.eigenvalues.m2, pt.eigenvalues.l2

    return sample


def unfilled_curve_sampler() -> Callable[[complex], tuple[complex, complex]]:
    """Sampler of the second-cusp eigenvalue curve with the first cusp complete."""
    return _meridian_pinned_sampler(_COMPLETE, _first_cusp_residual(None, 1.0))


def filled_curve_sampler(slope1: Slope) -> Callable[[complex], tuple[complex, complex]]:
    """Sampler of the second-cusp curve with the first cusp filled along slope1.

    Solves the filled base point once; each call is an independent Newton
    solve from that point (one Newton pass for an array of s), so the
    sampler is reentrant. Small slopes put the filled base point outside
    the chart, hence the norm floor.
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
